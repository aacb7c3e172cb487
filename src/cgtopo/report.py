"""Analysis orchestration and report serialization.

A report is a JSON-native dict with a fixed top-level key set; every
selected metric appears exactly once, either as a value object or as a
{"skipped": reason} marker.  Undefined quantities inside a metric are
tagged nulls (value null plus a reason string), never NaN.  Reports
serialize deterministically: same input and config, same bytes.

Metrics other than component statistics run on the largest weakly
connected component; component statistics describe the full graph.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import degree as deg
from . import epidemic, paths, topology
from .corpus import CorpusEntry, load_entry, read_manifest
from .generators import GNM, RandomGraphSpec, generate_random
from .graph import CallGraph, CallGraphError, largest_wcc, load_graph

VERSION = "0.1.0"

METRICS = (
    "degree",
    "assortativity",
    "scale_free",
    "clustering",
    "clustering_profile",
    "geodesic",
    "betweenness",
    "components",
    "reciprocity",
    "spectral",
)

# the scalar summary set: per-program figures, not per-node distributions
CORPUS_DEFAULT_METRICS = (
    "degree",
    "assortativity",
    "scale_free",
    "clustering",
    "geodesic",
    "components",
    "reciprocity",
    "spectral",
)

_SUMMARY_COLUMNS = (
    "label",
    "language",
    "domain",
    "error",
    "n",
    "m",
    "avg_degree",
    "gamma_in",
    "gamma_out",
    "lambda1",
    "beta_c",
    "S",
    "global_c",
    "assortativity_in_in",
    "assortativity_out_out",
    "assortativity_total",
    "ell",
    "wcc_count",
    "scc_count",
    "pct_scc",
    "reciprocity_rho",
)


class ConfigError(CallGraphError):
    """Invalid analysis configuration."""


@dataclass(frozen=True)
class AnalysisConfig:
    input_path: str | None = None
    label: str | None = None
    fmt: str = "edgelist"
    metrics: tuple[str, ...] = METRICS
    seed: int = 0
    directed_geodesics: bool = False
    d_max: int = 6
    tolerance: float = 1e-10
    strict: bool = False
    output: str = "json"


def _validate_config(config: AnalysisConfig) -> None:
    if not config.metrics:
        raise ConfigError("metric selection is empty")
    unknown = [m for m in config.metrics if m not in METRICS]
    if unknown:
        raise ConfigError(f"unknown metrics: {', '.join(unknown)}")
    if config.fmt not in ("edgelist", "dot"):
        raise ConfigError(f"unknown input format: {config.fmt!r}")
    if config.output not in ("json", "csv"):
        raise ConfigError(f"unknown output format: {config.output!r}")
    if config.d_max < 1:
        raise ConfigError(f"--d-max must be >= 1, got {config.d_max}")
    if not 0 < config.tolerance < float("inf"):
        raise ConfigError(f"--tolerance must be in (0, inf), got {config.tolerance}")


def _degree_section(wcc: CallGraph, extras: dict) -> dict:
    section = {}
    for mode in ("in", "out"):
        seq = deg.degree_sequence(wcc, mode)
        summary = deg.degree_summary(seq)
        entry: dict = {
            "summary": {"mean": summary.mean, "variance": summary.variance},
            "zero_fraction": sum(1 for v in seq.values if v == 0) / seq.n,
        }
        extras[f"ccdf_{mode}"] = deg.empirical_ccdf(seq)
        try:
            pl = deg.fit_power_law(seq)
            entry["power_law"] = {
                "gamma": pl.gamma,
                "x_min": pl.x_min,
                "n_tail": pl.n_tail,
                "log_likelihood": pl.log_likelihood,
                "ks_stat": pl.ks_stat,
            }
        except CallGraphError as exc:
            pl = None
            entry["power_law"] = {"skipped": str(exc)}
        if pl is None:
            entry["exponential"] = {"skipped": "no power-law tail to share"}
            entry["comparison"] = {"skipped": "no power-law tail to share"}
        else:
            try:
                ex = deg.fit_exponential(seq, pl.x_min)
                entry["exponential"] = {
                    "rate": ex.rate,
                    "x_min": ex.x_min,
                    "log_likelihood": ex.log_likelihood,
                }
                cmp = deg.compare_fits(pl, ex, seq)
                entry["comparison"] = {
                    "lr": cmp.lr,
                    "normalized_lr": cmp.normalized_lr,
                    "verdict": cmp.verdict,
                }
            except CallGraphError as exc:
                entry["exponential"] = {"skipped": str(exc)}
                entry["comparison"] = {"skipped": str(exc)}
        section[mode] = entry
    return section


def _assortativity_section(wcc: CallGraph) -> dict:
    section = {}
    for mode in topology.ASSORTATIVITY_MODES:
        res = topology.assortativity(wcc, mode)
        section[mode] = {"rho": res.rho, "reason": res.reason}
    return section


def _clustering_section(wcc: CallGraph) -> dict:
    res = topology.clustering(wcc)
    section = {
        "global_c": res.global_c,
        "reason": res.reason,
        "defined_count": res.defined_count,
        "by_degree": {str(k): v for k, v in res.by_degree.items()},
    }
    try:
        fit = topology.clustering_by_degree_fit(res)
        section["slope_fit"] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual_ss": fit.residual_ss,
            "n_points": fit.n_points,
        }
    except CallGraphError as exc:
        section["slope_fit"] = {"skipped": str(exc)}
    return section


def _profile_section(wcc: CallGraph, d_max: int) -> dict:
    prof = topology.clustering_profile(wcc, d_max)
    return {
        "d_max": prof.d_max,
        "aggregate": {str(d): v for d, v in prof.aggregate.items()},
        "beyond_fraction": prof.beyond_fraction,
        "disconnected_fraction": prof.disconnected_fraction,
        "eligible_count": prof.eligible_count,
        "cells": {
            str(d): {str(k): v for k, v in row.items()}
            for d, row in prof.cells.items()
        },
    }


def _geodesic_section(wcc: CallGraph, directed: bool) -> dict:
    geo = paths.harmonic_geodesic_mean(wcc, directed=directed)
    return {
        "harmonic_mean_ell": geo.harmonic_mean_ell,
        "reason": geo.reason,
        "inverse_distance_sum": geo.inverse_distance_sum,
        "reachable_pair_fraction": geo.reachable_pair_fraction,
        "directed": geo.directed,
    }


def _betweenness_section(wcc: CallGraph, extras: dict) -> dict:
    res = paths.betweenness(wcc)
    dist = paths.betweenness_distribution(res)
    ranked = sorted(
        zip(wcc.names, res.values), key=lambda pair: (-pair[1], pair[0])
    )
    extras["betweenness"] = ranked
    n = len(res.values)
    return {
        "max": max(res.values),
        "mean": sum(res.values) / n,
        "zero_fraction": dist.zero_count / n,
        "top": [[name, value] for name, value in ranked[:10]],
        "histogram": [[lo, hi, count] for lo, hi, count in dist.buckets],
    }


def _components_section(full: CallGraph) -> dict:
    stats = paths.component_stats(full)
    return {
        "wcc_count": stats.wcc_count,
        "scc_count": stats.scc_count,
        "scc_nontrivial_count": stats.scc_nontrivial_count,
        "largest_scc_fraction": stats.largest_scc_fraction,
        "largest_wcc_size": stats.largest_wcc_size,
    }


def _reciprocity_section(wcc: CallGraph) -> dict:
    res = topology.reciprocity(wcc)
    return {
        "varrho": res.varrho,
        "a_bar": res.a_bar,
        "rho": res.rho,
        "reason": res.reason,
    }


def _spectral_section(wcc: CallGraph, tolerance: float) -> dict:
    res = epidemic.spectral_radius(wcc, tolerance=tolerance)
    return {
        "lambda1": res.lambda1,
        "beta_c": res.beta_c,
        "iterations": res.iterations,
        "residual": res.residual,
    }


def analyze_graph(
    g: CallGraph, config: AnalysisConfig, label: str
) -> tuple[dict, dict, list[str]]:
    """Run the selected metrics on one canonical graph.

    Returns (report, extras, failures): extras hold the per-node and
    per-degree arrays that only the CSV bundle needs; failures list the
    metrics that raised and were marked skipped.
    """
    _validate_config(config)
    wcc = largest_wcc(g)
    extras: dict = {}
    failures: list[str] = []
    report: dict = {
        "version": VERSION,
        "config": {
            "input": config.input_path,
            "label": label,
            "format": config.fmt,
            "metrics": list(config.metrics),
            "seed": config.seed,
            "directed_geodesics": config.directed_geodesics,
            "d_max": config.d_max,
            "tolerance": config.tolerance,
            "strict": config.strict,
        },
        "graph": {
            "label": label,
            "n": g.n,
            "m": g.m,
            "directed": g.directed,
            "dropped_self_loops": g.dropped_self_loops,
            "dropped_duplicates": g.dropped_duplicates,
            "wcc_n": wcc.n,
            "wcc_m": wcc.m,
        },
        "baseline": None,
    }
    runners = {
        "degree": lambda: _degree_section(wcc, extras),
        "assortativity": lambda: _assortativity_section(wcc),
        "scale_free": lambda: topology.scale_free_metric(wcc).__dict__,
        "clustering": lambda: _clustering_section(wcc),
        "clustering_profile": lambda: _profile_section(wcc, config.d_max),
        "geodesic": lambda: _geodesic_section(wcc, config.directed_geodesics),
        "betweenness": lambda: _betweenness_section(wcc, extras),
        "components": lambda: _components_section(g),
        "reciprocity": lambda: _reciprocity_section(wcc),
        "spectral": lambda: _spectral_section(wcc, config.tolerance),
    }
    for name in METRICS:
        if name not in config.metrics:
            report[name] = {"skipped": "not selected"}
            continue
        try:
            report[name] = runners[name]()
        except CallGraphError as exc:
            report[name] = {"skipped": str(exc)}
            failures.append(name)
    return report, extras, failures


def analyze(config: AnalysisConfig) -> dict:
    """Load, canonicalize, restrict to the largest WCC, run metrics."""
    if config.input_path is None:
        raise ConfigError("no input path configured")
    g = load_graph(config.input_path, config.fmt)
    label = config.label or config.input_path
    report, _, _ = analyze_graph(g, config, label)
    return report


def _scalar(report: dict, *key_path):
    node = report
    for key in key_path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def summary_row(entry: CorpusEntry, report: dict | None, error: str | None) -> dict:
    row = dict.fromkeys(_SUMMARY_COLUMNS)
    row["label"] = entry.label
    row["language"] = entry.language
    row["domain"] = entry.domain
    row["error"] = error
    if report is None:
        return row
    row["n"] = report["graph"]["n"]
    row["m"] = report["graph"]["m"]
    row["avg_degree"] = _scalar(report, "degree", "in", "summary", "mean")
    row["gamma_in"] = _scalar(report, "degree", "in", "power_law", "gamma")
    row["gamma_out"] = _scalar(report, "degree", "out", "power_law", "gamma")
    row["lambda1"] = _scalar(report, "spectral", "lambda1")
    row["beta_c"] = _scalar(report, "spectral", "beta_c")
    row["S"] = _scalar(report, "scale_free", "S")
    row["global_c"] = _scalar(report, "clustering", "global_c")
    row["assortativity_in_in"] = _scalar(report, "assortativity", "in_in", "rho")
    row["assortativity_out_out"] = _scalar(report, "assortativity", "out_out", "rho")
    row["assortativity_total"] = _scalar(report, "assortativity", "total", "rho")
    row["ell"] = _scalar(report, "geodesic", "harmonic_mean_ell")
    row["wcc_count"] = _scalar(report, "components", "wcc_count")
    row["scc_count"] = _scalar(report, "components", "scc_count")
    row["pct_scc"] = _scalar(report, "components", "largest_scc_fraction")
    row["reciprocity_rho"] = _scalar(report, "reciprocity", "rho")
    return row


def _corpus_worker(task: tuple[CorpusEntry, AnalysisConfig]) -> tuple[str, object]:
    entry, config = task
    try:
        g = load_entry(entry, config.fmt)
        cfg = replace(config, input_path=entry.path, label=entry.label)
        report, _, failures = analyze_graph(g, cfg, entry.label)
        if failures and config.strict:
            return "error", f"metrics failed: {', '.join(failures)}"
        return "ok", report
    except (CallGraphError, OSError) as exc:
        return "error", str(exc)


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def analyze_corpus(manifest_path, config: AnalysisConfig, jobs: int = 1) -> dict:
    """One report per manifest entry plus a per-program summary table.

    Entries may run in parallel, largest input file first; output order
    always follows the manifest, so parallel and serial runs serialize
    identically.
    """
    _validate_config(config)
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    entries = read_manifest(manifest_path)
    tasks = [(entry, config) for entry in entries]
    if jobs == 1 or len(tasks) <= 1:
        outcomes = [_corpus_worker(task) for task in tasks]
    else:
        # the metrics import scipy where they call it; importing it here,
        # before the fork, lets the workers share one copy
        import scipy.optimize  # noqa: F401
        import scipy.sparse.csgraph  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
        import scipy.special  # noqa: F401

        # largest input first, so that the slowest entry does not start
        # last; an unreadable file sorts as empty and its worker reports it
        order = sorted(range(len(tasks)), key=lambda i: -_file_size(entries[i].path))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = dict(zip(order, pool.map(_corpus_worker, [tasks[i] for i in order])))
        outcomes = [done[i] for i in range(len(tasks))]
    reports = []
    rows = []
    failures = 0
    for entry, (status, payload) in zip(entries, outcomes):
        if status == "ok":
            reports.append({"label": entry.label, "report": payload, "error": None})
            rows.append(summary_row(entry, payload, None))
        else:
            failures += 1
            reports.append({"label": entry.label, "report": None, "error": payload})
            rows.append(summary_row(entry, None, payload))
    ok_reports = [r["report"] for r in reports if r["report"] is not None]
    if any(r.get("spectral", {}).get("lambda1") is not None for r in ok_reports):
        trend = epidemic.lambda_vs_size(ok_reports)
        lambda_trend = {
            "pairs": [[n, lam] for n, lam in trend.pairs],
            "rank_correlation": trend.rank_correlation,
        }
    else:
        lambda_trend = None
    return {
        "version": VERSION,
        "config": {
            "manifest": str(manifest_path),
            "metrics": list(config.metrics),
            "seed": config.seed,
            "strict": config.strict,
        },
        "entries": reports,
        "summary": rows,
        "lambda_vs_size": lambda_trend,
        "failures": failures,
    }


def compare_baseline(report: dict, spec: RandomGraphSpec, replicates: int) -> dict:
    """Observed clustering, geodesic mean and reciprocity against a
    random ensemble of matching size.

    Each replicate is generated from a seed derived from (spec.seed,
    replicate index), analyzed on its largest WCC, and summarized as
    mean, sample standard deviation, and observed/mean ratio.
    """
    if replicates < 2:
        raise ConfigError(f"replicates must be >= 2, got {replicates}")
    n, m = report["graph"]["n"], report["graph"]["m"]
    if spec.n != n or (spec.model == GNM and spec.m != m):
        raise ConfigError(
            f"baseline spec (n={spec.n}, m={spec.m}) does not match graph "
            f"(n={n}, m={m})"
        )
    samples: dict[str, list[float]] = {"global_c": [], "ell": [], "varrho": []}
    for r in range(replicates):
        sub_seed = int(
            np.random.SeedSequence([spec.seed, r]).generate_state(1, np.uint64)[0]
        )
        h = largest_wcc(generate_random(replace(spec, seed=sub_seed)))
        c = topology.clustering(h).global_c
        if c is not None:
            samples["global_c"].append(c)
        ell = paths.harmonic_geodesic_mean(h).harmonic_mean_ell
        if ell is not None:
            samples["ell"].append(ell)
        samples["varrho"].append(topology.reciprocity(h).varrho)
    observed = {
        "global_c": _scalar(report, "clustering", "global_c"),
        "ell": _scalar(report, "geodesic", "harmonic_mean_ell"),
        "varrho": _scalar(report, "reciprocity", "varrho"),
    }
    metrics = {}
    for key, values in samples.items():
        if len(values) >= 2:
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            std = var**0.5
        elif values:
            mean, std = values[0], None
        else:
            mean = std = None
        obs = observed[key]
        ratio = obs / mean if (obs is not None and mean) else None
        metrics[key] = {
            "observed": obs,
            "baseline_mean": mean,
            "baseline_std": std,
            "samples": len(values),
            "ratio": ratio,
        }
    return {
        "spec": {
            "model": spec.model,
            "n": spec.n,
            "m": spec.m,
            "gamma": spec.gamma,
            "seed": spec.seed,
        },
        "replicates": replicates,
        "metrics": metrics,
    }


# -- serialization ---------------------------------------------------------


def to_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, no NaN tokens, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _flatten(node, prefix: str, rows: list):
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(node, (list, tuple)):
        return  # arrays live in their own CSV files
    else:
        rows.append((prefix, node))


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def write_csv_bundle(report: dict, extras: dict, out_dir) -> list[str]:
    """Derive the CSV views from a report; returns the filenames written."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    flat: list = []
    _flatten(report, "", flat)
    (out / "metrics.csv").write_text(
        _csv_text(["key", "value"], flat), encoding="utf-8"
    )
    written.append("metrics.csv")

    for mode in ("in", "out"):
        key = f"ccdf_{mode}"
        if key in extras:
            name = f"{key}.csv"
            (out / name).write_text(
                _csv_text(["degree", "ccdf"], extras[key]), encoding="utf-8"
            )
            written.append(name)
    if "betweenness" in extras:
        (out / "betweenness.csv").write_text(
            _csv_text(["node", "betweenness"], extras["betweenness"]),
            encoding="utf-8",
        )
        written.append("betweenness.csv")
    profile = report.get("clustering_profile")
    if isinstance(profile, dict) and "cells" in profile:
        cell_rows = [
            (d, k, value)
            for d, row in sorted(profile["cells"].items(), key=lambda kv: int(kv[0]))
            for k, value in sorted(row.items(), key=lambda kv: int(kv[0]))
        ]
        (out / "clustering_profile.csv").write_text(
            _csv_text(["d", "k", "value"], cell_rows), encoding="utf-8"
        )
        agg_rows = sorted(profile["aggregate"].items(), key=lambda kv: int(kv[0]))
        (out / "clustering_profile_aggregate.csv").write_text(
            _csv_text(["d", "aggregate"], agg_rows), encoding="utf-8"
        )
        written += ["clustering_profile.csv", "clustering_profile_aggregate.csv"]
    return written


def corpus_summary_csv(corpus_result: dict) -> str:
    rows = [
        [row[col] for col in _SUMMARY_COLUMNS] for row in corpus_result["summary"]
    ]
    return _csv_text(list(_SUMMARY_COLUMNS), rows)

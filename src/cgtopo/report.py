"""Analysis orchestration and report serialization.

A report is a JSON-native dict with a fixed top-level key set; every
selected metric appears exactly once, either as a value object or as a
{"skipped": reason} marker.  Undefined quantities inside a metric are
tagged nulls (value null plus a reason string), never NaN.  A section
is its result, turned into report data by one rule (``_section``), so a
result dataclass's section holds exactly its fields.  Reports serialize
deterministically: same input and config, same bytes.

Metrics other than component statistics run on the largest weakly
connected component; component statistics describe the full graph.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, fields, is_dataclass, replace

from . import degree as deg
from . import epidemic, paths, topology
from .corpus import CorpusEntry, load_entry, read_manifest
from .generators import GNM, RandomGraphSpec, generate_random
from .graph import (
    CallGraph, CallGraphError, ConfigError, InputError, _integer, _pmap, _real, _sub_seed,
    largest_wcc, load_graph,
)

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

# corpus summary column -> key path of its value in the report
_SUMMARY_PATHS = {
    "n": ("graph", "n"),
    "m": ("graph", "m"),
    "avg_degree": ("degree", "in", "summary", "mean"),
    "gamma_in": ("degree", "in", "power_law", "gamma"),
    "gamma_out": ("degree", "out", "power_law", "gamma"),
    "lambda1": ("spectral", "lambda1"),
    "beta_c": ("spectral", "beta_c"),
    "S": ("scale_free", "S"),
    "global_c": ("clustering", "global_c"),
    "assortativity_in_in": ("assortativity", "in_in", "rho"),
    "assortativity_out_out": ("assortativity", "out_out", "rho"),
    "assortativity_total": ("assortativity", "total", "rho"),
    "ell": ("geodesic", "harmonic_mean_ell"),
    "wcc_count": ("components", "wcc_count"),
    "scc_count": ("components", "scc_count"),
    "pct_scc": ("components", "largest_scc_fraction"),
    "reciprocity_rho": ("reciprocity", "rho"),
}
_SUMMARY_COLUMNS = ("label", "language", "domain", "error", *_SUMMARY_PATHS)

# baseline measure -> key path of its value in a report
_BASELINE_PATHS = {
    "global_c": ("clustering", "global_c"),
    "ell": ("geodesic", "harmonic_mean_ell"),
    "varrho": ("reciprocity", "varrho"),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis settings, checked when built: a bad value raises
    ConfigError before any input is read."""

    input_path: str | None = None
    fmt: str = "edgelist"
    metrics: tuple[str, ...] = METRICS
    seed: int = 0
    directed_geodesics: bool = False
    d_max: int = 6
    tolerance: float = 1e-10
    strict: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.metrics, str):
            raise ConfigError(
                f"metrics must be a tuple of metric names {METRICS}, got {self.metrics!r}"
            )
        if not self.metrics:
            raise ConfigError("metric selection is empty")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ConfigError(f"unknown metrics: {', '.join(unknown)}")
        if self.fmt not in ("edgelist", "dot"):
            raise ConfigError(f"unknown input format: {self.fmt!r}")
        # the class is frozen, so the checked values go in by object.__setattr__
        object.__setattr__(self, "d_max", _integer("--d-max", self.d_max, 1))
        tolerance = _real("--tolerance", self.tolerance)
        if not 0 < tolerance < math.inf:
            raise ConfigError(f"--tolerance must be in (0, inf), got {tolerance}")
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "seed", _integer("--seed", self.seed, 0))


def _section(node):
    """Report data of a result, all the way down: a dataclass becomes its
    fields, a dict key the string JSON writes for it (so JSON and the CSV
    bundle sort keys alike) and a tuple a list, so the data equals its
    JSON reload."""
    if is_dataclass(node):
        node = {f.name: getattr(node, f.name) for f in fields(node)}
    if isinstance(node, dict):
        return {str(k): _section(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_section(v) for v in node]
    return node


def _attempt(compute, *args) -> tuple[object, dict]:
    """(result, section): ``compute(*args)`` and its report section;
    (None, a skip marker) if it raises."""
    try:
        result = compute(*args)
    except CallGraphError as exc:
        return None, {"skipped": str(exc)}
    return result, _section(result)


def _degree_section(wcc: CallGraph, extras: dict) -> dict:
    section = {}
    for mode in ("in", "out"):
        seq = deg.degree_sequence(wcc, mode)
        entry: dict = {
            "summary": deg.degree_summary(seq),
            "zero_fraction": sum(1 for v in seq.values if v == 0) / seq.n,
        }
        extras[f"ccdf_{mode}"] = deg.empirical_ccdf(seq)
        pl, entry["power_law"] = _attempt(deg.fit_power_law, seq)
        if pl is None:
            entry["exponential"] = {"skipped": "no power-law tail to share"}
            entry["comparison"] = {"skipped": "no power-law tail to share"}
        else:
            ex, entry["exponential"] = _attempt(deg.fit_exponential, seq, pl.x_min)
            entry["comparison"] = (
                entry["exponential"]
                if ex is None
                else _attempt(deg.compare_fits, pl, ex, seq)[1]
            )
        section[mode] = entry
    return section


def _clustering_section(wcc: CallGraph) -> dict:
    res = topology.clustering(wcc)
    return {
        "global_c": res.global_c,
        "reason": res.reason,
        "defined_count": res.defined_count,
        "by_degree": res.by_degree,
        "slope_fit": _attempt(topology.clustering_by_degree_fit, res)[1],
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
        "top": ranked[:10],
        "histogram": dist.buckets,
    }


def analyze_graph(
    g: CallGraph, config: AnalysisConfig, label: str
) -> tuple[dict, dict, list[str]]:
    """Run the selected metrics on one canonical graph.

    Returns (report, extras, failures): extras hold the per-node and
    per-degree arrays that only the CSV bundle needs; failures list the
    metrics that raised and were marked skipped.
    """
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
        "assortativity": lambda: {
            mode: topology.assortativity(wcc, mode)
            for mode in topology.ASSORTATIVITY_MODES
        },
        "scale_free": lambda: topology.scale_free_metric(wcc),
        "clustering": lambda: _clustering_section(wcc),
        "clustering_profile": lambda: topology.clustering_profile(wcc, config.d_max),
        "geodesic": lambda: paths.harmonic_geodesic_mean(
            wcc, directed=config.directed_geodesics
        ),
        "betweenness": lambda: _betweenness_section(wcc, extras),
        "components": lambda: paths.component_stats(g),
        "reciprocity": lambda: topology.reciprocity(wcc),
        "spectral": lambda: epidemic.spectral_radius(wcc, tolerance=config.tolerance),
    }
    for name in METRICS:
        if name not in config.metrics:
            report[name] = {"skipped": "not selected"}
            continue
        result, report[name] = _attempt(runners[name])
        if result is None:
            failures.append(name)
    return report, extras, failures


def analyze(config: AnalysisConfig) -> dict:
    """Load, canonicalize, restrict to the largest WCC, run metrics."""
    if config.input_path is None:
        raise ConfigError("no input path configured")
    g = load_graph(config.input_path, config.fmt)
    report, _, _ = analyze_graph(g, config, config.input_path)
    return report


def _scalar(report: dict, *key_path):
    node = report
    for key in key_path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def summary_row(entry: CorpusEntry, report: dict | None, error: str | None) -> dict:
    row = {
        "label": entry.label,
        "language": entry.language,
        "domain": entry.domain,
        "error": error,
    }
    for column, key_path in _SUMMARY_PATHS.items():
        row[column] = _scalar(report or {}, *key_path)
    return row


def _corpus_worker(task: tuple[CorpusEntry, AnalysisConfig]) -> tuple:
    """``(report, None)`` for an entry analyzed, ``(None, error)`` else."""
    entry, config = task
    try:
        g = load_entry(entry, config.fmt)
        cfg = replace(config, input_path=entry.path)
        report, _, failures = analyze_graph(g, cfg, entry.label)
        if failures and config.strict:
            return None, f"metrics failed: {', '.join(failures)}"
        return report, None
    except (CallGraphError, OSError) as exc:
        return None, str(exc)


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def analyze_corpus(manifest_path, config: AnalysisConfig, jobs: int = 1) -> dict:
    """One report per manifest entry plus a per-program summary table.

    Entries run on up to ``jobs`` forked workers, largest input file
    first, and each worker runs the metric kernels serially; output
    order always follows the manifest, so parallel and serial runs
    serialize identically.
    """
    jobs = _integer("jobs", jobs, 1)
    entries = read_manifest(manifest_path)
    # largest input first, so that the slowest entry does not start
    # last; an unreadable file sorts as empty and its worker reports it
    order = sorted(range(len(entries)), key=lambda i: -_file_size(entries[i].path))
    tasks = [(entries[i], config) for i in order]
    done = dict(zip(order, _pmap(_corpus_worker, (), tasks, jobs)))
    reports = []
    rows = []
    for i, entry in enumerate(entries):
        report, error = done[i]
        reports.append({"label": entry.label, "report": report, "error": error})
        rows.append(summary_row(entry, report, error))
    pairs = [(row["n"], row["lambda1"]) for row in rows if row["lambda1"] is not None]
    lambda_trend = _section(epidemic.lambda_vs_size(pairs)) if pairs else None
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
        "failures": sum(row["error"] is not None for row in rows),
    }


def compare_baseline(report: dict, spec: RandomGraphSpec, replicates: int) -> dict:
    """Observed clustering, geodesic mean and reciprocity against a
    random ensemble of matching size.

    Each replicate is generated from a seed derived from (spec.seed,
    replicate index), analyzed by ``analyze_graph``, and summarized as
    mean, sample standard deviation, and observed/mean ratio.  Replicate
    geodesics follow edge directions when the report's do.  A measure a
    replicate leaves undefined is not sampled.
    """
    replicates = _integer("replicates", replicates, 2)
    n, m = report["graph"]["n"], report["graph"]["m"]
    if spec.n != n or (spec.model == GNM and spec.m != m):
        raise InputError(
            f"baseline spec (n={spec.n}, m={spec.m}) does not match graph "
            f"(n={n}, m={m})"
        )
    config = AnalysisConfig(
        metrics=("clustering", "geodesic", "reciprocity"),
        directed_geodesics=report["config"]["directed_geodesics"],
    )
    samples: dict[str, list[float]] = {key: [] for key in _BASELINE_PATHS}
    for r in range(replicates):
        h = generate_random(replace(spec, seed=_sub_seed(spec.seed, r)))
        replicate, _, _ = analyze_graph(h, config, f"replicate {r}")
        for key, key_path in _BASELINE_PATHS.items():
            value = _scalar(replicate, *key_path)
            if value is not None:
                samples[key].append(value)
    metrics = {}
    for key, values in samples.items():
        mean = sum(values) / len(values) if values else None
        std = None
        if len(values) >= 2:
            std = (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
        obs = _scalar(report, *_BASELINE_PATHS[key])
        ratio = obs / mean if (obs is not None and mean) else None
        metrics[key] = {
            "observed": obs,
            "baseline_mean": mean,
            "baseline_std": std,
            "samples": len(values),
            "ratio": ratio,
        }
    return {
        "spec": _section(spec),
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

    flat: list = []
    _flatten(report, "", flat)
    # (filename, header, rows) in write order
    files = [("metrics.csv", ["key", "value"], flat)]
    for key in ("ccdf_in", "ccdf_out"):
        if key in extras:
            files.append((f"{key}.csv", ["degree", "ccdf"], extras[key]))
    if "betweenness" in extras:
        files.append(("betweenness.csv", ["node", "betweenness"], extras["betweenness"]))
    profile = report.get("clustering_profile")
    if isinstance(profile, dict) and "cells" in profile:
        cell_rows = [
            (d, k, value)
            for d, row in sorted(profile["cells"].items(), key=lambda kv: int(kv[0]))
            for k, value in sorted(row.items(), key=lambda kv: int(kv[0]))
        ]
        agg_rows = sorted(profile["aggregate"].items(), key=lambda kv: int(kv[0]))
        files.append(("clustering_profile.csv", ["d", "k", "value"], cell_rows))
        files.append(("clustering_profile_aggregate.csv", ["d", "aggregate"], agg_rows))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in files:
        (out / name).write_text(_csv_text(header, rows), encoding="utf-8")
    return [name for name, _, _ in files]


def corpus_summary_csv(corpus_result: dict) -> str:
    rows = [
        [row[col] for col in _SUMMARY_COLUMNS] for row in corpus_result["summary"]
    ]
    return _csv_text(list(_SUMMARY_COLUMNS), rows)

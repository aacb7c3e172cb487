"""Command-line front end.

Verbs: analyze (one graph), corpus (manifest batch), baseline (analyze
plus random-ensemble comparison), simulate (one SIS run), sweep
(extinction fraction across beta/delta ratios).

Exit codes: 0 success, 1 partial failure, 2 input error, 3 config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .epidemic import SisParams, sis_simulate, sweep_betas, threshold_sweep
from .generators import ERASED_CONFIG, GNM, RandomGraphSpec
from .graph import CallGraphError, ConfigError, InputError, _INPUT_FORMATS, _integer
from .report import (
    CORPUS_DEFAULT_METRICS,
    METRICS,
    AnalysisConfig,
    analyze_corpus,
    analyze_graph,
    compare_baseline,
    corpus_summary_csv,
    load_graph,
    to_json,
    write_csv_bundle,
    _csv_text,
    _section,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3


def _flag_groups() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The I/O flags of every verb, and those plus the analysis flags of
    analyze, corpus and baseline."""
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument(
        "--format", choices=_INPUT_FORMATS, default="edgelist",
        help="input graph format",
    )
    io.add_argument("--seed", type=int, default=0, help="base seed (u64)")
    io.add_argument(
        "--output", choices=("json", "csv"), default="json",
        help="report serialization",
    )
    io.add_argument("--out", default=None, help="write outputs into this directory")
    analysis = argparse.ArgumentParser(add_help=False, parents=[io])
    analysis.add_argument(
        "--metrics", default=None,
        help="comma-separated metric list, or 'all' (default: all for "
        "analyze, the scalar summary set for corpus)",
    )
    analysis.add_argument(
        "--strict", action="store_true",
        help="treat per-metric failures as run failures",
    )
    analysis.add_argument(
        "--directed-geodesics", action="store_true",
        help="measure geodesics along edge directions instead of the symmetrized view",
    )
    analysis.add_argument("--d-max", type=int, default=6, help="clustering-profile depth")
    analysis.add_argument(
        "--tolerance", type=float, default=1e-10, help="spectral residual tolerance"
    )
    return io, analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgtopo",
        description="topological metrics and epidemic-threshold analysis "
        "for static call graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    io, analysis = _flag_groups()

    p = sub.add_parser("analyze", parents=[analysis], help="analyze one graph")
    p.add_argument("path")

    p = sub.add_parser("corpus", parents=[analysis], help="analyze a manifest of graphs")
    p.add_argument("manifest")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser(
        "baseline", parents=[analysis],
        help="analyze and compare against a size-matched random ensemble",
    )
    p.add_argument("path")
    p.add_argument("--replicates", type=int, default=30)
    p.add_argument("--model", choices=(GNM, ERASED_CONFIG), default=GNM)
    p.add_argument("--gamma", type=float, default=None)

    sim = sub.add_parser("simulate", parents=[io], help="run one SIS trace")
    sim.add_argument("path")
    sim.add_argument("--beta", type=float, required=True)
    sim.add_argument("--delta", type=float, required=True)
    sim.add_argument("--steps", type=int, default=500)
    sim.add_argument("--initial-count", type=int, default=1)
    sim.add_argument("--initial-nodes", default=None, help="comma-separated node ids")

    sw = sub.add_parser("sweep", parents=[io], help="extinction sweep over ratios")
    sw.add_argument("path")
    sw.add_argument("--ratios", required=True, help="comma-separated beta/delta ratios")
    sw.add_argument("--runs", type=int, default=100)
    sw.add_argument("--delta", type=float, default=1.0)
    sw.add_argument("--steps", type=int, default=500)
    sw.add_argument("--initial-count", type=int, default=1)
    sw.add_argument("--initial-nodes", default=None)
    return parser


def _parse_metrics(raw: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if raw is None:
        return default
    if raw.strip() == "all":
        return METRICS
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _config(args, default_metrics: tuple[str, ...]) -> AnalysisConfig:
    """The analysis config of analyze, baseline and corpus, checked before
    any input is read."""
    if args.output == "csv" and args.out is None:
        raise ConfigError("--output csv needs --out <dir>")
    return AnalysisConfig(
        input_path=getattr(args, "path", None),
        fmt=args.format,
        metrics=_parse_metrics(args.metrics, default_metrics),
        seed=args.seed,
        directed_geodesics=args.directed_geodesics,
        d_max=args.d_max,
        tolerance=args.tolerance,
        strict=args.strict,
    )


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    dest = Path(out_dir)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / filename).write_text(text, encoding="utf-8")
    print(dest / filename)


def _numbers(raw: str, kind, flag: str) -> list:
    """Comma-separated flag value parsed with ``kind``; blanks skipped."""
    try:
        return [kind(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers: {raw!r}") from None


def _initial(args) -> tuple[int, ...] | int:
    if args.initial_nodes:
        return tuple(_numbers(args.initial_nodes, int, "--initial-nodes"))
    return args.initial_count


def _run_analyze(args) -> int:
    """analyze, and baseline: analyze plus the random-ensemble section."""
    config = _config(args, METRICS)
    baseline = args.command == "baseline"
    if baseline:
        # checked now with a stand-in size; the graph's replaces it
        _integer("--replicates", args.replicates, 2)
        spec = RandomGraphSpec(args.model, n=1, gamma=args.gamma, seed=args.seed)
    g = load_graph(args.path, args.format)
    report, extras, failures = analyze_graph(g, config, label=args.path)
    if baseline:
        spec = replace(spec, n=g.n, m=g.m)
        report["baseline"] = compare_baseline(report, spec, args.replicates)
    _emit(to_json(report), args.out, "report.json")
    if args.output == "csv":
        write_csv_bundle(report, extras, args.out)
    if failures and args.strict:
        print(f"failed metrics: {', '.join(failures)}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _run_corpus(args) -> int:
    config = _config(args, CORPUS_DEFAULT_METRICS)
    result = analyze_corpus(args.manifest, config, jobs=args.jobs)
    _emit(to_json(result), args.out, "corpus.json")
    if args.output == "csv":
        _emit(corpus_summary_csv(result), args.out, "summary.csv")
    if result["failures"]:
        for entry in result["entries"]:
            if entry["error"] is not None:
                print(f"{entry['label']}: {entry['error']}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _sis_params(args, beta: float) -> SisParams:
    """The SIS parameters of simulate and sweep; building them checks them."""
    return SisParams(
        beta=beta,
        delta=args.delta,
        initial_infected=_initial(args),
        max_steps=args.steps,
        seed=args.seed,
    )


def _run_simulate(args) -> int:
    params = _sis_params(args, args.beta)
    g = load_graph(args.path, args.format)
    trace = sis_simulate(g, params)
    if args.output == "csv":
        rows = list(enumerate(trace.infected_per_step))
        _emit(_csv_text(["step", "infected"], rows), args.out, "trace.csv")
    else:
        payload = {
            "infected_per_step": list(trace.infected_per_step),
            "outcome": trace.outcome,
            "extinct_step": trace.extinct_step,
            "final_infected_count": len(trace.final_infected),
            "params": {
                "beta": args.beta,
                "delta": args.delta,
                "max_steps": args.steps,
                "seed": args.seed,
            },
        }
        _emit(to_json(payload), args.out, "trace.json")
    return EXIT_OK


def _run_sweep(args) -> int:
    ratios = _numbers(args.ratios, float, "--ratios")
    base = _sis_params(args, 0.0)
    sweep_betas(ratios, args.runs, args.delta)
    g = load_graph(args.path, args.format)
    sweep = threshold_sweep(g, ratios, args.runs, base)
    if args.output == "csv":
        rows = [
            (ratio, prob, sweep.runs_per_ratio)
            for ratio, prob in zip(sweep.ratios, sweep.extinction_prob)
        ]
        _emit(_csv_text(["ratio", "extinction_prob", "runs"], rows), args.out, "sweep.csv")
    else:
        params = {"delta": args.delta, "max_steps": args.steps, "seed": args.seed}
        _emit(to_json({**_section(sweep), "params": params}), args.out, "sweep.json")
    return EXIT_OK


_RUNNERS = {
    "analyze": _run_analyze,
    "corpus": _run_corpus,
    "baseline": _run_analyze,
    "simulate": _run_simulate,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CallGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

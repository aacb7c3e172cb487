"""Span recorder, cgtopo instrumentation and the per-layer split.

A span records its name, start, end, parent and the counts taken at the
same boundary.  Spans stay in memory and are written out when the
traced process ends.  Instrumentation wraps the public functions of each
cgtopo module from outside the package: every module-level name bound
to the original function is rebound to the wrapper, so calls through
``from .graph import symmetrize`` and through ``topology.clustering``
alike are recorded.

Run as a script it is the traced counterpart of one CLI run: a fresh
interpreter that imports ``cgtopo.cli`` under a span, instruments it,
runs ``cli.main`` on the given argv and writes its spans.  Corpus pool
workers (forked, so they inherit the instrumentation) write their own
spans after each entry.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path


class Recorder:
    """In-memory span store for one process (and its forked workers)."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.root_pid = os.getpid()
        self._next = 0
        self._flushed = 0

    def start(self, name: str) -> dict:
        self._next += 1
        span = {
            "id": f"{os.getpid()}-{self._next}",
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.stack.append(span["id"])
        return span

    def finish(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.start(name)
        try:
            yield span
        finally:
            self.finish(span)

    def write(self, tag: str) -> None:
        """Write the spans this process recorded since the last write."""
        pid = os.getpid()
        fresh = [s for s in self.spans[self._flushed :] if s["pid"] == pid]
        self._flushed = len(self.spans)
        path = self.out_dir / f"spans-{pid}-{tag}.json"
        path.write_text(json.dumps(fresh), encoding="utf-8")

    def traced(self, fn, name: str, counts=None, flush: bool = False):
        """Wrap ``fn`` in a span; ``counts(args, kwargs, result)`` runs
        after the span closes and adds its dict to the span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.finish(span)
            if counts is not None:
                span["counts"].update(counts(args, kwargs, result))
            if flush and os.getpid() != recorder.root_pid:
                recorder.write(span["id"])
            return result

        return wrapper


# -- what is traced --------------------------------------------------------


def _stored_arcs(g) -> int:
    return sum(len(row) for row in g.out_adj)


def _load_counts(args, kwargs, g):
    source = args[0]
    size = len(source.encode("utf-8")) if isinstance(source, str) else len(source)
    return {"bytes": size, "canonical_edges": g.m}


def _geodesic_counts(args, kwargs, res):
    g = args[0]
    view = g if kwargs.get("directed", args[1] if len(args) > 1 else False) else g.undirected
    return {"sources": view.n, "arcs_computed": view.n * _stored_arcs(view)}


def _betweenness_counts(args, kwargs, res):
    g = args[0]
    return {"arcs_computed": g.n * _stored_arcs(g)}


def _profile_counts(args, kwargs, res):
    h = args[0].undirected
    return {"pairs": sum(len(r) * (len(r) - 1) // 2 for r in h.out_adj)}


def _csv_bytes(args, kwargs, written):
    out = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    return {"bytes": sum((out / name).stat().st_size for name in written)}


# (module, function, span name, counts); span names follow the layer
# metric names in BENCHMARK.json
TARGETS = (
    ("graph", "load_edge_list", "graph.load_edge_list", _load_counts),
    ("graph", "load_dot_subset", "graph.load_dot_subset", _load_counts),
    ("graph", "largest_wcc", "graph.largest_wcc", None),
    ("graph", "symmetrize", "graph.symmetrize", None),
    ("degree", "degree_sequence", "degree.degree_sequence", None),
    ("degree", "degree_summary", "degree.degree_summary", None),
    ("degree", "empirical_ccdf", "degree.empirical_ccdf", None),
    ("degree", "fit_power_law", "degree.fit_power_law", None),
    ("degree", "fit_exponential", "degree.fit_exponential", None),
    ("degree", "compare_fits", "degree.compare_fits", None),
    ("topology", "assortativity", "topology.assortativity", None),
    ("topology", "scale_free_metric", "topology.scale_free", None),
    ("topology", "clustering", "topology.clustering", None),
    ("topology", "clustering_by_degree_fit", "topology.clustering_by_degree_fit", None),
    ("topology", "clustering_profile", "topology.clustering_profile", _profile_counts),
    ("topology", "reciprocity", "topology.reciprocity", None),
    ("paths", "harmonic_geodesic_mean", "paths.geodesic", _geodesic_counts),
    ("paths", "betweenness", "paths.betweenness", _betweenness_counts),
    ("paths", "betweenness_distribution", "paths.betweenness_distribution", None),
    ("paths", "component_stats", "paths.components", None),
    (
        "epidemic",
        "spectral_radius",
        "epidemic.spectral",
        lambda a, k, r: {"iterations": r.iterations},
    ),
    (
        "epidemic",
        "sis_simulate",
        "epidemic.sis_simulate",
        lambda a, k, r: {"steps": len(r.infected_per_step) - 1},
    ),
    ("epidemic", "threshold_sweep", "epidemic.threshold_sweep", None),
    ("epidemic", "lambda_vs_size", "epidemic.lambda_vs_size", None),
    ("report", "load_graph", "report.load_graph", None),
    ("report", "analyze_graph", "report.analyze_graph", None),
    ("report", "analyze_corpus", "report.analyze_corpus", None),
    ("report", "to_json", "report.to_json", lambda a, k, r: {"bytes": len(r.encode())}),
    ("report", "write_csv_bundle", "report.write_csv_bundle", _csv_bytes),
    ("report", "corpus_summary_csv", "report.corpus_summary_csv", None),
    ("corpus", "read_manifest", "corpus.read_manifest", None),
    ("corpus", "load_entry", "corpus.load_entry", None),
)


def instrument(recorder: Recorder) -> None:
    """Rebind every cgtopo module-level reference to each target."""
    import cgtopo.graph

    modules = [m for name, m in sys.modules.items() if name.startswith("cgtopo")]
    for module_name, attr, span_name, counts in TARGETS:
        original = getattr(sys.modules[f"cgtopo.{module_name}"], attr)
        wrapper = recorder.traced(original, span_name, counts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    # one corpus entry per pool task; workers write their spans after each
    report = sys.modules["cgtopo.report"]
    report._corpus_worker = recorder.traced(
        report._corpus_worker, "corpus.entry", flush=True
    )
    # the lazily built sparse adjacency is a cached_property
    cls = cgtopo.graph.CallGraph
    prop = functools.cached_property(
        recorder.traced(cls.__dict__["adjacency"].func, "graph.adjacency")
    )
    prop.__set_name__(cls, "adjacency")
    cls.adjacency = prop


# -- the per-layer split ---------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, float]:
    """Duration minus the part of the span's interval its children cover.

    Children of one span may overlap (parallel workers); their union is
    subtracted, clipped to the parent's interval.
    """
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ancestors(span: dict, by_id: dict) -> list[str]:
    names = []
    parent = span["parent"]
    while parent is not None and parent in by_id:
        names.append(by_id[parent]["name"])
        parent = by_id[parent]["parent"]
    return names


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``trace`` holds the merged spans of every process and the traced
    process's id; ``traced_wall_s`` is that process's wall time from
    spawn to exit, comparable with the untraced ``wall_s``.  Layers that
    never ran report 0.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m: dict[str, float] = {}
    for name in (
        "graph.load_dot_subset",
        "graph.load_edge_list",
        "graph.largest_wcc",
        "graph.symmetrize",
        "graph.adjacency",
        "paths.betweenness",
        "topology.clustering_profile",
        "paths.geodesic",
        "epidemic.spectral",
        "epidemic.threshold_sweep",
        "topology.assortativity",
        "topology.scale_free",
        "topology.clustering",
        "topology.reciprocity",
        "paths.components",
        "report.to_json",
        "report.write_csv_bundle",
        "corpus.read_manifest",
        "corpus.load_entry",
    ):
        m[f"{name}.s"] = total(name)
    load_s = m["graph.load_dot_subset.s"] + m["graph.load_edge_list.s"]
    load_bytes = count("graph.load_dot_subset", "bytes") + count("graph.load_edge_list", "bytes")
    m["graph.load.bytes"] = load_bytes
    m["graph.load.mb_per_s"] = ratio(load_bytes / 1e6, load_s)
    m["graph.canonical_edges"] = count("graph.load_dot_subset", "canonical_edges") + count(
        "graph.load_edge_list", "canonical_edges"
    )
    sweep_s = m["epidemic.threshold_sweep.s"]
    rebuild = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in ("graph.symmetrize", "graph.adjacency")
        and "epidemic.sis_simulate" in _ancestors(s, by_id)
    )
    m["graph.rebuild_share"] = ratio(rebuild, sweep_s)
    m["graph.rebuild_share.base_s"] = sweep_s
    m["paths.betweenness.arcs_computed"] = count("paths.betweenness", "arcs_computed")
    pairs = count("topology.clustering_profile", "pairs")
    m["topology.clustering_profile.pairs"] = pairs
    m["topology.clustering_profile.pairs_per_s"] = ratio(pairs, m["topology.clustering_profile.s"])
    m["paths.geodesic.sources"] = count("paths.geodesic", "sources")
    m["paths.geodesic.arcs_computed"] = count("paths.geodesic", "arcs_computed")
    m["epidemic.spectral.iterations"] = count("epidemic.spectral", "iterations")
    sis = [s["end"] - s["start"] for s in named("epidemic.sis_simulate")]
    m["epidemic.sis_simulate.s"] = statistics.median(sis) if sis else 0.0
    m["epidemic.sis_runs"] = len(sis)
    steps = count("epidemic.sis_simulate", "steps")
    m["epidemic.sis_steps"] = steps
    m["epidemic.sis_steps_per_s"] = ratio(steps, sum(sis))
    m["degree.s"] = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"].startswith("degree.")
        and not any(a.startswith("degree.") for a in _ancestors(s, by_id))
    )
    m["report.analyze_graph.self_s"] = sum(selfs[s["id"]] for s in named("report.analyze_graph"))
    m["report.to_json.bytes"] = count("report.to_json", "bytes")
    m["report.write_csv_bundle.bytes"] = count("report.write_csv_bundle", "bytes")
    loads = [s["end"] - s["start"] for s in named("corpus.load_entry")]
    m["corpus.load_entry.max_s"] = max(loads, default=0.0)
    entries = [s["end"] - s["start"] for s in named("corpus.entry")]
    m["corpus.entry_s.max"] = max(entries, default=0.0)
    m["corpus.parallel_efficiency"] = ratio(sum(entries), jobs * total("report.analyze_corpus"))
    m["cli.import.s"] = total("cli.import")
    top = sum(
        s["end"] - s["start"] for s in spans if s["parent"] is None and s["pid"] == trace["pid"]
    )
    m["trace.coverage"] = ratio(top, traced_wall_s)
    m["trace.total_s"] = traced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return m


def load_trace(spans_dir) -> dict:
    spans_dir = Path(spans_dir)
    meta = json.loads((spans_dir / "meta.json").read_text(encoding="utf-8"))
    spans = []
    for path in sorted(spans_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return {**meta, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one traced cgtopo CLI run")
    parser.add_argument("--spans-dir", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    recorder = Recorder(args.spans_dir)
    with recorder.span("cli.import"):
        import cgtopo.cli
    instrument(recorder)
    with recorder.span("cli.main"):
        code = cgtopo.cli.main(args.cli_args)
    recorder.write("main")
    meta = {"pid": os.getpid(), "exit": code}
    (Path(args.spans_dir) / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

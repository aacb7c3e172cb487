"""Seeded benchmark inputs, materialised with ``cgtopo.fixtures``.

Every workload input comes from the seed alone: the demo corpus that
``cgtopo.fixtures.write_demo_corpus`` writes, plus scaled copies of its
two large fixtures (same generators, fewer nodes) so that one CLI run
fits many times into a benchmark run.  A workload gets only the scaled
graphs it uses (``SCALED``), and ``corpus-dot`` additionally renders
each corpus graph as DOT.

Run as a script it materialises the inputs ``SETUP_REPS`` times, into
``--dest/rep-<k>``, validates the last repetition outside the timed
region, and prints one JSON line with the per-repetition set-up seconds
and the input layout of the last repetition.  The benchmark runs it in a
child process so the measuring process stays small (a child's peak RSS
as reported by ``wait4`` includes its parent's when spawned with vfork).
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import time
from pathlib import Path

# The two fixtures that are too slow at demo size, scaled down with the
# demo's own generators.  Offsets match write_demo_corpus (powerlaw is
# entry 0, the kernel-scale graph entry 5); the kernel edge density
# matches linux-2.6.12-rc2-sim (70,010 / 20,165).
POWERLAW = ("powerlaw-2.5-n2000", "synthetic", "power-law fixture", 2000, 0)
KERNEL = ("linux-sim-n5000", "C", "operating system", 5000, 5)
KERNEL_M = round(5000 * 70010 / 20165)
# At gamma = 2.5 the hub degrees, and with them the cost of betweenness
# and the clustering profile, vary by tens of percent from one draw to
# the next at any size.  The power-law graph is therefore drawn once, at
# the ROADMAP baseline seed, and the workload seed relabels it: every
# seed gives an isomorphic graph with its own node ids, names and edge
# order.
POWERLAW_BASE_SEED = 7

# scaled graphs each workload reads; sweep-kernel uses the demo kernel fixture
SCALED = {
    "analyze-powerlaw": (POWERLAW,),
    "corpus-dot": (POWERLAW, KERNEL),
    "sweep-kernel": (),
}
# set-ups per benchmark run; setup_s is their median
SETUP_REPS = 5

# corpus-dot lists entries in the demo manifest-full order
CORPUS_LABELS = (
    POWERLAW[0],
    "gnm-2000",
    "bridged-triangles",
    "hierarchical-125",
    "star-101",
    KERNEL[0],
)
SWEEP_GRAPH = "demo/linux-2.6.12-rc2-sim.edges"
ANALYZE_GRAPH = f"{POWERLAW[0]}.edges"

_BARE = re.compile(r"[A-Za-z0-9_.:<>+-]+")


def dot_name(name: str) -> str:
    if _BARE.fullmatch(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(edge_text: str, label: str) -> str:
    """DOT digraph with the edges in edge-list order, so node ids (first
    appearance) are the same whichever of the two files is loaded."""
    lines = [f"digraph {dot_name(label)} {{"]
    for raw in edge_text.splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        src, dst = raw.split()
        lines.append(f"  {dot_name(src)} -> {dot_name(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def relabel(g, seed: int):
    """Isomorphic copy of ``g`` with node ids permuted by ``seed``."""
    import numpy as np
    from cgtopo.graph import CallGraph

    perm = np.random.Generator(np.random.PCG64(seed)).permutation(g.n)
    return CallGraph.from_id_pairs(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges()])


def _scaled_graph(spec, seed: int):
    from cgtopo.fixtures import permutation_core_graph
    from cgtopo.generators import ERASED_CONFIG, RandomGraphSpec, generate_random

    _, _, _, n, offset = spec
    if spec is POWERLAW:
        g = generate_random(
            RandomGraphSpec(model=ERASED_CONFIG, n=n, gamma=2.5, seed=POWERLAW_BASE_SEED + offset)
        )
        return relabel(g, seed)
    return permutation_core_graph(n, KERNEL_M, seed + offset)


def materialise(dest, seed: int, workload: str) -> dict:
    """Write every input of ``workload`` for ``seed`` under ``dest``.

    Returns the layout: per-graph (n, m) and source path, the seconds
    spent in write_demo_corpus and, for corpus-dot, the DOT manifest.
    A scaled graph's (n, m) is what its edge list reloads to: the nodes
    with an edge and the canonical edges (``validate`` checks this).
    """
    from cgtopo.fixtures import write_demo_corpus
    from cgtopo.graph import to_edge_list

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    demo_manifest = write_demo_corpus(dest / "demo", seed=seed)
    demo_s = time.perf_counter() - start
    shapes = {}
    rows = {}
    for line in demo_manifest.with_name("manifest-full.tsv").read_text().splitlines():
        label, language, domain, path, n, m = line.split("\t")
        rows[label] = (language, domain, dest / "demo" / path)
        shapes[label] = (int(n), int(m))

    for spec in SCALED[workload]:
        label, language, domain, _, _ = spec
        g = _scaled_graph(spec, seed)
        path = dest / f"{label}.edges"
        path.write_text(to_edge_list(g, drop_isolated=True), encoding="utf-8")
        shapes[label] = (sum(1 for i in range(g.n) if g.out_adj[i] or g.in_adj[i]), g.m)
        rows[label] = (language, domain, path)

    layout = {
        "shapes": shapes,
        "sources": {k: str(v[2]) for k, v in rows.items()},
        "write_demo_corpus_s": demo_s,
    }
    if workload == "corpus-dot":
        dot_dir = dest / "dot"
        dot_dir.mkdir(exist_ok=True)
        manifest_rows = []
        for label in CORPUS_LABELS:
            language, domain, source = rows[label]
            text = render_dot(source.read_text(encoding="utf-8"), label)
            (dot_dir / f"{label}.dot").write_text(text, encoding="utf-8")
            n, m = shapes[label]
            manifest_rows.append(f"{label}\t{language}\t{domain}\t{label}.dot\t{n}\t{m}")
        (dot_dir / "manifest.tsv").write_text("\n".join(manifest_rows) + "\n", encoding="utf-8")
        layout["manifest"] = str(dot_dir / "manifest.tsv")
    return layout


def validate(layout: dict, workload: str) -> None:
    """Raise unless every scaled graph reloads to its listed (n, m) and,
    for corpus-dot, every rendered DOT file loads to the same canonical
    graph (names, ids, edges) as its edge-list source."""
    from cgtopo.graph import load_dot_subset, load_edge_list

    for label, _, _, _, _ in SCALED[workload]:
        g = load_edge_list(Path(layout["sources"][label]).read_bytes())
        if (g.n, g.m) != tuple(layout["shapes"][label]):
            raise RuntimeError(f"{label}: reloads to n={g.n} m={g.m}, listed {layout['shapes'][label]}")
    if workload != "corpus-dot":
        return
    dot_dir = Path(layout["manifest"]).parent
    for label in CORPUS_LABELS:
        want = load_edge_list(Path(layout["sources"][label]).read_bytes())
        got = load_dot_subset((dot_dir / f"{label}.dot").read_bytes())
        if (got.names, got.out_adj) != (want.names, want.out_adj):
            raise RuntimeError(f"{label}: DOT rendering does not round-trip")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True)
    args = parser.parse_args(argv)
    import cgtopo.fixtures  # noqa: F401  (imports stay outside the timed region)
    import cgtopo.generators  # noqa: F401

    seconds = []
    demo_seconds = []
    for rep in range(SETUP_REPS):
        # a fresh directory each time: rewriting files in place is slower
        # on some filesystems and would skew the later repetitions; and
        # no collection left over from the previous repetition
        gc.collect()
        start = time.perf_counter()
        layout = materialise(Path(args.dest) / f"rep-{rep}", args.seed, args.workload)
        seconds.append(time.perf_counter() - start)
        demo_seconds.append(layout.pop("write_demo_corpus_s"))
    validate(layout, args.workload)
    print(json.dumps({"setup_s": seconds, "write_demo_corpus_s": demo_seconds, "layout": layout}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Deterministic fixture graphs and the bundled demo corpus.

Run ``python -m cgtopo.fixtures <dir>`` to materialize the demo corpus:
five small-to-medium graphs under manifest.tsv (a corpus run finishes
in well under two minutes) plus a kernel-scale synthetic graph listed
only in manifest-full.tsv.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .corpus import load_entry, read_manifest
from .generators import (
    ERASED_CONFIG,
    GNM,
    RandomGraphSpec,
    generate_random,
    top_up_codes,
)
from .graph import CallGraph, ConfigError, _integer, to_edge_list


def path_graph(n: int) -> CallGraph:
    n = _integer("n", n, 1)
    return CallGraph.from_id_pairs(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> CallGraph:
    n = _integer("n", n, 1)
    return CallGraph.from_id_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> CallGraph:
    """Hub (id 0) calling each leaf."""
    leaves = _integer("leaves", leaves, 0)
    return CallGraph.from_id_pairs(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> CallGraph:
    n = _integer("n", n, 1)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return CallGraph.from_id_pairs(n, pairs)


def bridged_triangles(count: int = 10) -> CallGraph:
    """Directed 3-cycles chained into one weak component by bridges.

    Triangle i occupies nodes {3i, 3i+1, 3i+2}; a bridge 3i -> 3(i+1)
    links consecutive triangles.  Strongly clustered by construction:
    most nodes keep the full triangle around them.
    """
    count = _integer("count", count, 1)
    pairs = []
    for i in range(count):
        a = 3 * i
        pairs += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
        if i + 1 < count:
            pairs.append((a, a + 3))
    return CallGraph.from_id_pairs(3 * count, pairs)


def hierarchical_graph(levels: int = 3) -> CallGraph:
    """Recursive star-of-cliques: a 5-clique replicated four times per
    level, each replica's outermost nodes wired back to the root hub.
    Low-degree nodes sit in cliques while hubs bridge sparse regions,
    so mean clustering falls as degree grows."""
    levels = _integer("levels", levels, 1)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    outer = [1, 2, 3, 4]
    size = 5
    for _ in range(1, levels):
        new_outer = []
        replicas = []
        for copy in range(1, 5):
            offset = size * copy
            replicas += [(u + offset, v + offset) for u, v in edges]
            new_outer += [o + offset for o in outer]
        edges += replicas
        edges += [(0, o) for o in new_outer]
        outer = new_outer
        size *= 5
    return CallGraph.from_id_pairs(size, edges)


def permutation_core_graph(n: int, m: int, seed: int) -> CallGraph:
    """Directed graph with exactly m edges and no isolated nodes: a
    random permutation cycle covers every node, then distinct random
    edges top the count up to m."""
    n, m, seed = _integer("n", n, 1), _integer("m", m, 0), _integer("seed", seed, 0)
    if m < n:
        raise ConfigError(f"need m >= n to cover all nodes, got m={m} n={n}")
    if m > n * (n - 1):
        raise ConfigError(f"m={m} exceeds n(n-1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n).astype(np.int64)
    cycle = perm * n + np.roll(perm, -1)

    def draw(k):
        u, v = rng.integers(0, n, size=(2 * k + 16, 2)).T
        return (u * n + v)[u != v]

    codes = top_up_codes(cycle, m, draw)
    return CallGraph.from_id_pairs(n, np.column_stack((codes // n, codes % n)))


_DEMO_SPECS = [
    # label, language, domain, builder
    (
        "powerlaw-2.5",
        "synthetic",
        "power-law fixture",
        lambda seed: generate_random(
            RandomGraphSpec(model=ERASED_CONFIG, n=10_000, gamma=2.5, seed=seed)
        ),
    ),
    (
        "gnm-2000",
        "synthetic",
        "random baseline",
        lambda seed: generate_random(
            RandomGraphSpec(model=GNM, n=2000, m=8000, seed=seed)
        ),
    ),
    (
        "bridged-triangles",
        "synthetic",
        "clustered fixture",
        lambda seed: bridged_triangles(10),
    ),
    (
        "hierarchical-125",
        "synthetic",
        "hierarchical fixture",
        lambda seed: hierarchical_graph(3),
    ),
    (
        "star-101",
        "synthetic",
        "spectral fixture",
        lambda seed: star_graph(100),
    ),
]

_LARGE_SPEC = (
    "linux-2.6.12-rc2-sim",
    "C",
    "operating system",
    lambda seed: permutation_core_graph(20165, 70010, seed),
)


def write_demo_corpus(dest_dir, seed: int = 7) -> Path:
    """Write the demo fixtures and manifests; returns manifest.tsv path.

    Each graph is listed with the counts its edge list carries, read off
    the graph (its linked nodes and its edges), so corpus loading checks
    the written text against the graph.
    """
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    rows = []
    for offset, (label, language, domain, build) in enumerate(
        _DEMO_SPECS + [_LARGE_SPEC]
    ):
        g = build(seed + offset)
        text = to_edge_list(g, drop_isolated=True)
        filename = f"{label}.edges"
        (dest / filename).write_text(text, encoding="utf-8")
        n = int(np.count_nonzero(g.undirected.out_degrees))
        rows.append(f"{label}\t{language}\t{domain}\t{filename}\t{n}\t{g.m}")
    manifest = dest / "manifest.tsv"
    manifest.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    (dest / "manifest-full.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write the demo fixture corpus")
    parser.add_argument("dest", help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    manifest = write_demo_corpus(args.dest, seed=args.seed)
    for entry in read_manifest(manifest):
        g = load_entry(entry)
        print(f"{entry.label}: n={g.n} m={g.m}")
    print(f"manifest: {manifest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

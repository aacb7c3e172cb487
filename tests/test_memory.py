"""Transient memory of the batched kernels, the loaders and the graph
builds.

Each kernel's traced peak (``tracemalloc``, pool forced serial) must
stay within three batch budgets of ``graph._BATCH_CELLS`` 8-byte cells
plus 32 bytes per stored arc of the symmetrized graph, each loader's
within 10 bytes per input byte, and each derived CSR build's
(``symmetrize``, ``in_csr``) within 32 bytes per stored directed arc,
whatever the graph size: so a process's peak is its graph plus a
constant.  ``KERNELS`` lists every function of the package that batches
by ``graph._batches``; ``tests/test_imports.py`` checks that it is whole.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cgtopo import graph, paths, topology
from cgtopo.fixtures import permutation_core_graph, to_edge_list
from cgtopo.generators import ERASED_CONFIG, GNM, RandomGraphSpec, generate_random
from cgtopo.graph import load_dot_subset, load_edge_list

LOADER_BYTES_PER_INPUT_BYTE = 10
BUILD_BYTES_PER_ARC = 32


def _peak(fn, *args) -> int:
    """Bytes allocated at the high-water mark of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bound(g) -> int:
    return 3 * graph._BATCH_CELLS * 8 + 32 * g.undirected.indices.size


def _most_folded_block(g):
    """The fold plan of g and the span of its Brandes block that holds
    the most folded rows, the first of them on a tie."""
    plan, spans = paths._brandes_blocks(g)
    fold_ptr = plan[1]
    return plan, max(spans, key=lambda span: fold_ptr[span[1]] - fold_ptr[span[0]])


# each batching function, by module and name, with the call whose traced
# peak on a graph g bounds it: betweenness by its block of sources that
# holds the most folded rows
KERNELS = {
    "paths.harmonic_geodesic_mean": lambda g: (paths.harmonic_geodesic_mean, g),
    "paths._brandes_blocks": lambda g: (paths._brandes_block, *g.csr, *_most_folded_block(g)),
    "topology._pair_classes": lambda g: (topology._pair_classes, g.undirected, 6),
    "topology._triangles": lambda g: (topology._triangles, g.undirected),
}


def _kernel_overruns(g, names) -> dict[str, int]:
    """Traced peak of each of the ``KERNELS`` named on ``g`` over its
    bound."""
    over = {}
    for name in names:
        fn, *args = KERNELS[name](g)
        peak = _peak(fn, *args)
        if peak > _bound(g):
            over[name] = peak
    return over


def _dot(edge_text: str) -> bytes:
    body = "".join(f"  {a} -> {b};\n" for a, b in map(str.split, edge_text.splitlines()))
    return f"digraph g {{\n{body}}}\n".encode()


def _loader_overruns(text: bytes) -> dict[str, float]:
    """Bytes of traced peak per input byte of each loader over its bound,
    on the edge list ``text`` and on its DOT rendering."""
    over = {}
    for load, data in ((load_edge_list, text), (load_dot_subset, _dot(text.decode()))):
        ratio = _peak(load, data) / len(data)
        if ratio > LOADER_BYTES_PER_INPUT_BYTE:
            over[load.__name__] = ratio
    return over


def _build_overruns(g) -> dict[str, float]:
    """Bytes of traced peak per stored arc of the directed graph ``g`` of
    each derived CSR build over its bound, each on a copy of ``g`` that
    has built nothing yet."""
    over = {}
    for name, build in (("symmetrize", graph.symmetrize), ("in_csr", lambda h: h.in_csr)):
        ratio = _peak(build, replace(g)) / g.indices.size
        if ratio > BUILD_BYTES_PER_ARC:
            over[name] = ratio
    return over


@pytest.fixture
def serial(monkeypatch):
    # the pool's workers are other processes, out of the tracer's sight
    monkeypatch.setattr(graph, "_cpus", lambda: 1)


@pytest.fixture(scope="module")
def kernel_5000():
    # the scaled kernel fixture of the benchmark: n 5,000, 34,702 stored
    # arcs once symmetrized, so a bound of 13.1 MiB
    return permutation_core_graph(5000, 17359, seed=12)


def test_path_kernels_within_bound(serial, kernel_5000):
    kernel_5000.undirected.weak_search  # the analysis caches it before the profile
    # 40 neighbours a node on average: the wedges, not the arcs, fill the
    # triangle count's batches (bound 14.4 MiB)
    dense = generate_random(RandomGraphSpec(model=GNM, n=2000, m=40_000, seed=1))
    overruns = (
        _kernel_overruns(kernel_5000, KERNELS),
        _kernel_overruns(dense, ["topology._triangles"]),
    )
    assert overruns == ({}, {})


def test_geodesic_gathers_one_word_at_a_time(serial, kernel_5000):
    # one budget plus 64 B per stored arc, 6.1 MiB here: a level's gather
    # adds one row of 8 B per live arc, not a batch budget
    g = kernel_5000
    g.in_csr  # the directed search reads it; its build is bounded below
    bound = graph._BATCH_CELLS * 8 + 64 * g.undirected.indices.size
    peaks = {d: _peak(paths.harmonic_geodesic_mean, g, d) for d in (False, True)}
    assert {d: peak for d, peak in peaks.items() if peak > bound} == {}


@pytest.fixture(scope="module")
def powerlaw_2000():
    # the analyze-powerlaw benchmark graph: its hubs lead most pairs
    return generate_random(RandomGraphSpec(model=ERASED_CONFIG, n=2000, gamma=2.5, seed=7))


def test_profile_of_a_heavy_tailed_graph_within_bound(serial, powerlaw_2000):
    h = powerlaw_2000.undirected
    h.weak_search
    assert _peak(topology._pair_classes, h, 6) <= _bound(powerlaw_2000)


def test_brandes_block_of_a_heavy_tailed_graph_within_two_budgets(powerlaw_2000):
    # two budgets plus 32 B per stored arc, 8.2 MiB here: each level
    # keeps only its DAG arcs, as int32 (parent cell, child cell) pairs
    g = powerlaw_2000
    fn, *args = KERNELS["paths._brandes_blocks"](g)
    bound = 2 * graph._BATCH_CELLS * 8 + 32 * g.undirected.indices.size
    assert _peak(fn, *args) <= bound


def test_loaders_within_bound(kernel_5000):
    assert _loader_overruns(to_edge_list(kernel_5000).encode()) == {}


def test_graph_builds_within_bound(kernel_5000):
    assert _build_overruns(kernel_5000) == {}


@pytest.mark.kernel_scale
def test_bounds_hold_on_linux_sim(serial, corpus_dir, monkeypatch):
    # the same bounds on the kernel-scale demo graph (n 20,165, 140,012
    # stored arcs once symmetrized, so 16.3 MiB): they do not grow with n
    text = (corpus_dir / "linux-2.6.12-rc2-sim.edges").read_bytes()
    loaders = _loader_overruns(text)
    g = load_edge_list(text)
    assert (g.n, g.m) == (20_165, 70_010)
    builds = _build_overruns(g)
    h = g.undirected
    h.weak_search

    def first_span(fn, shared, items):
        # as _pmap does, the spans are listed before any runs
        return [fn(*shared, list(items)[0])]

    # the profile's shared arrays and its first span of lead arcs
    monkeypatch.setattr(topology, "_pmap", first_span)
    kernels = _kernel_overruns(g, KERNELS)
    assert (loaders, builds, kernels) == ({}, {}, {})

import pytest

from cgtopo.fixtures import (
    bridged_triangles,
    hierarchical_graph,
    star_graph,
    to_edge_list,
    write_demo_corpus,
)
from cgtopo.generators import GNM, RandomGraphSpec, generate_random


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Demo corpus generated once per session; several suites share it."""
    dest = tmp_path_factory.mktemp("democorpus")
    write_demo_corpus(dest, seed=7)
    return dest


@pytest.fixture
def mixed_corpus(tmp_path):
    """Four graphs of different file sizes, largest listed last, and an
    entry whose file is missing."""
    graphs = {
        "star": star_graph(20),
        "triangles": bridged_triangles(4),
        "hierarchical": hierarchical_graph(2),
        "gnm": generate_random(RandomGraphSpec(model=GNM, n=300, m=1200, seed=3)),
    }
    rows = []
    for label, g in graphs.items():
        (tmp_path / f"{label}.edges").write_text(to_edge_list(g), encoding="utf-8")
        rows.append(f"{label}\tsynthetic\ttest\t{label}.edges")
    rows.insert(2, "missing\tsynthetic\ttest\tmissing.edges")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def rows(indptr, indices) -> tuple[tuple[int, ...], ...]:
    """The rows of a CSR graph, ``rows(*g.csr)`` or ``rows(*g.in_csr)``:
    the adjacency the oracles read, taken from the stored arrays."""
    flat, ptr = indices.tolist(), indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))

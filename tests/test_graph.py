"""Graph construction, parsing, serialization, and component helpers."""

import numpy as np
import pytest

from cgtopo import (
    CallGraph,
    InputError,
    ParseError,
    largest_wcc,
    load_dot_subset,
    load_edge_list,
    symmetrize,
    to_edge_list,
    weak_components,
)
def test_ids_follow_first_appearance():
    g = load_edge_list("b a\na c\n")
    assert g.names == ("b", "a", "c")
    assert g.id_of("b") == 0
    assert g.id_of("c") == 2


def test_duplicates_and_self_loops_dropped_with_counts():
    g = load_edge_list("a b\na b\na a\nb c\n")
    assert g.n == 3
    assert g.m == 2
    assert g.dropped_duplicates == 1
    assert g.dropped_self_loops == 1


def test_adjacency_is_sorted_and_transposed():
    g = load_edge_list("a c\na b\nc b\n")
    for row in g.out_adj:
        assert list(row) == sorted(row)
    # in_adj must be the exact transpose of out_adj
    arcs = {(u, v) for u in range(g.n) for v in g.out_adj[u]}
    rev = {(v, u) for v in range(g.n) for u in g.in_adj[v]}
    assert arcs == {(b, a) for a, b in rev}


def test_csr_arrays_and_the_sparse_adjacency_share_them():
    # isolated nodes 0 and 4, an arc stored both ways, unsorted input
    g = CallGraph.from_id_pairs(6, [(3, 1), (1, 3), (2, 5), (2, 1), (5, 3)])
    indptr, indices = g.csr
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr.tolist() == [0, 0, 1, 3, 4, 4, 5]
    assert indices.tolist() == [3, 1, 5, 1, 3]
    for u in range(g.n):
        assert tuple(indices[indptr[u] : indptr[u + 1]]) == g.out_adj[u]
    a = g.adjacency
    assert a.shape == (6, 6) and a.nnz == 5 and set(a.data) == {1.0}
    assert np.shares_memory(a.indptr, indptr) and np.shares_memory(a.indices, indices)
    edgeless = CallGraph.from_id_pairs(3, [])
    assert edgeless.csr[0].tolist() == [0, 0, 0, 0] and edgeless.csr[1].size == 0
    assert edgeless.adjacency.nnz == 0


def test_has_edge_and_neighbours():
    g = load_edge_list("a b\nb c\n")
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert g.successors(1) == (2,)
    assert g.predecessors(2) == (1,)


def test_empty_input_rejected():
    with pytest.raises(InputError):
        load_edge_list("# only a comment\n\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list("a b\na b c\n")
    assert exc.value.line == 2


def test_comments_and_blank_lines_skipped():
    g = load_edge_list("# header\n\na b\nb c\n")
    assert g.n == 3
    assert g.m == 2


def test_comment_marker_only_counts_at_line_start():
    with pytest.raises(ParseError):
        load_edge_list("a b\n  # indented comments are not comments\n")


def test_dot_single_line_digraph():
    g = load_dot_subset("digraph g { a -> b; b -> c; }")
    assert g.names == ("a", "b", "c")
    assert g.m == 2


def test_dot_multiline_with_quoted_names_and_attributes():
    src = 'digraph calls {\n  "f<int>" -> g [weight=2];\n  g -> "x y";\n}\n'
    g = load_dot_subset(src)
    assert g.names == ("f<int>", "g", "x y")
    assert g.m == 2


def test_dot_strict_header_accepted():
    g = load_dot_subset("strict digraph { a -> b }")
    assert g.m == 1


def test_dot_undirected_edge_rejected_with_line():
    with pytest.raises(ParseError) as exc:
        load_dot_subset("graph g {\na -- b;\n}\n")
    assert "undirected edge" in str(exc.value)
    assert exc.value.line == 2


def test_dot_error_line_deep_in_file():
    edges = "".join(f"f{i} -> f{i + 1};\n" for i in range(5000))
    headers = (
        "digraph g {\n",
        "digraph g { a -> b; c -> d;\n",  # statements after the brace
        "strict digraph\ng\n{ a -> b\n",  # header over three lines
    )
    for header in headers:
        text = header + edges + "x -> y; not an edge ;\n}\n"
        with pytest.raises(ParseError) as exc:
            load_dot_subset(text)
        assert exc.value.line == header.count("\n") + 5001
        assert str(exc.value).endswith("unsupported DOT construct: 'not an edge'")


def test_dot_subgraph_rejected():
    with pytest.raises(ParseError) as exc:
        load_dot_subset("digraph g {\nsubgraph cluster0 { a -> b }\n}\n")
    assert "subgraph" in str(exc.value)


def test_dot_missing_header_rejected():
    with pytest.raises(ParseError):
        load_dot_subset("a -> b;\n")


def test_round_trip_preserves_ids_and_text():
    text = "a b\nc d\na d\n"
    g = load_edge_list(text)
    assert to_edge_list(g) == text
    again = load_edge_list(to_edge_list(g))
    assert again.names == g.names
    assert again.out_adj == g.out_adj


def test_round_trip_arbitrary_graph():
    text = "m0 m1\nm2 m0\nm3 m2\nm1 m3\nm0 m3\n"
    g = load_edge_list(text)
    again = load_edge_list(to_edge_list(g))
    assert again.names == g.names
    assert again.out_adj == g.out_adj
    assert again.in_adj == g.in_adj


def test_serializer_rejects_isolated_nodes_unless_dropped():
    g = CallGraph.from_name_pairs([("a", "b")], extra_nodes=["lonely"])
    with pytest.raises(InputError):
        to_edge_list(g)
    text = to_edge_list(g, drop_isolated=True)
    assert "lonely" not in text


def test_symmetrize_doubles_arcs_and_keeps_m():
    g = load_edge_list("a b\nb c\n")
    u = symmetrize(g)
    assert not u.directed
    assert u.m == 2
    assert u.has_edge(1, 0) and u.has_edge(0, 1)
    assert symmetrize(u) is u


def test_weak_components_sorted_by_size_then_min_id():
    g = load_edge_list("a b\nc d\ne f\nf g\n")
    comps = weak_components(g)
    sizes = [len(c) for c in comps]
    assert sizes == [3, 2, 2]
    assert comps[1][0] < comps[2][0]


def test_largest_wcc_preserves_names_and_edges():
    g = load_edge_list("a b\nb c\nx y\n")
    w = largest_wcc(g)
    assert w.n == 3
    assert set(w.names) == {"a", "b", "c"}
    assert w.m == 2


def test_callgraph_is_frozen():
    g = load_edge_list("a b\n")
    with pytest.raises(AttributeError):
        g.directed = False


def test_edges_iterates_every_arc_once():
    g = load_edge_list("a b\nb c\nc a\n")
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]
    assert g.m == 3

"""Graph construction, parsing, serialization, and component helpers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtopo import (
    CallGraph,
    InputError,
    ParseError,
    SisParams,
    largest_wcc,
    load_dot_subset,
    load_edge_list,
    parse_manifest,
    symmetrize,
    threshold_sweep,
    to_edge_list,
    weak_components,
)
from cgtopo import graph, topology
from cgtopo.fixtures import permutation_core_graph
from cgtopo.graph import _ranges
from cgtopo.report import METRICS, AnalysisConfig, analyze_graph

from conftest import rows


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
    for row in rows(*g.csr):
        assert list(row) == sorted(row)
    # the in-arc CSR must be the exact transpose of the out-arc CSR
    arcs = {(u, v) for u, row in enumerate(rows(*g.csr)) for v in row}
    rev = {(v, u) for v, row in enumerate(rows(*g.in_csr)) for u in row}
    assert arcs == {(b, a) for a, b in rev}


def test_csr_arrays_and_the_sparse_adjacency_share_them():
    # isolated nodes 0 and 4, an arc stored both ways, unsorted input
    g = CallGraph.from_id_pairs(6, [(3, 1), (1, 3), (2, 5), (2, 1), (5, 3)])
    indptr, indices = g.csr
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr.tolist() == [0, 0, 1, 3, 4, 4, 5]
    assert indices.tolist() == [3, 1, 5, 1, 3]
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
    assert rows(*g.csr)[1] == (2,)
    assert rows(*g.in_csr)[2] == (1,)


def test_empty_input_rejected():
    with pytest.raises(InputError):
        load_edge_list("# only a comment\n\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list("a b\na b c\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("as_bytes", [False, True])
def test_a_byte_order_mark_is_no_part_of_a_name(as_bytes):
    def with_bom(text):
        text = "\ufeff" + text
        return text.encode("utf-8") if as_bytes else text

    edges, dot = "a b\nb a\n", "digraph g {\n  a -> b;\n  b -> a;\n}\n"
    for load, text in ((load_edge_list, edges), (load_dot_subset, dot)):
        g, twin = load(with_bom(text)), load(text)
        assert g.names == twin.names == ("a", "b")
        assert rows(*g.csr) == rows(*twin.csr)
    manifest = "lab\tC\tkernel\ta.edges\n"
    assert parse_manifest(with_bom(manifest)) == parse_manifest(manifest)


def test_a_byte_order_mark_keeps_the_line_of_an_invalid_byte():
    with pytest.raises(ParseError) as exc:
        load_edge_list(b"\xef\xbb\xbfa b\nc \xff\n")
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


@pytest.mark.parametrize(
    "text, line, message",
    [
        # the stray text's own line, not the brace's
        ("digraph g { a -> b }\n x", 2, "content after closing '}'"),
        ("digraph g {\n a -> b;\n}\r\n\r\n  c -> d;\n", 5, "content after closing '}'"),
        ("digraph g { a -> b }x", 1, "content after closing '}'"),
        # the end of the text
        ("digraph g {\n a -> b;\n", 3, "missing closing '}'"),
        ("digraph g {", 1, "missing closing '}'"),
    ],
)
def test_dot_block_end_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        load_dot_subset(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_round_trip_preserves_ids_and_text():
    text = "a b\nc d\na d\n"
    g = load_edge_list(text)
    assert to_edge_list(g) == text
    again = load_edge_list(to_edge_list(g))
    assert again.names == g.names
    assert rows(*again.csr) == rows(*g.csr)


def test_round_trip_arbitrary_graph():
    text = "m0 m1\nm2 m0\nm3 m2\nm1 m3\nm0 m3\n"
    g = load_edge_list(text)
    again = load_edge_list(to_edge_list(g))
    assert again.names == g.names
    assert rows(*again.csr) == rows(*g.csr)
    assert rows(*again.in_csr) == rows(*g.in_csr)


def test_serializer_rejects_isolated_nodes_unless_dropped():
    g = CallGraph.from_id_pairs(3, [(0, 1)], names=("a", "b", "lonely"))
    with pytest.raises(InputError):
        to_edge_list(g)
    text = to_edge_list(g, drop_isolated=True)
    assert "lonely" not in text


@pytest.mark.parametrize(
    "dot, bad",
    [
        # a caller named "#c" would write a comment line
        ('digraph x { a -> b; "#c" -> b; }', "#c"),
        ('digraph x { "foo bar" -> baz; }', "foo bar"),
        ('digraph x { a -> "tab\tb"; }', "tab\tb"),
    ],
)
def test_serializer_rejects_names_the_format_cannot_carry(dot, bad):
    g = load_dot_subset(dot)
    for drop_isolated in (False, True):
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            to_edge_list(g, drop_isolated=drop_isolated)


def test_serializer_keeps_a_callee_named_with_a_hash():
    # "#b" only ever follows a caller on its line, so it reloads intact
    g = load_dot_subset('digraph x { a -> "#b"; "#b" -> "#b"; }')
    text = to_edge_list(g)
    assert text == "a #b\n"
    again = load_edge_list(text)
    assert again.names == g.names and rows(*again.csr) == rows(*g.csr)


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


def test_name_pair_ids_follow_first_appearance():
    g = CallGraph.from_name_pairs([("b", "a"), ("c", "b"), ("a", "d")])
    assert g.names == ("b", "a", "c", "d")
    assert sorted(g.edges()) == [(0, 1), (1, 3), (2, 0)]


@pytest.mark.parametrize("seed", range(5))
def test_drop_counts_match_a_set_based_reference(seed):
    rng = np.random.default_rng(seed)
    n = 12
    pairs = [tuple(p) for p in rng.integers(0, n, size=(300, 2)).tolist()]
    pairs += [(3, 3)] * 4 + [(1, 2)] * 5
    proper = [p for p in pairs if p[0] != p[1]]
    g = CallGraph.from_id_pairs(n, pairs)
    assert set(g.edges()) == set(proper) and g.m == len(set(proper))
    assert g.dropped_self_loops == len(pairs) - len(proper)
    assert g.dropped_duplicates == len(proper) - len(set(proper))
    text = "".join(f"f{u} f{v}\n" for u, v in pairs)
    loaded = load_edge_list(text)
    ids = {name: i for i, name in enumerate(loaded.names)}
    want = {(ids[f"f{u}"], ids[f"f{v}"]) for u, v in proper}
    assert set(loaded.edges()) == want
    assert (loaded.dropped_self_loops, loaded.dropped_duplicates) == (
        g.dropped_self_loops,
        g.dropped_duplicates,
    )


def _oracle_csr(n, tails, heads):
    """CSR of the distinct arcs, from int64 ``np.unique`` codes."""
    codes = np.unique(tails.astype(np.int64) * n + heads)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(codes // n, minlength=n))))
    return indptr.tolist(), (codes % n).tolist()


@pytest.mark.parametrize(
    "n, width", [(46_340, np.int32), (46_341, np.int64), (51_000, np.int64)]
)
def test_csr_builds_match_int64_codes_on_both_code_widths(n, width):
    # arc codes are int32 while n * n - 1 fits, int64 from n = 46,341:
    # arcs at node n - 1 carry the largest codes, which a product taken
    # before widening would wrap
    assert graph._code_type(n) is width
    rng = np.random.default_rng(n)
    nodes = np.concatenate(([0, 1, n - 3, n - 2, n - 1], rng.choice(n - 3, 35)))
    pairs = np.concatenate(
        (rng.choice(nodes, size=(700, 2)), [(n - 1, n - 2), (n - 1, 0), (n - 1, n - 1)])
    )
    g = CallGraph.from_id_pairs(n, pairs)
    u, v = pairs[pairs[:, 0] != pairs[:, 1]].T
    both = np.concatenate((u, v)), np.concatenate((v, u))
    for (indptr, indices), (tails, heads) in (
        (g.csr, (u, v)),
        (g.in_csr, (v, u)),
        (symmetrize(g).csr, both),
    ):
        assert (indptr.dtype, indices.dtype) == (np.int32, np.int32)
        assert (indptr.tolist(), indices.tolist()) == _oracle_csr(n, tails, heads)
    loops = len(pairs) - u.size
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, u.size - g.m)
    # triangles through each node, from the oracle's edge set
    indptr, indices = _oracle_csr(n, *both)
    nbrs = [set(indices[a:b]) for a, b in zip(indptr, indptr[1:])]
    tri = np.zeros(n, dtype=np.int64)
    for a in np.unique(nodes).tolist():
        for b in nbrs[a]:
            for c in nbrs[a] & nbrs[b]:
                if a < b < c:
                    tri[[a, b, c]] += 1
    assert tri.sum() > 0 and tri[n - 1] > 0
    assert topology._triangles(symmetrize(g)).tolist() == tri.tolist()


@pytest.mark.parametrize("bad", ["e", "e f g"])
def test_parse_error_line_counts_skipped_lines(bad):
    text = "a b\r\n\r\n \t \n# c d e\r\n#\nc d\r\n" + bad + "\nx y\n"
    with pytest.raises(ParseError) as exc:
        load_edge_list(text)
    assert exc.value.line == 7
    assert f"got {len(bad.split())} tokens" in str(exc.value)


def test_hash_starts_a_comment_only_at_column_zero():
    g = load_edge_list("#a b\na #b\n #c d\n")
    assert g.names == ("a", "#b", "#c", "d")
    assert sorted(g.edges()) == [(0, 1), (2, 3)]


def test_out_of_range_error_names_the_first_bad_pair():
    with pytest.raises(InputError, match=r"edge \(5, 0\) out of range for n=3"):
        CallGraph.from_id_pairs(3, [(0, 1), (5, 0), (0, -1)])
    with pytest.raises(InputError, match=r"edge \(1, -2\) out of range"):
        CallGraph.from_id_pairs(3, ((u, v) for u, v in [(0, 1), (1, -2), (7, 7)]))


def test_generator_input_is_accepted():
    g = CallGraph.from_id_pairs(3, ((i, (i + 1) % 3) for i in range(3)))
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]
    assert rows(*g.in_csr) == ((2,), (0,), (1,))


def _reference_edge_list(g):
    """The serializer's ordering spelt out over the adjacency rows."""
    incident = [set(a) | set(b) for a, b in zip(rows(*g.csr), rows(*g.in_csr))]
    introduced = [False] * g.n
    lines, emitted = [], set()

    def emit(u, v):
        emitted.add((u, v))
        introduced[u] = introduced[v] = True
        lines.append(f"{g.names[u]} {g.names[v]}")

    for t in range(g.n):
        if introduced[t] or not incident[t]:
            continue
        earlier = [u for u in incident[t] if u < t and introduced[u]]
        if earlier:
            u = min(earlier)
            emit(*((u, t) if g.has_edge(u, t) else (t, u)))
        elif t + 1 < g.n and g.has_edge(t, t + 1):
            emit(t, t + 1)
        else:
            u = min(incident[t])
            emit(*((t, u) if g.has_edge(t, u) else (u, t)))
    lines += [f"{g.names[u]} {g.names[v]}" for u, v in sorted(g.edges()) if (u, v) not in emitted]
    return "\n".join(lines) + "\n"


# names without whitespace; a leading '#' would make a comment line
_NAMES = st.text("ab_:<>#", min_size=1, max_size=3).filter(lambda s: s[0] != "#")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(_NAMES, _NAMES).filter(lambda p: p[0] != p[1]), min_size=1, max_size=60
    )
)
def test_edge_list_round_trip(pairs):
    g = load_edge_list("".join(f"{a} {b}\n" for a, b in pairs))
    assert g.names == tuple(dict.fromkeys(name for pair in pairs for name in pair))
    assert g.dropped_duplicates == len(pairs) - len(set(pairs))
    text = to_edge_list(g)
    assert text == _reference_edge_list(g)
    again = load_edge_list(text)
    assert again.names == g.names
    assert list(again.edges()) == list(g.edges())
    assert (again.dropped_self_loops, again.dropped_duplicates) == (0, 0)
    assert to_edge_list(again) == text


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
        )
    )
)
def test_edge_list_text_matches_reference_for_any_ids(case):
    n, pairs = case
    g = CallGraph.from_id_pairs(n, pairs)
    text = to_edge_list(g, drop_isolated=True)
    assert text == _reference_edge_list(g)
    undirected = to_edge_list(g.undirected, drop_isolated=True)
    assert undirected == _reference_edge_list(g.undirected)
    if g.m == 0:
        return
    # ids the text cannot carry come back renumbered, with the same
    # names and name-level arcs; a loaded graph's ids come back as they are
    again = load_edge_list(text)
    assert _named_arcs(again) == _named_arcs(g)
    assert _named_arcs(load_edge_list(undirected).undirected) == _named_arcs(g.undirected)
    assert set(again.names) == {g.names[v] for v in np.unique(g.arcs())}
    twice = load_edge_list(to_edge_list(again))
    assert twice.names == again.names
    assert list(twice.edges()) == list(again.edges())


def _named_arcs(g):
    """Every stored arc as a (tail name, head name) pair."""
    tails, heads = g.arcs()
    return {(g.names[u], g.names[v]) for u, v in zip(tails.tolist(), heads.tolist())}


def _forbid_tuple_views(monkeypatch):
    def forbidden(self):
        raise AssertionError("a tuple view was built")

    for name in ("out_adj", "in_adj"):
        monkeypatch.setattr(CallGraph, name, property(forbidden))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)), max_size=20))
def test_ranges_concatenate_row_positions(rows):
    # int32, as CSR arrays are; zero counts and no rows at all are the
    # common case of an SIS step in which no node changed state
    starts = np.array([s for s, _ in rows], dtype=np.int32)
    counts = np.array([c for _, c in rows], dtype=np.int32)
    want = [np.arange(s, s + c) for s, c in rows]
    which, got = _ranges(starts, counts)
    assert got.dtype.kind == "i" and which.dtype.kind == "i"
    assert got.tolist() == np.concatenate([np.arange(0), *want]).tolist()
    # the row each position came from
    assert which.tolist() == [i for i, (_, c) in enumerate(rows) for _ in range(c)]


def test_load_and_sweep_build_no_tuple_views(monkeypatch):
    text = to_edge_list(permutation_core_graph(20165, 70010, 11))
    _forbid_tuple_views(monkeypatch)
    g = load_edge_list(text)
    base = SisParams(beta=0.0, delta=0.5, initial_infected=3, max_steps=5, seed=1)
    threshold_sweep(g, (0.1, 0.4), 2, base)
    for graph in (g, g.undirected):
        assert "out_adj" not in vars(graph) and "in_adj" not in vars(graph)


def test_analyze_graph_builds_no_tuple_views(monkeypatch):
    # two weak components, so the metrics run on a fresh induced subgraph
    g = load_edge_list("a b\nb c\nc a\na d\nd b\nx y\n")
    _forbid_tuple_views(monkeypatch)
    config = AnalysisConfig(metrics=METRICS, d_max=3)
    report, _, failures = analyze_graph(g, config, "small")
    assert not failures and report["graph"]["wcc_n"] == 4
    for graph in (g, g.undirected):
        assert "out_adj" not in vars(graph) and "in_adj" not in vars(graph)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_loaders_split_lines_at_every_line_end(end):
    dot = load_dot_subset(f"digraph g {{{end} a -> b{end} c -> d{end}}}{end}".encode())
    edges = load_edge_list(f"a b{end}c d{end}".encode())
    for g in (dot, edges):
        assert g.names == ("a", "b", "c", "d")
        assert sorted(g.edges()) == [(0, 1), (2, 3)]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"a b\rc d\r\xff x\n", "input is not valid UTF-8"),
        (b"a b\rc d\rx y z\n", "expected 'caller callee', got 3 tokens"),
    ],
)
def test_utf8_error_counts_lines_as_the_loader_does(data, message):
    # CR-only line ends: both faults are on the third line
    with pytest.raises(ParseError) as exc:
        load_edge_list(data)
    assert str(exc.value) == f"line 3: {message}"


# line ends as str.splitlines knows them (all but \x1d, \x1e and \u2029)
_LINE_ENDS = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\N{LINE SEPARATOR}"]
)


def _lines_ended(draw, lines):
    return "".join(line + draw(_LINE_ENDS) for line in lines)


def _with_a_fault(draw, lines, faults):
    """``lines`` with one of ``faults`` inserted, half the time."""
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(faults)))
    return lines


_EDGE_NAMES = st.sampled_from(["a", "b", "c", "#d", "e.f"])


@st.composite
def _edge_list_texts(draw):
    edge = st.tuples(
        st.sampled_from(["", " "]), _EDGE_NAMES, st.sampled_from([" ", "\t", " \t "]), _EDGE_NAMES
    ).map("".join)
    other = st.sampled_from(["", " ", "\t", "#", "# a b c", "#a b"])
    lines = draw(st.lists(st.one_of(edge, edge, other), max_size=30))
    return _lines_ended(draw, _with_a_fault(draw, lines, ["a", "a b c"]))


def _edge_list_reference(text):
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [] if line.startswith("#") else line.split()
        if len(tokens) not in (0, 2):
            raise ParseError(f"expected 'caller callee', got {len(tokens)} tokens", lineno)
        pairs += [tokens] if tokens else []
    return CallGraph.from_name_pairs(pairs)


# DOT spellings of node names: bare, and quoted with a space, an escaped
# quote or a brace
_DOT_NAMES = {"a": "a", "b": "b", "c_1": "c_1", '"x y"': "x y", '"q\\"r"': 'q"r', '"a}b"': "a}b"}
_DOT_FAULTS = {"a b": "'a b'", "a -- b": "undirected edge", "subgraph s": "subgraph"}


@st.composite
def _dot_texts(draw):
    name = st.sampled_from(sorted(_DOT_NAMES))
    edge = st.tuples(name, name, st.sampled_from(["", " [w=1]"])).map(
        lambda t: f"{t[0]} -> {t[1]}{t[2]}"
    )
    statements = st.lists(st.one_of(edge, st.just("")), max_size=3)
    lines = draw(
        st.lists(
            st.tuples(st.sampled_from(["", "  "]), statements, st.sampled_from(["", ";"])).map(
                lambda t: t[0] + "; ".join(t[1]) + t[2]
            ),
            max_size=20,
        )
    )
    lines = _with_a_fault(draw, lines, sorted(_DOT_FAULTS))
    return _lines_ended(draw, ["digraph g {", *lines, "}"])


def _dot_reference(text):
    lines = text.splitlines()
    assert (lines[0], lines[-1]) == ("digraph g {", "}")
    pairs = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        for stmt in filter(None, map(str.strip, line.split(";"))):
            if stmt in _DOT_FAULTS:
                raise ParseError(f"unsupported DOT construct: {_DOT_FAULTS[stmt]}", lineno)
            src, dst = stmt.removesuffix(" [w=1]").split(" -> ")
            pairs.append((_DOT_NAMES[src], _DOT_NAMES[dst]))
    return CallGraph.from_name_pairs(pairs)


def _outcome(load, *args):
    try:
        g = load(*args)
    except (ParseError, InputError) as exc:
        return type(exc).__name__, str(exc)
    counts = (g.dropped_self_loops, g.dropped_duplicates)
    return g.names, g.indptr.tolist(), g.indices.tolist(), counts


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(
        _edge_list_texts().map(lambda t: (load_edge_list, _edge_list_reference, t)),
        _dot_texts().map(lambda t: (load_dot_subset, _dot_reference, t)),
    ),
    cells=st.integers(0, 1024),
)
def test_chunk_cuts_change_nothing(case, cells):
    # runs of at most 16 characters: a cut every line or two
    load, reference, text = case
    whole = _outcome(load, text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BATCH_CELLS", cells)
        cut = _outcome(load, text.encode())
    assert cut == whole == _outcome(reference, text)

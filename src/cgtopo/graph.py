"""Canonical call-graph data model, ingestion and structural transforms.

A call graph is a simple directed graph: no self-edges, no duplicate
edges.  Node identity is the exact symbol string; ids are dense integers
assigned in first-appearance order by the loaders.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np


class CallGraphError(Exception):
    """Base class for all cgtopo errors."""


class ParseError(CallGraphError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InputError(CallGraphError):
    """Structurally invalid input (empty graph, bad node reference, ...)."""


@dataclass(frozen=True)
class CallGraph:
    """Immutable simple graph with dense integer node ids.

    ``out_adj`` / ``in_adj`` hold sorted successor / predecessor id
    tuples; ``in_adj`` is the exact transpose of ``out_adj``.  When
    ``directed`` is False both adjacencies are identical neighbour
    lists and every edge is stored in both directions; ``m`` then
    counts unordered edges (half the stored arcs).
    """

    names: tuple[str, ...]
    out_adj: tuple[tuple[int, ...], ...]
    in_adj: tuple[tuple[int, ...], ...]
    directed: bool = True
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        arcs = sum(len(s) for s in self.out_adj)
        return arcs if self.directed else arcs // 2

    def successors(self, u: int) -> tuple[int, ...]:
        return self.out_adj[u]

    def predecessors(self, u: int) -> tuple[int, ...]:
        return self.in_adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.out_adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self):
        """Iterate edges: (u, v) arcs if directed, u < v pairs otherwise."""
        for u, row in enumerate(self.out_adj):
            for v in row:
                if self.directed or u < v:
                    yield u, v

    def id_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise InputError(f"unknown node name: {name!r}") from None

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return np.array([len(s) for s in self.out_adj], dtype=np.int64)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return np.array([len(s) for s in self.in_adj], dtype=np.int64)

    @cached_property
    def undirected(self) -> "CallGraph":
        """Symmetrized view (self when already undirected)."""
        return symmetrize(self)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` int32 arrays of the stored arcs: row u,
        ``indices[indptr[u]:indptr[u + 1]]``, lists the successors of u
        in ascending order."""
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(self.out_degrees, out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(self.out_adj), dtype=np.int32, count=int(indptr[-1])
        )
        return indptr, indices

    @cached_property
    def adjacency(self):
        """Sparse 0/1 adjacency (a scipy ``csr_matrix`` over the ``csr``
        arrays); row u marks the stored arcs u -> v."""
        import scipy.sparse as sp

        indptr, indices = self.csr
        data = np.ones(len(indices), dtype=np.float64)
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_name_pairs(cls, pairs, extra_nodes=()) -> "CallGraph":
        """Build from (caller, callee) name pairs, canonicalizing.

        Ids follow first appearance scanning each pair caller-first.
        Self-loops are dropped and duplicate edges collapsed; the drop
        counts are recorded on the result.
        """
        index: dict[str, int] = {}
        names: list[str] = []

        def intern_id(name: str) -> int:
            i = index.get(name)
            if i is None:
                i = len(names)
                index[name] = i
                names.append(sys.intern(name))
            return i

        id_pairs = [(intern_id(a), intern_id(b)) for a, b in pairs]
        for name in extra_nodes:
            intern_id(name)
        return cls.from_id_pairs(len(names), id_pairs, names=tuple(names))

    @classmethod
    def from_id_pairs(cls, n: int, pairs, names=None) -> "CallGraph":
        """Build from integer id pairs on nodes 0..n-1, canonicalizing."""
        if names is None:
            names = tuple(f"n{i}" for i in range(n))
        loops = 0
        seen: set[tuple[int, int]] = set()
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        dups = 0
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                loops += 1
                continue
            if (u, v) in seen:
                dups += 1
                continue
            seen.add((u, v))
            out[u].append(v)
            inn[v].append(u)
        g = cls(
            names=tuple(names),
            out_adj=tuple(tuple(sorted(s)) for s in out),
            in_adj=tuple(tuple(sorted(s)) for s in inn),
            directed=True,
            dropped_self_loops=loops,
            dropped_duplicates=dups,
        )
        if g.n == 0:
            raise InputError("empty graph (0 nodes)")
        return g


# -- loaders -------------------------------------------------------------


def _decode(source) -> str:
    data = source if isinstance(source, (bytes, str)) else source.read()
    try:
        return data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("input is not valid UTF-8", line) from None


def load_edge_list(source) -> CallGraph:
    """Parse `caller callee` lines into a canonical CallGraph.

    Lines starting with ``#`` and blank lines are ignored.  Any other
    line must hold exactly two whitespace-separated tokens.
    """
    pairs = []
    for lineno, raw in enumerate(_decode(source).splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        tokens = raw.split()
        if len(tokens) != 2:
            raise ParseError(
                f"expected 'caller callee', got {len(tokens)} tokens", lineno
            )
        pairs.append((tokens[0], tokens[1]))
    if not pairs:
        raise InputError("empty graph (0 nodes)")
    return CallGraph.from_name_pairs(pairs)


_DOT_NAME = r'"(?:[^"\\]|\\.)*"|[A-Za-z0-9_.:<>+-]+'
_DOT_EDGE = re.compile(
    rf"^(?P<src>{_DOT_NAME})\s*(?P<op>->|--)\s*(?P<dst>{_DOT_NAME})"
    r"\s*(?:\[[^\]]*\])?$"
)
_DOT_HEADER = re.compile(
    rf"\s*(strict\s+)?(digraph|graph)(\s+(?:{_DOT_NAME}))?\s*\{{"
)


def _dot_unquote(token: str) -> str:
    if token.startswith('"'):
        return re.sub(r"\\(.)", r"\1", token[1:-1])
    return token


def load_dot_subset(source) -> CallGraph:
    """Parse a restricted DOT digraph: `a -> b [attrs];` statements
    inside one `digraph name { ... }` block.

    Attributes after an edge are ignored.  Subgraphs, undirected edges
    and any other DOT construct raise ParseError naming the construct.
    Node names may be bare identifiers or double-quoted strings, but a
    quoted name cannot contain `;` or a newline (statement separators).
    """
    text = _decode(source)
    header = _DOT_HEADER.match(text)
    if header is None:
        raise ParseError("expected 'digraph ... {' header", 1)
    close = text.rfind("}")
    if close < header.end():
        raise ParseError(
            "missing closing '}'", text.count("\n") + 1
        )
    if text[close + 1 :].strip():
        raise ParseError(
            "content after closing '}'", text.count("\n", 0, close + 1) + 1
        )
    body = text[header.end() : close]
    first_line = text.count("\n", 0, header.end()) + 1
    pairs = []
    for lineno, line in enumerate(body.split("\n"), start=first_line):
        for raw in line.split(";"):
            stmt = raw.strip()
            if not stmt:
                continue
            if stmt.startswith("subgraph"):
                raise ParseError("unsupported DOT construct: subgraph", lineno)
            edge = _DOT_EDGE.match(stmt)
            if edge is None:
                raise ParseError(f"unsupported DOT construct: {stmt!r}", lineno)
            if edge.group("op") == "--":
                raise ParseError("unsupported DOT construct: undirected edge", lineno)
            src, dst = edge.group("src", "dst")
            pairs.append((_dot_unquote(src), _dot_unquote(dst)))
    if not pairs:
        raise InputError("empty graph (0 nodes)")
    return CallGraph.from_name_pairs(pairs)


def load_graph(path, fmt: str) -> CallGraph:
    """Load a graph file: DOT subset when ``fmt`` is "dot", else edge list."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_dot_subset(data) if fmt == "dot" else load_edge_list(data)


def to_edge_list(g: CallGraph, drop_isolated: bool = False) -> str:
    """Serialize to edge-list text whose reload reproduces g exactly.

    Edges are ordered so node names first appear in id order; reloading
    the text therefore reassigns identical ids.  Isolated nodes cannot
    be represented in the format and raise unless ``drop_isolated``.
    """
    n = g.n
    incident: list[set[int]] = [set(g.out_adj[i]) | set(g.in_adj[i]) for i in range(n)]
    if not drop_isolated and any(not s for s in incident):
        raise InputError("edge-list format cannot represent isolated nodes")

    introduced = [False] * n
    emitted: set[tuple[int, int]] = set()
    lines: list[str] = []

    def emit(u: int, v: int) -> None:
        emitted.add((u, v))
        introduced[u] = introduced[v] = True
        lines.append(f"{g.names[u]} {g.names[v]}")

    for t in range(n):
        if introduced[t] or not incident[t]:
            continue
        earlier = [u for u in incident[t] if u < t and introduced[u]]
        if earlier:
            u = min(earlier)
            emit(*((u, t) if g.has_edge(u, t) else (t, u)))
        elif t + 1 < n and g.has_edge(t, t + 1):
            # first appearance as a caller introducing a fresh callee
            emit(t, t + 1)
        else:
            u = min(incident[t])
            emit(*((t, u) if g.has_edge(t, u) else (u, t)))
    for u, v in sorted(g.edges()):
        if (u, v) not in emitted:
            lines.append(f"{g.names[u]} {g.names[v]}")
    return "\n".join(lines) + "\n"


# -- structural transforms ------------------------------------------------


def symmetrize(g: CallGraph) -> CallGraph:
    """Undirected view: {i, j} present iff (i, j) or (j, i) in g."""
    if not g.directed:
        return g
    neigh = [sorted(set(g.out_adj[i]) | set(g.in_adj[i])) for i in range(g.n)]
    adj = tuple(tuple(s) for s in neigh)
    return CallGraph(
        names=g.names,
        out_adj=adj,
        in_adj=adj,
        directed=False,
        dropped_self_loops=g.dropped_self_loops,
        dropped_duplicates=g.dropped_duplicates,
    )


def components(g: CallGraph, connection: str) -> list[list[int]]:
    """``connection`` ("weak" or "strong") components as sorted id lists,
    largest first, ties on size broken toward the smallest member id."""
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(g.adjacency, connection=connection)
    members = np.argsort(labels, kind="stable")
    cuts = np.cumsum(np.bincount(labels, minlength=count))[:-1]
    comps = [part.tolist() for part in np.split(members, cuts)]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def weak_components(g: CallGraph) -> list[list[int]]:
    """Weakly connected components as sorted id lists, largest first.

    Ties on size break toward the component with the smallest member id.
    """
    return components(g, "weak")


def largest_wcc(g: CallGraph) -> CallGraph:
    """Induced subgraph on the largest weakly connected component.

    Node ids are re-densified in ascending original-id order; names are
    preserved.
    """
    keep = weak_components(g)[0]
    if len(keep) == g.n:
        return g
    remap = {old: new for new, old in enumerate(keep)}
    out = tuple(
        tuple(remap[v] for v in g.out_adj[u] if v in remap) for u in keep
    )
    inn = tuple(
        tuple(remap[v] for v in g.in_adj[u] if v in remap) for u in keep
    )
    return CallGraph(
        names=tuple(g.names[u] for u in keep),
        out_adj=out,
        in_adj=inn,
        directed=g.directed,
        dropped_self_loops=g.dropped_self_loops,
        dropped_duplicates=g.dropped_duplicates,
    )

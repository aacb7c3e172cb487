"""Canonical call-graph data model, ingestion and structural transforms.

A call graph is a simple directed graph: no self-edges, no duplicate
edges.  Node identity is the exact symbol string; ids are dense integers
assigned in first-appearance order by the loaders.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, count

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


@dataclass(frozen=True, eq=False)
class CallGraph:
    """Immutable simple graph with dense integer node ids, stored as CSR.

    Row u of the out-arcs, ``indices[indptr[u]:indptr[u + 1]]`` (int32),
    lists the successors of u in ascending order.  When ``directed`` is
    False every edge is stored in both directions and ``m`` counts
    unordered edges (half the stored arcs).  The tuple-of-tuples
    ``out_adj`` / ``in_adj`` are read-only views built on first read.
    """

    names: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = True
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        arcs = len(self.indices)
        return arcs if self.directed else arcs // 2

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the out-arcs."""
        return self.indptr, self.indices

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the in-arcs: row v lists the
        predecessors of v in ascending order."""
        if not self.directed:
            return self.csr
        tails, heads = self.arcs()
        return _csr(self.n, np.sort(heads * self.n + tails))

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        return _rows(*self.csr)

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        return _rows(*self.in_csr) if self.directed else self.out_adj

    def has_edge(self, u: int, v: int) -> bool:
        row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stored arc as int64 (tail, head) arrays, in row order."""
        tails = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return tails, self.indices.astype(np.int64)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``edges()`` as int64 (u, v) arrays, in the same order."""
        u, v = self.arcs()
        if self.directed:
            return u, v
        keep = u < v
        return u[keep], v[keep]

    def edges(self):
        """Iterate edges: (u, v) arcs if directed, u < v pairs otherwise."""
        return zip(*(a.tolist() for a in self.edge_arrays()))

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
        return np.diff(self.indptr).astype(np.int64)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.n)

    @cached_property
    def undirected(self) -> "CallGraph":
        """Symmetrized view (self when already undirected)."""
        return symmetrize(self)

    @cached_property
    def weak_search(self) -> tuple[np.ndarray, np.ndarray]:
        """``(preorder, parent)`` of one depth-first search of the
        symmetrized graph from every node in id order (see ``_dfs``):
        its trees are the weak components.  The symmetrized view owns
        it, so components, blocks and lambda1 share one search."""
        if self.directed:
            return self.undirected.weak_search
        return _dfs(*self.csr, range(self.n))[:2]

    @cached_property
    def adjacency(self):
        """Sparse 0/1 adjacency (a scipy ``csr_matrix`` over the ``csr``
        arrays); row u marks the stored arcs u -> v.  Only the benchmark
        tracer still reads it; no command or other helper does, so no
        command imports scipy."""
        import scipy.sparse as sp

        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_name_pairs(cls, pairs, extra_nodes=()) -> "CallGraph":
        """Build from (caller, callee) name pairs, canonicalizing.

        Ids follow first appearance scanning each pair caller-first,
        then ``extra_nodes``.  Self-loops are dropped and duplicate
        edges collapsed; the drop counts are recorded on the result.
        """
        return _from_tokens([name for a, b in pairs for name in (a, b)], extra_nodes)

    @classmethod
    def from_id_pairs(cls, n: int, pairs, names=None) -> "CallGraph":
        """Build from integer id pairs on nodes 0..n-1, canonicalizing.

        ``pairs`` is an ``(m, 2)`` integer array or any iterable of
        ``(u, v)`` pairs.
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        ends = np.asarray(pairs, dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise InputError(f"expected (u, v) pairs, got shape {ends.shape}")
        bad = np.flatnonzero(((ends < 0) | (ends >= n)).any(axis=1))
        if bad.size:
            u, v = ends[bad[0]].tolist()
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if names is None:
            names = tuple(f"n{i}" for i in range(n))
        return _canonical(n, tuple(names), ends.ravel())


def _csr(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(indptr, indices)`` of the ascending arc codes u * n + v."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
    return indptr, (codes % n).astype(np.int32)


def _ranges(starts, counts) -> np.ndarray:
    """The positions ``starts[i] .. starts[i] + counts[i] - 1``,
    concatenated in order: the CSR entries of a set of rows."""
    first = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return first + np.arange(first.size)


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform keeps no
    affinity mask (macOS, where fork is unsafe anyway)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _pmap(fn, shared, items, workers=None):
    """``fn(*shared, item)`` for each of ``items``, yielded in item order.

    Up to ``workers`` (default: one per CPU this process may run on)
    processes share the work, never more than there are items.  They
    are forked on the first read, so they see ``shared`` copy-on-write
    and only the items and results are pickled; the caller builds
    whatever ``fn`` reads lazily before that.  cgtopo starts no thread
    of its own and the pool's handler threads start after the fork, so
    the fork is safe.  The items run serially when one worker would do,
    where fork is unavailable and inside a worker, so pools never nest.
    Every worker is joined before the generator finishes or passes on
    an error, also when the reader stops early.
    """
    items = list(items)
    workers = min(workers or _cpus(), len(items))
    if (
        workers < 2
        or multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        for item in items:
            yield fn(*shared, item)
        return
    pool = multiprocessing.get_context("fork").Pool(workers, _pool_start, (fn, shared))
    try:
        yield from pool.imap(_pool_call, items)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


# the task of this pool worker, set by ``_pmap`` after the fork
_pool_task = None


def _pool_start(fn, shared) -> None:
    global _pool_task
    _pool_task = fn, shared


def _pool_call(item):
    fn, shared = _pool_task
    return fn(*shared, item)


def _unique(codes: np.ndarray) -> np.ndarray:
    """The distinct codes, ascending, by a sort: ``np.unique`` dedupes
    integers through a hash set (numpy 2.3+), 15 ms against 1 ms on 70k
    arc codes, and it leaves about 3 MiB more memory behind."""
    codes = np.sort(codes)
    return codes[np.diff(codes, prepend=-1) != 0]  # codes are >= 0


def _rows(indptr, indices) -> tuple[tuple[int, ...], ...]:
    flat = indices.tolist()
    ptr = indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


def _canonical(n: int, names: tuple[str, ...], ends: np.ndarray) -> CallGraph:
    """CallGraph on nodes 0..n-1 from flat int64 ids caller, callee, ...:
    self-loops dropped and duplicate arcs collapsed, both counted."""
    if n == 0:
        raise InputError("empty graph (0 nodes)")
    u, v = ends[0::2], ends[1::2]
    proper = u != v
    codes = u[proper] * n + v[proper]
    unique = _unique(codes)
    loops, dups = u.size - codes.size, codes.size - unique.size
    return CallGraph(names, *_csr(n, unique), True, loops, dups)


def _from_tokens(tokens: list[str], extra_nodes=()) -> CallGraph:
    """CallGraph from the flat name list caller, callee, caller, ...;
    ids follow first appearance, then ``extra_nodes``."""
    index = dict(zip(dict.fromkeys(chain(tokens, extra_nodes)), count()))
    ends = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    return _canonical(len(index), tuple(index), ends)


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
    tokens: list[str] = []
    for lineno, raw in enumerate(_decode(source).splitlines(), start=1):
        if raw.startswith("#"):
            continue
        pair = raw.split()
        if len(pair) != 2:
            if not pair:
                continue
            raise ParseError(f"expected 'caller callee', got {len(pair)} tokens", lineno)
        tokens += pair
    return _from_tokens(tokens)


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
    tokens: list[str] = []
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
            tokens += map(_dot_unquote, edge.group("src", "dst"))
    return _from_tokens(tokens)


def load_graph(path, fmt: str) -> CallGraph:
    """Load a graph file: DOT subset when ``fmt`` is "dot", else edge list."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_dot_subset(data) if fmt == "dot" else load_edge_list(data)


def to_edge_list(g: CallGraph, drop_isolated: bool = False) -> str:
    """Serialize to edge-list text whose reload has g's names and
    name-level arcs.

    Edges are ordered so node names first appear in id order wherever
    the arcs allow it, so the reload keeps g's ids when they follow
    first appearance, as every loaded graph's do.  No edge list can
    carry other ids: then the reload is g renumbered.  Isolated nodes
    cannot be represented in the format and raise unless
    ``drop_isolated``; a written name that is not one whitespace-free
    token, or that starts a line with ``#`` (a comment), always raises.
    """
    n = g.n
    # the smallest neighbour of each node, either direction; n if none
    first = np.full(n, n, dtype=np.int64)
    for indptr, indices in (g.csr, g.in_csr):
        has = np.flatnonzero(np.diff(indptr))
        first[has] = np.minimum(first[has], indices[indptr[has]])
    if not drop_isolated and (first == n).any():
        raise InputError("edge-list format cannot represent isolated nodes")
    tails, heads = g.arcs()
    arcs = tails * n + heads
    # isin operands are distinct: codes by construction, leads each add a new node
    ids = np.arange(n - 1, dtype=np.int64)
    forward = np.isin(ids * n + ids + 1, arcs, assume_unique=True).tolist()
    # one leading edge per node, in id order, introducing the node: to
    # its smallest neighbour, already introduced when smaller; else to
    # t + 1 when t calls it, so the callee's id follows
    introduced = [False] * n
    lead = []
    for t, u in enumerate(first.tolist()):
        if introduced[t] or u == n:
            continue
        if u < t:
            lead.append((u, t))
        elif forward[t]:
            lead.append((t, t + 1))
            introduced[t + 1] = True
        else:
            lead.append((t, u))
            introduced[u] = True
    lo, hi = np.array(lead, dtype=np.int64).reshape(-1, 2).T
    lead_codes = np.where(
        np.isin(lo * n + hi, arcs, assume_unique=True), lo * n + hi, hi * n + lo
    )
    u, v = g.edge_arrays()
    codes = u * n + v
    codes = np.concatenate(
        (lead_codes, codes[~np.isin(codes, lead_codes, assume_unique=True)])
    )
    names = g.names
    callers = np.zeros(n, dtype=bool)
    callers[codes // n] = True
    for i in np.flatnonzero(first < n).tolist():
        name = names[i]
        if name.split() != [name] or (callers[i] and name.startswith("#")):
            raise InputError(f"edge-list format cannot carry node name {name!r}")
    pairs = zip((codes // n).tolist(), (codes % n).tolist())
    return "\n".join(f"{names[a]} {names[b]}" for a, b in pairs) + "\n"


# -- structural transforms ------------------------------------------------


def symmetrize(g: CallGraph) -> CallGraph:
    """Undirected view: {i, j} present iff (i, j) or (j, i) in g."""
    if not g.directed:
        return g
    tails, heads = g.arcs()
    codes = _unique(np.concatenate((tails * g.n + heads, heads * g.n + tails)))
    indptr, indices = _csr(g.n, codes)
    return replace(g, indptr=indptr, indices=indices, directed=False)


def _dfs(indptr, indices, roots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth-first search of a CSR graph from each unvisited root in turn.

    Returns ``(preorder, parent, postorder)``: the nodes in the order the
    search enters them and in the order it leaves them, and each node's
    tree parent, -1 at a root and at a node no root reaches (such nodes
    are in neither order).  The search keeps a cursor per node, so it
    reads each arc once, and a stack instead of recursion, so any depth
    runs.
    """
    ptr, nbr = indptr.tolist(), indices.tolist()
    cursor = ptr[:-1]
    parent = [-1] * len(cursor)
    seen = [False] * len(cursor)
    preorder, postorder = [], []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        preorder.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            i, end = cursor[v], ptr[v + 1]
            while i < end and seen[nbr[i]]:
                i += 1
            if i < end:
                w = nbr[i]
                cursor[v] = i + 1
                seen[w] = True
                parent[w] = v
                preorder.append(w)
                stack.append(w)
            else:
                stack.pop()
                postorder.append(v)
    return tuple(np.array(a, dtype=np.int64) for a in (preorder, parent, postorder))


def components(g: CallGraph, connection: str) -> list[list[int]]:
    """``connection`` ("weak" or "strong") components as sorted id lists,
    largest first, ties on size broken toward the smallest member id.

    A component is one tree of a depth-first search: over the symmetrized
    graph for weak ones; for strong ones (Kosaraju; Sharir 1981) over the
    in-arcs, from the roots in reverse postorder of a search over the
    out-arcs.
    """
    if connection == "weak":
        order, parent = g.weak_search
    else:
        finished = _dfs(*g.csr, range(g.n))[2]
        order, parent, _ = _dfs(*g.in_csr, finished[::-1].tolist())
    # each tree is the run of the preorder that starts at its root
    roots = np.flatnonzero(parent[order] < 0)
    comps = [np.sort(tree).tolist() for tree in np.split(order, roots[1:])]
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
    keep = np.array(weak_components(g)[0])
    if len(keep) == g.n:
        return g
    # a weak component is closed under arcs: keep every arc out of it
    remap = np.full(g.n, -1)
    remap[keep] = np.arange(len(keep))
    tails, heads = g.arcs()
    inside = remap[tails] >= 0
    codes = remap[tails[inside]] * len(keep) + remap[heads[inside]]
    indptr, indices = _csr(len(keep), codes)
    names = tuple(g.names[u] for u in keep.tolist())
    return replace(g, names=names, indptr=indptr, indices=indices)

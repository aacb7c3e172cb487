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
from itertools import count, filterfalse
from numbers import Integral, Real

import numpy as np


class CallGraphError(Exception):
    """Base class for all cgtopo errors."""


class InputError(CallGraphError):
    """Invalid input (malformed text, empty graph, ...); the CLI exits 2 on it."""


class ParseError(InputError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(InputError):
    """A parameter value that is wrong whatever the graph; the CLI exits 3
    on it."""


def _integer(name: str, value, low: int, error=ConfigError) -> int:
    """``value`` as a Python int; ``error`` unless it is an integer (numpy's
    too, but not a bool) of at least ``low``.  This and ``_real`` are the
    one rule for settings, so a report writes them as plain JSON numbers."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} {value!r} is not an integer")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


def _real(name: str, value, error=ConfigError) -> float:
    """``value`` as a Python float; ``error`` unless it is a real number
    (numpy's too, but not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return float(value)


def _flag(name: str, value) -> bool:
    """``value`` as a Python bool; ConfigError unless it is a bool (numpy's too)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    return bool(value)


# the input formats every loader, config and command accepts
_INPUT_FORMATS = ("edgelist", "dot")


def _check_format(fmt) -> None:
    """ConfigError unless ``fmt`` is one of ``_INPUT_FORMATS``."""
    if fmt not in _INPUT_FORMATS:
        raise ConfigError(f"unknown input format: {fmt!r}")


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
        n = self.n
        return _csr(n, _codes(n, self.indices, _tails(self.indptr, _code_type(n))))

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
        return _tails(self.indptr, np.int64), self.indices.astype(np.int64)

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
        command imports scipy.  Needs the ``test`` extra; goes with the
        benchmark refresh."""
        import scipy.sparse as sp

        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_name_pairs(cls, pairs) -> "CallGraph":
        """Build from (caller, callee) name pairs, canonicalizing.

        Ids follow first appearance scanning each pair caller-first.
        Self-loops are dropped and duplicate edges collapsed; the drop
        counts are recorded on the result.
        """
        return _from_tokens([[name for a, b in pairs for name in (a, b)]])

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


def _code_type(n: int) -> type:
    """The narrowest signed integer type that holds every arc code
    ``u * n + v`` on n nodes, up to n * n - 1: int32 up to n = 46,340,
    int64 above.  The one rule for the width of arc codes."""
    return np.int32 if n * n - 1 <= np.iinfo(np.int32).max else np.int64


def _codes(n: int, tails, heads, out=None) -> np.ndarray:
    """The arc codes ``tails * n + heads``, in the code type of n, built
    in place in ``out`` (a new array if None).  The tails are widened
    before the multiply: a narrower product wraps silently."""
    if out is None:
        out = np.empty(len(tails), dtype=_code_type(n))
    out[...] = tails
    out *= n
    out += heads
    return out


def _tails(indptr, dtype) -> np.ndarray:
    """The tail of each stored arc of the CSR rows ``indptr``, in row
    order, as ``dtype``."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=dtype), np.diff(indptr))


def _csr(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(indptr, indices)`` of the arc codes u * n + v.

    The one CSR build: ``codes`` is sorted in place and its repeats are
    dropped; each row starts at the first code of at least u * n, found
    by a binary search with keys of the codes' own type (other keys
    would copy the codes), and the heads are the codes modulo n.  Pass
    the only reference to ``codes`` and it is freed once deduplicated.
    """
    codes.sort()
    codes = _distinct(codes)
    starts = np.arange(n + 1, dtype=codes.dtype)
    starts *= n
    indptr = np.searchsorted(codes, starts).astype(np.int32)
    indices = np.empty(codes.size, dtype=np.int32)
    np.remainder(codes, n, out=indices)
    return indptr, indices


def _ranges(starts, counts) -> tuple[np.ndarray, np.ndarray]:
    """``(which, positions)``: the CSR entries ``starts[i] .. starts[i] +
    counts[i] - 1`` of a set of rows, concatenated in order, and each one's i."""
    which = np.repeat(np.arange(len(counts)), counts)
    first = (starts - np.cumsum(counts) + counts)[which]
    return which, first + np.arange(which.size)


# The batch budget, in 8-byte array cells (4 MiB).  Each batched kernel
# charges an item for the cells its batch keeps alive: a bitset word
# paths._LEVEL_ARRAYS per node, a Brandes source its (source, node)
# cells and DAG arcs, a wedge of the triangle count eight.  One batch's
# transients then stay within three budgets plus 32 B per stored arc
# whatever the graph size, as tests/test_memory.py checks; the loaders
# size their runs from it too.
_BATCH_CELLS = 1 << 19


def _batches(cost):
    """Consecutive ``(start, stop)`` spans over items of per-item cell
    ``cost``: each the longest run whose summed cost fits
    ``_BATCH_CELLS``, and never empty.  The one batch rule of every
    batched kernel, so the partition depends on the graph only."""
    ends = np.cumsum(cost)
    start = 0
    while start < len(ends):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _BATCH_CELLS, "right")))
        yield start, stop
        start = stop


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
    of its own and the executor forks every worker before it starts its
    manager thread, so the fork is safe.  The items run serially when
    one worker would do, where fork is unavailable and inside a worker,
    so pools never nest.  Every worker is joined before the generator
    finishes or passes on an error, also when the reader stops early; a
    worker that dies raises ``BrokenProcessPool``.
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
    # imported here, so that a command that never forks loads neither it nor logging
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, fork, _pool_start, (fn, shared)) as pool:
        yield from pool.map(_pool_call, items)


# the task of this pool worker, set by ``_pmap`` after the fork
_pool_task = None


def _pool_start(fn, shared) -> None:
    global _pool_task
    _pool_task = fn, shared


def _pool_call(item):
    fn, shared = _pool_task
    return fn(*shared, item)


def _sub_seed(*keys) -> int:
    """The seed of item ``keys`` (base seed, then indices), in any run order."""
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0])


def _unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, by a sort: ``np.unique`` dedupes
    integers through a hash set (numpy 2.3+), 15 ms against 1 ms on 70k
    arc codes, and it leaves about 3 MiB more memory behind."""
    return _distinct(np.sort(values))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """``ascending`` less its repeats, by a bool mask of first copies."""
    first = np.empty(ascending.size, dtype=bool)
    first[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


def _rows(indptr, indices) -> tuple[tuple[int, ...], ...]:
    flat = indices.tolist()
    ptr = indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))


def _canonical(n: int, names: tuple[str, ...], ends: np.ndarray) -> CallGraph:
    """CallGraph on nodes 0..n-1 from flat integer ids caller, callee, ...:
    self-loops dropped and duplicate arcs collapsed, both counted."""
    if n == 0:
        raise InputError("empty graph (0 nodes)")
    u, v = ends[0::2], ends[1::2]
    proper = u != v
    arcs = int(np.count_nonzero(proper))
    indptr, indices = _csr(n, _codes(n, u, v)[proper])
    return CallGraph(names, indptr, indices, True, u.size - arcs, arcs - indices.size)


def _from_tokens(runs) -> CallGraph:
    """CallGraph from the flat name list caller, callee, caller, ...,
    given as consecutive runs of names; ids follow first appearance.
    Each run's names become ids before the next run is read, so a
    loader holds one run's strings at a time.  The name index and the
    runs' id arrays are freed before the arcs are canonicalized."""
    index: dict[str, int] = {}
    ends = np.concatenate(
        [np.zeros(0, dtype=np.int32), *(_intern(index, names) for names in runs)]
    )
    names = tuple(index)
    del index
    return _canonical(len(names), names, ends)


def _intern(index: dict[str, int], names: list[str]) -> np.ndarray:
    """The int32 ids of ``names``; each name not yet in ``index`` is
    added to it first, under the next id, in order of first appearance."""
    # update stores each new name before the filter reads the next one,
    # so a repeated new name is stored once
    index.update(zip(filterfalse(index.__contains__, names), count(len(index))))
    return np.fromiter(map(index.__getitem__, names), dtype=np.int32, count=len(names))


# -- loaders -------------------------------------------------------------

# a line end as ``str.splitlines`` finds it: the one line rule of the
# loaders and of their error line numbers
_LINE_END = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _line_of(text: str, pos: int) -> int:
    """The 1-based number of the line that holds position ``pos``."""
    return 1 + sum(1 for _ in _LINE_END.finditer(text, 0, pos))


def _decode(source: bytes | str) -> str:
    """``source`` as text less a leading byte-order mark, no part of a
    name; ParseError at the line of the first invalid UTF-8 byte."""
    try:
        text = source if isinstance(source, str) else source.decode("utf-8")
    except UnicodeDecodeError as exc:
        valid = source[: exc.start].decode("utf-8")
        raise ParseError("input is not valid UTF-8", _line_of(valid, len(valid))) from None
    return text.removeprefix("\ufeff")


def _line_runs(text: str, start: int = 0, stop: int | None = None):
    """``text[start:stop].splitlines()`` in consecutive runs of lines,
    each as ``(number of its first line, lines)``.

    A run ends at the first line end at least ``_BATCH_CELLS // 64``
    characters in.  Its line and name strings take a few dozen bytes a
    character, a small part of the batch budget of ``_BATCH_CELLS``
    8-byte cells, so beyond the decoded text a loader holds the names
    and ids read so far and one run.
    """
    stop = len(text) if stop is None else stop
    lineno = _line_of(text, start)
    while start < stop:
        end = _LINE_END.search(text, start + _BATCH_CELLS // 64, stop)
        cut = end.end() if end else stop
        lines = text[start:cut].splitlines()
        yield lineno, lines
        lineno += len(lines)
        start = cut


def load_edge_list(source: bytes | str) -> CallGraph:
    """Parse `caller callee` lines into a canonical CallGraph.

    Lines are those ``str.splitlines`` makes.  Lines starting with
    ``#`` and blank lines are ignored.  Any other line must hold exactly
    two whitespace-separated tokens.
    """
    return _from_tokens(map(_edge_list_names, _line_runs(_decode(source))))


def _edge_list_names(run) -> list[str]:
    """The caller and callee names of a run of edge-list lines, in order."""
    first, lines = run
    names: list[str] = []
    for lineno, raw in enumerate(lines, start=first):
        if raw.startswith("#"):
            continue
        pair = raw.split()
        if len(pair) != 2:
            if not pair:
                continue
            raise ParseError(f"expected 'caller callee', got {len(pair)} tokens", lineno)
        names += pair
    return names


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


def load_dot_subset(source: bytes | str) -> CallGraph:
    """Parse a restricted DOT digraph: `a -> b [attrs];` statements
    inside one `digraph name { ... }` block.

    Attributes after an edge are ignored.  Subgraphs, undirected edges
    and any other DOT construct raise ParseError naming the construct.
    Node names may be bare identifiers or double-quoted strings, but a
    quoted name cannot contain `;` or a line end (statement separators;
    lines are those ``str.splitlines`` makes).
    """
    text = _decode(source)
    header = _DOT_HEADER.match(text)
    if header is None:
        raise ParseError("expected 'digraph ... {' header", 1)
    close = text.rfind("}")
    if close < header.end():
        raise ParseError("missing closing '}'", _line_of(text, len(text)))
    stray = re.compile(r"\S").search(text, close + 1)
    if stray:
        raise ParseError("content after closing '}'", _line_of(text, stray.start()))
    return _from_tokens(map(_dot_names, _line_runs(text, header.end(), close)))


def _dot_names(run) -> list[str]:
    """The edge end names of a run of DOT body lines, in order."""
    first, lines = run
    names: list[str] = []
    for lineno, line in enumerate(lines, start=first):
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
            names += map(_dot_unquote, edge.group("src", "dst"))
    return names


def load_graph(path, fmt: str) -> CallGraph:
    """Load a graph file: DOT subset when ``fmt`` is "dot", edge list
    when it is "edgelist", ConfigError before the file is opened else.
    The file's bytes are freed once decoded, before the parse."""
    _check_format(fmt)
    with open(path, "rb") as fh:
        text = _decode(fh.read())
    return load_dot_subset(text) if fmt == "dot" else load_edge_list(text)


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
    drop_isolated = _flag("drop_isolated", drop_isolated)
    n = g.n
    # the smallest neighbour of each node, either direction; n if none
    indptr, indices = g.undirected.csr
    first = np.where(np.diff(indptr) > 0, np.append(indices, n)[indptr[:-1]], n)
    linked = first < n
    if not drop_isolated and not linked.all():
        raise InputError("edge-list format cannot represent isolated nodes")
    # one leading edge per node, in id order, to its smallest neighbour,
    # but none for a node that an opener (a node with no smaller
    # neighbour) has as its smallest neighbour: the opener's edge
    # introduces it
    opens = linked & (np.arange(n) < first)
    introduced = np.zeros(n, dtype=bool)
    introduced[first[opens]] = True
    t = np.flatnonzero(linked & ~introduced)
    lo, hi = np.minimum(t, first[t]), np.maximum(t, first[t])
    # isin operands are distinct: codes by construction, leads each add a new node
    lead_codes = _codes(n, lo, hi)
    stored = np.isin(lead_codes, _codes(n, *g.arcs()), assume_unique=True)
    lead_codes = np.where(stored, lead_codes, _codes(n, hi, lo))
    codes = _codes(n, *g.edge_arrays())
    codes = np.concatenate(
        (lead_codes, codes[~np.isin(codes, lead_codes, assume_unique=True)])
    )
    names = g.names
    callers = np.zeros(n, dtype=bool)
    callers[codes // n] = True
    for i in np.flatnonzero(linked).tolist():
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
    n, m = g.n, g.indices.size
    tails = _tails(g.indptr, _code_type(n))
    codes = np.empty(2 * m, dtype=tails.dtype)
    _codes(n, tails, g.indices, out=codes[:m])
    _codes(n, g.indices, tails, out=codes[m:])
    del tails
    indptr, indices = _csr(n, codes)
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


def _trees(order, parent) -> list[list[int]]:
    """The trees of a depth-first search (see ``_dfs``) as sorted id
    lists, largest first, ties on size broken toward the smallest member
    id: each tree is the run of the preorder ``order`` that starts at a
    root, a node whose ``parent`` is -1."""
    roots = np.flatnonzero(parent[order] < 0)
    comps = [np.sort(tree).tolist() for tree in np.split(order, roots[1:])]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def weak_components(g: CallGraph) -> list[list[int]]:
    """Weakly connected components as sorted id lists, largest first.

    Ties on size break toward the component with the smallest member id.
    """
    return _trees(*g.weak_search)


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
    codes = _codes(len(keep), remap[tails[inside]], remap[heads[inside]])
    indptr, indices = _csr(len(keep), codes)
    names = tuple(g.names[u] for u in keep.tolist())
    return replace(g, names=names, indptr=indptr, indices=indices)

"""Output checker: independent oracles plus the checked-in reference.

Every timed output is checked two ways.

* Oracles, for any seed.  Each input graph is parsed here with numpy and
  every metric with an independent formulation is recomputed: networkx
  for betweenness and clustering, ``scipy.sparse.linalg.eigsh`` for
  lambda1, scipy components, a sparse multi-source BFS for geodesics,
  a re-simulation of the documented SIS process for the sweep, and
  numpy for degree, assortativity, scale-free and reciprocity figures.
  Metrics without a cheap oracle (the degree-law fits, the clustering
  profile) are checked for structure and for their identities with the
  oracle values (profile row d=1 equals clustering by degree; every
  node's neighbour pairs land in exactly one distance class).
* The reference, where ``reference/seed-<n>.json`` exists: every field
  of the JSON outputs must match it.  The analyze-powerlaw input of every
  seed is a relabelling of one graph, so at seeds without a reference
  its report is compared with the baseline seed's, per-node fields
  excepted.

Tolerances: integers, strings and sweep extinction probabilities
exactly; floats within 1e-9 relative, except lambda1, which
``tests/test_acceptance.py`` pins to 1e-6 absolute (and beta_c = 1/lambda1
with it, at 1e-6 relative).  ``spectral.iterations`` and ``residual``
are solver diagnostics and never compared, so that a solver swap is
not a failure.

A check returns ``{unit: [messages]}`` over the workload's checked
units: the 10 metric sections of a report, the 6 corpus entries, or the
5 sweep ratios.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cached_property
from math import fsum
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

METRICS = (
    "degree",
    "assortativity",
    "scale_free",
    "clustering",
    "clustering_profile",
    "geodesic",
    "betweenness",
    "components",
    "reciprocity",
    "spectral",
)
CORPUS_METRICS = (
    "degree",
    "assortativity",
    "scale_free",
    "clustering",
    "geodesic",
    "components",
    "reciprocity",
    "spectral",
)
SUMMARY_COLUMNS = {
    "n": ("graph", "n"),
    "m": ("graph", "m"),
    "avg_degree": ("degree", "in", "summary", "mean"),
    "gamma_in": ("degree", "in", "power_law", "gamma"),
    "gamma_out": ("degree", "out", "power_law", "gamma"),
    "lambda1": ("spectral", "lambda1"),
    "beta_c": ("spectral", "beta_c"),
    "S": ("scale_free", "S"),
    "global_c": ("clustering", "global_c"),
    "assortativity_in_in": ("assortativity", "in_in", "rho"),
    "assortativity_out_out": ("assortativity", "out_out", "rho"),
    "assortativity_total": ("assortativity", "total", "rho"),
    "ell": ("geodesic", "harmonic_mean_ell"),
    "wcc_count": ("components", "wcc_count"),
    "scc_count": ("components", "scc_count"),
    "pct_scc": ("components", "largest_scc_fraction"),
    "reciprocity_rho": ("reciprocity", "rho"),
}
LAMBDA_ABS_TOL = 1e-6
FLOAT_REL_TOL = 1e-9
# report fields that hold the input path, which differs per checkout
_PATH_FIELDS = {("config", "input"), ("config", "label"), ("graph", "label"), ("config", "manifest")}
_SOLVER_FIELDS = {"iterations", "residual"}


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def close(got, want, rel=FLOAT_REL_TOL, abs_tol=1e-15) -> bool:
    if want is None:
        return got is None
    return is_number(got) and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


class Digraph:
    """Canonical directed graph on dense ids (first-appearance order)."""

    def __init__(self, names, src, dst):
        self.names = list(names)
        self.n = len(self.names)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.m = len(self.src)

    @classmethod
    def from_edge_list(cls, text: str) -> "Digraph":
        index: dict[str, int] = {}
        us, vs = [], []
        for raw in text.splitlines():
            if not raw.strip() or raw.startswith("#"):
                continue
            a, b = raw.split()
            for name in (a, b):
                if name not in index:
                    index[name] = len(index)
            us.append(index[a])
            vs.append(index[b])
        n = len(index)
        u, v = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
        codes = np.unique(u[u != v] * n + v[u != v])
        return cls(index, codes // n, codes % n)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        data = np.ones(self.m, dtype=np.float64)
        return sp.csr_matrix((data, (self.src, self.dst)), shape=(self.n, self.n))

    @cached_property
    def undirected(self) -> sp.csr_matrix:
        a = self.matrix
        return ((a + a.T) > 0).astype(np.float64).tocsr()

    @cached_property
    def in_deg(self):
        return np.bincount(self.dst, minlength=self.n)

    @cached_property
    def out_deg(self):
        return np.bincount(self.src, minlength=self.n)

    @cached_property
    def und_deg(self):
        return np.diff(self.undirected.indptr)

    def largest_wcc(self) -> "Digraph":
        """Largest weak component; size ties go to the smallest member id."""
        count, labels = connected_components(self.matrix, directed=True, connection="weak")
        sizes = np.bincount(labels)
        first = np.full(count, self.n)
        np.minimum.at(first, labels, np.arange(self.n))
        best = min(range(count), key=lambda c: (-sizes[c], first[c]))
        keep = np.flatnonzero(labels == best)
        if len(keep) == self.n:
            return self
        rank = np.full(self.n, -1)
        rank[keep] = np.arange(len(keep))
        inside = (rank[self.src] >= 0) & (rank[self.dst] >= 0)
        return Digraph(
            [self.names[i] for i in keep], rank[self.src[inside]], rank[self.dst[inside]]
        )


class GraphOracle:
    """Expected metric values of one input graph, computed on demand."""

    def __init__(self, text: str):
        self.full = Digraph.from_edge_list(text)
        self.wcc = self.full.largest_wcc()

    @cached_property
    def components(self) -> dict:
        a = self.full.matrix
        _, weak = connected_components(a, directed=True, connection="weak")
        _, strong = connected_components(a, directed=True, connection="strong")
        weak_sizes, strong_sizes = np.bincount(weak), np.bincount(strong)
        return {
            "wcc_count": len(weak_sizes),
            "scc_count": len(strong_sizes),
            "scc_nontrivial_count": int((strong_sizes >= 2).sum()),
            "largest_scc_fraction": int(strong_sizes.max()) / self.full.n,
            "largest_wcc_size": int(weak_sizes.max()),
        }

    @cached_property
    def lambda1(self) -> float:
        a = self.wcc.undirected
        if a.shape[0] <= 500:
            return float(np.linalg.eigvalsh(a.toarray())[-1])
        from scipy.sparse.linalg import eigsh

        return float(eigsh(a, k=1, which="LA", return_eigenvectors=False)[0])

    @cached_property
    def clustering(self) -> dict:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.wcc.n))
        g.add_edges_from(zip(self.wcc.src.tolist(), self.wcc.dst.tolist()))
        per_node = nx.clustering(g)
        deg = self.wcc.und_deg
        by_degree: dict[int, list[float]] = {}
        for v in range(self.wcc.n):
            if deg[v] >= 2:
                by_degree.setdefault(int(deg[v]), []).append(per_node[v])
        defined = [c for vals in by_degree.values() for c in vals]
        return {
            "global_c": fsum(defined) / len(defined) if defined else None,
            "defined_count": len(defined),
            "by_degree": {k: fsum(v) / len(v) for k, v in sorted(by_degree.items())},
        }

    @cached_property
    def betweenness(self) -> dict[str, float]:
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.wcc.n))
        g.add_edges_from(zip(self.wcc.src.tolist(), self.wcc.dst.tolist()))
        values = nx.betweenness_centrality(g, normalized=False)
        return {self.wcc.names[v]: values[v] for v in range(self.wcc.n)}

    @cached_property
    def geodesic(self) -> dict:
        """Sparse multi-source BFS over the symmetrized component."""
        a = self.wcc.undirected.astype(np.float32)
        n = a.shape[0]
        per_level: dict[int, int] = {}
        for start in range(0, n, 256):
            sources = np.arange(start, min(start + 256, n))
            frontier = np.zeros((n, len(sources)), dtype=np.float32)
            frontier[sources, np.arange(len(sources))] = 1.0
            seen = frontier > 0
            level = 0
            while True:
                level += 1
                reached = (a @ frontier > 0) & ~seen
                found = int(reached.sum())
                if found == 0:
                    break
                per_level[level] = per_level.get(level, 0) + found
                seen |= reached
                frontier = reached.astype(np.float32)
        inverse = fsum(count / d for d, count in per_level.items())
        reachable = sum(per_level.values())
        pairs = n * (n - 1)
        return {
            "harmonic_mean_ell": pairs / inverse if reachable else None,
            "inverse_distance_sum": inverse,
            "reachable_pair_fraction": reachable / pairs,
        }

    def degree_ccdf(self, mode: str) -> list[tuple[int, float]]:
        deg = self.wcc.in_deg if mode == "in" else self.wcc.out_deg
        values, counts = np.unique(deg, return_counts=True)
        remaining = len(deg) - np.cumsum(counts)
        return [(int(d), int(r) / len(deg)) for d, r in zip(values, remaining)]

    def assortativity(self, mode: str) -> float | None:
        deg = {"in_in": self.wcc.in_deg, "out_out": self.wcc.out_deg, "total": self.wcc.und_deg}[mode]
        j = deg[self.wcc.src].tolist()
        k = deg[self.wcc.dst].tolist()
        count = len(j)
        m1 = fsum(a * b for a, b in zip(j, k)) / count
        m2 = fsum((a + b) / 2 for a, b in zip(j, k)) / count
        m3 = fsum((a * a + b * b) / 2 for a, b in zip(j, k)) / count
        denominator = m3 - m2 * m2
        return None if denominator == 0.0 else (m1 - m2 * m2) / denominator

    @cached_property
    def scale_free(self) -> dict:
        a = sp.triu(self.wcc.undirected).tocoo()
        deg = self.wcc.und_deg.astype(object)
        s = sum(deg[a.row] * deg[a.col])
        s_max = sum(d**3 for d in deg) // 2
        return {"s": float(s), "s_max": float(s_max), "S": s / s_max}

    @cached_property
    def reciprocity(self) -> dict:
        g = self.wcc
        codes = g.src * g.n + g.dst
        reciprocal = int(np.isin(g.dst * g.n + g.src, codes).sum())
        varrho = reciprocal / g.m
        a_bar = g.m / (g.n * (g.n - 1))
        rho = None if a_bar == 1.0 else (varrho - a_bar) / (1.0 - a_bar)
        return {"varrho": varrho, "a_bar": a_bar, "rho": rho}


# -- section checks ----------------------------------------------------------


def _expect(errors, where, got, want, rel=FLOAT_REL_TOL):
    if isinstance(want, (int, str)) and not isinstance(want, bool):
        ok = got == want and type(got) is type(want)
    else:
        ok = close(got, want, rel)
    if not ok:
        errors.append(f"{where}: got {got!r}, expected {want!r}")


def _structure(errors, where, node, fields):
    if not isinstance(node, dict):
        errors.append(f"{where}: missing")
        return
    if "skipped" in node:
        if not isinstance(node["skipped"], str):
            errors.append(f"{where}: bad skip marker")
        return
    for key, kind in fields.items():
        if not isinstance(node.get(key), kind) or isinstance(node.get(key), bool):
            errors.append(f"{where}.{key}: expected {kind}, got {node.get(key)!r}")


def _check_degree(o, sec, errors):
    for mode in ("in", "out"):
        deg = (o.wcc.in_deg if mode == "in" else o.wcc.out_deg).tolist()
        entry = sec.get(mode, {})
        mean = fsum(deg) / len(deg)
        variance = fsum((v - mean) ** 2 for v in deg) / (len(deg) - 1) if len(deg) > 1 else 0.0
        _expect(errors, f"degree.{mode}.summary.mean", entry.get("summary", {}).get("mean"), mean)
        _expect(errors, f"degree.{mode}.summary.variance", entry.get("summary", {}).get("variance"), variance)
        _expect(errors, f"degree.{mode}.zero_fraction", entry.get("zero_fraction"), deg.count(0) / len(deg))
        number = (int, float)
        _structure(errors, f"degree.{mode}.power_law", entry.get("power_law"),
                   {"gamma": float, "x_min": int, "n_tail": int, "log_likelihood": number, "ks_stat": number})
        _structure(errors, f"degree.{mode}.exponential", entry.get("exponential"),
                   {"rate": number, "x_min": int, "log_likelihood": number})
        _structure(errors, f"degree.{mode}.comparison", entry.get("comparison"),
                   {"lr": number, "normalized_lr": number, "verdict": str})


def _check_assortativity(o, sec, errors):
    for mode in ("in_in", "out_out", "total"):
        _expect(errors, f"assortativity.{mode}.rho", sec.get(mode, {}).get("rho"), o.assortativity(mode))


def _check_fields(name):
    """Check every field of the oracle's ``name`` dict against the section."""

    def run(o, sec, errors):
        for key, want in getattr(o, name).items():
            _expect(errors, f"{name}.{key}", sec.get(key), want)

    return run


def _slope_fit(by_degree: dict) -> dict | None:
    points = [(k, c) for k, c in sorted(by_degree.items()) if c > 0]
    if len(points) < 3:
        return None
    xs = [math.log(k) for k, _ in points]
    ys = [math.log(c) for _, c in points]
    mx, my = fsum(xs) / len(xs), fsum(ys) / len(ys)
    slope = fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / fsum((x - mx) ** 2 for x in xs)
    intercept = my - slope * mx
    residual = fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return {"slope": slope, "intercept": intercept, "residual_ss": residual, "n_points": len(points)}


def _check_clustering(o, sec, errors):
    want = o.clustering
    _expect(errors, "clustering.global_c", sec.get("global_c"), want["global_c"])
    _expect(errors, "clustering.defined_count", sec.get("defined_count"), want["defined_count"])
    got = sec.get("by_degree", {})
    if set(got) != {str(k) for k in want["by_degree"]}:
        errors.append("clustering.by_degree: degree set differs")
    else:
        for k, c in want["by_degree"].items():
            _expect(errors, f"clustering.by_degree.{k}", got[str(k)], c)
    fit = _slope_fit(want["by_degree"])
    node = sec.get("slope_fit", {})
    if fit is None:
        if "skipped" not in node:
            errors.append("clustering.slope_fit: expected a skip marker")
    else:
        for key, value in fit.items():
            _expect(errors, f"clustering.slope_fit.{key}", node.get(key), value)


def _check_profile(o, sec, errors):
    want = o.clustering
    _expect(errors, "clustering_profile.eligible_count", sec.get("eligible_count"), want["defined_count"])
    _expect(errors, "clustering_profile.d_max", sec.get("d_max"), 6)
    cells = sec.get("cells", {})
    degrees = {str(k) for k in want["by_degree"]}
    if set(cells) != {str(d) for d in range(1, 7)} or any(set(row) != degrees for row in cells.values()):
        errors.append("clustering_profile.cells: distance or degree set differs")
        return
    for k, c in want["by_degree"].items():
        _expect(errors, f"clustering_profile.cells.1.{k}", cells["1"][str(k)], c)
    aggregate = sec.get("aggregate", {})
    _expect(errors, "clustering_profile.aggregate.1", aggregate.get("1"), want["global_c"])
    parts = [aggregate.get(str(d)) for d in range(1, 7)]
    parts += [sec.get("beyond_fraction"), sec.get("disconnected_fraction")]
    if not all(is_number(p) and p >= 0 for p in parts):
        errors.append("clustering_profile: negative or missing class fraction")
    elif not math.isclose(fsum(parts), 1.0, rel_tol=FLOAT_REL_TOL):
        errors.append(f"clustering_profile: class fractions sum to {fsum(parts)!r}, expected 1")


def _check_geodesic(o, sec, errors):
    _check_fields("geodesic")(o, sec, errors)
    if sec.get("directed") is not False:
        errors.append("geodesic.directed: expected false")


def _check_betweenness(values, sec, errors):
    """The section must summarise the per-node values of betweenness.csv,
    which are checked against the oracle on their own."""
    if values is None:
        errors.append("betweenness: no per-node values to check against")
        return
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    vals = [v for _, v in ordered]
    _expect(errors, "betweenness.max", sec.get("max"), max(vals))
    _expect(errors, "betweenness.mean", sec.get("mean"), fsum(vals) / len(vals))
    _expect(errors, "betweenness.zero_fraction", sec.get("zero_fraction"), vals.count(0.0) / len(vals))
    if sec.get("top") != [[name, value] for name, value in ordered[:10]]:
        errors.append("betweenness.top: differs from the ten largest per-node values")
    positives = sorted(v for v in vals if v > 0)
    buckets = []
    if positives:
        lo = positives[0]
        while lo <= positives[-1]:
            buckets.append([lo, lo * 2.0, sum(1 for v in positives if lo <= v < lo * 2.0)])
            lo *= 2.0
    if sec.get("histogram") != buckets:
        errors.append("betweenness.histogram: differs from the per-node values")


def _check_spectral(o, sec, errors):
    lam = sec.get("lambda1")
    if not is_number(lam) or abs(lam - o.lambda1) > LAMBDA_ABS_TOL:
        errors.append(f"spectral.lambda1: got {lam!r}, oracle {o.lambda1!r}")
        return
    _expect(errors, "spectral.beta_c", sec.get("beta_c"), 1.0 / lam)


SECTION_CHECKS = {
    "degree": _check_degree,
    "assortativity": _check_assortativity,
    "scale_free": _check_fields("scale_free"),
    "clustering": _check_clustering,
    "clustering_profile": _check_profile,
    "geodesic": _check_geodesic,
    "components": _check_fields("components"),
    "reciprocity": _check_fields("reciprocity"),
    "spectral": _check_spectral,
}


def check_report(report: dict, oracle: GraphOracle, selected, node_betweenness=None) -> dict[str, list[str]]:
    """Check one report's sections; returns failures keyed by section."""
    failures: dict[str, list[str]] = {}
    graph_errors: list[str] = []
    graph = report.get("graph", {})
    for key, want in (("n", oracle.full.n), ("m", oracle.full.m), ("wcc_n", oracle.wcc.n), ("wcc_m", oracle.wcc.m)):
        _expect(graph_errors, f"graph.{key}", graph.get(key), want)
    for name in METRICS:
        errors = list(graph_errors)
        sec = report.get(name)
        if name not in selected:
            if sec != {"skipped": "not selected"}:
                errors.append(f"{name}: expected the not-selected marker")
        elif not isinstance(sec, dict) or "skipped" in sec:
            errors.append(f"{name}: missing or skipped: {sec!r}")
        else:
            try:
                if name == "betweenness":
                    _check_betweenness(node_betweenness, sec, errors)
                else:
                    SECTION_CHECKS[name](oracle, sec, errors)
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                errors.append(f"{name}: malformed section ({exc!r})")
        if errors:
            failures[name] = errors
    return failures


# -- reference comparison ----------------------------------------------------


def compare(got, want, path=(), skip=frozenset()) -> list[tuple[tuple, str]]:
    """Field-by-field comparison with the tolerance rules above; paths in
    ``skip`` are not compared."""
    if path in skip or path[-2:] in _PATH_FIELDS or path[-1:] and path[-1] in _SOLVER_FIELDS:
        return []
    where = ".".join(str(p) for p in path)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [(path, f"{where}: key set differs")]
        return [e for key in sorted(want) for e in compare(got[key], want[key], path + (key,), skip)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [(path, f"{where}: length differs")]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in compare(g, w, path + (i,), skip)]
    if isinstance(want, float) and "extinction_prob" not in path:
        if "lambda1" in path or "pairs" in path and path[-1] == 1:
            ok = is_number(got) and abs(got - want) <= LAMBDA_ABS_TOL
        elif "beta_c" in path:
            ok = close(got, want, rel=LAMBDA_ABS_TOL)
        else:
            ok = close(got, want)
    else:
        ok = got == want and type(got) is type(want)
    return [] if ok else [(path, f"{where}: got {got!r}, reference {want!r}")]


# -- per-workload output checks ---------------------------------------------


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell(value) -> str:
    return "" if value is None else str(value)


def _flatten(node, prefix, rows):
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif not isinstance(node, (list, tuple)):
        rows.append([prefix, _cell(node)])


def _add(failures, unit, message):
    failures.setdefault(unit, []).append(message)


# Per-node fields of a report: they change when the nodes are relabelled
# (names in the top list; summation order, and so the last bits that
# decide a bucket, in the histogram).
NODE_FIELDS = frozenset({("betweenness", "top"), ("betweenness", "histogram")})


def check_analyze(out_dir, oracle: GraphOracle, reference: dict | None, isomorphic=False) -> dict:
    """``isomorphic``: the reference report is of a relabelled copy of the
    input, so per-node fields are not compared with it."""
    out = Path(out_dir)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    failures: dict[str, list[str]] = {}
    # betweenness.csv: every node, against networkx
    rows = _read_csv(out / "betweenness.csv")
    reported = {name: float(value) for name, value in rows[1:]}
    if rows[0] != ["node", "betweenness"] or set(reported) != set(oracle.betweenness):
        _add(failures, "betweenness", "betweenness.csv: header or node set differs")
    else:
        for name, want in oracle.betweenness.items():
            if not close(reported[name], want, abs_tol=1e-9):
                _add(failures, "betweenness", f"betweenness.csv {name}: {reported[name]!r} vs {want!r}")
        if rows[1:] != [[n, _cell(v)] for n, v in sorted(reported.items(), key=lambda kv: (-kv[1], kv[0]))]:
            _add(failures, "betweenness", "betweenness.csv: not ranked by value, then name")
    for unit, errors in check_report(report, oracle, METRICS, reported).items():
        failures.setdefault(unit, []).extend(errors)
    for mode in ("in", "out"):
        got = _read_csv(out / f"ccdf_{mode}.csv")
        want = [["degree", "ccdf"]] + [[str(d), str(p)] for d, p in oracle.degree_ccdf(mode)]
        if got != want:
            _add(failures, "degree", f"ccdf_{mode}.csv differs from the degree oracle")
    flat: list = []
    _flatten(report, "", flat)
    got = _read_csv(out / "metrics.csv")
    if got[:1] != [["key", "value"]] or got[1:] != flat:
        differing = {row[0].split(".")[0] for row in got[1:] if row not in flat}
        if len(got) - 1 != len(flat) or not differing <= set(METRICS):
            differing = set(METRICS)
        for name in differing:
            _add(failures, name, "metrics.csv differs from report.json")
    profile = report.get("clustering_profile", {})
    cells = [[d, k, _cell(v)] for d, row in sorted(profile.get("cells", {}).items(), key=lambda kv: int(kv[0]))
             for k, v in sorted(row.items(), key=lambda kv: int(kv[0]))]
    aggregate = [[d, _cell(v)] for d, v in sorted(profile.get("aggregate", {}).items(), key=lambda kv: int(kv[0]))]
    if _read_csv(out / "clustering_profile.csv") != [["d", "k", "value"]] + cells or _read_csv(
        out / "clustering_profile_aggregate.csv"
    ) != [["d", "aggregate"]] + aggregate:
        _add(failures, "clustering_profile", "clustering_profile CSVs differ from report.json")
    if reference is not None:
        for path, message in compare(report, reference, skip=NODE_FIELDS if isomorphic else frozenset()):
            for name in (path[0],) if path and path[0] in METRICS else METRICS:
                _add(failures, name, message)
    return failures


def _spearman(a, b) -> float:
    from scipy.stats import rankdata

    ra, rb = rankdata(a), rankdata(b)
    ra, rb = ra - ra.mean(), rb - rb.mean()
    return float(fsum(ra * rb) / math.sqrt(fsum(ra * ra) * fsum(rb * rb)))


def check_corpus(out_dir, oracles: dict[str, GraphOracle], reference: dict | None) -> dict:
    out = Path(out_dir)
    result = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    labels = list(oracles)
    failures: dict[str, list[str]] = {}
    entries = result.get("entries", [])
    if [e.get("label") for e in entries] != labels or result.get("failures") != 0:
        for label in labels:
            _add(failures, label, "corpus.json: entry labels or failure count differ")
        return failures
    summary = _read_csv(out / "summary.csv")
    header = summary[0] if summary else []
    for i, (label, entry) in enumerate(zip(labels, entries)):
        if entry.get("error") is not None or not isinstance(entry.get("report"), dict):
            _add(failures, label, f"entry failed: {entry.get('error')!r}")
            continue
        for section, errors in check_report(entry["report"], oracles[label], CORPUS_METRICS).items():
            for message in errors:
                _add(failures, label, message)
        row = dict(zip(header, summary[i + 1])) if i + 1 < len(summary) else {}
        for column, key_path in SUMMARY_COLUMNS.items():
            node = entry["report"]
            for key in key_path:
                node = node.get(key) if isinstance(node, dict) else None
            want = _cell(node if is_number(node) else None)
            if row.get(column) != want:
                _add(failures, label, f"summary.csv {column}: {row.get(column)!r} vs {want!r}")
        if row.get("label") != label or row.get("error") != "":
            _add(failures, label, "summary.csv: label or error column differs")
    pairs = sorted((o.full.n, o.lambda1) for o in oracles.values())
    trend = result.get("lambda_vs_size") or {}
    got_pairs = trend.get("pairs", [])
    ok = len(got_pairs) == len(pairs) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= LAMBDA_ABS_TOL for g, w in zip(got_pairs, pairs)
    )
    if not ok or not close(trend.get("rank_correlation"), _spearman(*zip(*pairs))):
        for label in labels:
            _add(failures, label, "corpus.json: lambda_vs_size differs from the oracle")
    if reference is not None:
        for path, message in compare(result, reference):
            if len(path) >= 2 and path[0] == "entries":
                _add(failures, labels[path[1]], message)
            else:
                for label in labels:
                    _add(failures, label, message)
    return failures


def simulate_sweep(text: str, ratios, runs: int, delta: float, steps: int, seed: int):
    """Extinction fraction per ratio, re-simulating the documented SIS
    process: per step 2n uniforms (infection, then cure draws), infection
    with probability 1-(1-beta)^c for c infected neighbours, cures only
    for nodes infected before the step; run seeds from
    SeedSequence([seed, ratio index, run index])."""
    g = Digraph.from_edge_list(text)
    a = g.undirected
    n = g.n
    probs = []
    for i, ratio in enumerate(ratios):
        beta = ratio * delta
        extinct = 0
        for j in range(runs):
            run_seed = int(np.random.SeedSequence([seed, i, j]).generate_state(1, np.uint64)[0])
            rng = np.random.Generator(np.random.PCG64(run_seed))
            infected = np.zeros(n, dtype=bool)
            infected[rng.choice(n, size=1, replace=False)] = True
            for _ in range(steps):
                infect_draw = rng.random(n)
                cure_draw = rng.random(n)
                p_infect = 1.0 - (1.0 - beta) ** (a @ infected.astype(np.float64))
                newly = ~infected & (infect_draw < p_infect)
                infected = (infected & ~(cure_draw < delta)) | newly
                if not infected.any():
                    extinct += 1
                    break
        probs.append(extinct / runs)
    return probs


def check_sweep(out_dir, expected: dict, reference: dict | None) -> dict:
    result = json.loads((Path(out_dir) / "sweep.json").read_text(encoding="utf-8"))
    units = [str(r) for r in expected["ratios"]]
    failures: dict[str, list[str]] = {}
    if result.get("ratios") != expected["ratios"] or result.get("runs_per_ratio") != expected["runs"]:
        for unit in units:
            _add(failures, unit, "sweep.json: ratios or runs differ")
        return failures
    for unit, got, want in zip(units, result.get("extinction_prob", []), expected["extinction_prob"]):
        if got != want:
            _add(failures, unit, f"extinction_prob at ratio {unit}: {got!r}, re-simulation {want!r}")
    if reference is not None:
        for path, message in compare(result, reference):
            if len(path) == 2 and path[0] == "extinction_prob":
                _add(failures, units[path[1]], message)
            else:
                for unit in units:
                    _add(failures, unit, message)
    return failures


def load_reference(directory, seed: int) -> dict | None:
    path = Path(directory) / f"seed-{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))

"""Tests of the benchmark's own code: checker, DOT rendering, spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cgtopo.cli import main as cli_main  # noqa: E402
from cgtopo.fixtures import bridged_triangles, hierarchical_graph, star_graph  # noqa: E402
from cgtopo.generators import GNM, RandomGraphSpec, generate_random  # noqa: E402
from cgtopo.graph import load_dot_subset, load_edge_list, to_edge_list  # noqa: E402


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A full CSV analysis of a small random digraph, and its oracle."""
    tmp = tmp_path_factory.mktemp("analyze")
    g = generate_random(RandomGraphSpec(model=GNM, n=60, m=240, seed=3))
    text = to_edge_list(g, drop_isolated=True)
    path = tmp / "g.edges"
    path.write_text(text)
    out = tmp / "out"
    assert cli_main(["analyze", str(path), "--metrics", "all", "--output", "csv", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    return out, text, report


def _rewrite(out, report, tmp_path):
    """Copy the bundle with report.json replaced by ``report``."""
    copy = tmp_path / "bundle"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    (copy / "report.json").write_text(json.dumps(report))
    return copy


def test_clean_outputs_pass_oracles_and_reference(analyzed):
    out, text, report = analyzed
    assert check.check_analyze(out, check.GraphOracle(text), reference=report) == {}


def test_checker_flags_skipped_section(analyzed, tmp_path):
    out, text, report = analyzed
    bad = json.loads(json.dumps(report))
    bad["geodesic"] = {"skipped": "no reachable ordered pair"}
    failures = check.check_analyze(_rewrite(out, bad, tmp_path), check.GraphOracle(text), None)
    assert "geodesic" in failures


def test_checker_flags_perturbed_lambda1(analyzed, tmp_path):
    out, text, report = analyzed
    lam = report["spectral"]["lambda1"]
    assert lam > 1.0  # so a 1e-6 relative change exceeds the 1e-6 absolute tolerance
    bad = json.loads(json.dumps(report))
    bad["spectral"]["lambda1"] = lam * (1 + 1e-6)
    oracle_only = check.check_analyze(_rewrite(out, bad, tmp_path), check.GraphOracle(text), None)
    assert "spectral" in oracle_only
    assert [p for p, _ in check.compare(bad, report)] == [("spectral", "lambda1")]


def test_solver_diagnostics_are_not_compared(analyzed):
    _, _, report = analyzed
    swapped = json.loads(json.dumps(report))
    swapped["spectral"]["iterations"] += 17
    swapped["spectral"]["residual"] *= 3.0
    swapped["spectral"]["lambda1"] += 1e-9
    assert check.compare(swapped, report) == []


def test_checker_flags_changed_extinction_probability(tmp_path):
    g = star_graph(100)
    text = to_edge_list(g)
    path = tmp_path / "star.edges"
    path.write_text(text)
    ratios = [0.05, 0.2, 5.0]
    out = tmp_path / "out"
    args = ["sweep", str(path), "--ratios", "0.05,0.2,5.0", "--runs", "8", "--delta", "0.1",
            "--steps", "100", "--seed", "4", "--out", str(out)]
    assert cli_main(args) == 0
    expected = {
        "ratios": ratios,
        "runs": 8,
        "extinction_prob": check.simulate_sweep(text, ratios, 8, 0.1, 100, 4),
    }
    result = json.loads((out / "sweep.json").read_text())
    assert check.check_sweep(out, expected, reference=result) == {}
    result["extinction_prob"][1] = result["extinction_prob"][1] + 0.125
    (out / "sweep.json").write_text(json.dumps(result))
    assert set(check.check_sweep(out, expected, reference=None)) == {"0.2"}


def test_nonzero_exit_fails_every_unit():
    res = run.checked_run({"exit": 2, "out": "missing"}, 10, lambda out: {})
    assert res["failed"] == 10
    res = run.checked_run({"exit": 0, "out": "missing"}, 10, lambda out: {"geodesic": ["x"]})
    assert res["failed"] == 1


@pytest.mark.parametrize(
    "g",
    [bridged_triangles(10), hierarchical_graph(3), star_graph(100),
     load_edge_list('f(x) "g"\nback\\slash f(x)\nplain back\\slash\n')],
    ids=["bridged-triangles", "hierarchical-125", "star-101", "quoted-names"],
)
def test_dot_rendering_round_trips(g):
    text = to_edge_list(g, drop_isolated=True)
    want = load_edge_list(text)
    got = load_dot_subset(inputs.render_dot(text, "fixture-1"))
    assert (got.names, got.out_adj) == (want.names, want.out_adj)


def test_second_seed_gives_same_workload_shapes(tmp_path):
    a = inputs.materialise(tmp_path / "a", 7, "corpus-dot")
    b = inputs.materialise(tmp_path / "b", 8, "corpus-dot")
    inputs.validate(a, "corpus-dot")
    assert list(a["shapes"]) == list(b["shapes"])
    for label, (n, m) in a["shapes"].items():
        n2, m2 = b["shapes"][label]
        assert abs(n - n2) <= 0.01 * n and abs(m - m2) <= 0.1 * m, label


def _span(sid, parent, start, end, name="x", pid=1):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name, "pid": pid, "counts": {}}


def test_self_time_on_hand_built_tree():
    tree = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 6.0),  # overlaps a, as parallel workers do
        _span("a1", "a", 2.0, 3.0),
        _span("late", "b", 5.0, 7.0),  # runs past its parent: clipped
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({"root": 5.0, "a": 2.0, "b": 2.0, "a1": 1.0, "late": 2.0})


def test_layer_split_on_hand_built_sweep():
    tree = [
        _span("sweep", None, 0.0, 10.0, "epidemic.threshold_sweep"),
        _span("r1", "sweep", 0.0, 4.0, "epidemic.sis_simulate"),
        _span("s1", "r1", 0.0, 1.0, "graph.symmetrize"),
        _span("m1", "r1", 1.0, 2.0, "graph.adjacency"),
        _span("r2", "sweep", 5.0, 9.0, "epidemic.sis_simulate"),
        _span("s2", "r2", 5.0, 6.0, "graph.symmetrize"),
        _span("other", None, 10.0, 11.0, "graph.symmetrize"),  # outside the sweep
    ]
    m = spans.layer_metrics({"spans": tree, "pid": 1}, 12.0, 11.5, 1)
    assert m["graph.rebuild_share"] == pytest.approx(0.3)
    assert m["graph.rebuild_share.base_s"] == 10.0
    assert m["epidemic.sis_runs"] == 2
    assert m["epidemic.sis_simulate.s"] == 4.0
    assert m["trace.coverage"] == pytest.approx(11.0 / 12.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_traced_cli_run_records_every_layer(analyzed, tmp_path):
    _, text, _ = analyzed
    path = tmp_path / "g.edges"
    path.write_text(text)
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    argv = [sys.executable, str(BENCH / "spans.py"), "--spans-dir", str(spans_dir),
            "analyze", str(path), "--metrics", "all", "--output", "csv", "--out", str(tmp_path / "out")]
    subprocess.run(argv, check=True, env=run.child_env(), stdout=subprocess.DEVNULL, timeout=120)
    trace = spans.load_trace(spans_dir)
    names = {s["name"] for s in trace["spans"]}
    for layer in ("cli.import", "cli.main", "graph.load_edge_list", "degree.fit_power_law",
                  "topology.clustering_profile", "paths.betweenness", "paths.geodesic",
                  "epidemic.spectral", "report.analyze_graph", "report.write_csv_bundle"):
        assert layer in names
    m = spans.layer_metrics(trace, 10.0, 1.0, 1)
    assert m["paths.betweenness.arcs_computed"] == 60 * 240
    assert 0.0 < m["trace.coverage"] <= 1.0

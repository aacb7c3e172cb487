"""Report assembly, serialization, corpus runs, baseline, and the CLI."""

import json
import math
import multiprocessing.pool

import numpy as np
import pytest

from cgtopo import (
    AnalysisConfig,
    CallGraph,
    ConfigError,
    InputError,
    ParseError,
    RandomGraphSpec,
    SisParams,
    SpecError,
    ValidationError,
    analyze,
    analyze_corpus,
    analyze_graph,
    assortativity,
    clustering_profile,
    compare_baseline,
    degree_sequence,
    fit_exponential,
    fit_power_law,
    load_edge_list,
    parse_manifest,
    read_manifest,
    sample_power_law,
    spectral_radius,
    threshold_sweep,
    to_json,
)
from cgtopo.cli import main
from cgtopo.corpus import load_entry
from cgtopo import fixtures, graph, report
from cgtopo.epidemic import sweep_betas
from cgtopo.fixtures import (
    bridged_triangles,
    complete_graph,
    cycle_graph,
    hierarchical_graph,
    path_graph,
    permutation_core_graph,
    star_graph,
    to_edge_list,
    write_demo_corpus,
)
from cgtopo.generators import ERASED_CONFIG, GNM, generate_random
from cgtopo.report import (
    CORPUS_DEFAULT_METRICS,
    METRICS,
    corpus_summary_csv,
    write_csv_bundle,
)

from conftest import rebind

TOP_KEYS = {
    "graph",
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
    "baseline",
    "config",
    "version",
}


@pytest.fixture()
def sample_path(tmp_path):
    p = tmp_path / "sample.edges"
    p.write_text("a b\nb c\nc a\nc d\nd e\nx y\n", encoding="utf-8")
    return p


def _config(path, **kw):
    defaults = dict(input_path=str(path), metrics=tuple(METRICS), seed=5)
    defaults.update(kw)
    return AnalysisConfig(**defaults)


def test_report_has_exact_top_level_keys(sample_path):
    report = analyze(_config(sample_path))
    assert set(report) == TOP_KEYS


def test_unselected_metrics_marked_skipped(sample_path):
    report = analyze(_config(sample_path, metrics=("degree",)))
    assert report["spectral"] == {"skipped": "not selected"}
    assert "in" in report["degree"]


def test_graph_counts_full_versus_wcc(sample_path):
    report = analyze(_config(sample_path))
    # canonical counts cover the whole input, not just the giant piece
    assert report["graph"]["n"] == 7
    assert report["graph"]["m"] == 6
    assert report["graph"]["wcc_n"] == 5
    # component stats run on the full graph
    assert report["components"]["wcc_count"] == 2


def test_json_is_deterministic_and_newline_terminated(sample_path):
    r1 = to_json(analyze(_config(sample_path)))
    r2 = to_json(analyze(_config(sample_path)))
    assert r1 == r2
    assert r1.endswith("\n")
    json.loads(r1)  # round-trips


def test_report_round_trips_through_json(sample_path):
    report = analyze(_config(sample_path))
    assert json.loads(to_json(report)) == report


def test_json_never_contains_nan(sample_path):
    text = to_json(analyze(_config(sample_path)))
    assert "NaN" not in text and "Infinity" not in text


def test_degree_section_skip_coupling(tmp_path):
    # a graph whose indegree tail cannot be fitted must mark the
    # comparison as skipped too, not raise
    p = tmp_path / "flat.edges"
    p.write_text("a b\nc d\ne f\n", encoding="utf-8")
    report = analyze(_config(p, metrics=("degree",)))
    sec = report["degree"]["in"]
    assert "skipped" in sec["power_law"]
    assert "skipped" in sec["comparison"]


def test_metric_failure_degrades_to_skip_marker(tmp_path):
    # single reciprocal pair: assortativity denominator vanishes, the
    # report tags it instead of failing the run
    p = tmp_path / "pair.edges"
    p.write_text("a b\nb a\n", encoding="utf-8")
    report = analyze(_config(p))
    assert report["assortativity"]["total"]["rho"] is None
    assert report["assortativity"]["total"]["reason"]


def test_analyze_graph_reports_failures_list(sample_path):
    g = load_edge_list(sample_path.read_text())
    report, extras, failures = analyze_graph(g, _config(sample_path), "x")
    assert isinstance(failures, list)
    assert set(report) == TOP_KEYS


@pytest.mark.parametrize(
    "pairs, searches",
    [
        # connected: the weak search, shared by every user, and Kosaraju's two
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 0)], 3),
        # a 3-cycle and two separate edges: one more weak search, of the WCC
        ([(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)], 4),
    ],
)
def test_analysis_runs_one_weak_search_per_graph(monkeypatch, pairs, searches):
    original = graph._dfs
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    rebind(monkeypatch, original, counting)
    # serial, so a search in a pool worker is counted too
    monkeypatch.setattr(graph, "_cpus", lambda: 1)
    g = CallGraph.from_id_pairs(1 + max(max(p) for p in pairs), pairs)
    _, _, failures = analyze_graph(g, AnalysisConfig(), "g")
    assert failures == []
    assert len(calls) == searches


def test_csv_bundle_files_and_headers(tmp_path, sample_path):
    cfg = _config(sample_path)
    g = load_edge_list(sample_path.read_text())
    report, extras, _ = analyze_graph(g, cfg, "sample")
    out = tmp_path / "bundle"
    write_csv_bundle(report, extras, out)
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "key,value"
    ccdf = (out / "ccdf_in.csv").read_text().splitlines()
    assert ccdf[0] == "degree,ccdf"
    bw = (out / "betweenness.csv").read_text().splitlines()
    assert bw[0] == "node,betweenness"
    prof = (out / "clustering_profile.csv").read_text().splitlines()
    assert prof[0] == "d,k,value"


def test_manifest_parsing_four_and_six_fields(tmp_path):
    text = "lab1\tC\tkernel\ta.edges\nlab2\tC++\tbrowser\tb.edges\t10\t20\n"
    entries = parse_manifest(text, base_dir=str(tmp_path))
    assert entries[0].expected_n is None
    assert entries[1].expected_n == 10 and entries[1].expected_m == 20
    assert entries[1].path.endswith("b.edges")


def test_manifest_rejects_wrong_field_count():
    with pytest.raises(ParseError):
        parse_manifest("lab\tC\tkernel\n")
    with pytest.raises(ParseError):
        parse_manifest("lab\tC\tkernel\ta.edges\t10\n")


def test_manifest_count_validation(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("a b\nb c\n", encoding="utf-8")
    good = parse_manifest(f"g\tC\tx\tg.edges\t3\t2\n", base_dir=str(tmp_path))[0]
    assert load_entry(good).n == 3
    bad = parse_manifest(f"g\tC\tx\tg.edges\t4\t2\n", base_dir=str(tmp_path))[0]
    with pytest.raises(ValidationError):
        load_entry(bad)


def test_demo_manifest_counts_check_the_written_text(tmp_path, monkeypatch):
    # the manifest counts come from the graph, not from a reload of the
    # text, so a text that lost its last edge fails every entry
    entries = read_manifest(write_demo_corpus(tmp_path))
    assert len(entries) == 5
    for entry in entries:
        load_entry(entry)

    def cut(g, **kwargs):
        return "".join(to_edge_list(g, **kwargs).splitlines(True)[:-1])

    monkeypatch.setattr(fixtures, "to_edge_list", cut)
    for entry in read_manifest(write_demo_corpus(tmp_path / "cut")):
        with pytest.raises(ValidationError):
            load_entry(entry)


def test_corpus_summary_has_fixed_columns(corpus_dir):
    cfg = AnalysisConfig(
        input_path=str(corpus_dir / "manifest.tsv"),
        metrics=tuple(CORPUS_DEFAULT_METRICS),
        seed=7,
    )
    # restrict to the three fast fixtures to keep this test snappy
    manifest = corpus_dir / "small.tsv"
    lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
    manifest.write_text(
        "\n".join(l for l in lines if not l.startswith(("powerlaw", "gnm"))) + "\n",
        encoding="utf-8",
    )
    result = analyze_corpus(manifest, cfg, jobs=1)
    assert len(result["summary"]) == 3
    csv_text = corpus_summary_csv(result)
    header = csv_text.splitlines()[0].split(",")
    assert header[0] == "label"
    assert "lambda1" in header and "reciprocity_rho" in header
    for row in result["summary"]:
        assert row["error"] is None


def test_corpus_partial_failure_recorded(tmp_path):
    g = tmp_path / "ok.edges"
    g.write_text("a b\nb c\n", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "ok\tC\tx\tok.edges\nmissing\tC\tx\tnope.edges\n", encoding="utf-8"
    )
    cfg = AnalysisConfig(
        input_path=str(manifest), metrics=("degree", "components"), seed=1
    )
    result = analyze_corpus(manifest, cfg, jobs=1)
    assert result["failures"] == 1
    errs = {row["label"]: row["error"] for row in result["summary"]}
    assert errs["ok"] is None
    assert errs["missing"]


def test_corpus_strict_mode_propagates(tmp_path):
    g = tmp_path / "g.edges"
    g.write_text("a b\n", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("g\tC\tx\tg.edges\t9\t9\n", encoding="utf-8")
    cfg = AnalysisConfig(
        input_path=str(manifest), metrics=("components",), seed=1, strict=True
    )
    result = analyze_corpus(manifest, cfg, jobs=1)
    assert result["failures"] == 1


def test_baseline_ratios_near_one_for_matched_model(tmp_path):
    g = generate_random(RandomGraphSpec(model=GNM, n=120, m=420, seed=13))
    p = tmp_path / "g.edges"
    p.write_text(to_edge_list(g, drop_isolated=True), encoding="utf-8")
    cfg = _config(p, metrics=("clustering", "geodesic", "reciprocity"))
    report = analyze(cfg)
    spec = RandomGraphSpec(
        model=GNM, n=report["graph"]["n"], m=report["graph"]["m"], seed=13
    )
    cmp_res = compare_baseline(report, spec, replicates=4)
    cl = cmp_res["metrics"]["global_c"]
    assert 0.2 <= cl["ratio"] <= 5.0  # same model, same scale
    assert cmp_res["replicates"] == 4


def test_baseline_clustered_fixture_ratio_large(tmp_path):
    g = bridged_triangles(10)
    p = tmp_path / "t.edges"
    p.write_text(to_edge_list(g), encoding="utf-8")
    cfg = _config(p, metrics=("clustering",))
    report = analyze(cfg)
    spec = RandomGraphSpec(model=GNM, n=g.n, m=g.m, seed=3)
    cmp_res = compare_baseline(report, spec, replicates=10)
    assert cmp_res["metrics"]["global_c"]["ratio"] > 5.0


def test_baseline_geodesics_follow_the_report_direction():
    g = hierarchical_graph(3)
    spec = RandomGraphSpec(model=GNM, n=g.n, m=g.m, seed=1)
    ell = {}
    for directed in (False, True):
        cfg = AnalysisConfig(metrics=("geodesic",), directed_geodesics=directed)
        report, _, _ = analyze_graph(g, cfg, label="hierarchical-125")
        ell[directed] = compare_baseline(report, spec, replicates=3)["metrics"]["ell"]
    # no directed distance is shorter than its undirected one, so on the
    # same replicates the directed harmonic mean is the larger
    assert ell[True]["baseline_mean"] > ell[False]["baseline_mean"]
    assert ell[True]["observed"] > ell[False]["observed"]


def test_baseline_requires_two_replicates(tmp_path, sample_path):
    report = analyze(_config(sample_path, metrics=("clustering",)))
    with pytest.raises(ConfigError):
        compare_baseline(report, RandomGraphSpec(model=GNM, n=7, m=6, seed=1), 1)
    with pytest.raises(SpecError, match="seed"):
        compare_baseline(report, RandomGraphSpec(model=GNM, n=7, m=6, seed=-1), 2)


def test_cli_baseline_on_an_edgeless_graph_samples_nothing(tmp_path, capsys):
    # two nodes and no edge: every replicate is edgeless too, and each
    # measure is undefined on it, as on the observed graph
    p = tmp_path / "loops.edges"
    p.write_text("a a\nb b\n", encoding="utf-8")
    assert main(["baseline", str(p), "--replicates", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["geodesic"] == {"skipped": "geodesic mean needs n >= 2"}
    assert report["baseline"]["replicates"] == 3
    for key in ("global_c", "ell", "varrho"):
        assert report["baseline"]["metrics"][key] == {
            "observed": None,
            "baseline_mean": None,
            "baseline_std": None,
            "samples": 0,
            "ratio": None,
        }


@pytest.mark.parametrize(
    "model", [["--model", GNM], ["--model", ERASED_CONFIG, "--gamma", "2.5"]]
)
def test_cli_baseline_on_a_one_node_graph_samples_nothing(tmp_path, capsys, model):
    # the size comes from the graph, not from a flag, so n = 1 is no
    # config error: each replicate has one node too and samples nothing
    p = tmp_path / "loop.edges"
    p.write_text("a a\n", encoding="utf-8")
    assert main(["baseline", str(p), "--replicates", "3", *model]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["graph"]["n"] == 1
    for key in ("global_c", "ell", "varrho"):
        assert report["baseline"]["metrics"][key]["samples"] == 0


def test_config_errors_are_input_errors_no_graph_can_fix():
    assert issubclass(ConfigError, InputError)
    assert issubclass(SpecError, ConfigError)
    assert report.ConfigError is graph.ConfigError


_G = hierarchical_graph(2)
_SEQ = degree_sequence(_G, "total")


_SIS = SisParams(beta=0.5, delta=0.5, initial_infected=1, max_steps=5, seed=1)


# message: a pattern the error text must match, or None
@pytest.mark.parametrize(
    "call, no_graph_can_fix, message",
    [
        pytest.param(
            lambda: assortativity(_G, "sideways"), True, None, id="assortativity-mode"
        ),
        pytest.param(lambda: degree_sequence(_G, "sideways"), True, None, id="degree-mode"),
        pytest.param(lambda: clustering_profile(_G, 0), True, None, id="profile-d_max"),
        pytest.param(lambda: fit_power_law(_SEQ, 0), True, None, id="power-law-x_min"),
        pytest.param(lambda: fit_exponential(_SEQ, 0), True, None, id="exponential-x_min"),
        pytest.param(lambda: spectral_radius(_G, 0.0), True, None, id="spectral-tolerance"),
        pytest.param(
            lambda: bridged_triangles(0), True, None, id="bridged-triangles-count"
        ),
        pytest.param(lambda: hierarchical_graph(0), True, None, id="hierarchical-levels"),
        pytest.param(
            lambda: permutation_core_graph(5, 4, 1), True, None, id="core-m-below-n"
        ),
        pytest.param(
            lambda: permutation_core_graph(3, 7, 1), True, None, id="core-m-above-max"
        ),
        pytest.param(
            lambda: compare_baseline(
                analyze_graph(_G, AnalysisConfig(metrics=("degree",)), "g")[0],
                RandomGraphSpec(model=GNM, n=_G.n + 1, m=_G.m),
                2,
            ),
            False,
            None,
            id="baseline-spec-mismatch",
        ),
        # each case below used to pass, or to raise something other than
        # an InputError, or (a bare metric string) to be split into letters
        pytest.param(
            lambda: AnalysisConfig(d_max=2.5), True, "2.5 is not", id="config-d_max"
        ),
        pytest.param(
            lambda: AnalysisConfig(seed=True), True, "True is not", id="config-seed"
        ),
        pytest.param(
            lambda: AnalysisConfig(tolerance="x"),
            True,
            "real number",
            id="config-tolerance",
        ),
        pytest.param(
            lambda: AnalysisConfig(metrics="degree"),
            True,
            r"tuple of metric names \('degree', ",
            id="config-metrics",
        ),
        pytest.param(lambda: RandomGraphSpec(GNM, n=2.5), True, "2.5 is not", id="spec-n"),
        pytest.param(
            lambda: RandomGraphSpec(GNM, 5, m=True), True, "True is not", id="spec-m"
        ),
        pytest.param(
            lambda: RandomGraphSpec(GNM, 5, seed=1.5), True, "1.5 is not", id="spec-seed"
        ),
        pytest.param(
            lambda: RandomGraphSpec(ERASED_CONFIG, 5, gamma="x"),
            True,
            "gamma must be a real number",
            id="spec-gamma",
        ),
        pytest.param(
            lambda: sample_power_law(2.5, 3, np.random.default_rng(1), x_min=1.5),
            True,
            "x_min 1.5 is not",
            id="sampler-x_min",
        ),
        pytest.param(
            lambda: fit_power_law(_SEQ, x_min=1.5),
            True,
            "x_min 1.5 is not",
            id="power-law-x_min-1.5",
        ),
        pytest.param(
            lambda: clustering_profile(_G, 2.5),
            True,
            "d_max 2.5 is not",
            id="profile-d_max-2.5",
        ),
        pytest.param(
            lambda: compare_baseline(
                analyze_graph(_G, AnalysisConfig(metrics=("degree",)), "g")[0],
                RandomGraphSpec(model=GNM, n=_G.n, m=_G.m),
                2.5,
            ),
            True,
            "replicates 2.5 is not",
            id="baseline-replicates",
        ),
        pytest.param(
            lambda: threshold_sweep(_G, [0.5], runs_per_ratio=2.5, base_params=_SIS),
            True,
            "runs_per_ratio 2.5 is not",
            id="sweep-runs",
        ),
        pytest.param(
            lambda: spectral_radius(_G, tolerance=math.inf),
            True,
            r"tolerance must be in \(0, inf\), got inf",
            id="spectral-tolerance-inf",
        ),
        pytest.param(
            lambda: sweep_betas([0.5], 5, "x"),
            True,
            "delta must be a real number, got 'x'",
            id="sweep-delta-str",
        ),
        pytest.param(
            lambda: sweep_betas([0.5], 5, True),
            True,
            "delta must be a real number, got True",
            id="sweep-delta-bool",
        ),
        pytest.param(lambda: path_graph(True), True, "n True is not", id="path-n-bool"),
        pytest.param(lambda: path_graph(0), True, "n must be >= 1", id="path-n-0"),
        pytest.param(lambda: cycle_graph(0), True, "n must be >= 1", id="cycle-n-0"),
        pytest.param(
            lambda: complete_graph(-1), True, "n must be >= 1", id="complete-n-negative"
        ),
        pytest.param(lambda: star_graph(2.5), True, "leaves 2.5 is not", id="star-leaves"),
        pytest.param(
            lambda: star_graph(-1), True, "leaves must be >= 0", id="star-leaves-negative"
        ),
        pytest.param(
            lambda: sample_power_law(2.5, -1, np.random.default_rng(1)),
            True,
            "size must be >= 0",
            id="sampler-size",
        ),
    ],
)
def test_library_bad_values_raise_config_error_only_when_no_graph_can_fix(
    call, no_graph_can_fix, message
):
    with pytest.raises(InputError, match=message) as info:
        call()
    assert isinstance(info.value, ConfigError) == no_graph_can_fix


def test_config_validation_errors(sample_path):
    with pytest.raises(ConfigError):
        analyze(_config(sample_path, metrics=("nope",)))
    with pytest.raises(ConfigError):
        analyze(_config(sample_path, fmt="yaml"))
    with pytest.raises(ConfigError):
        analyze(_config(sample_path, d_max=0))
    with pytest.raises(ConfigError):
        analyze(_config(sample_path, tolerance=0.0))
    with pytest.raises(ConfigError):
        analyze(_config(sample_path, seed=-5))


def test_numpy_scalar_settings_serialize_as_plain_numbers():
    # numpy integers used to reach the report as they were, and to_json
    # failed on them ("Object of type int64 is not JSON serializable")
    def serialized(d_max, seed, tolerance, n, m):
        config = AnalysisConfig(
            metrics=("clustering", "clustering_profile", "geodesic", "spectral"),
            d_max=d_max,
            seed=seed,
            tolerance=tolerance,
        )
        report, _, _ = analyze_graph(_G, config, "g")
        report["baseline"] = compare_baseline(
            report, RandomGraphSpec(GNM, n=n, m=m, seed=seed), 2
        )
        return to_json(report)

    plain = serialized(3, 1, 1e-10, _G.n, _G.m)
    assert '"d_max": 3,' in plain and '"seed": 1,' in plain
    numpy_text = serialized(
        np.int64(3), np.int64(1), np.float64(1e-10), np.int32(_G.n), np.int64(_G.m)
    )
    assert numpy_text == plain


def test_cli_analyze_stdout_and_exit_zero(sample_path, capsys):
    code = main(["analyze", str(sample_path), "--metrics", "components", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["components"]["wcc_count"] == 2


def test_cli_exit_codes(tmp_path, sample_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.edges")]) == 2
    assert main(["analyze", str(sample_path), "--metrics", "bogus"]) == 3
    bad_dot = tmp_path / "u.dot"
    bad_dot.write_text("graph g { a -- b; }\n", encoding="utf-8")
    assert main(["analyze", str(bad_dot), "--format", "dot"]) == 2
    capsys.readouterr()


def test_cli_flag_parse_errors_are_config_errors(sample_path, capsys):
    sweep = ["sweep", str(sample_path), "--runs", "2", "--steps", "5"]
    assert main(sweep + ["--ratios", "0.1,x"]) == 3
    assert main(sweep + ["--ratios", "0.1", "--initial-nodes", "0,a"]) == 3
    assert main(sweep + ["--ratios", "0.1", "--seed", "-1"]) == 3
    assert "--ratios" in capsys.readouterr().err.splitlines()[0]
    # non-finite values would reach the report as non-JSON floats
    analyze = ["analyze", str(sample_path), "--metrics", "degree"]
    assert main(analyze + ["--tolerance", "nan"]) == 3
    assert main(analyze + ["--tolerance", "inf"]) == 3
    baseline = ["baseline", str(sample_path), "--metrics", "degree"]
    assert main(baseline + ["--replicates", "2", "--gamma", "nan"]) == 3
    capsys.readouterr()


def test_cli_bad_flag_values_exit_before_loading(tmp_path, sample_path, capsys):
    # the input file does not exist, so reading it first would exit 2
    missing = str(tmp_path / "missing.edges")
    sweep = ["sweep", missing, "--ratios", "0.5,1", "--runs", "2", "--steps", "5"]
    for extra in (
        ["--runs", "0"],
        ["--steps", "0"],
        ["--delta", "2"],
        ["--delta", "nan"],
        ["--initial-count", "0"],
        ["--initial-nodes=-1"],
        ["--initial-nodes", ","],
        ["--ratios", "1,0.5"],
        ["--ratios", ""],
        ["--ratios", "0.5,30"],  # beta = 30 * delta(1.0) is above 1
        ["--seed", "-5"],
    ):
        assert main(sweep + extra) == 3, extra
    simulate = ["simulate", missing, "--beta", "0.5", "--delta", "0.5", "--steps", "5"]
    for extra in (
        ["--beta", "2"],
        ["--beta", "-0.1"],
        ["--delta", "2"],
        ["--steps", "0"],
        ["--initial-count", "0"],
        ["--seed", "-5"],
    ):
        assert main(simulate + extra) == 3, extra
    assert main(["baseline", missing, "--replicates", "1"]) == 3
    assert main(["baseline", missing, "--seed", "-2"]) == 3
    assert main(["baseline", missing, "--model", "erased_configuration"]) == 3
    assert main(["baseline", missing, "--gamma", "nan"]) == 3
    assert main(["analyze", missing, "--output", "csv"]) == 3
    assert main(["baseline", missing, "--output", "csv"]) == 3
    assert main(["analyze", missing, "--d-max", "0"]) == 3
    assert main(["analyze", missing, "--metrics", "bogus"]) == 3
    assert main(["analyze", missing, "--tolerance", "-1"]) == 3
    assert main(["baseline", missing, "--d-max", "0"]) == 3
    manifest = str(tmp_path / "missing.tsv")
    assert main(["corpus", manifest, "--output", "csv"]) == 3
    assert main(["analyze", missing, "--seed", "-5"]) == 3
    assert main(["corpus", manifest, "--seed", "-5"]) == 3
    assert main(sweep) == 2
    # values that depend on the graph are input errors (sample n = 7)
    sweep[1] = simulate[1] = str(sample_path)
    assert main(sweep + ["--initial-count", "8"]) == 2
    assert main(simulate + ["--initial-nodes", "0,7"]) == 2
    assert main(simulate + ["--initial-nodes", "0,6"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag",
    [["--metrics", "all"], ["--strict"], ["--directed-geodesics"],
     ["--d-max", "3"], ["--tolerance", "1e-8"]],
)
def test_cli_sis_verbs_take_no_analysis_flags(sample_path, flag, capsys):
    simulate = ["simulate", str(sample_path), "--beta", "0.5", "--delta", "0.5"]
    sweep = ["sweep", str(sample_path), "--ratios", "0.5"]
    for argv in (simulate, sweep):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_baseline_strict_names_failed_metrics(tmp_path, capsys):
    # the clustering profile has no eligible node on a single edge
    p = tmp_path / "edge.edges"
    p.write_text("a b\n", encoding="utf-8")
    argv = ["baseline", str(p), "--replicates", "2", "--strict"]
    assert main(argv + ["--metrics", "clustering_profile"]) == 1
    assert capsys.readouterr().err == "failed metrics: clustering_profile\n"


def test_cli_internal_value_error_is_not_a_config_error(
    sample_path, monkeypatch, capsys
):
    def broken(g):
        raise ValueError("internal failure")

    monkeypatch.setattr("cgtopo.paths.component_stats", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["analyze", str(sample_path), "--metrics", "components"])
    assert "config error" not in capsys.readouterr().err


def test_cli_non_utf8_input_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.edges"
    bad.write_bytes(b"a b\nb c\n\xe9t\xe9 a\n")
    assert main(["analyze", str(bad), "--metrics", "components"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_corpus_honours_dot_format(tmp_path, capsys):
    (tmp_path / "g.dot").write_text("digraph g { a -> b; b -> c; }\n", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("g\tC\tx\tg.dot\t3\t2\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["corpus", str(manifest), "--metrics", "components", "--out", str(out)]
    assert main(args + ["--format", "dot"]) == 0
    report = json.loads((out / "corpus.json").read_text())["entries"][0]["report"]
    assert report["components"]["largest_wcc_size"] == 3
    # the format flag, not the file suffix, picks the parser
    assert main(args) == 1
    capsys.readouterr()


def test_cli_corpus_partial_failure_exit_one(tmp_path, capsys):
    g = tmp_path / "ok.edges"
    g.write_text("a b\n", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("ok\tC\tx\tok.edges\nbad\tC\tx\tgone.edges\n", encoding="utf-8")
    code = main(["corpus", str(manifest), "--metrics", "components"])
    assert code == 1
    capsys.readouterr()


def test_cli_out_dir_writes_files(tmp_path, sample_path, capsys):
    out = tmp_path / "outdir"
    code = main(
        ["analyze", str(sample_path), "--metrics", "degree,components",
         "--out", str(out), "--output", "csv"]
    )
    assert code == 0
    assert (out / "metrics.csv").exists()
    capsys.readouterr()


def test_cli_sweep_csv(tmp_path, sample_path, capsys):
    code = main(
        ["sweep", str(sample_path), "--ratios", "0.5,1.0", "--runs", "5",
         "--delta", "0.4", "--steps", "20", "--seed", "2", "--output", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ratio,extinction_prob,runs"
    assert len(lines) == 3


def test_cli_simulate_json(sample_path, capsys):
    code = main(
        ["simulate", str(sample_path), "--beta", "0.3", "--delta", "0.2",
         "--steps", "30", "--seed", "8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert "infected_per_step" in payload


def test_read_manifest_round_trip(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("a\tC\tx\ta.edges\n", encoding="utf-8")
    entries = read_manifest(p)
    assert entries[0].label == "a"
    assert entries[0].path.endswith("a.edges")


def test_corpus_pool_takes_largest_inputs_first(mixed_corpus, monkeypatch):
    manifest = mixed_corpus
    handed = []
    sizes = []

    class SerialPool:
        """Stands in for the fork pool: records what it is asked for and
        runs the task in this process."""

        def __init__(self, processes, initializer, initargs, *args, **kwargs):
            sizes.append(processes)
            self.fn, self.shared = initargs

        def imap(self, call, tasks):
            handed.extend(entry.label for entry, _ in tasks)
            return (self.fn(*self.shared, task) for task in tasks)

        def close(self):
            pass

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing.pool, "Pool", SerialPool)
    cfg = AnalysisConfig(metrics=("degree", "components"), seed=7)
    result = analyze_corpus(manifest, cfg, jobs=64)
    # one worker per entry at most, however many jobs are asked for
    assert sizes == [5]
    assert handed == ["gnm", "hierarchical", "star", "triangles", "missing"]
    labels = [row["label"] for row in result["summary"]]
    assert labels == ["star", "triangles", "missing", "hierarchical", "gnm"]
    assert result["failures"] == 1 and "missing.edges" in result["summary"][2]["error"]


def test_corpus_outputs_identical_at_any_worker_count(mixed_corpus):
    manifest = mixed_corpus
    cfg = AnalysisConfig(metrics=tuple(CORPUS_DEFAULT_METRICS), seed=7)
    outputs = set()
    for jobs in (1, 2, 3):
        result = analyze_corpus(manifest, cfg, jobs=jobs)
        outputs.add((to_json(result), corpus_summary_csv(result)))
    assert len(outputs) == 1

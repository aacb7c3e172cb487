"""What each entry point imports, checked in a fresh interpreter.

No command imports scipy: the degree fit runs its own ports of scipy's
Hurwitz zeta and bounded Brent minimizer, components and biconnected
blocks come from one depth-first search, and lambda1 from a numpy
Lanczos solver.  One library helper, ``CallGraph.adjacency``, imports
scipy, and no command calls it; a scan of the source keeps it the only
one.  Corpus pool workers import nothing their parent did not.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cgtopo
from cgtopo.fixtures import star_graph, to_edge_list
from cgtopo.generators import ERASED_CONFIG, GNM, RandomGraphSpec, generate_random


def _run(script: str, *argv) -> str:
    """stdout of ``script`` run by a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(cgtopo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_sis_commands_import_no_scipy(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text(
        to_edge_list(generate_random(RandomGraphSpec(model=GNM, n=60, m=180, seed=2))),
        encoding="utf-8",
    )
    out = _run(
        """
        import json, sys
        from cgtopo.cli import main
        path, out = sys.argv[1:]
        codes = [
            main(["sweep", path, "--ratios", "0.5,2", "--runs", "3", "--delta", "0.3",
                  "--steps", "20", "--out", out]),
            main(["simulate", path, "--beta", "0.4", "--delta", "0.2", "--steps", "20",
                  "--initial-count", "3", "--out", out]),
        ]
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"codes": codes, "scipy": scipy}))
        """,
        graph,
        tmp_path / "out",
    )
    result = json.loads(out.splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}


def _scipy_imports(node, scope=()):
    """(scope, module) of each ``import scipy...`` statement under
    ``node``, scope being the names of the enclosing classes and
    functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            modules = [child.module]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] == "scipy":
                yield ".".join(scope), module
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scipy_imports(child, scope + (child.name,) if named else scope)


def test_only_the_sparse_adjacency_imports_scipy():
    package = Path(cgtopo.__file__).resolve().parent
    found = {
        path.name: list(_scipy_imports(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: imports for name, imports in found.items() if imports} == {
        "graph.py": [("CallGraph.adjacency", "scipy.sparse")]
    }


def test_cli_import_loads_every_module():
    # perfbench's tracer looks each module up in sys.modules after
    # importing cgtopo.cli
    modules = ("graph", "degree", "epidemic", "generators", "paths", "topology",
               "report", "corpus")
    out = _run(
        """
        import json, sys
        import cgtopo.cli
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("cgtopo."))))
        """
    )
    loaded = set(json.loads(out))
    assert {f"cgtopo.{m}" for m in modules} <= loaded


_CORPUS = ("gnm", "erased", "star")


def _write_corpus(dest: Path) -> Path:
    """Three small graphs and their manifest; returns the manifest path."""
    graphs = {
        "gnm": generate_random(RandomGraphSpec(model=GNM, n=80, m=240, seed=1)),
        "erased": generate_random(
            RandomGraphSpec(model=ERASED_CONFIG, n=120, gamma=2.5, seed=2)
        ),
        "star": star_graph(20),
    }
    rows = []
    for label, g in graphs.items():
        text = to_edge_list(g, drop_isolated=True)
        (dest / f"{label}.edges").write_text(text, encoding="utf-8")
        rows.append(f"{label}\tC\tx\t{label}.edges")
    manifest = dest / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def test_analysis_commands_import_no_scipy_optimize(tmp_path):
    manifest = _write_corpus(tmp_path)
    out = _run(
        """
        import json, sys
        from cgtopo.cli import main
        manifest, graph, out = sys.argv[1:]
        codes = [
            main(["analyze", graph, "--metrics", "all", "--out", out + "/a"]),
            main(["corpus", manifest, "--jobs", "1", "--out", out + "/c1"]),
            main(["corpus", manifest, "--jobs", "2", "--out", out + "/c2"]),
            main(["baseline", graph, "--replicates", "3", "--out", out + "/b"]),
        ]
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"codes": codes, "scipy": scipy}))
        """,
        manifest,
        tmp_path / "erased.edges",
        tmp_path / "out",
    )
    result = json.loads(out.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy": []}


def test_corpus_workers_import_nothing_new(tmp_path):
    manifest = _write_corpus(tmp_path)
    probes = tmp_path / "probes"
    probes.mkdir()
    out = _run(
        """
        import json, os, sys
        import cgtopo.report as report
        from cgtopo.report import CORPUS_DEFAULT_METRICS, AnalysisConfig, analyze_corpus

        manifest, probes = sys.argv[1:]
        worker = report._corpus_worker

        def probe(task):
            # a forked worker starts with the parent's modules
            before = set(sys.modules)
            result = worker(task)
            fresh = sorted(
                m for m in set(sys.modules) - before if not m.startswith("cgtopo")
            )
            path = os.path.join(probes, f"{os.getpid()}-{task[0].label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh)
            return result

        report._corpus_worker = probe
        config = AnalysisConfig(input_path=None, metrics=CORPUS_DEFAULT_METRICS, seed=7)
        result = analyze_corpus(manifest, config, jobs=2)
        print(json.dumps({"failures": result["failures"], "parent": os.getpid()}))
        """,
        manifest,
        probes,
    )
    result = json.loads(out.splitlines()[-1])
    assert result["failures"] == 0
    seen = {}
    for path in probes.iterdir():
        pid, label = path.stem.split("-", 1)
        assert int(pid) != result["parent"]
        seen[label] = json.loads(path.read_text(encoding="utf-8"))
    assert seen == {label: [] for label in _CORPUS}

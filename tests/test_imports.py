"""What each entry point imports, checked in a fresh interpreter.

No command imports scipy: the degree fit runs its own ports of scipy's
Hurwitz zeta and bounded Brent minimizer, components and biconnected
blocks come from one depth-first search, and lambda1 from a numpy
Lanczos solver.  One library helper, ``CallGraph.adjacency``, imports
scipy, and no command calls it; a scan of the source keeps it the only
one, another keeps ``graph`` the one module that expands CSR rows and
the one that imports ``numbers`` (the type rule of settings), and a
third finds every function that batches by ``graph._batches`` among
the kernels ``tests/test_memory.py`` bounds.  The package's modules import one another without a cycle, also
inside functions.  Corpus pool workers import nothing their parent did
not.  ``import cgtopo`` loads numpy with one BLAS thread unless the caller
chose a count, and leaves the environment as it found it.
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
from test_memory import KERNELS


def _run(script: str, *argv, env=None) -> str:
    """stdout of ``script`` run by a fresh interpreter, in ``env``
    (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
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


def _scoped(node, scope=()):
    """(scope, child) for each node under ``node``, scope being the
    dotted names of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope), child
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scoped(child, scope + (child.name,) if named else scope)


def _scipy_imports(tree):
    """(scope, module) of each ``import scipy...`` statement in ``tree``."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] == "scipy":
                yield scope, module


def test_only_the_sparse_adjacency_imports_scipy():
    package = Path(cgtopo.__file__).resolve().parent
    found = {
        path.name: list(_scipy_imports(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: imports for name, imports in found.items() if imports} == {
        "graph.py": [("CallGraph.adjacency", "scipy.sparse")]
    }


def _repeat_calls(tree):
    """The scope of each ``np.repeat(...)`` call in ``tree``."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.repeat":
            yield scope


def test_only_graph_expands_csr_rows():
    # every kernel takes row entries from graph._ranges and arc owners
    # from graph._tails; the configuration model's stub lists are the
    # one other repeat
    package = Path(cgtopo.__file__).resolve().parent
    found = {
        path.name: list(_repeat_calls(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "generators.py": ["_erased_configuration_edges"] * 2,
        "graph.py": ["_tails", "_ranges"],
    }


def test_only_graph_imports_numbers():
    # graph._integer and graph._real hold the one type rule of integer
    # and real settings; a second isinstance(value, Integral) elsewhere
    # would be a second rule
    package = Path(cgtopo.__file__).resolve().parent
    found = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.ImportFrom) and node.module == "numbers")
        or (isinstance(node, ast.Import) and "numbers" in {a.name for a in node.names})
    }
    assert found == {"graph.py"}


def _batch_calls(tree):
    """The scope of each call of ``graph._batches`` in ``tree``."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in (
            "_batches",
            "graph._batches",
        ):
            yield scope


def test_every_batching_kernel_is_memory_bounded():
    package = Path(cgtopo.__file__).resolve().parent
    found = {
        f"{path.stem}.{scope}"
        for path in package.glob("*.py")
        for scope in _batch_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set(KERNELS)


def _relative_imports(tree) -> set[str]:
    """The sibling modules a module imports relatively, anywhere in its
    source, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_module_graph_is_acyclic():
    package = Path(cgtopo.__file__).resolve().parent
    imports = {
        path.stem: _relative_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in package.glob("*.py")
        if path.stem != "__init__"
    }
    assert "graph" in imports["paths"] and "paths" in imports["topology"]
    # depth-first: a module met again while still open closes a cycle
    done, open_ = set(), []

    def visit(module):
        assert module not in open_, " -> ".join(open_ + [module])
        if module not in done:
            open_.append(module)
            for dep in sorted(imports[module]):
                visit(dep)
            open_.pop()
            done.add(module)

    for module in sorted(imports):
        visit(module)


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


def _unset_blas_threads() -> dict:
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


_THREADS = """
    import json, os, sys
    if sys.argv[1:] == ["numpy-first"]:
        import numpy
    import cgtopo
    task = "/proc/self/task"
    print(json.dumps({
        "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
        "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
    }))
"""


def test_import_loads_numpy_with_one_blas_thread():
    # OpenBLAS would start one spinning thread per CPU; the setting
    # that stops it is taken out of the environment again
    got = json.loads(_run(_THREADS, env=_unset_blas_threads()))
    assert got["variable"] is None
    if got["threads"] is not None:
        assert got["threads"] == 1


def test_import_keeps_the_callers_blas_setting():
    chosen = json.loads(_run(_THREADS, env={**os.environ, "OPENBLAS_NUM_THREADS": "3"}))
    assert chosen["variable"] == "3"
    # with numpy already loaded, cgtopo leaves the environment untouched
    first = json.loads(_run(_THREADS, "numpy-first", env=_unset_blas_threads()))
    assert first["variable"] is None


def test_spectral_bits_do_not_depend_on_the_blas_setting(corpus_dir):
    # the Lanczos basis products are BLAS calls whose sums follow the
    # thread count; the kernel-scale demo graph shows it in residual
    script = """
        import json, sys
        from cgtopo.epidemic import spectral_radius
        from cgtopo.graph import load_graph
        res = spectral_radius(load_graph(sys.argv[1], "edgelist"))
        print(json.dumps([repr(res.lambda1), res.iterations, repr(res.residual)]))
    """
    path = corpus_dir / "linux-2.6.12-rc2-sim.edges"
    unset = _unset_blas_threads()
    by_default = json.loads(_run(script, path, env=unset))
    one_thread = json.loads(_run(script, path, env={**unset, "OPENBLAS_NUM_THREADS": "1"}))
    assert by_default == one_thread

"""cgtopo benchmark: three CLI workloads, checked outputs, a traced split.

    python3 perfbench/run.py --workload analyze-powerlaw --seed 7 --seconds 32 --trace 0

Run from anywhere inside a source checkout (``src/cgtopo`` next to this
directory).  Inputs are materialised from ``--seed`` with
``cgtopo.fixtures``; the CLI is then spawned repeatedly, tracing off,
until ``--seconds`` is used up (at least three runs), and every run's
outputs are checked.  ``--trace 1`` adds one traced run (``spans.py``:
the same argv, with each module's public functions wrapped in spans) and
reports the per-layer metrics instead of the end-to-end ones.

The last stdout line is the result object; the line before it holds the
details: environment, per-sample figures, sample counts and the highest
percentile with ten samples beyond it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3
RUN_TIMEOUT_S = 100
SWEEP = {
    "ratios": [0.032, 0.064, 0.128, 0.256, 0.512],
    "runs": 10,
    "delta": 0.1,
    "steps": 100,
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

WORKLOADS = {
    # name: (checked units per run, corpus jobs)
    "analyze-powerlaw": (10, 1),
    "corpus-dot": (6, 2),
    "sweep-kernel": (len(SWEEP["ratios"]), 1),
}


def cli_args(workload: str, seed: int, layout: dict, out_dir: Path) -> list[str]:
    """The CLI argv of one workload run, writing into ``out_dir``."""
    root = Path(layout["inputs"])
    if workload == "analyze-powerlaw":
        return ["analyze", str(root / inputs.ANALYZE_GRAPH), "--metrics", "all",
                "--output", "csv", "--out", str(out_dir)]
    if workload == "corpus-dot":
        return ["corpus", layout["manifest"], "--format", "dot",
                "--jobs", str(WORKLOADS[workload][1]),
                "--output", "csv", "--out", str(out_dir)]
    return ["sweep", str(root / inputs.SWEEP_GRAPH),
            "--ratios", ",".join(str(r) for r in SWEEP["ratios"]),
            "--runs", str(SWEEP["runs"]), "--delta", str(SWEEP["delta"]),
            "--steps", str(SWEEP["steps"]), "--seed", str(seed), "--out", str(out_dir)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cgtopo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def spawn(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to exit; wall from spawn to exit, rusage from wait4
    (CPU and peak RSS include the child's waited-for descendants)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def setup(workload: str, seed: int, work: Path) -> dict:
    """Materialise the inputs ``inputs.SETUP_REPS`` times in a child process."""
    dest = work / "inputs"
    done = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--dest", str(dest)],
        cwd=work, env=child_env(), capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{done.stderr}")
    info = json.loads(done.stdout.splitlines()[-1])
    info["layout"]["inputs"] = str(dest / f"rep-{inputs.SETUP_REPS - 1}")
    return info


def summarise(values: list[float]) -> dict:
    """Median with its sample count, plus the highest percentile that
    has at least ten samples beyond it (None below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    if n >= 11:
        high = {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "count": n, "high": high}


def measure(workload: str, seed: int, seconds: float, layout: dict, work: Path) -> list[dict]:
    samples = []
    start = time.perf_counter()
    while True:
        out = work / "out" / str(len(samples))
        argv = [sys.executable, "-m", "cgtopo.cli", *cli_args(workload, seed, layout, out)]
        sample = spawn(argv, work, work / f"stderr-{len(samples)}.txt")
        sample["out"] = str(out)
        samples.append(sample)
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            return samples


def traced_run(workload: str, seed: int, layout: dict, work: Path) -> dict:
    spans_dir = work / "spans"
    spans_dir.mkdir()
    out = work / "out" / "traced"
    argv = [sys.executable, str(HERE / "spans.py"), "--spans-dir", str(spans_dir),
            *cli_args(workload, seed, layout, out)]
    result = spawn(argv, work, work / "stderr-traced.txt")
    result["out"] = str(out)
    return result


def make_checker(workload: str, seed: int, layout: dict, use_reference: bool = True):
    """A function from a run's output directory to its failures; the
    oracles behind it are computed once, here."""
    import check

    reference = check.load_reference(HERE / "reference", seed) if use_reference else None
    reference = reference and reference[workload]
    sources = layout["sources"]
    if workload == "analyze-powerlaw":
        oracle = check.GraphOracle(Path(sources[inputs.POWERLAW[0]]).read_text(encoding="utf-8"))
        isomorphic = reference is None and use_reference
        if isomorphic:
            base = check.load_reference(HERE / "reference", inputs.POWERLAW_BASE_SEED)
            reference = base[workload]
        return lambda out: check.check_analyze(out, oracle, reference, isomorphic)
    if workload == "corpus-dot":
        oracles = {
            label: check.GraphOracle(Path(sources[label]).read_text(encoding="utf-8"))
            for label in inputs.CORPUS_LABELS
        }
        return lambda out: check.check_corpus(out, oracles, reference)
    text = (Path(layout["inputs"]) / inputs.SWEEP_GRAPH).read_text(encoding="utf-8")
    expected = {
        "ratios": SWEEP["ratios"],
        "runs": SWEEP["runs"],
        "extinction_prob": check.simulate_sweep(
            text, SWEEP["ratios"], SWEEP["runs"], SWEEP["delta"], SWEEP["steps"], seed
        ),
    }
    return lambda out: check.check_sweep(out, expected, reference)


def checked_run(run: dict, units: int, checker) -> dict:
    """Failed units of one run; a nonzero exit or unreadable outputs fail all."""
    if run["exit"] != 0:
        return {"failed": units, "failures": {"exit": [f"exit code {run['exit']}"]}}
    try:
        failures = checker(run["out"])
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return {"failed": units, "failures": {"outputs": [f"unreadable outputs: {exc!r}"]}}
    return {"failed": len(failures), "failures": failures}


def end_to_end(samples: list[dict], setup_info: dict) -> tuple[dict, dict]:
    metrics, details = {}, {}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB")):
        stats = summarise([s[name] for s in samples])
        metrics[name] = {"value": stats["median"], "unit": unit}
        details[name] = stats
    stats = summarise(setup_info["setup_s"])
    metrics["setup_s"] = {"value": stats["median"], "unit": "s"}
    details["setup_s"] = stats
    return metrics, details


PER_LAYER_UNITS = {
    "graph.load.bytes": "bytes",
    "graph.load.mb_per_s": "MB/s",
    "graph.canonical_edges": "count",
    "graph.rebuild_share": "ratio",
    "paths.betweenness.arcs_computed": "count",
    "topology.clustering_profile.pairs": "count",
    "topology.clustering_profile.pairs_per_s": "1/s",
    "paths.geodesic.sources": "count",
    "paths.geodesic.arcs_computed": "count",
    "epidemic.spectral.iterations": "count",
    "epidemic.sis_runs": "count",
    "epidemic.sis_steps": "count",
    "epidemic.sis_steps_per_s": "1/s",
    "report.to_json.bytes": "bytes",
    "report.write_csv_bundle.bytes": "bytes",
    "corpus.parallel_efficiency": "ratio",
    "trace.coverage": "ratio",
}


def per_layer(workload: str, work: Path, traced: dict, untraced_wall_s: float, setup_info: dict) -> dict:
    import spans

    jobs = WORKLOADS[workload][1]
    trace = spans.load_trace(work / "spans")
    values = spans.layer_metrics(trace, traced["wall_s"], untraced_wall_s, jobs)
    values["fixtures.write_demo_corpus.s"] = statistics.median(setup_info["write_demo_corpus_s"])
    return {
        name: {"value": value, "unit": PER_LAYER_UNITS.get(name, "s")}
        for name, value in sorted(values.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cgtopo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cgtopo" / "cli.py").is_file():
        print(f"cgtopo sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment()
        setup_info = setup(args.workload, args.seed, work)
        layout = setup_info["layout"]
        samples = measure(args.workload, args.seed, args.seconds, layout, work)
        runs = list(samples)
        if args.trace:
            traced = traced_run(args.workload, args.seed, layout, work)
            runs.append(traced)
        checker = make_checker(args.workload, args.seed, layout)
        units = WORKLOADS[args.workload][0]
        checked = [checked_run(r, units, checker) for r in runs]
        attempted = units * len(runs)
        failed = sum(c["failed"] for c in checked)
        metrics, details = end_to_end(samples, setup_info)
        if args.trace:
            try:
                metrics = per_layer(args.workload, work, traced, metrics["wall_s"]["value"], setup_info)
            except (OSError, ValueError, KeyError) as exc:
                # the traced run's units already count as failed
                print(f"traced run unusable: {exc!r}", file=sys.stderr)
                metrics = {}
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "environment": env,
            "end_to_end": details,
            "shapes": layout["shapes"],
            "samples": [{k: v for k, v in s.items() if k != "out"} for s in samples],
            "failures": [c["failures"] for c in checked if c["failures"]][:3],
        }))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

"""Write ``reference/seed-7.json`` from one CLI run per workload.

    python3 perfbench/make_reference.py

The seed is ``inputs.POWERLAW_BASE_SEED``, the only one with a stored
reference (every seed's power-law graph is a relabelling of its draw).

Each workload's inputs are materialised from the seed, the CLI runs once,
and its outputs must first pass every oracle check; only then are the
JSON outputs (report.json, corpus.json, sweep.json) stored as the
reference that later runs at this seed are compared with.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import inputs
import run


def main() -> int:
    seed = inputs.POWERLAW_BASE_SEED
    outputs = {"analyze-powerlaw": "report.json", "corpus-dot": "corpus.json", "sweep-kernel": "sweep.json"}
    reference = {}
    for workload, filename in outputs.items():
        work = run.HERE / "_work" / f"reference-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            layout = run.setup(workload, seed, work)["layout"]
            out = work / "out"
            sample = run.spawn(
                [sys.executable, "-m", "cgtopo.cli", *run.cli_args(workload, seed, layout, out)],
                work,
                work / "stderr.txt",
            )
            sample["out"] = str(out)
            checker = run.make_checker(workload, seed, layout, use_reference=False)
            result = run.checked_run(sample, run.WORKLOADS[workload][0], checker)
            if result["failed"]:
                print(json.dumps(result["failures"], indent=1), file=sys.stderr)
                return 1
            # input paths are ignored by the comparison; keep them relative
            text = (out / filename).read_text(encoding="utf-8")
            reference[workload] = json.loads(text.replace(f"{work}{os.sep}", ""))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: outputs pass the oracle checks")
    path = run.HERE / "reference" / f"seed-{seed}.json"
    path.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

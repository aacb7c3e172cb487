"""Report bytes pinned across refactors.

``tests/data/golden`` holds the outputs of

- ``analyze <label>.edges --metrics all --seed 7 --output csv`` for
  bridged-triangles, hierarchical-125, star-101 and gnm-2000:
  ``report.json`` and the CSV bundle, one directory per label;
- ``corpus manifest.tsv --seed 7 --output csv`` on a manifest of those
  four: ``corpus/corpus.json`` and ``corpus/summary.csv``.

Inputs come from the demo corpus at seed 7 and every command runs in
one directory with relative paths; the corpus report names its inputs
by absolute path, so that directory prefix is stripped before
comparing.  Every summary column is filled for the first two fixtures,
so a moved key shows as a changed byte, not as an empty cell.
gnm-2000 is the one fixture whose betweenness runs many Brandes blocks
(29 of up to 64 roots, with 157 sources folded onto them), so it pins
the order in which rows are summed: a block adds its root rows, then
the rows folded onto them, and the blocks are added in span order.

The goldens were made with Python 3.11 and numpy 2.4 on x86-64.
lambda1 comes from a Lanczos solver whose dot products, norms and
tridiagonal eigensolve run in numpy's BLAS and LAPACK, so its last bits
can differ on another BLAS or CPU; there, regenerate the goldens with
``python tests/test_golden.py`` on a commit known to be right and
review the diff.
"""

import shutil
import sys
from pathlib import Path

from cgtopo.cli import main
from cgtopo.fixtures import write_demo_corpus

GOLDEN = Path(__file__).parent / "data" / "golden"
LABELS = ("bridged-triangles", "hierarchical-125", "star-101", "gnm-2000")


def _generate(demo: Path, work: Path, monkeypatch) -> dict[str, bytes]:
    """Run the pinned commands in ``work``; returns {relative path: bytes}."""
    work.mkdir(parents=True, exist_ok=True)
    rows = [
        line
        for line in (demo / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        if line.split("\t")[0] in LABELS
    ]
    (work / "manifest.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    for label in LABELS:
        shutil.copy(demo / f"{label}.edges", work / f"{label}.edges")
    monkeypatch.chdir(work)
    for label in LABELS:
        argv = ["analyze", f"{label}.edges", "--metrics", "all", "--seed", "7"]
        assert main(argv + ["--output", "csv", "--out", f"out/{label}"]) == 0
    argv = ["corpus", "manifest.tsv", "--seed", "7", "--output", "csv"]
    assert main(argv + ["--out", "out/corpus"]) == 0
    prefix = (str(work) + "/").encode()
    return {
        str(p.relative_to(work / "out")): p.read_bytes().replace(prefix, b"")
        for p in sorted((work / "out").rglob("*"))
        if p.is_file()
    }


def test_report_bytes_match_golden(corpus_dir, tmp_path, monkeypatch, capsys):
    produced = _generate(corpus_dir, tmp_path / "work", monkeypatch)
    capsys.readouterr()
    golden = {
        str(p.relative_to(GOLDEN)): p.read_bytes()
        for p in sorted(GOLDEN.rglob("*"))
        if p.is_file()
    }
    assert sorted(produced) == sorted(golden)
    for name, data in golden.items():
        assert produced[name] == data, name


if __name__ == "__main__":
    import tempfile

    import pytest

    # regenerate: python tests/test_golden.py (with src on PYTHONPATH)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        demo = Path(tmp) / "demo"
        write_demo_corpus(demo, seed=7)
        outputs = _generate(demo, Path(tmp) / "work", mp)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, data in outputs.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(outputs)} files under {GOLDEN}", file=sys.stderr)

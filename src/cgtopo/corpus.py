"""Corpus manifests: one analyzed program per record.

Manifest format: UTF-8 text, one record per line, tab-separated
``label<TAB>language<TAB>domain<TAB>path`` with optional trailing
``<TAB>N<TAB>M`` expected counts.  ``#`` comment lines and blank lines
are skipped.  Paths are resolved against the manifest's directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .graph import CallGraph, CallGraphError, ParseError, _decode, load_graph


class ValidationError(CallGraphError):
    """Loaded graph contradicts the manifest's expected counts."""


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    language: str
    domain: str
    path: str
    expected_n: int | None = None
    expected_m: int | None = None


def parse_manifest(text: bytes | str, base_dir: str | None = None) -> list[CorpusEntry]:
    """Parse manifest text into entries; see module docstring for format."""
    text = _decode(text)
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) not in (4, 6):
            raise ParseError(
                f"expected 4 or 6 tab-separated fields, got {len(fields)}", lineno
            )
        label, language, domain, path = (f.strip() for f in fields[:4])
        if not label:
            raise ParseError("empty label", lineno)
        expected_n = expected_m = None
        if len(fields) == 6:
            try:
                expected_n, expected_m = int(fields[4]), int(fields[5])
            except ValueError:
                raise ParseError(
                    f"expected integer N M, got {fields[4]!r} {fields[5]!r}", lineno
                ) from None
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        entries.append(CorpusEntry(label, language, domain, path, expected_n, expected_m))
    return entries


def read_manifest(path) -> list[CorpusEntry]:
    with open(path, "rb") as fh:
        text = fh.read()
    return parse_manifest(text, base_dir=os.path.dirname(os.path.abspath(path)))


def load_entry(entry: CorpusEntry, fmt: str = "edgelist") -> CallGraph:
    """Load an entry in input format ``fmt``, enforcing expected counts."""
    g = load_graph(entry.path, fmt)
    if entry.expected_n is not None and g.n != entry.expected_n:
        raise ValidationError(
            f"{entry.label}: expected n={entry.expected_n}, loaded {g.n}"
        )
    if entry.expected_m is not None and g.m != entry.expected_m:
        raise ValidationError(
            f"{entry.label}: expected m={entry.expected_m}, loaded {g.m}"
        )
    return g

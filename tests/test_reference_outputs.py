"""Every CLI operation of perfbench/reference.json prints its recorded stdout,
byte for byte, and writes every .poly file with its recorded SHA-256.

The reference is only read here. The operations run in this process, in the
reference's order, against one temporary cache, so the census operations
also run on warm memo tables, which must not change a byte either.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pcflab.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
OPS = {
    name: entry
    for name, entry in json.loads(REFERENCE.read_text())["ops"].items()
    if "stdout" in entry and not name.startswith("all_roots")
}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("reference-cache")


@pytest.mark.parametrize("name", list(OPS))
def test_stdout_matches_reference(name, cache, capsys):
    assert main(name.split() + ["--cache", str(cache)]) == 0
    assert capsys.readouterr().out == OPS[name]["stdout"]
    for rel, spec in OPS[name]["files"].items():
        if rel.endswith(".poly"):
            assert hashlib.sha256((cache / rel).read_bytes()).hexdigest() == spec["sha256"], rel

"""Certified root sets against the root centers of perfbench/reference.json.

The float64 start points decide where each polished center lands inside its
root's disk, so the root-cache bytes may change with them; the roots may not.
Each disk must meet exactly one reference disk and each reference disk
exactly one disk, by perfbench's own check_roots. The reference is only read.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from pcflab.cli import main
from pcflab.critical_orbit import factor_evaluator, misiurewicz_factor
from pcflab.rootfinder import all_roots, write_roots_cache

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["ops"]
_spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def test_misiurewicz_3_5_7_d3(tmp_path):
    desc = misiurewicz_factor(3, 5, 7)
    ps = all_roots(desc.poly, 128, evaluator=factor_evaluator(desc))
    path = write_roots_cache(tmp_path / "m.roots", desc.poly, ps)
    ref = REFERENCE["all_roots misiurewicz_factor(3, 5, 7) at 128 bits"]["roots"]
    assert checks.check_roots(path.read_text(), ref) == []


def test_enumerate_gleason_caches(tmp_path, capsys):
    op = "enumerate --d 2 --max-n 11 --bits 128"
    assert main(op.split() + ["--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    refs = {rel: spec["roots"] for rel, spec in REFERENCE[op]["files"].items() if "roots" in spec}
    assert sorted(refs) == sorted(f"roots/d2/n{n}.p128.roots" for n in range(1, 12))
    for rel, ref in refs.items():
        assert checks.check_roots((tmp_path / rel).read_text(), ref) == [], rel

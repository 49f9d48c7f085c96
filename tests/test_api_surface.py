"""The public names and the benchmark's traced entry points exist, and the
Horner evaluator is built in one place.

perfbench/tracer.py wraps the entry points it lists by name and reports a
per-layer metric as null when one is missing, so a deletion or rename here
would otherwise go unnoticed until a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pcflab

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_constant(name):
    """Literal value of a module-level assignment in perfbench/tracer.py."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {TRACER}")


def test_all_names_resolve():
    missing = [name for name in pcflab.__all__ if not hasattr(pcflab, name)]
    assert missing == []


def test_traced_entry_points_exist():
    entry_points = [
        (mod, name) for mod, names in tracer_constant("LAYERS") for name in names
    ]
    entry_points += tracer_constant("EVALUATOR_FACTORIES")
    assert entry_points
    missing = [
        f"{mod}.{name}"
        for mod, name in entry_points
        if not callable(getattr(importlib.import_module(f"pcflab.{mod}"), name, None))
    ]
    assert missing == []


def test_coefficient_evaluator_is_built_only_in_heights():
    # lattice factors take their orbit evaluators; only a base point's
    # minimal polynomial goes through Horner on its coefficients
    sites = set()
    for path in (ROOT / "src" / "pcflab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "CoefficientEvaluator":
                    sites.add(path.name)
    assert sites == {"heights.py"}

"""The public names and the benchmark's traced entry points exist, the
README's library quick start runs, the Horner evaluator is built in one
place, and the exit codes agree wherever they are listed.

perfbench/tracer.py wraps the entry points it lists by name and reports a
per-layer metric as null when one is missing, so a deletion or rename here
would otherwise go unnoticed until a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pcflab
import pcflab.cli
import pcflab.errors

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_constant(name, path=TRACER):
    """Literal value of a module-level assignment in perfbench/tracer.py (or path)."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


def test_all_names_resolve():
    missing = [name for name in pcflab.__all__ if not hasattr(pcflab, name)]
    assert missing == []


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "frozenset({5}) True"


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


def test_exit_codes_agree_everywhere():
    # each package error states its code once, as exit_code; the table that
    # --help prints and the benchmark's EXIT_CODES must list the same codes
    listed = {
        int(m.group(1)): m.group(2)
        for m in re.finditer(r"^ *(\d+)  (\S.*)$", pcflab.cli.__doc__.split("Exit codes:")[1], re.M)
    }
    errors = [
        cls for cls in vars(pcflab.errors).values()
        if isinstance(cls, type) and issubclass(cls, pcflab.errors.PcfLabError)
    ]
    assert len(errors) >= 9
    missing = [cls.__name__ for cls in errors if "exit_code" not in vars(cls)]
    assert missing == []
    assert {cls.exit_code for cls in errors} == set(listed) - {0, 2}
    assert listed[pcflab.errors.PcfLabError.exit_code] == "other package error"
    bench = tracer_constant("EXIT_CODES", ROOT / "perfbench" / "run.py")
    # the benchmark adds 1, an uncaught exception, and needs no 0
    assert set(bench) - {1} == set(listed) - {0}

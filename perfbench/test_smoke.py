"""Smoke test of the benchmark itself; finishes in well under a minute.

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py

Covers the process plumbing, the output checks, failure accounting, and
byte-identical outputs with tracing on and off, on a small workload
(enumerate d=2 n<=5, bounds d=2 n<=4, census d=2 n<=3).
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _counts(res):
    return {k: v for k, (v, unit, _) in res.metrics.items() if unit in ("count", "bytes")}


def test_smoke_passes_its_checks_and_tracing_changes_no_output():
    plain = run.run_workload("smoke", 1, 0, trace=False)
    traced = [run.run_workload("smoke", 1, 0, trace=True) for _ in range(2)]
    for res in (plain, *traced):
        assert res.correct and res.failed == 0, res.failures
    assert plain.digests == traced[0].digests  # stdout and every cache byte
    assert _counts(traced[0]) == _counts(traced[1])
    metrics = traced[0].metrics
    assert set(metrics) == set(tracer.metric_units()) | {"failed_frac"}
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(tracer.metric_units())
    assert None not in [v for v, _, _ in metrics.values()]
    assert metrics["rootfinder.ball_evals_per_root"][0] >= 1.0
    assert metrics["integrality.is_S_integral.calls"][0] > 0
    assert metrics["cli.op.enumerate.s"][0] > metrics["cli.self.s"][0] > 0
    line = json.loads(run.result_line(plain))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_root_check_matches_disks_not_positions():
    cache = run.WORK / "smoke-trace0" / "pass0" / "cache"
    if not cache.exists():
        run.run_workload("smoke", 1, 0, trace=False)
    text = (cache / "roots" / "d2" / "n5.p128.roots").read_text()
    ref = checks.reference_centers(text)
    head = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert checks.check_roots("\n".join(head + body[::-1]), ref) == []
    moved = body[:-1] + [body[0]]  # one root twice, one missing
    assert checks.check_roots("\n".join(head + moved), ref)
    assert checks.check_roots("\n".join(head[:-1] + body[:-1]), ref)  # truncated


def test_printed_numbers_compare_within_their_certified_error():
    ref = "x\t0.743929222392\t5.31384e-23\t12"
    assert checks.compare_text("x\t0.743929222393\t5.31384e-23\t12", ref, 0) == []
    assert checks.compare_text("x\t0.743929222395\t5.31384e-23\t12", ref, 0)
    assert checks.compare_text("x\t0.743929222392\t1e-15\t12", ref, 4e-14) == []
    assert checks.compare_text("x\t0.743929222392\t5.31384e-23\t13", ref, 1.0)


def test_speed_slices_leave_the_mpmath_context_alone_and_scale_by_their_mean():
    import mpmath
    import speed

    with mpmath.workprec(77):
        speed.slice_work()
        assert mpmath.mp.prec == 77
    ref = speed.REF_SLICE_S
    assert speed.scaled(3.0, [ref, ref]) == 3.0
    assert speed.scaled(3.0, [ref, 3 * ref]) == 1.5  # host at half the reference speed


def test_missing_entry_points_read_as_missing_not_zero():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import pcflab.numtheory as numtheory

    original = numtheory.factorize
    del numtheory.factorize
    try:
        assert "numtheory.factorize" in tracer.install().missing
    finally:
        numtheory.factorize = original
    summary = {"self_s": {}, "calls": {}, "counters": {}, "proxied_roots": 0, "wall": 1.0,
               "cpu": 1.0, "missing": ["rootfinder.eval.newton_mp", "numtheory.factorize"]}
    values = tracer.layer_metrics([summary], ["enumerate"])
    for name in ("rootfinder.eval.newton_mp.s", "rootfinder.mp_newton_evals",
                 "numtheory.factorize.s", "numtheory.factorize.calls"):
        assert values[name] is None, name
    assert values["rootfinder.ball_evals"] == 0


def test_deadline_kills_the_process_group_and_counts_as_failed():
    work = run.WORK / "smoke-deadline"
    shutil.rmtree(work, ignore_errors=True)
    op = dataclasses.replace(run.HANG, deadline=2.0)
    r = run.run_op(op, work / "cache", work / "op", False, time.monotonic() + 60)
    assert r.rc is None and r.wall == 2.0
    run.Checker({"ops": {}}).op(r)
    assert r.problems == ["passed its 2 s deadline"]
    pid = json.loads((work / "op" / "ready.json").read_text())["pid"]
    try:
        os.killpg(pid, 0)
        raise AssertionError("operation process group still alive")
    except ProcessLookupError:
        pass


def test_nonzero_exit_is_recorded_by_code():
    work = run.WORK / "smoke-exit"
    shutil.rmtree(work, ignore_errors=True)
    op = run.cli_op("enumerate", "--d", "1", deadline=30.0)
    r = run.run_op(op, work / "cache", work / "op", False, time.monotonic() + 60)
    run.Checker({"ops": {}}).op(r)
    assert r.problems == ["exit 2 (usage or configuration)"]


def test_fails_without_result_where_the_sources_are_missing():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "isolate", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")

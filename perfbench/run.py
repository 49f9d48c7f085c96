#!/usr/bin/env python3
"""pcf-lab benchmark.

    python3 perfbench/run.py --workload {isolate,rerun,census} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --report      # every workload, untraced and traced

One client runs a closed loop: one operation at a time, each a `pcf-lab`
command or a library call in a fresh interpreter (perfbench/op.py), so no
memo table carries over.  A pass runs the workload's operations once; passes
repeat while the next one is expected to end within --seconds (at least
one).  Every output is checked against perfbench/reference.json.

The last line of stdout is a JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the per-layer
metrics (perfbench/tracer.py) with --trace 1.  wall_s is in seconds at a
reference host speed (perfbench/speed.py); the printed table also shows it
as measured.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # set-up-only spawns before and again after the passes

# exit codes of the pcf-lab CLI (README); 1 is an uncaught exception
EXIT_CODES = {
    1: "uncaught exception", 2: "usage or configuration", 3: "degree cap",
    4: "hypothesis violated", 5: "precision exhausted", 6: "factor structure violated",
    7: "kernel singular", 8: "divisibility or squarefree precondition",
    9: "undecidable gate", 10: "other package error",
}


@dataclass(frozen=True)
class Op:
    name: str  # reference key, printed in failure lists
    kind: str  # the cli.op.<kind> metric it feeds
    args: tuple  # argv of pcflab.cli.main, or the library call's parameters
    deadline: float  # seconds from spawn
    abs_err: float = 0.0  # certified error of the numbers it prints
    own_cache: bool = False  # fresh cache directory instead of the pass's

    def spec(self) -> dict:
        if self.kind == "all_roots":
            return {"kind": "lib", "params": list(self.args)}
        return {"kind": "cli", "argv": list(self.args)}


def cli_op(*args: str, deadline: float, abs_err: float = 0.0, own_cache: bool = False) -> Op:
    return Op(" ".join(args), args[0], args, deadline, abs_err, own_cache)


def census_op(d: int, n: int, alpha: str, S: str) -> Op:
    return cli_op("integral-scan", "--d", str(d), "--max-n", str(n), f"--alpha={alpha}",
                  "--S", S, deadline=10.0, own_cache=True)


ENUMERATE = cli_op("enumerate", "--d", "2", "--max-n", "11", "--bits", "128", deadline=60.0)
# bounds prints separation distances of disks with radius <= 2^-64 (1 + |c|)
BOUNDS = cli_op("bounds", "--d", "2", "--max-n", "8", deadline=30.0, abs_err=1e-18)
# escape rates are certified to 1e-14, and the discrepancy column subtracts two
EQUIDIST = cli_op("equidist", "--d", "2", "--max-n", "11", "--alpha=-1,-1,1:1", "--bits", "128",
                  deadline=30.0, abs_err=4e-14)
MISIUREWICZ = Op("all_roots misiurewicz_factor(3, 5, 7) at 128 bits", "all_roots",
                 (3, 5, 7, 128), deadline=60.0)
CENSUS_FIXED = [
    census_op(2, 7, "-1,-1,1:1", "2,5"),  # golden ratio: algebraic base point
    census_op(2, 6, "-1,-2,2:1", "2,3"),  # non-monic: meeting_test_exact
    census_op(2, 6, "-2,0,1:1", "2"),  # sqrt 2: bounded escape in the PCF gate
    census_op(3, 5, "3", "2,3"),  # factorize of a 40-digit resultant
]
# census (d=2, n=8, alpha=3) does not finish: it factors a 66-digit number
HANG = census_op(2, 8, "3", "2,5")
POOL = (2, 7, "2,3,5")  # d, max-n and S of the two seed-drawn census operations
SMOKE = [
    cli_op("enumerate", "--d", "2", "--max-n", "5", "--bits", "128", deadline=30.0),
    cli_op("bounds", "--d", "2", "--max-n", "4", deadline=30.0, abs_err=1e-18),
    census_op(2, 3, "3", "2,5"),
]
WORKLOADS = ("isolate", "rerun", "census")


def pool_candidates() -> list[str]:
    """Rational base points a/b, |a| <= 7, 1 <= b <= 4, other than the
    rational PCF values 0, -1 and -2 of d = 2."""
    vals = {Fraction(a, b) for a in range(-7, 8) for b in range(1, 5)}
    return [str(v) for v in sorted(vals - {Fraction(0), Fraction(-1), Fraction(-2)})]


def plan(workload: str, seed: int, ref: dict) -> list[Op]:
    if workload == "isolate":
        return [ENUMERATE, BOUNDS, MISIUREWICZ]
    if workload == "rerun":
        return [ENUMERATE, BOUNDS, EQUIDIST]
    if workload == "census":
        drawn = random.Random(seed).sample(ref["census_pool"], 2)
        return CENSUS_FIXED + [census_op(POOL[0], POOL[1], a, POOL[2]) for a in drawn]
    if workload == "smoke":
        return SMOKE
    if workload == "hang":
        return [HANG]
    raise ValueError(f"unknown workload {workload!r}")


# -- one operation ------------------------------------------------------------------


@dataclass
class OpRun:
    op: Op
    setup: float | None
    wall: float  # as measured, without the speed sampler's slices
    wall_scaled: float | None  # at the reference speed, untraced only
    rss_mb: float
    cpu: float
    rc: int | None  # None: killed at the deadline
    stdout: str
    out: Path
    cache: Path
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.rc == 0


def spawn(spec: dict, out: Path, deadline: float):
    """Run op.py in its own process group; kill the group at the deadline.

    Returns (ready.json or None, setup seconds or None, elapsed seconds,
    rusage, exit code or None).
    """
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "op.py"), json.dumps(dict(spec, out=str(out)))]
    with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=so, stderr=se,
                                env=env, cwd=str(ROOT), start_new_session=True)
    killed = False
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(0.0, deadline))
        finally:
            os.close(pidfd)
        if not exited:
            os.killpg(proc.pid, signal.SIGKILL)
            killed = True
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already reaped
        proc.returncode = -signal.SIGKILL
        raise
    elapsed = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready_file = out / "ready.json"
    ready = json.loads(ready_file.read_text()) if ready_file.exists() else None
    setup = None if ready is None else ready["ready"] - t_spawn
    return ready, setup, elapsed, usage, None if killed else proc.returncode


def run_op(op: Op, cache: Path, out: Path, trace: bool, budget_end: float) -> OpRun:
    import speed

    spec = op.spec()
    if spec["kind"] == "cli":
        spec["argv"] = spec["argv"] + ["--cache", str(cache)]
    spec["trace"] = trace
    deadline = min(op.deadline, budget_end - time.monotonic())
    ready, setup, elapsed, usage, rc = spawn(spec, out, deadline)
    result_file = out / "result.json"
    result = json.loads(result_file.read_text()) if result_file.exists() else None
    slices = (ready or {}).get("slices", []) + (result or {}).get("slices", [])
    if rc is None:
        wall = op.deadline  # a kill counts the full deadline, unscaled
    elif result is not None:
        wall = result["wall"] - sum(result["slices"])
    else:
        wall = elapsed - (setup or 0.0)
    wall_scaled = None
    if not trace:
        wall_scaled = wall if rc is None or not slices else speed.scaled(wall, slices)
    # a killed operation reports no peak; ru_maxrss bounds it from above
    rss_kb = usage.ru_maxrss if result is None else result["rss_kb"]
    return OpRun(
        op=op, setup=setup, wall=wall, wall_scaled=wall_scaled, rss_mb=rss_kb / 1024.0,
        cpu=usage.ru_utime + usage.ru_stime, rc=rc,
        stdout=(out / "stdout").read_text(errors="replace"), out=out, cache=cache,
        trace=None if result is None else result["trace"],
    )


def probe_setup(out: Path) -> float:
    _, setup, _, _, rc = spawn({"kind": "noop", "trace": False}, out, 60.0)
    if rc != 0 or setup is None:
        raise RuntimeError(f"set-up probe failed; see {out / 'stderr'}")
    return setup


# -- checks -----------------------------------------------------------------------------


class Checker:
    def __init__(self, ref: dict):
        self.ref = ref
        self._census_rows: dict[str, dict] = {}

    def op(self, r: OpRun, cold_stdout: str | None = None) -> None:
        """Exit status, stdout and any returned roots of one operation."""
        import checks

        op = r.op
        if r.rc is None:
            r.problems.append(f"passed its {op.deadline:g} s deadline")
            return
        if r.rc != 0:
            r.problems.append(f"exit {r.rc} ({EXIT_CODES.get(r.rc, 'killed or unknown')})")
            return
        ref = self.ref["ops"].get(op.name)
        if ref is not None:
            r.problems += checks.compare_text(r.stdout, ref["stdout"], op.abs_err)
            if "roots" in ref:
                roots = r.out / "roots.txt"
                r.problems += checks.check_roots(roots.read_text(), ref["roots"]) if roots.exists() \
                    else ["no root set written"]
        elif not (op.kind == "integral-scan" and self._alpha_int(op) is not None):
            r.problems.append("no reference output for this operation")
        if cold_stdout is not None and r.stdout != cold_stdout:
            r.problems.append("stdout differs from the cold run")
        if op.kind == "integral-scan" and self._alpha_int(op) is not None:
            r.problems += checks.check_census_text(r.stdout, self._rows(op))

    def files(self, root: Path, runs: list[OpRun]) -> None:
        """The cache below root holds exactly the files these operations write,
        each passing its check; a problem goes to the operation that wrote it."""
        import checks

        found = checks.tree(root)
        expected_all = set()
        for r in runs:
            expected = self.ref["ops"].get(r.op.name, {}).get("files", {})
            expected_all |= set(expected)
            for rel, spec in sorted(expected.items()):
                if rel not in found:
                    r.problems.append(f"missing {rel}")
                else:
                    r.problems += [f"{rel}: {p}"
                                   for p in checks.check_file(found[rel], spec, r.op.abs_err)]
        runs[-1].problems += [f"unexpected {rel}" for rel in sorted(set(found) - expected_all)]

    @staticmethod
    def _flags(op: Op) -> dict[str, str]:
        flags, args = {}, list(op.args[1:])
        while args:
            key, _, value = args.pop(0).partition("=")
            flags[key] = value or args.pop(0)
        return flags

    def _alpha_int(self, op: Op) -> int | None:
        alpha = self._flags(op)["--alpha"]
        return int(alpha) if alpha.lstrip("-").isdigit() else None

    def _rows(self, op: Op) -> dict:
        if op.name not in self._census_rows:
            import checks

            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            flags = self._flags(op)
            self._census_rows[op.name] = checks.census_rows_from_resultant(
                int(flags["--d"]), int(flags["--max-n"]), self._alpha_int(op),
                {int(p) for p in flags["--S"].split(",")})
        return self._census_rows[op.name]


def fill_cache(ops: list[Op], checker: Checker, cache: Path, budget_end: float):
    """Copy into cache what running ops once, cold, leaves in their cache.

    The filled cache and the cold stdout are kept below WORK, keyed by the
    sources, so later runs of the same sources skip the fill: a user's reruns
    find the cache of earlier runs, too.  Returns (fill runs made, cold stdout
    by op name); the fill is kept only when every fill operation passed.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    digest.update(json.dumps([op.name for op in ops]).encode())
    keep = WORK / "rerun-fill" / digest.hexdigest()[:16]
    fill = []
    if not (keep / "cold.json").exists():
        tmp = keep.with_name(f"{keep.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        for i, op in enumerate(ops):
            r = run_op(op, tmp / "cache", tmp / "fill" / str(i), False, budget_end)
            checker.op(r)
            fill.append(r)
        checker.files(tmp / "cache", fill)
        if any(r.problems for r in fill):
            shutil.copytree(tmp / "cache", cache)
            return fill, {r.op.name: r.stdout for r in fill}
        (tmp / "cold.json").write_text(json.dumps({r.op.name: r.stdout for r in fill}))
        shutil.rmtree(keep, ignore_errors=True)
        os.replace(tmp, keep)
    shutil.copytree(keep / "cache", cache)
    return fill, json.loads((keep / "cold.json").read_text())


# -- one run ------------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    trace: bool
    passes: list[list[OpRun]]
    wall_s: float  # median pass wall time as measured, traced or not
    attempted: int
    failed: int
    failures: list[tuple[str, str]]
    correct: bool
    metrics: dict  # name -> (value, unit, sample count)
    digests: dict  # stdout per op and cache-file hashes of the first pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    import checks
    import tracer as tracing

    ref = json.loads(REFERENCE.read_text())
    ops = plan(workload, seed, ref)
    checker = Checker(ref)
    work = WORK / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.monotonic()
    budget_end = start + RUN_BUDGET_S
    setup = [probe_setup(work / "probe" / str(k)) for k in range(SETUP_PROBES)]
    all_runs: list[OpRun] = []
    cold: dict[str, str] = {}
    if workload == "rerun":
        fill, cold = fill_cache(ops, checker, work / "cache", budget_end)
        all_runs += fill
        state = checks.tree_state(work / "cache")

    passes: list[list[OpRun]] = []
    measure_start = time.monotonic()
    while True:
        t_pass = time.monotonic()
        pdir = work / f"pass{len(passes)}"
        cache = work / "cache" if workload == "rerun" else pdir / "cache"
        runs = []
        for i, op in enumerate(ops):
            op_cache = pdir / f"cache{i}" if op.own_cache else cache
            r = run_op(op, op_cache, pdir / f"op{i}", trace, budget_end)
            checker.op(r, cold.get(op.name))
            if workload == "rerun":
                after = checks.tree_state(cache)
                if after != state:
                    r.problems.append("changed the filled cache")
                    state = after
                counters = (r.trace or {}).get("counters", {})
                if counters.get("cacheio.files_changed", 0):
                    r.problems.append("cacheio.files_changed is not 0")
                if counters.get("rootfinder.read_roots_cache.misses", 0):
                    r.problems.append("missed the root cache")
            elif op.own_cache and r.completed:
                checker.files(op_cache, [r])
            runs.append(r)
        shared = [r for r in runs if not r.op.own_cache]
        # rerun passes after the first change no byte (tree_state), so
        # checking the first pass covers them
        if shared and all(r.completed for r in shared) and not (workload == "rerun" and passes):
            checker.files(cache, shared)
        passes.append(runs)
        all_runs += runs
        now = time.monotonic()
        if now + (now - t_pass) > min(measure_start + seconds, budget_end):
            break

    setup += [probe_setup(work / "probe" / str(k))
              for k in range(SETUP_PROBES, 2 * SETUP_PROBES)]
    setup += [r.setup for r in all_runs if r.setup is not None]
    failures = [(r.op.name, "; ".join(r.problems)) for r in all_runs if r.problems]
    correct = all(not r.problems for r in all_runs if r.completed)
    n = len(passes)
    wall_s = statistics.median(sum(r.wall for r in p) for p in passes)
    if trace:
        per_pass = [
            tracing.layer_metrics(
                [dict(r.trace, wall=r.wall, cpu=r.cpu) for r in runs],
                [r.op.kind for r in runs])
            for runs in passes if all(r.trace is not None for r in runs)
        ]
        units = tracing.metric_units()
        metrics = {}
        for name, unit in units.items():
            vals = [m[name] for m in per_pass]
            value = None if not vals or None in vals else statistics.median(vals)
            metrics[name] = (value, unit, len(vals))
    else:
        metrics = {
            "wall_s": (statistics.median(sum(r.wall_scaled for r in p) for p in passes), "s", n),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p) for p in passes), "MB", n),
            "measured wall_s": (wall_s, "s", n),
        }
    metrics["failed_frac"] = (len(failures) / len(all_runs), "ratio", len(all_runs))
    digests = {}
    for r in passes[0]:
        digests[r.op.name] = r.stdout
        digests[r.cache.relative_to(work).as_posix()] = {
            rel: h for rel, (h, _) in checks.tree_state(r.cache).items()}
    return RunResult(workload, trace, passes, wall_s, len(all_runs), len(failures), failures,
                     correct, metrics, digests)


# -- output ---------------------------------------------------------------------------------


def provenance() -> str:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, mpmath {mpmath.__version__}"
        f" (backend {mpmath.libmp.BACKEND}), nproc {len(os.sched_getaffinity(0))}"
        f"/{os.cpu_count()}, cpu {cpu}, commit {commit}, src lines {src_lines}"
    )


def print_run(res: RunResult) -> None:
    mode = "traced" if res.trace else "untraced"
    print(f"== {res.workload} ({mode}): {len(res.passes)} passes, "
          f"{res.attempted} operations, {len(res.failures)} failures")
    for name, (value, unit, count) in res.metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>12} {unit:<6} n={count}")
    if res.trace:
        print(f"  {'traced wall_s':<42} {res.wall_s:>12.6g} s      n={len(res.passes)}")
    for name, why in res.failures:
        print(f"  FAILED {name}: {why}")


def result_line(res: RunResult) -> str:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in res.metrics.items()
               if name != "failed_frac" and not name.startswith("measured ")}
    return json.dumps({"correct": res.correct, "attempted": res.attempted,
                       "failed": res.failed, "metrics": metrics})


def report(seed: int, seconds: float) -> int:
    print(f"provenance: {provenance()}")
    rows, ok = [], True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        print_run(plain)
        print_run(traced)
        same = plain.digests == traced.digests
        ok &= plain.correct and traced.correct and same
        overhead = traced.wall_s - plain.wall_s
        rows.append((workload, plain, overhead, same))
    hang = run_workload("hang", seed, 0, trace=False)
    print("\nworkload   wall_s (s)        setup_s (s)       peak_rss_mb       failed_frac    "
          "trace overhead  outputs on/off")
    for workload, res, overhead, same in rows:
        m = res.metrics
        cells = [f"{m[k][0]:.4g} n={m[k][2]}" for k in ("wall_s", "setup_s", "peak_rss_mb")]
        print(f"{workload:<10} {cells[0]:<17} {cells[1]:<17} {cells[2]:<17} "
              f"{m['failed_frac'][0]:<14.3g} {overhead:+.3f} s{'':<7} "
              f"{'identical' if same else 'DIFFER'}")
    outcome = hang.failures[0][1] if hang.failures else "finished and passed its checks"
    print(f"\nknown defect, not in any workload: {HANG.name}: {outcome}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("smoke", "hang"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and print one table")
    args = parser.parse_args(argv)
    if not (SRC / "pcflab" / "cli.py").is_file():
        print(f"perfbench: no pcf-lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --report is required")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"provenance: {provenance()}")
    print_run(res)
    print(result_line(res))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds and kills the child
    sys.exit(main())

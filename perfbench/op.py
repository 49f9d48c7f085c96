"""Run one benchmark operation in a fresh interpreter.

Usage: python3 perfbench/op.py '<json spec>'

The spec names the operation ("cli" with an argv for pcflab.cli.main, "lib"
for the library call, or "noop" to measure set-up only), the output
directory, and whether to trace.  The process notes when ``pcflab.cli`` is
imported (``ready.json``), then times the operation alone and writes
``result.json``; the operation's own stdout and stderr go wherever the parent
pointed them.  The exit code is the operation's exit code.

Untraced, an operation process also samples the host's speed
(perfbench/speed.py): ``speed.SETUP_SLICES`` slices right after set-up,
listed in ``ready.json``, and slices on a timer while the operation runs,
listed in ``result.json``.  The operation's ``wall`` includes the timer's
slices.
"""

import json
import os
import sys
import time


def _write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def _mpf_token(x):
    sign, man, exp, _bc = x._mpf_
    return f"{sign}:{man:x}:{exp}"


def _write_roots(path, pset):
    lines = [f"# precision-bits={pset.precision_bits}", f"# count={len(pset.roots)}"]
    for b in pset.roots:
        lines.append(" ".join(
            (_mpf_token(b.center.real), _mpf_token(b.center.imag), _mpf_token(b.radius))
        ))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _peak_rss_kb():
    # VmHWM covers this program only; ru_maxrss also counts the parent's
    # resident set at the moment it forked this process
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def _misiurewicz_roots(d, m, n, bits):
    from pcflab import critical_orbit, rootfinder

    desc = critical_orbit.misiurewicz_factor(d, m, n)
    return rootfinder.all_roots(
        desc.poly, bits, evaluator=critical_orbit.factor_evaluator(desc)
    )


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = spec["out"]
    import pcflab.cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    ready = time.monotonic()
    sampler, setup_slices = None, []
    if not spec["trace"] and spec["kind"] != "noop":
        import speed

        setup_slices = [speed.timed_slice() for _ in range(speed.SETUP_SLICES)]
        sampler = speed.Sampler()
    _write_json(os.path.join(out, "ready.json"),
                {"ready": ready, "pid": os.getpid(), "slices": setup_slices})
    if spec["kind"] == "noop":
        return 0

    pset = None
    t0 = time.monotonic()
    if sampler is not None:
        sampler.start()
    try:
        if spec["kind"] == "cli":
            try:
                rc = pcflab.cli.main(spec["argv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 1
        else:
            pset = _misiurewicz_roots(*spec["params"])
            rc = 0
        wall = time.monotonic() - t0
    finally:
        slices = sampler.stop() if sampler is not None else []
    sys.stdout.flush()

    if pset is not None:
        _write_roots(os.path.join(out, "roots.txt"), pset)
    result = {"ready": ready, "wall": wall, "slices": slices, "rc": rc,
              "rss_kb": _peak_rss_kb(), "trace": None}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(out, "spans.jsonl"))
    _write_json(os.path.join(out, "result.json"), result)
    return rc


if __name__ == "__main__":
    sys.exit(main())

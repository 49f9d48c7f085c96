"""Outside-in tracing of pcflab for the benchmark's traced runs.

Nothing under ``src/`` is modified: ``install`` replaces each public entry
point listed in ``LAYERS`` by a wrapper that records a span, and rebinds every
module attribute in the loaded ``pcflab`` modules that holds the original
function object.  Modules that import an entry point by name (``cli``,
``bounds``, ``equidist``, ``integrality``) therefore call the wrapper too.
Evaluators handed out by ``factor_evaluator`` and ``gleason_evaluator`` are
wrapped in a counting proxy.

Spans nest; a span's self time leaves out the time covered by its children.
Spans stay in memory until ``Tracer.write_spans`` is called at process exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, public functions whose calls become spans "<module>.<function>")
LAYERS = [
    ("critical_orbit", ["gleason", "exact_period_factor", "misiurewicz_factor",
                        "enumerate_factors", "write_gleason_cache"]),
    ("polynomials", ["divide_exact", "resultant", "is_squarefree", "squarefree_part"]),
    ("rootfinder", ["all_roots", "read_roots_cache", "write_roots_cache",
                    "min_pairwise_distance"]),
    ("heights", ["escape_rate_arch", "is_pcf_parameter"]),
    ("numtheory", ["factorize"]),
    ("integrality", ["census", "is_S_integral", "meeting_test_exact"]),
    ("equidist", ["discrepancy_report", "avg_log_distance_roots"]),
    ("bounds", ["pcf_modulus_check", "separation_check"]),
    ("cacheio", ["atomic_write_bytes"]),
]
# evaluator factories whose results get the counting proxy
EVALUATOR_FACTORIES = [("critical_orbit", "factor_evaluator"),
                       ("critical_orbit", "gleason_evaluator")]
# evaluator method -> counter of calls
EVAL_METHODS = {
    "newton_f64": "rootfinder.f64_sweeps",
    "newton_mp": "rootfinder.mp_newton_evals",
    "value_deriv_ball": "rootfinder.ball_evals",
}
CLI_OPS = ["enumerate", "bounds", "equidist", "integral-scan", "all_roots"]
COUNTERS = [
    "rootfinder.roots_certified",
    "rootfinder.read_roots_cache.hits",
    "rootfinder.read_roots_cache.misses",
    "rootfinder.f64_sweeps",
    "rootfinder.f64_point_updates",
    "rootfinder.mp_newton_evals",
    "rootfinder.ball_evals",
    "heights.escape_iterations",
    "heights.bounded_verdicts",
    "cacheio.files_changed",
    "cacheio.bytes_written",
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"cli.op.{op}.s": "s" for op in CLI_OPS}
    units["cli.self.s"] = "s"
    units["cli.cpu_s"] = "s"
    for mod, names in LAYERS:
        for name in names:
            units[f"{mod}.{name}.s"] = "s"
            units[f"{mod}.{name}.calls"] = "count"
    for method in EVAL_METHODS:
        units[f"rootfinder.eval.{method}.s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith("bytes_written") else "count"
    units["rootfinder.ball_evals_per_root"] = "ratio"
    return units


class Tracer:
    """Span stack with per-name self time, call counts and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float]] = []  # name, parent, t0, t1
        self._stack: list[list] = []  # [span index, name id, t0, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        # roots returned by all_roots calls that certified through a counted
        # evaluator: the denominator of ball_evals_per_root
        self.proxied_roots = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._name_id(name), parent, 0.0, 0.0))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        t1 = time.perf_counter()
        idx, name, t0, child = self._stack.pop()
        dur = t1 - t0
        nid, parent, _, _ = self.spans[idx]
        self.spans[idx] = (nid, parent, t0, t1)
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args, kwargs) runs on success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "missing": list(self.missing),
            "proxied_roots": self.proxied_roots,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for nid, parent, t0, t1 in self.spans:
                fh.write(json.dumps([self.names[nid], parent, t0, t1]) + "\n")


class CountingEvaluator:
    """Forwards every attribute to the wrapped evaluator; the methods in
    EVAL_METHODS are counted and timed.  An evaluator without one of those
    methods yields a proxy without it, so feature tests keep working."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        counter = EVAL_METHODS.get(name)
        if counter is None or not callable(attr):
            return attr
        tracer = self._tracer
        timed = tracer.span(f"rootfinder.eval.{name}", attr)

        def wrapped(*args, **kwargs):
            # counted before the call: rootfinder catches ZeroDivisionError
            tracer.counters[counter] += 1
            if name == "newton_f64":
                tracer.counters["rootfinder.f64_point_updates"] += len(args[0])
            return timed(*args, **kwargs)

        self.__dict__[name] = wrapped  # later lookups skip __getattr__
        return wrapped


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pcflab" or mod_name.startswith("pcflab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _after_hooks(tracer: Tracer) -> dict:
    counters = tracer.counters

    def all_roots(result, args, kwargs):
        counters["rootfinder.roots_certified"] += len(result.roots)
        poly = args[0] if args else kwargs["p"]
        evaluator = args[2] if len(args) > 2 else kwargs.get("evaluator")
        if isinstance(evaluator, CountingEvaluator) and poly.degree >= 2:
            tracer.proxied_roots += len(result.roots)

    def read_roots_cache(result, args, kwargs):
        key = "misses" if result is None else "hits"
        counters[f"rootfinder.read_roots_cache.{key}"] += 1

    def escape_rate_arch(result, args, kwargs):
        counters["heights.escape_iterations"] += result.iterations_used
        counters["heights.bounded_verdicts"] += not result.escaped

    def atomic_write_bytes(result, args, kwargs):
        if result:
            data = args[1] if len(args) > 1 else kwargs["data"]
            counters["cacheio.files_changed"] += 1
            counters["cacheio.bytes_written"] += len(data)

    return {
        "rootfinder.all_roots": all_roots,
        "rootfinder.read_roots_cache": read_roots_cache,
        "heights.escape_rate_arch": escape_rate_arch,
        "cacheio.atomic_write_bytes": atomic_write_bytes,
    }


def install() -> Tracer:
    """Wrap the pcflab entry points; returns the tracer that records them."""
    import importlib

    tracer = Tracer()
    hooks = _after_hooks(tracer)
    modules = {}
    for mod_name, names in LAYERS:
        mod = modules[mod_name] = importlib.import_module(f"pcflab.{mod_name}")
        for name in names:
            full = f"{mod_name}.{name}"
            original = getattr(mod, name, None)
            if original is None:
                tracer.missing.append(full)
                continue
            _rebind(original, tracer.span(full, original, hooks.get(full)))
    for mod_name, name in EVALUATOR_FACTORIES:
        mod = modules.get(mod_name) or importlib.import_module(f"pcflab.{mod_name}")
        original = getattr(mod, name, None)
        if original is None:
            tracer.missing.append(f"{mod_name}.{name}")
            continue

        def factory(*args, _original=original, **kwargs):
            inner = _original(*args, **kwargs)
            return None if inner is None else CountingEvaluator(inner, tracer)

        _rebind(original, functools.wraps(original)(factory))
    for method in EVAL_METHODS:
        if not _any_class_defines(method):
            tracer.missing.append(f"rootfinder.eval.{method}")
    return tracer


def _any_class_defines(method: str) -> bool:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("pcflab."):
            continue
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod_name and method in vars(value):
                return True
    return False


def layer_metrics(summaries: list[dict], cli_ops: list[str]) -> dict:
    """Per-layer metric values of one pass, from the per-operation summaries.

    summaries[i] belongs to an operation of kind cli_ops[i]; each summary also
    carries the op's "wall" (the root span) and "cpu" seconds.  Metrics whose
    entry point no longer exists are None.
    """
    units = metric_units()
    values = {name: 0 for name in units}
    missing = set()
    proxied_roots = 0
    for op, summ in zip(cli_ops, summaries):
        inner = sum(summ["self_s"].values())
        values[f"cli.op.{op}.s"] += summ["wall"]
        values["cli.self.s"] += summ["wall"] - inner
        values["cli.cpu_s"] += summ["cpu"]
        for name, sec in summ["self_s"].items():
            values[f"{name}.s"] += sec
        for name, n in summ["calls"].items():
            if f"{name}.calls" in values:
                values[f"{name}.calls"] += n
        for name, n in summ["counters"].items():
            values[name] += n
        proxied_roots += summ["proxied_roots"]
        missing.update(summ["missing"])
    values["rootfinder.ball_evals_per_root"] = (
        values["rootfinder.ball_evals"] / proxied_roots if proxied_roots else 0.0
    )
    for full in missing:
        for name in _metrics_of(full):
            if name in values:
                values[name] = None
    return values


# counters filled by the hooks of one entry point or evaluator method
_DERIVED = {
    "rootfinder.all_roots": ["rootfinder.roots_certified"],
    "rootfinder.read_roots_cache": ["rootfinder.read_roots_cache.hits",
                                    "rootfinder.read_roots_cache.misses"],
    "heights.escape_rate_arch": ["heights.escape_iterations", "heights.bounded_verdicts"],
    "cacheio.atomic_write_bytes": ["cacheio.files_changed", "cacheio.bytes_written"],
    "rootfinder.eval.newton_f64": ["rootfinder.f64_sweeps", "rootfinder.f64_point_updates"],
    "rootfinder.eval.newton_mp": ["rootfinder.mp_newton_evals"],
    "rootfinder.eval.value_deriv_ball": ["rootfinder.ball_evals",
                                         "rootfinder.ball_evals_per_root"],
}


def _metrics_of(full: str) -> list[str]:
    """Metric names that a missing entry point or evaluator method leaves unmeasured."""
    return [f"{full}.s", f"{full}.calls", *_DERIVED.get(full, [])]

"""Quantitative equidistribution experiments for PCF parameter sets.

The empirical average of log|x - alpha| over the degree-d^(n-1) parameter set
at level n has an exact algebraic form when alpha is rational: the set is the
root multiset of the monic g_n, so the average is log|g_n(alpha)| / d^(n-1).
g_n(alpha) is u_n of alpha's critical orbit u_0 = 0, u_{k+1} = u_k^d + alpha,
iterated in exact Fractions by critical_orbit.orbit. The limit object it
converges to is the archimedean escape rate of alpha, which the heights module
computes independently by tail-bounded iteration; the discrepancy reports
compare the two against the (log N / N)^(1/2) rate shape with the ineffective
constant exposed as a knob (default 1, with the fitted minimal value
recorded).

Algebraic alphas take the numeric route: certified root balls plus an
outward-rounded sum of log-distances on mpmath's raw _mpf_ tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence, Union

import mpmath as mp
from mpmath import libmp

from . import balls as bl
from .critical_orbit import gleason, gleason_evaluator, orbit
from .errors import HypothesisViolated, KernelSingular
from .heights import as_algebraic, escape_rate_arch, is_pcf_parameter
from .rootfinder import PCFParameterSet, all_roots


@dataclass(frozen=True)
class AvgResult:
    value: mp.mpf
    error_bound: mp.mpf


def avg_log_distance_vieta(
    d: int, n: int, alpha: Union[Fraction, int], precision_bits: int = 256
) -> mp.mpf:
    """(1/d^(n-1)) log|g_n(alpha)|: u_n of alpha's critical orbit in exact
    Fractions, then one log."""
    value = next(islice(orbit(d, Fraction(alpha), Fraction(0)), n, None))
    if value == 0:
        raise KernelSingular(f"alpha={alpha} is a level-{n} PCF parameter")
    with mp.workprec(max(64, precision_bits)):
        num = abs(value.numerator)
        den = value.denominator
        return (mp.log(mp.mpf(num)) - mp.log(mp.mpf(den))) / mp.mpf(d) ** (n - 1)


def avg_log_distance_roots(
    roots: Union[PCFParameterSet, Sequence[bl.ComplexBall]], alpha: bl.ComplexBall
) -> AvgResult:
    """Outward-rounded average of log|x - alpha| over certified root balls.

    alpha's ball must be disjoint from every root ball (otherwise the kernel
    is unbounded on the data: KernelSingular).
    """
    balls = roots.roots if isinstance(roots, PCFParameterSet) else tuple(roots)
    if not balls:
        raise ValueError("empty root set")
    # on _mpf_ tuples, each step the libmp call that its mpf operator makes,
    # so both totals are bit for bit those of mpf arithmetic. Each summand is
    # kept doubled: halving is exact, so it waits for the end
    prec, rnd = mp.mp.prec, bl.RND
    w, rw = alpha.center._mpc_, alpha.radius._mpf_
    total = halfwidth = libmp.fzero
    for b in balls:
        lo, hi = bl.dist_bounds_raw(b.center._mpc_, w, b.radius._mpf_, rw, prec)
        if lo == libmp.fzero:
            raise KernelSingular("alpha ball overlaps a root ball")
        llo, lhi = libmp.mpf_log(lo, prec, rnd), libmp.mpf_log(hi, prec, rnd)
        total = libmp.mpf_add(total, libmp.mpf_add(llo, lhi, prec, rnd), prec, rnd)
        halfwidth = libmp.mpf_add(halfwidth, libmp.mpf_sub(lhi, llo, prec, rnd), prec, rnd)
    n = len(balls)
    return AvgResult(
        value=mp.mp.make_mpf(libmp.mpf_shift(total, -1)) / n,
        error_bound=mp.mp.make_mpf(libmp.mpf_shift(halfwidth, -1)) / n,
    )


@dataclass(frozen=True)
class DiscrepancyReport:
    d: int
    n: int
    N: int
    alpha_label: str
    empirical_avg: mp.mpf
    green_value: mp.mpf
    discrepancy: mp.mpf
    rhs_bound: mp.mpf
    tau: float
    C: float
    passed: bool
    path: str  # "vieta-exact" | "roots-numeric"

    def tsv_row(self) -> str:
        return "\t".join(
            [
                str(self.d),
                str(self.n),
                str(self.N),
                self.alpha_label,
                mp.nstr(self.empirical_avg, 12),
                mp.nstr(self.green_value, 12),
                mp.nstr(self.discrepancy, 6),
                mp.nstr(self.rhs_bound, 6),
                f"{self.tau:g}",
                f"{self.C:g}",
                "pass" if self.passed else "FAIL",
                self.path,
            ]
        )


TSV_HEADER = "d\tn\tN\talpha\tempirical\tgreen\tdiscrepancy\trhs_bound\ttau\tC\tverdict\tpath"


def discrepancy_report(
    d: int,
    levels: Iterable[int],
    alpha,
    tau: float = 0.5,
    C: float = 1.0,
    precision_bits: int = 256,
    roots: Optional[Callable[[int], PCFParameterSet]] = None,
) -> list[DiscrepancyReport]:
    """Empirical kernel average at each level n vs the escape rate of alpha,
    against the rate shape C (log N / N)^(1/2) (log^+|alpha| + 1/tau).

    The PCF gate, the escape rate and the alpha ball depend on (d, alpha)
    only, so they are computed once for the whole table. For an irrational
    alpha, roots(n) returns the certified root set of g_n (default: isolate
    it); it is called one level at a time, after the gate.
    """
    if not 0 < tau < 1:
        raise ValueError("need 0 < tau < 1")
    alg = as_algebraic(alpha)
    if is_pcf_parameter(d, alg):
        raise HypothesisViolated("alpha is a PCF parameter")
    roots = roots or (
        lambda n: all_roots(gleason(d, n), precision_bits, evaluator=gleason_evaluator(d, n))
    )
    reports = []
    with mp.workprec(max(64, precision_bits) + 16):
        if alg.is_rational:
            a = alg.as_fraction()
            alpha_ball = bl.exact_ball(a)
            green = escape_rate_arch(d, a, target_error=1e-14, precision_bits=precision_bits)
            path = "vieta-exact"

            def empirical_at(n):
                return avg_log_distance_vieta(d, n, a, precision_bits)

        else:
            alpha_ball = alg.selected_conjugate(precision_bits)
            green = escape_rate_arch(
                d, alpha_ball, target_error=1e-14, precision_bits=precision_bits
            )
            path = "roots-numeric"

            def empirical_at(n):
                return avg_log_distance_roots(roots(n), alpha_ball).value

        logplus = max(mp.mpf(0), mp.log(max(abs(alpha_ball.center), mp.mpf(1))))
        for n in levels:
            big_n = d ** (n - 1)
            empirical = empirical_at(n)
            disc = abs(empirical - green.value)
            rhs = mp.mpf(C) * mp.sqrt(mp.log(big_n) / big_n) * (logplus + 1 / mp.mpf(tau))
            reports.append(
                DiscrepancyReport(
                    d=d,
                    n=n,
                    N=big_n,
                    alpha_label=alg.label,
                    empirical_avg=empirical,
                    green_value=green.value,
                    discrepancy=disc,
                    rhs_bound=rhs,
                    tau=tau,
                    C=C,
                    passed=bool(disc <= rhs),
                    path=path,
                )
            )
    return reports


def fitted_min_constant(reports: Sequence[DiscrepancyReport]) -> float:
    """Smallest C that would make every report pass (the recorded fit)."""
    worst = mp.mpf(0)
    for r in reports:
        scale = r.rhs_bound / r.C
        worst = max(worst, r.discrepancy / scale)
    return float(worst)

"""Evaluators and empirical validators for the explicit bound formulas.

Each evaluator computes a stated closed form exactly as written; ineffective
constants are exposed as explicit knobs so reports can print the fitted value
that would make an inequality tight. Everything returns mpf (separation
bounds underflow float64 fast: H^(1-d) with a 100-digit H is not a float).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import mpmath as mp

from .rootfinder import min_pairwise_distance

# slack of pcf_modulus_check over 2^(1/(d-1)), part of the printed bound
_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class LinearFormInput:
    """Inputs to the lower bound for |a_1^{b_1} ... a_n^{b_n} - 1|.

    place_norm is 2 at an infinite place, the residue norm at a finite one.
    """

    heights: tuple[float, ...]
    exponents: tuple[int, ...]
    field_degree: int
    place_norm: Union[int, float]
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.heights))
        if self.n < 2:
            raise ValueError("need at least two numbers")
        if len(self.exponents) != self.n:
            raise ValueError("heights/exponents length mismatch")
        if all(b == 0 for b in self.exponents):
            raise ValueError("exponents must not all vanish")
        if self.field_degree < 1:
            raise ValueError("field degree must be >= 1")
        if any(h < 0 for h in self.heights):
            raise ValueError("heights are nonnegative")


@dataclass(frozen=True)
class BoundReport:
    name: str
    bound_value: mp.mpf
    empirical_value: Optional[mp.mpf] = None
    satisfied: Optional[bool] = None

    def line(self) -> str:
        emp = "-" if self.empirical_value is None else mp.nstr(self.empirical_value, 10)
        sat = "-" if self.satisfied is None else ("yes" if self.satisfied else "NO")
        return f"{self.name}\t{mp.nstr(self.bound_value, 10)}\t{emp}\t{sat}"


def beg_linear_form_constant(n: int, degree: int) -> mp.mpf:
    """c_1(n, d) = 12 d (16 e d)^(3n+2) max(1, log d)^2."""
    with mp.workprec(96):
        d = mp.mpf(degree)
        return 12 * d * (16 * mp.e * d) ** (3 * n + 2) * max(mp.mpf(1), mp.log(d)) ** 2


def beg_lower_bound(inp: LinearFormInput) -> mp.mpf:
    """Lower bound for log |Lambda|_v: always negative, monotone decreasing in
    each height and in the exponent bound B.

    The height floor 2/(D (log 3D)^3) applies factor-by-factor; note the
    downstream shaping step 1/log D <= D^eps needs D >= 3, so treat smaller
    degrees as formula evaluation only.
    """
    with mp.workprec(96):
        dd = inp.field_degree
        c1 = beg_linear_form_constant(inp.n, dd)
        floor = 2 / (dd * mp.log(3 * dd) ** 3)
        theta = mp.mpf(1)
        for h in inp.heights:
            theta *= max(mp.mpf(h), floor)
        big_b = max(3, max(abs(b) for b in inp.exponents))
        nv = mp.mpf(inp.place_norm)
        return -c1 * (nv / mp.log(nv)) * theta * mp.log(big_b)


def mahler_separation_bound(d_c: int, H) -> mp.mpf:
    """Root-separation lower bound sqrt(3) (d+1)^(-(2d+1)/2) H^(1-d)."""
    if d_c < 2:
        raise ValueError("separation bound needs degree >= 2")
    with mp.workprec(96):
        hh = mp.mpf(H)
        if hh < 1:
            raise ValueError("polynomial height H must be >= 1")
        return mp.sqrt(3) * mp.mpf(d_c + 1) ** (-mp.mpf(2 * d_c + 1) / 2) * hh ** (1 - d_c)


def prop31_bound(h_alpha: float, d: int, orbit_size: int, eps: float, C6: float) -> mp.mpf:
    """C6 (h(alpha) + d/(d-1)) |orbit|^(8+eps)."""
    if orbit_size < 1 or eps <= 0:
        raise ValueError("need orbit_size >= 1 and eps > 0")
    with mp.workprec(96):
        return mp.mpf(C6) * (mp.mpf(h_alpha) + mp.mpf(d) / (d - 1)) * mp.mpf(orbit_size) ** (
            8 + mp.mpf(eps)
        )


def degree_lower_bound_check(d: int, n: int, base_degree: int) -> BoundReport:
    """Degree of the level-n parameter locus g_n against d^(n-1)/base_degree."""
    from .critical_orbit import gleason

    g = gleason(d, n)
    threshold = mp.mpf(d) ** (n - 1) / base_degree
    return BoundReport(
        name=f"degree-law-d{d}-n{n}",
        bound_value=threshold,
        empirical_value=mp.mpf(g.degree),
        satisfied=g.degree >= threshold,
    )


def pcf_modulus_bound(d: int) -> mp.mpf:
    """Radius bound for bounded critical orbits: 2^(1/(d-1))."""
    if d < 2:
        raise ValueError("d must be >= 2")
    with mp.workprec(96):
        return mp.mpf(2) ** (mp.mpf(1) / (d - 1))


def root_set_bounds(ps) -> tuple:
    """What the bound checks read of one root set, as exact _mpf_ tuples:
    max |c| + r over its roots, and its min_pairwise_distance (None below
    two roots)."""
    worst = mp.mpf(0)
    for b in ps.roots:
        worst = max(worst, abs(b.center) + b.radius)
    sep = min_pairwise_distance(ps)._mpf_ if len(ps.roots) >= 2 else None
    return worst._mpf_, sep


def pcf_modulus_check(d: int, max_n: int, root_sets) -> BoundReport:
    """Batch check: every root of the given level-<=max_n factor root sets
    obeys the bound, with _MODULUS_TOL of slack."""
    return pcf_modulus_report(d, max_n, map(root_set_bounds, root_sets))


def pcf_modulus_report(d: int, max_n: int, summaries) -> BoundReport:
    """pcf_modulus_check from the root_set_bounds of the root sets."""
    bound = pcf_modulus_bound(d) + mp.mpf(_MODULUS_TOL)
    worst = mp.mpf(0)
    for modulus, _ in summaries:
        worst = max(worst, mp.mp.make_mpf(modulus))
    return BoundReport(
        name=f"pcf-modulus-d{d}-n{max_n}",
        bound_value=bound,
        empirical_value=worst,
        satisfied=worst <= bound,
    )


def thm15_threshold(C1: float, s_size: int, field_degree: int) -> float:
    """Orbit-size threshold shape C1 |S|^3 D^8 (census annotation only)."""
    if s_size < 1 or field_degree < 1:
        raise ValueError("need |S| >= 1 and field degree >= 1")
    return float(C1) * s_size**3 * field_degree**8


def separation_check(descs, root_sets) -> list[BoundReport]:
    """Per-factor check: min pairwise root distance >= separation bound.

    root_sets[i] holds the roots of the FactorDescriptor descs[i]; factors of
    degree < 2 have no pair to check and are skipped.
    """
    return separation_reports(descs, map(root_set_bounds, root_sets))


def separation_reports(descs, summaries) -> list[BoundReport]:
    """separation_check from the root_set_bounds of the root sets."""
    out = []
    for desc, (_, distance) in zip(descs, summaries, strict=True):
        if desc.poly.degree < 2:
            continue
        sep = mahler_separation_bound(desc.poly.degree, desc.poly.max_abs_coeff())
        actual = mp.mp.make_mpf(distance)
        out.append(
            BoundReport(
                name=f"separation-{desc.label}",
                bound_value=sep,
                empirical_value=actual,
                satisfied=actual >= sep,
            )
        )
    return out

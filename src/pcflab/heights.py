"""Escape rates, local heights at all places, Weil and critical heights.

The archimedean escape rate of z^d + c is computed by rigorous ball iteration
of the critical orbit z <- z^d + c (critical_orbit.orbit on FixedBalls),
seeded at the critical value: once |z| certifiably clears the bail radius
B = max(2, (2|c|)^(1/d), 2^(1/(d-1))), the normalized logarithm d^-k log|z_k|
is within log(2)/(d^k (d-1)) of the limit, and the bound tightens
geometrically with every extra step (see _escape_attempt for the
derivation). Non-escape within the iteration budget is reported as a verdict
("bounded after N steps"), never as set membership. The iteration runs on
fixed-point balls (pcflab.fixedball) at the working precision, which doubles
whenever a pass cannot decide, up to the precision cap or until the input
ball's own radius, not rounding, is what limits the pass; N is then the
window the last pass certified.

Finite places never need iteration: the escape rate there is log max(1, |c|_p),
so everything reduces to Newton polygons of minimal polynomials, computed
exactly over Fractions.

The PCF gate runs the same orbit exactly, on Residues of Z[t]/(A) for a
monic minimal polynomial A: u_n is g_n(t) mod A, and a repeat proves PCF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Optional, Union

import mpmath as mp

from . import balls as bl
from .critical_orbit import orbit
from .errors import HypothesisUndecided, NonSquarefreeInput
from .fixedball import FixedBall
from .numtheory import factorize, is_prime, valuation
from .polynomials import (
    ZERO,
    IntPolynomial,
    X,
    divide_exact,
    divmod_exact,
    evaluate_exact,
    lower_hull,
)
from .rootfinder import all_roots

DEFAULT_BITS = 256
DEFAULT_MAX_ITER = 10_000
_ESCAPE_PREC_CAP = 4096


# -- archimedean escape rate ---------------------------------------------------


@dataclass(frozen=True)
class EscapeRateResult:
    """Escape rate with rigorous error bound.

    escaped=False means the orbit stayed below the bail radius for
    iterations_used certified steps; value is then 0 (a lower bound for the
    true rate, exact whenever the point really has a bounded orbit). That is
    max_iter, or, when no pass decides, the bounded window of the last pass:
    at the precision cap, or where the input ball is too wide for a doubled
    precision to help.
    """

    value: mp.mpf
    error_bound: mp.mpf
    iterations_used: int
    escaped: bool


def _as_fixed(x) -> FixedBall:
    """x as a FixedBall on the grid of the current mpmath precision."""
    if not isinstance(x, bl.ComplexBall):
        x = bl.exact_ball(x) if isinstance(x, (int, Fraction)) else bl.ball(x)
    return FixedBall.from_ball(x, mp.mp.prec)


def _bail_radius(d: int, c_abs_hi: mp.mpf) -> mp.mpf:
    b = mp.mpf(2) ** (mp.mpf(1) / (d - 1))
    b = max(b, (2 * c_abs_hi) ** (mp.mpf(1) / d))
    return max(b, mp.mpf(2)) * (1 + mp.mpf(2) ** (-20))


def _escape_attempt(d, cb, z0b, target_error, max_iter):
    """One fixed-precision pass on FixedBalls at precision P = cb.prec.

    Returns an EscapeRateResult, or, when this precision cannot decide, the
    number of steps the orbit was certified to stay below the bail radius.

    After escape at step k (z_0 counts as step 0), the remaining tail is
      sum_{j>=k} d^-(j+1) log|1 + c z_j^-d|,
    and with eps_j = |c| / |z_j|^d <= 1/2 nonincreasing (beyond B the modulus
    never shrinks), each term is at most d^-(j+1) eps_k log 4, giving
      |G - d^-k log|z_k|| <= eps_k log4 / (d^k (d-1)) <= log2 / (d^k (d-1)).
    """
    P = cb.prec
    log4 = mp.log(4)
    c_hi = mp.mpf((cb.abs_bounds()[1], -P))
    bail = int(mp.ceil(mp.ldexp(_bail_radius(d, c_hi), P)))  # in units of 2^-P
    escaped_at: Optional[int] = None
    dk = mp.mpf(1)  # d^k
    for k, z in zip(range(max_iter + 1), orbit(d, cb, z0b)):
        lo, hi = z.abs_bounds()
        if escaped_at is None and lo >= bail:
            escaped_at = k
        if escaped_at is not None:
            eps = c_hi / mp.mpf((lo, -P)) ** d
            tail = (eps * log4) / (dk * (d - 1))
            if tail <= target_error / 2:
                llo, lhi = bl.log_abs_interval(z.ball())
                half = (lhi - llo) / 2
                if half > target_error / 2:
                    return escaped_at  # ball too wide at this precision
                value = (llo + lhi) / 2 / dk
                return EscapeRateResult(
                    value=value,
                    error_bound=tail + half / dk + mp.mpf(2) ** (-mp.mp.prec // 2),
                    iterations_used=k,
                    escaped=True,
                )
        # enclosure degenerated before a decision: radius > (1 + |z|) 2^-16
        if z.rad << 16 > (1 << P) + hi:
            return k if escaped_at is None else escaped_at
        dk *= d
    if escaped_at is not None:
        return escaped_at
    return EscapeRateResult(
        value=mp.mpf(0), error_bound=mp.mpf(0), iterations_used=max_iter, escaped=False
    )


def _escape_rate_seeded(
    d: int,
    c,
    z0,
    target_error: float = 1e-12,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
    seed_map=None,
) -> EscapeRateResult:
    if d < 2:
        raise ValueError("d must be >= 2")
    wp = max(64, precision_bits)
    while True:
        with mp.workprec(wp + 32):
            cb = _as_fixed(c)
            zb = _as_fixed(z0) if seed_map is None else seed_map(_as_fixed(z0), cb)
            res = _escape_attempt(d, cb, zb, mp.mpf(target_error), max_iter)
        if isinstance(res, EscapeRateResult):
            return res
        wp *= 2
        # undecided: report this pass's certified bounded window when it is
        # the last one, at the precision cap or when an input ball is 2^16
        # ulps wide (the degeneracy test's margin), so that its own radius,
        # not rounding, limits the window and a doubled pass starts as wide
        if max(cb.rad, zb.rad) >> 16 or wp > _ESCAPE_PREC_CAP:
            return EscapeRateResult(
                value=mp.mpf(0), error_bound=mp.mpf(0), iterations_used=res, escaped=False
            )


def escape_rate_arch(
    d: int,
    c,
    target_error: float = 1e-12,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
) -> EscapeRateResult:
    """Escape rate of the critical orbit: iterate z <- z^d + c from z = c."""
    return _escape_rate_seeded(d, c, c, target_error, max_iter, precision_bits)


def local_height_arch(
    d: int,
    c,
    z,
    target_error: float = 1e-12,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
) -> EscapeRateResult:
    """Call-Silverman local height of z under z^d + c (seeded escape rate)."""
    return _escape_rate_seeded(d, c, z, target_error, max_iter, precision_bits)


def local_height_functional_check(
    d: int,
    c,
    z,
    target_error: float = 1e-13,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
) -> mp.mpf:
    """Upper bound for |lambda(z^d + c) - d lambda(z)| at the given point."""
    lam_z = local_height_arch(d, c, z, target_error, max_iter, precision_bits)
    lam_fz = _escape_rate_seeded(
        d,
        c,
        z,
        target_error,
        max_iter,
        precision_bits,
        # one step of the map, not an orbit: it seeds the escape iteration
        seed_map=lambda zb, cb: zb**d + cb,
    )
    with mp.workprec(max(64, precision_bits)):
        return abs(lam_fz.value - d * lam_z.value) + lam_fz.error_bound + d * lam_z.error_bound


# -- non-archimedean places ------------------------------------------------------


def newton_polygon_slopes(p: IntPolynomial, prime: int) -> list[tuple[Fraction, int]]:
    """Slopes (with horizontal lengths) of the lower hull of (i, v_p(a_i)).

    Root valuations are the negated slopes, each counted with the segment
    length; zero coefficients (infinite valuation) never enter the hull.
    """
    if p.is_zero:
        raise ValueError("newton polygon of the zero polynomial is undefined")
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    hull = lower_hull([(i, valuation(c, prime)) for i, c in enumerate(p.coeffs) if c != 0])
    return [
        (Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull[:-1], hull[1:])
    ]


def conjugate_valuations(p: IntPolynomial, prime: int) -> list[tuple[Fraction, int]]:
    """p-adic valuations of the roots (value, multiplicity), by Newton polygon."""
    return [(-slope, length) for slope, length in newton_polygon_slopes(p, prime)]


def nonarch_mass(p: IntPolynomial, prime: int) -> Fraction:
    """sum over roots of max(0, -v_p(root)): the denominator mass at prime.

    For a primitive polynomial this equals v_p(leading coefficient) exactly.
    """
    return sum(
        (max(Fraction(0), -v) * length for v, length in conjugate_valuations(p, prime)),
        Fraction(0),
    )


def green_nonarch(alpha, prime: int, precision_bits: int = DEFAULT_BITS) -> mp.mpf:
    """Averaged escape rate at a finite place:
    (log p / deg) * sum_i max(0, -v_p(alpha_i)) over the conjugates alpha_i."""
    alpha = as_algebraic(alpha)
    mass = nonarch_mass(alpha.min_poly, prime)
    if mass == 0:
        return mp.mpf(0)
    with mp.workprec(max(64, precision_bits)):
        return mp.log(prime) * mp.mpf(mass.numerator) / (mass.denominator * alpha.degree)


# -- algebraic numbers -------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """A number given by its primitive minimal-candidate polynomial plus an
    isolating ball selecting one root.

    The polynomial must be squarefree with positive leading coefficient.
    from_min_poly divides out every linear factor over Z and keeps the
    factor the selected root lies on, so input of degree <= 3 is certified
    irreducible. A higher-degree polynomial may still be reducible; heights
    and Newton polygon masses are then computed from its full root multiset.
    """

    min_poly: IntPolynomial
    root_selector: bl.ComplexBall
    degree: int

    @classmethod
    def from_rational(cls, value: Union[int, Fraction]) -> "AlgebraicNumber":
        value = Fraction(value)
        poly = IntPolynomial([-value.numerator, value.denominator])
        with mp.workprec(DEFAULT_BITS):
            sel = bl.exact_ball(value)
        return cls(min_poly=poly, root_selector=sel, degree=1)

    @classmethod
    def from_min_poly(
        cls, coeffs, root_index: int, precision_bits: int = DEFAULT_BITS
    ) -> "AlgebraicNumber":
        poly = coeffs if isinstance(coeffs, IntPolynomial) else IntPolynomial(coeffs)
        poly = poly.primitive_part()
        # from 4 * height + 64 bits on, a root disk holds at most one
        # candidate k/lead of _rational_root (|root| <= 1 + height / lead)
        bits = max(precision_bits, 4 * poly.max_abs_coeff().bit_length() + 64)
        try:
            roots = _root_disks(poly, bits)
        except NonSquarefreeInput as exc:
            raise ValueError("minimal polynomial must be squarefree") from exc
        if not 0 <= root_index < len(roots):
            raise ValueError(f"root index {root_index} out of range")
        selected = roots[root_index]
        for b in roots:
            x = _rational_root(poly, b)
            if x is None:
                continue
            if b is selected:
                return cls.from_rational(x)
            poly = divide_exact(poly, IntPolynomial([-x.numerator, x.denominator]))
        return cls(min_poly=poly, root_selector=selected, degree=poly.degree)

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not rational")
        a0, a1 = self.min_poly.coeffs
        return Fraction(-a0, a1)

    @property
    def label(self) -> str:
        """Report label: the fraction ('7/3'), or 'deg<k>:' and the min-poly coefficients."""
        if self.is_rational:
            return str(self.as_fraction())
        return f"deg{self.degree}:" + ",".join(str(c) for c in self.min_poly.coeffs)

    def conjugates(self, precision_bits: int = DEFAULT_BITS) -> tuple[bl.ComplexBall, ...]:
        if self.is_rational:
            with mp.workprec(max(64, precision_bits)):
                return (bl.exact_ball(self.as_fraction()),)
        return _root_disks(self.min_poly, precision_bits)

    def selected_conjugate(self, precision_bits: int = DEFAULT_BITS) -> bl.ComplexBall:
        conj = self.conjugates(precision_bits)
        return min(conj, key=lambda b: abs(b.center - self.root_selector.center))


@lru_cache(maxsize=64)
def _root_disks(poly: IntPolynomial, bits: int) -> tuple[bl.ComplexBall, ...]:
    """The certified roots of poly at bits: a conjugate set is isolated, and
    its input checked, once per (poly, bits) among the last 64 used."""
    return all_roots(poly, bits).roots


@dataclass(frozen=True)
class Residue:
    """The class of poly in Z[t]/(modulus), modulus monic, kept reduced:
    ** reduces mod modulus, and a sum of reduced residues is reduced."""

    poly: IntPolynomial
    modulus: IntPolynomial

    def __add__(self, o: "Residue") -> "Residue":
        return Residue(self.poly + o.poly, self.modulus)

    def __pow__(self, e: int) -> "Residue":
        return Residue(divmod_exact(self.poly**e, self.modulus)[1], self.modulus)


def _fraction(x: mp.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _rational_root(poly: IntPolynomial, disk: bl.ComplexBall) -> Optional[Fraction]:
    """The root of poly in its certified root disk when that root is rational.

    A rational root of a primitive polynomial with positive leading
    coefficient is k/lead for an integer k, so the disk holds finitely many
    candidates, each tested exactly.
    """
    re, im, rad = (_fraction(v) for v in (disk.center.real, disk.center.imag, disk.radius))
    if abs(im) > rad:
        return None
    lead = poly.lead
    for k in range(math.ceil(lead * (re - rad)), math.floor(lead * (re + rad)) + 1):
        if evaluate_exact(poly, Fraction(k, lead)) == 0:
            return Fraction(k, lead)
    return None


def as_algebraic(alpha) -> AlgebraicNumber:
    if isinstance(alpha, AlgebraicNumber):
        return alpha
    return AlgebraicNumber.from_rational(Fraction(alpha))


# -- global heights ------------------------------------------------------------------


def weil_height(alpha, precision_bits: int = DEFAULT_BITS) -> mp.mpf:
    """Absolute logarithmic Weil height, in Mahler-measure form:
    (log|lead| + sum_i log^+ |root_i|) / deg."""
    alpha = as_algebraic(alpha)
    conj = alpha.conjugates(precision_bits)
    with mp.workprec(max(64, precision_bits) + 16):
        total = mp.log(abs(alpha.min_poly.lead))
        for b in conj:
            lo, hi = bl.log_plus_interval(b)
            total += (lo + hi) / 2
        return total / alpha.degree


@dataclass(frozen=True)
class PlaceContribution:
    """One place's share of a height sum.

    place: "arch:<index>" for an embedding, or the rational prime.
    weight: local degree mass / global degree (sums to 1 over the
    archimedean block; equals the Newton-polygon mass / degree at a prime).
    """

    place: Union[str, int]
    weight: Fraction
    value: mp.mpf


@dataclass(frozen=True)
class CriticalHeightResult:
    value: mp.mpf
    error_bound: mp.mpf
    undetermined: bool
    contributions: tuple[PlaceContribution, ...]

    def __float__(self) -> float:
        return float(self.value)


def critical_canonical_height(
    d: int,
    alpha,
    precision_bits: int = DEFAULT_BITS,
    target_error: float = 1e-12,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CriticalHeightResult:
    """Canonical height of the critical value of z^d + alpha.

    Averaged archimedean escape rates over all conjugates plus finite-place
    masses; the finite places that can contribute are exactly the primes
    dividing the leading coefficient of the minimal polynomial (elsewhere
    every conjugate is a p-adic integer and log max(1, |.|_p) vanishes).
    Zero iff the map is post-critically finite, up to the numeric verdict:
    conjugates that neither escape nor certify boundedness set the
    undetermined flag, and the value is then a lower bound.
    """
    alpha = as_algebraic(alpha)
    conj = alpha.conjugates(precision_bits)
    contributions: list[PlaceContribution] = []
    undetermined = False
    with mp.workprec(max(64, precision_bits) + 16):
        total = mp.mpf(0)
        err = mp.mpf(0)
        w = Fraction(1, alpha.degree)
        for i, b in enumerate(conj):
            res = escape_rate_arch(d, b, target_error, max_iter, precision_bits)
            if not res.escaped:
                undetermined = True
            contributions.append(PlaceContribution(place=f"arch:{i}", weight=w, value=res.value))
            total += res.value / alpha.degree
            err += res.error_bound / alpha.degree
        lead = abs(alpha.min_poly.lead)
        if lead > 1:
            for prime in sorted(factorize(lead)):
                mass = nonarch_mass(alpha.min_poly, prime)
                if mass == 0:
                    continue
                val = mp.log(prime) * mp.mpf(mass.numerator) / (mass.denominator * alpha.degree)
                contributions.append(
                    PlaceContribution(place=prime, weight=mass / alpha.degree, value=val)
                )
                total += val
        err += mp.mpf(2) ** (-(max(64, precision_bits) // 2))
        return CriticalHeightResult(
            value=total,
            error_bound=err,
            undetermined=undetermined,
            contributions=tuple(contributions),
        )


# -- post-critically finite gate ------------------------------------------------------


ORBIT_CAP = 256  # exact orbit steps of the PCF gate before it tries escape rates


def is_pcf_parameter(d: int, alpha) -> bool:
    """Exact decision whether z^d + alpha is post-critically finite.

    PCF parameters are algebraic integers, so any non-monic minimal
    polynomial decides immediately. For algebraic integers the critical
    orbit is iterated exactly in Z[t]/(min_poly): a collision proves PCF; a
    conjugate whose ball iteration certifiably escapes proves the opposite.
    That may be any conjugate up to degree 3, where from_min_poly certifies
    min_poly irreducible, but only the selected one above it. Raises
    HypothesisUndecided when neither happens within the budget.
    """
    alpha = as_algebraic(alpha)
    A = alpha.min_poly  # primitive, with positive leading coefficient
    if A.lead != 1:
        return False
    t = Residue(divmod_exact(X, A)[1], A)  # a constant when deg A = 1
    seen = set()
    for u in islice(orbit(d, t, Residue(ZERO, A)), ORBIT_CAP + 1):
        if u in seen:
            return True
        seen.add(u)
        if u.poly.max_abs_coeff().bit_length() > 1 << 14:
            break
    if alpha.degree > 3:
        conj = [alpha.selected_conjugate(DEFAULT_BITS)]
    else:
        # likely escapers first: largest modulus, then, as for +-sqrt(2),
        # largest real part (M_2 meets the real axis in [-2, 1/4])
        conj = sorted(
            alpha.conjugates(DEFAULT_BITS),
            key=lambda b: (abs(b.center), b.center.real),
            reverse=True,
        )
    for b in conj:
        res = escape_rate_arch(d, b, target_error=1e-6, max_iter=4096)
        if res.escaped:
            return False
    raise HypothesisUndecided("orbit neither repeated nor certifiably escaped")

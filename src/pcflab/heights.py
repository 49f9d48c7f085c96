"""Escape rates, local heights at all places, the Weil height and the PCF gate.

The archimedean escape rate of z^d + c is computed by rigorous ball iteration
of the critical orbit z <- z^d + c (critical_orbit.orbit on FixedBalls),
seeded at the critical value: once |z| certifiably clears the bail radius
B = max(2, (2|c|)^(1/d), 2^(1/(d-1))), the normalized logarithm d^-k log|z_k|
is within log(2)/(d^k (d-1)) of the limit, and the bound tightens
geometrically with every extra step (see _escape_attempt for the
derivation). Non-escape within the iteration budget is reported as a verdict
("bounded after N steps", with the rate at most d^-N (log B + log 2/(d-1))),
never as set membership. The iteration runs on
fixed-point balls (pcflab.fixedball) at the working precision, which doubles
whenever a pass cannot decide, up to the precision cap or until the input
ball's own radius, not rounding, is what limits the pass; N is then the
window the last pass certified.

Finite places never need iteration: the escape rate there is log max(1, |c|_p),
and its average over the conjugates of alpha is (log p) v_p(lead A) / deg A
for the primitive minimal polynomial A that every AlgebraicNumber carries.

The PCF gate runs the same orbit exactly, on Residues of Z[t]/(A) for a
monic minimal polynomial A: u_n is g_n(t) mod A. A repeat proves PCF, and a
trace |Tr(u_n^k)| above D R^k (D = deg A, R its Cauchy bound) proves that a
root of A escapes, all in integer arithmetic; up to degree 3, or for an
Eisenstein A, no ball and no root isolation is involved.
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
from .numtheory import _MR_PROVEN_LIMIT, is_prime, valuation
from .polynomials import (
    ZERO,
    IntPolynomial,
    X,
    divide_exact,
    divmod_exact,
    evaluate_exact,
)
from .rootfinder import CoefficientEvaluator, all_roots

DEFAULT_BITS = 256
DEFAULT_MAX_ITER = 10_000
_ESCAPE_PREC_CAP = 4096


# -- archimedean escape rate ---------------------------------------------------


@dataclass(frozen=True)
class EscapeRateResult:
    """Escape rate with rigorous error bound.

    escaped=False is the verdict "bounded after N = iterations_used steps":
    N is max_iter, or, when no pass decides, the window the last pass
    certified, at the precision cap or where the input ball is too wide for
    a doubled precision to help. value is then 0, and the true rate lies in
    [0, error_bound], error_bound = d^-N (log B + log 2/(d-1)) rounded up,
    with B the bail radius (or the certified bound on |z_N|, if larger).
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

    Returns (result, decided): an escaped or max_iter-bounded result, or,
    when this precision cannot decide, the bounded verdict of the steps it
    certified.

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

    def bounded(n, hi):
        # G(z) <= log B + log2/(d-1) on |z| = B by the tail bound, so inside
        # too (G is subharmonic), and G(z) <= log|z| + log2/(d-1) outside;
        # G(z_0) = d^-n G(z_n) with |z_n| <= hi. Rounded up by 2^-(prec/2).
        top = mp.log(mp.mpf((max(bail, hi), -P))) + log4 / (2 * (d - 1))
        bound = top / mp.mpf(d) ** n * (1 + mp.mpf(2) ** (-mp.mp.prec // 2))
        return EscapeRateResult(mp.mpf(0), bound, iterations_used=n, escaped=False)

    escaped_at: Optional[tuple[int, int]] = None  # (step, modulus upper bound)
    dk = mp.mpf(1)  # d^k
    for k, z in zip(range(max_iter + 1), orbit(d, cb, z0b)):
        lo, hi = z.abs_bounds()
        if escaped_at is None and lo >= bail:
            escaped_at = (k, hi)
        if escaped_at is not None:
            eps = c_hi / mp.mpf((lo, -P)) ** d
            tail = (eps * log4) / (dk * (d - 1))
            if tail <= target_error / 2:
                llo, lhi = bl.log_abs_interval(z.ball())
                half = (lhi - llo) / 2
                if half > target_error / 2:
                    return bounded(*escaped_at), False  # ball too wide at this precision
                value = (llo + lhi) / 2 / dk
                return EscapeRateResult(
                    value=value,
                    error_bound=tail + half / dk + mp.mpf(2) ** (-mp.mp.prec // 2),
                    iterations_used=k,
                    escaped=True,
                ), True
        # enclosure degenerated before a decision: radius > (1 + |z|) 2^-16
        if z.rad << 16 > (1 << P) + hi:
            return bounded(*(escaped_at or (k, hi))), False
        dk *= d
    return bounded(*(escaped_at or (max_iter, hi))), escaped_at is None


def local_height_arch(
    d: int,
    c,
    z,
    target_error: float = 1e-12,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
) -> EscapeRateResult:
    """Call-Silverman local height of z under z^d + c: the escape rate of
    the orbit of z, at doubling precision until a pass decides."""
    if d < 2:
        raise ValueError("d must be >= 2")
    wp = max(64, precision_bits)
    while True:
        with mp.workprec(wp + 32):
            cb, zb = _as_fixed(c), _as_fixed(z)
            res, decided = _escape_attempt(d, cb, zb, mp.mpf(target_error), max_iter)
        wp *= 2
        # undecided: report this pass's certified window when it is the last
        # one, at the precision cap or when an input ball is 2^16 ulps wide
        # (the degeneracy test's margin), so that its own radius, not
        # rounding, limits the window and a doubled pass starts as wide
        if decided or max(cb.rad, zb.rad) >> 16 or wp > _ESCAPE_PREC_CAP:
            return res


def escape_rate_arch(
    d: int,
    c,
    target_error: float = 1e-12,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
) -> EscapeRateResult:
    """Escape rate of the critical orbit: the local height of z = c."""
    return local_height_arch(d, c, c, target_error, max_iter, precision_bits)


def local_height_functional_check(
    d: int,
    c,
    z,
    target_error: float = 1e-13,
    max_iter: int = DEFAULT_MAX_ITER,
    precision_bits: int = DEFAULT_BITS,
) -> mp.mpf:
    """Upper bound for |lambda(z^d + c) - d lambda(z)| at an int or Fraction
    point z and parameter c, where z^d + c is exact."""
    lam_z = local_height_arch(d, c, z, target_error, max_iter, precision_bits)
    lam_fz = local_height_arch(d, c, z**d + c, target_error, max_iter, precision_bits)
    with mp.workprec(max(64, precision_bits)):
        return abs(lam_fz.value - d * lam_z.value) + lam_fz.error_bound + d * lam_z.error_bound


# -- non-archimedean places ------------------------------------------------------


def green_nonarch(alpha, prime: int, precision_bits: int = DEFAULT_BITS) -> mp.mpf:
    """Averaged escape rate at a finite place: (log p / deg) times the sum
    over the conjugates alpha_i of max(0, -v_p(alpha_i)). For the primitive
    minimal polynomial A of alpha that sum is v_p(lead A), the rise of A's
    Newton polygon over its roots of negative valuation, so this is
    (log p) v_p(lead A) / deg A."""
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    alpha = as_algebraic(alpha)
    with mp.workprec(max(64, precision_bits)):
        return mp.log(prime) * valuation(alpha.min_poly.lead, prime) / alpha.degree


# -- algebraic numbers -------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """A number given by its primitive minimal-candidate polynomial plus an
    isolating ball selecting one root.

    The polynomial must be squarefree with positive leading coefficient.
    from_min_poly divides out every linear factor over Z and keeps the
    factor the selected root lies on, so input of degree <= 3 is certified
    irreducible. A higher-degree polynomial may still be reducible; heights
    are then computed from its full root multiset, and the finite-place
    escape rates from its leading coefficient.
    A linear input is returned as its rational, at any coefficient width;
    only input of degree >= 2 is isolated, and refused (ValueError) when a
    coefficient is wider than rootfinder.MAX_COEFF_BITS.
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
        if poly.degree < 1:
            raise ValueError("need degree >= 1")
        if not 0 <= root_index < poly.degree:
            raise ValueError(f"root index {root_index} out of range")
        if poly.degree == 1:
            # exact at any coefficient width: a linear input is never isolated
            return cls.from_rational(Fraction(-poly.coeffs[0], poly.coeffs[1]))
        # from 4 * height + 64 bits on, a root disk holds at most one
        # candidate k/lead of _rational_root (|root| <= 1 + height / lead)
        bits = max(precision_bits, 4 * poly.max_abs_coeff().bit_length() + 64)
        try:
            roots = _root_disks(poly, bits)
        except NonSquarefreeInput as exc:
            raise ValueError("minimal polynomial must be squarefree") from exc
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
    its input checked, once per (poly, bits) among the last 64 used, by the
    package's one CoefficientEvaluator."""
    return all_roots(poly, bits, CoefficientEvaluator(poly)).roots


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

    def trace(self) -> int:
        """The sum of poly's values at the roots of modulus."""
        return sum(c * s for c, s in zip(self.poly.coeffs, _power_sums(self.modulus)))


@lru_cache(maxsize=64)
def _power_sums(A: IntPolynomial) -> tuple[int, ...]:
    """Tr(t^j) = sum of r^j over the roots r of monic A, for j < deg A, by
    Newton's identities: p_k = -(k a_(D-k) + sum_(0<i<k) a_(D-i) p_(k-i))."""
    a, D = A.coeffs, A.degree
    p = [D]
    for k in range(1, D):
        p.append(-k * a[D - k] - sum(a[D - i] * p[k - i] for i in range(1, k)))
    return tuple(p)


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


# -- post-critically finite gate ------------------------------------------------------


ORBIT_CAP = 256  # exact orbit steps of the PCF gate: its one budget


def _escape_witness(u: Residue, R: int) -> bool:
    """|Tr(u^k)| > D R^k for some k <= D = deg A: then |u(r)| > R at some root r of A."""
    D = u.modulus.degree
    return any(abs((u**k).trace()) > D * R**k for k in range(1, D + 1))


_EISENSTEIN_PRIME_BOUND = 1 << 14  # primes tried by _eisenstein


def _eisenstein(A: IntPolynomial) -> bool:
    """A is Eisenstein at a prime p: p divides each a_i with i < deg A, and
    p^2 does not divide a_0. Then A is irreducible over Q. The primes tried
    are those below _EISENSTEIN_PRIME_BOUND that divide g = gcd(a_i, i < deg A),
    then what is left of g once they are divided out, when that is a proven
    prime. So the test is cheap on any input, and a miss proves nothing."""
    a0 = A.coeffs[0]
    g = math.gcd(*A.coeffs[:-1])
    p = 2
    while p <= g and p < _EISENSTEIN_PRIME_BOUND:
        if g % p == 0:  # prime: every smaller prime is divided out of g
            if a0 % (p * p):
                return True
            while g % p == 0:
                g //= p
        p += 1
    return 1 < g < _MR_PROVEN_LIMIT and is_prime(g) and a0 % (g * g) != 0


def is_pcf_parameter(d: int, alpha) -> bool:
    """Exact decision whether z^d + alpha is post-critically finite.

    PCF parameters are algebraic integers, so any non-monic minimal
    polynomial A decides immediately. Otherwise the critical orbit u_n is
    iterated exactly in Z[t]/(A), and a repeat proves every root of A PCF.
    R = max(2, 1 + max_(i<D) |a_i|) bounds every root of A (Cauchy), so it is
    an escape radius for each of them, and |Tr(u_n^k)| > D R^k for some
    k <= D = deg A witnesses a root whose orbit leaves the R-disk and
    escapes. When A is irreducible, which from_min_poly certifies up to
    degree 3 and an Eisenstein prime certifies at any degree, that witness
    proves alpha not PCF. By Kronecker's theorem one of the two always
    happens: an orbit bounded at every root runs through finitely many
    algebraic integers, and once a root's orbit exceeds C(D) R, Newton's
    identities and Fujiwara's bound make the witness fire. Otherwise A may
    be reducible and the witness may name a root of another factor, so it
    only ends the iteration, and the selected root's certified escape
    decides. Raises HypothesisUndecided when ORBIT_CAP steps decide nothing,
    or when the selected root of such an alpha does not escape.
    """
    alpha = as_algebraic(alpha)
    A = alpha.min_poly  # primitive, with positive leading coefficient
    if A.lead != 1:
        return False
    D = A.degree
    R = max(2, 1 + max(map(abs, A.coeffs[:-1])))
    irreducible = D <= 3 or _eisenstein(A)
    t = Residue(divmod_exact(X, A)[1], A)  # a constant when deg A = 1
    seen = set()
    for u in islice(orbit(d, t, Residue(ZERO, A)), ORBIT_CAP + 1):
        if u in seen:
            return True
        seen.add(u)
        if _escape_witness(u, R):
            break
    else:
        if irreducible:
            raise HypothesisUndecided(f"no repeat and no escape witness in {ORBIT_CAP} steps")
    if irreducible:
        return False
    # A may be reducible: only the selected root's own escape decides
    sel = alpha.selected_conjugate(DEFAULT_BITS)
    if escape_rate_arch(d, sel, target_error=1e-6, max_iter=4096).escaped:
        return False
    raise HypothesisUndecided("orbit neither repeated nor certifiably escaped")

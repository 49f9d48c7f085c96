"""Critical-orbit polynomials of z^d + c and their period/preperiod factors.

The polynomial g_n(c) = f^n_{d,c}(0) (in the parameter c) is built by the
recurrence g_0 = 0, g_{k+1} = g_k^d + c, which orbit() runs on integer
polynomials; its roots are exactly the parameters where the critical point 0
is periodic of period dividing n, and all simple (Gleason's lemma). The
exact-period factor is extracted by recursive exact division following the
divisor lattice; a division that leaves a remainder aborts loudly instead of
mislabeling orbits.

Preperiodic (Misiurewicz-type) factors come from the algebraic identity

    g_n - g_m  =  (g_{n-1} - g_{m-1}) * sum_{j<d} g_{n-1}^j g_{m-1}^{d-1-j},

With a = g_{n-1}, b = g_{m-1} and q = gcd(n-1, m-1), the cofactor sum
vanishes to order exactly d-1 on the roots of g_q (its only purely periodic
roots) and simply at every strictly preperiodic parameter (Hutz-Towsley,
Misiurewicz points for polynomial maps and transversality, NYJM 2015). So an
exact division by g_q^(d-2) leaves the level-(m, n) factor, and one more by
g_q its strictly preperiodic part. Both are squarefree by these two
theorems, so nothing here re-checks it; the root finder's certificate, deg
pairwise disjoint disks each holding a root, proves it for every factor it
isolates.

The module also provides numerically stable (value, derivative) evaluators for
all of these, driven by the same orbit() on jets (value and derivative in c)
instead of the astronomically large coefficients; the root finder uses them
for everything from float64 sweeps to outward-rounded certification. A
Misiurewicz factor (m >= 2) is evaluated as itself, with no division. As g_q
divides g_{iq}, R_i = g_{iq}/g_q is a polynomial; with k = (n-1)/q, j = (m-1)/q
and sigma_e(x, y) = sum_{i<e} x^i y^(e-1-i), the factor raw / g_q^(d-2) is
g_q sigma_d(R_k, R_j) = a sigma_{d-1}(R_k, R_j) + b R_j^(d-2). On the orbit
u_i = g_i, R_1 = 1 and R_{i+1} = 1 + u_{iq}^(d-1) R_i prod_{0<t<q} sigma_d(u_{iq+t}, u_t):
telescoping x^d - y^d = (x - y) sigma_d(x, y) gives f^q(x) - f^q(0) =
x^d prod_{0<t<q} sigma_d(f^t(x), f^t(0)); put x = u_{iq} = g_q R_i, divide by g_q.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional

from .errors import DegreeCapExceeded, FactorizationStructureViolated, NotDivisible
from .numtheory import divisors, mobius
from .polynomials import ZERO, IntPolynomial, X, divide_exact
from .rootfinder import Evaluator, ScaledArray, write_poly_cache

DEGREE_CAP = 4096  # largest deg g_n = d^(n-1) any command builds

# lazily grown per-degree tables of g_1..g_N; single writer, many readers
_tables: dict[int, list[IntPolynomial]] = {}
_factor_cache: dict[tuple[int, int], "FactorDescriptor"] = {}
_starts: dict[tuple[int, int], np.ndarray] = {}  # lemniscate_starts by (d, degree)
_lock = threading.Lock()


@dataclass(frozen=True)
class FactorDescriptor:
    """One factor of the PCF parameter locus at level n.

    kind "exact-period": roots have critical period exactly n; the degree is
    the Möbius sum over divisors of n.

    kind "misiurewicz": roots are parameters where 0 has preperiod <= m and
    period dividing n - m, with one layer of the (m-1, n-1) locus divided out;
    strict_poly is the sub-factor whose roots are strictly preperiodic.
    """

    kind: str
    d: int
    n: int
    poly: IntPolynomial
    m: Optional[int] = None
    strict_poly: Optional[IntPolynomial] = None

    @property
    def label(self) -> str:
        if self.kind == "exact-period":
            return f"period-{self.n}"
        return f"misiurewicz-{self.m}-{self.n}"


def orbit(d: int, c, start):
    """start, then u <- u**d + c forever, in c's ring: the package's one orbit
    loop, on IntPolynomials (the g_n), _Jets of FixedPoints, FixedBalls and
    ScaledArrays (the evaluators and the external-ray starts), FixedBalls
    (escape rates), heights.Residue (the PCF gate) and Fractions (the Vieta
    average). For c = a/b, u_n (n >= 1) has numerator b^(d^(n-1)) g_n(a/b),
    which is a^(d^(n-1)) mod b, so prime to b."""
    u = start
    while True:
        yield u
        u = u**d + c


def check_degree_cap(d: int, n: int) -> None:
    """Raise DegreeCapExceeded when deg g_n = d^(n-1) exceeds DEGREE_CAP.

    With d >= 2, d^(n-1) >= 2^(n-1) is over the cap once n - 1 reaches the
    cap's bit length, so a huge n is refused before the power is formed.
    """
    if n - 1 >= DEGREE_CAP.bit_length() or d ** (n - 1) > DEGREE_CAP:
        raise DegreeCapExceeded(f"deg g_{n} = {d}^{n - 1} exceeds cap {DEGREE_CAP}")


def gleason(d: int, n: int) -> IntPolynomial:
    """g_n(c) = f^n_{d,c}(0) as an exact integer polynomial in c: g_0 = 0, and
    for n >= 1 monic of degree d^(n-1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    check_degree_cap(d, n)
    with _lock:
        table = _tables.setdefault(d, [ZERO])  # g_0 = 0
        if len(table) <= n:
            table.extend(islice(orbit(d, X, table[-1]), 1, n + 2 - len(table)))
        return table[n]


def exact_period_factor(d: int, n: int) -> FactorDescriptor:
    """Factor of g_n whose roots have critical period exactly n.

    Computed by dividing g_n by the product of all lower exact-period factors
    along divisors of n; each division is exact or raises.
    """
    key = (d, n)
    cached = _factor_cache.get(key)
    if cached is not None:
        return cached
    quot = gleason(d, n)
    for k in divisors(n):
        if k == n:
            continue
        try:
            quot = divide_exact(quot, exact_period_factor(d, k).poly)
        except NotDivisible as exc:
            raise FactorizationStructureViolated(
                f"g_{n} not divisible by the period-{k} factor (d={d})"
            ) from exc
    desc = FactorDescriptor(kind="exact-period", d=d, n=n, poly=quot)
    _factor_cache[key] = desc
    return desc


def _sigma(e: int, x, y):
    """sigma_e(x, y) = sum_{i<e} x^i y^(e-1-i) for e >= 2, on integer
    polynomials or _Jets; y may be the int 1."""
    s, ypow = x + y, y
    for _ in range(e - 2):
        ypow = ypow * y
        s = s * x + ypow
    return s


def misiurewicz_factor(d: int, m: int, n: int) -> FactorDescriptor:
    """Level-(m, n) preperiodic factor, with its strictly-preperiodic part.

    With a = g_{n-1}, b = g_{m-1} (b = 0 for m = 1) and q = gcd(n-1, m-1),
    the cofactor raw = sum_j a^j b^(d-1-j) vanishes to order exactly d-1 on
    the roots of g_q and simply everywhere else, so poly = raw / g_q^(d-2)
    (raw itself for d = 2) and strict = poly / g_q; both are squarefree by
    that theorem. A division that leaves a remainder raises
    FactorizationStructureViolated. For m = 1, raw = g_{n-1}^(d-1), so
    poly = g_{n-1} and strict = 1 (the only preimage of the critical value
    is the critical point).
    """
    if not (n > m >= 1):
        raise ValueError("need n > m >= 1")
    a = gleason(d, n - 1)
    b = gleason(d, m - 1)
    gq = gleason(d, math.gcd(n - 1, m - 1))
    poly = _sigma(d, a, b)
    try:
        if d > 2:
            poly = divide_exact(poly, gq ** (d - 2))
        strict = divide_exact(poly, gq)
    except NotDivisible as exc:
        raise FactorizationStructureViolated(
            f"misiurewicz cofactor (d={d}, m={m}, n={n}) not divisible by g_q^(d-1)"
        ) from exc
    return FactorDescriptor(kind="misiurewicz", d=d, n=n, m=m, poly=poly, strict_poly=strict)


def enumerate_factors(d: int, max_n: int) -> list[FactorDescriptor]:
    """All factors up to level max_n, exact-period first, then (m, n) pairs."""
    out = [exact_period_factor(d, n) for n in range(1, max_n + 1)]
    for n in range(2, max_n + 1):
        for m in range(1, n):
            out.append(misiurewicz_factor(d, m, n))
    return out


# -- cache files --------------------------------------------------------------


def gleason_cache_path(root: Path, d: int, n: int) -> Path:
    return Path(root) / "gleason" / f"d{d}" / f"n{n}.poly"


def write_gleason_cache(root: Path, d: int, n: int) -> Path:
    path = gleason_cache_path(root, d, n)
    write_poly_cache(path, gleason(d, n))
    return path


# -- stable evaluators ---------------------------------------------------------

# Roots of orbit polynomials equidistribute toward the bifurcation measure of
# M_d, which is the harmonic measure, uniform in the external angle (Levin;
# Favre-Rivera-Letelier). So points evenly spaced in external angle on an
# equipotential near M_d start the float64 Aberth stage about one root
# spacing from the roots: for g_11 of d=2 it takes 13 sweeps from them, and
# 530 from one circle around M_d.


def lemniscate_starts(d: int, degree: int) -> np.ndarray:
    """degree points on the lemniscate |g_m| = R of the Multibrot set M_d, at
    the external angles theta_j = (j + t) / degree, j < degree.

    m is the least level with deg g_m = d^(m-1) >= degree. R = 4, or
    2^(512/d) for d > 256, so that R^d stays in float64 range. Each point
    starts at c = R e^(2 pi i theta_j), where the Böttcher coordinate is
    about c, and is traced down its external ray as in Kawahira's algorithm:
    at each level k = 2..m the target g_k(c) = R^(d^(1-i/s)) e^(2 pi i
    theta_j d^(k-1)) falls from |g_k| = R^d, where level k-1 ended, to R in
    s = ceil(2 log2 d) steps i, each with two Newton steps on log g_k, and
    four more at the last target. A step on log g_k, unlike one on g_k - w,
    keeps up with the potential for d >= 16. theta_j d^(k-1) mod 1 is
    formed exactly in integers. A pure function of (d, degree), computed
    with float64 arithmetic alone, once per process (factors of one level
    share degrees); each call returns a fresh copy.

    M_d is symmetric under c -> conj(c) and c -> e^(2 pi i / (d-1)) c. The
    offset t = 1/(4(d-1)) keeps the start set off every reflection axis of
    that group: a start set mirrored in an axis sends mirrored pairs toward
    each root on it, and a pair splits only once rounding breaks the mirror
    (t = 1/2 cost d=2 misiurewicz-2-5 40 sweeps instead of 10).
    """
    import numpy as np

    key = (d, degree)
    if key not in _starts:
        m = 1
        while d ** (m - 1) < degree:
            m += 1
        r = min(2.0, 512 / d)  # log2 R
        s = math.ceil(2 * math.log2(d))
        q = 4 * (d - 1) * degree  # theta_j = num_j / q; q^2 < 2^63 under DEGREE_CAP
        num = 4 * (d - 1) * np.arange(degree, dtype=np.int64) + 1
        c = 2.0**r * np.exp(2j * np.pi * num / q)
        steps = [
            (k, r * d ** (1 - i / s)) for k in range(2, m + 1) for i in range(1, s + 1) for _ in (0, 1)
        ]
        with np.errstate(all="ignore"):
            for k, e in steps + [(m, r)] * 4:  # log2 |g_k| = e at the target
                # only the last jet is kept, so two orbits are never held at once
                u = _jets(d, ScaledArray(c), ScaledArray.lift, k)[k]
                turn = np.exp(-2j * np.pi * (num * pow(d, k - 1, q) % q) / q)
                log_u = np.log(u.v.m * turn) + (u.v.s - e) * math.log(2)
                c = c - log_u * (u.v / u.d).complex128()
        _starts[key] = c
    return _starts[key].copy()


class _Jet:
    """A value and its derivative in c; +, * and ** follow the sum, product
    and power rules. The right operand may be an exact int, which enters as a
    constant."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, o):
        if isinstance(o, int):
            return _Jet(self.v + o, self.d)
        return _Jet(self.v + o.v, self.d + o.d)

    def __mul__(self, o):
        if isinstance(o, int):
            return _Jet(self.v * o, self.d * o)
        return _Jet(self.v * o.v, self.v * o.d + self.d * o.v)

    def __pow__(self, e: int):
        if e == 1:
            return self
        p = self.v ** (e - 1)
        return _Jet(p * self.v, p * self.d * e)


def _jets(d: int, z, num, depth: int) -> list[_Jet]:
    """The jets (u_k, u'_k), k = 0..depth, of the orbit of 0 under u^d + z."""
    return list(islice(orbit(d, _Jet(z, 1), _Jet(num(0), num(0))), depth + 1))


class OrbitEvaluator(Evaluator):
    """Base of the evaluators driven by the orbit recurrence of z^d + c."""

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n

    def starts_f64(self, p: IntPolynomial) -> np.ndarray:
        return lemniscate_starts(self.d, p.degree)


class GleasonEvaluator(OrbitEvaluator):
    """(value, derivative) of g_n via the orbit recurrence."""

    def value_deriv(self, z, num):
        u = _jets(self.d, z, num, self.n)[self.n]
        return u.v, u.d


class ExactPeriodEvaluator(OrbitEvaluator):
    """Evaluates the exact-period factor as the Möbius product of g_k's."""

    def __init__(self, d: int, n: int):
        super().__init__(d, n)
        self.exps = [(k, mobius(n // k)) for k in divisors(n) if mobius(n // k) != 0]

    def value_deriv(self, z, num):
        # the u_n factor vanishes at the roots, so it enters through the
        # product rule rather than a log-derivative
        u = _jets(self.d, z, num, self.n)
        rest = num(1)
        for k, e in self.exps:
            if k == self.n:
                continue
            rest = rest * u[k].v if e > 0 else rest / u[k].v
        val = rest * u[self.n].v
        der = u[self.n].d * rest
        for k, e in self.exps:
            if k != self.n:
                der = der + (u[k].d / u[k].v) * val * e
        return val, der


class MisiurewiczEvaluator(OrbitEvaluator):
    """The level-(m, n) factor (m >= 2) by the division-free formula of the
    module docstring; a + b for d = 2. No step divides, so an exact root
    of g_q, a root of the factor too, gets Newton step 0 like any other.
    """

    def __init__(self, d: int, m: int, n: int):
        if m < 2:
            raise ValueError("use GleasonEvaluator for m = 1 factors")
        self.d, self.m, self.n = d, m, n
        self.q = math.gcd(n - 1, m - 1)

    def value_deriv(self, z, num):
        d, m, n, q = self.d, self.m, self.n, self.q
        u = _jets(d, z, num, n - 1)
        if d == 2:
            f = u[n - 1] + u[m - 1]
            return f.v, f.d
        r = rj = 1  # R_1
        for i in range(1, (n - 1) // q):
            t = u[i * q] ** (d - 1) * r
            for s in range(1, q):
                t = t * _sigma(d, u[i * q + s], u[s])
            r = t + 1
            if i + 1 == (m - 1) // q:
                rj = r
        f = u[n - 1] * _sigma(d - 1, r, rj) + u[m - 1] * rj ** (d - 2)
        return f.v, f.d


def factor_evaluator(desc: FactorDescriptor):
    """Stable evaluator for a factor's poly; ValueError for an unknown kind, so
    no lattice factor falls back to Horner on its coefficients."""
    if desc.kind == "exact-period":
        if desc.n == 1:
            return GleasonEvaluator(desc.d, 1)
        return ExactPeriodEvaluator(desc.d, desc.n)
    if desc.kind == "misiurewicz":
        if desc.m == 1:
            return GleasonEvaluator(desc.d, desc.n - 1)
        return MisiurewiczEvaluator(desc.d, desc.m, desc.n)
    raise ValueError(f"no orbit evaluator for factor kind {desc.kind!r}")


def gleason_evaluator(d: int, n: int) -> GleasonEvaluator:
    return GleasonEvaluator(d, n)

"""Exact univariate polynomial algebra over arbitrary-precision integers.

This is the substrate everything else is built on: critical-orbit polynomials,
resultants for the integrality engine, minimal polynomials of evaluation
points. Coefficients are Python ints (ascending degree order, no trailing
zeros), evaluation points are exact `fractions.Fraction`s, and nothing in this
module ever rounds.

Multiplication routes through Kronecker substitution (pack the coefficients
into one huge integer, multiply once, unpack), which turns polynomial products
into single big-integer products on plain Python ints; a square packs once and
takes CPython's squaring path, and a power never multiplies by 1. Exact
division by a monic divisor (every lattice factor is one) skips the
divisibility test and touches only the divisor's nonzero coefficients.
gcd and resultants use the subresultant pseudo-remainder sequence, which keeps
intermediate coefficient growth polynomial instead of exponential. The F_p
section (gcd degrees mod a prime of any size) runs Euclid on lists of ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import NotDivisible

_SCHOOLBOOK_CUTOFF = 48  # below this many coefficients, packing costs more than it saves


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(map(int, coeffs[:end]))


def _pack(coeffs: Sequence[int], stride_bytes: int) -> int:
    buf = bytearray(stride_bytes * len(coeffs))
    for i, c in enumerate(coeffs):
        if c:
            buf[i * stride_bytes : i * stride_bytes + (c.bit_length() + 7) // 8] = c.to_bytes(
                (c.bit_length() + 7) // 8, "little"
            )
    return int.from_bytes(buf, "little")


def _unpack(value: int, stride_bytes: int, count: int) -> list[int]:
    raw = value.to_bytes(stride_bytes * count + 16, "little")
    return [
        int.from_bytes(raw[i * stride_bytes : (i + 1) * stride_bytes], "little")
        for i in range(count)
    ]


def _pack_signed(coeffs: Sequence[int], stride_bytes: int) -> tuple[int, int]:
    """(P, N) with P - N the packed coefficients: P packs the positive ones and
    N the negated negative ones; a part with no coefficient is 0, unpacked."""
    pos = [c if c > 0 else 0 for c in coeffs]
    neg = [-c if c < 0 else 0 for c in coeffs]
    return (
        _pack(pos, stride_bytes) if any(pos) else 0,
        _pack(neg, stride_bytes) if any(neg) else 0,
    )


def _mul_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficient convolution, untrimmed; Kronecker substitution above the cutoff.

    The same tuple twice is a square: packed once, and CPython's squaring
    path multiplies the pack by itself.
    """
    if not a or not b:
        return []
    if len(a) * len(b) <= _SCHOOLBOOK_CUTOFF * _SCHOOLBOOK_CUTOFF // 16:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return out

    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    stride = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 2
    stride_bytes = (stride + 7) // 8
    ap, an = _pack_signed(a, stride_bytes)
    if a is b:
        plus = ap * ap + an * an
        minus = 2 * ap * an
    else:
        bp, bn = _pack_signed(b, stride_bytes)
        plus = ap * bp + an * bn
        minus = ap * bn + an * bp
    count = len(a) + len(b) - 1
    up = _unpack(plus, stride_bytes, count)
    if not minus:
        return up
    return [x - y for x, y in zip(up, _unpack(minus, stride_bytes, count))]


class IntPolynomial:
    """Dense integer polynomial, coefficients in ascending degree order.

    Canonical form: no trailing zeros; the zero polynomial has an empty
    coefficient tuple and degree -1 by convention.

    >>> p = IntPolynomial([0, 1, 1])   # x + x^2
    >>> p.degree, p.lead
    (2, 1)
    >>> (p * p).coeffs
    (0, 0, 1, 2, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial('0')"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else (" - " if parts else ("-" if c < 0 else ""))
            mag = abs(c)
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            num = str(mag) if (mag != 1 or i == 0) else ""
            parts.append(f"{sign}{num}{term}")
        return f"IntPolynomial('{''.join(parts)}')"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: Union[IntPolynomial, int]) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        return IntPolynomial(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("negative polynomial powers are not defined here")
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return ONE if result is None else result
            base = base * base

    def derivative(self) -> IntPolynomial:
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> IntPolynomial:
        """self / content, sign-normalized to positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    def max_abs_coeff(self) -> int:
        """Height of the polynomial: max |coefficient|."""
        return max((abs(c) for c in self.coeffs), default=0)

    def __call__(self, a):
        return evaluate_exact(self, a)


X = IntPolynomial([0, 1])
ONE = IntPolynomial([1])
ZERO = IntPolynomial([])


# -- spec operations --------------------------------------------------------


def horner(coeffs: Sequence, z, acc):
    """sum_i coeffs[i] z^i by Horner's rule, accumulated onto acc (a zero of z's type).

    The one Horner loop of the package: exact here, and in the root finder
    on CoefficientEvaluator's ScaledArrays, FixedPoints and FixedBalls.
    """
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def lower_hull(points: Sequence[tuple]) -> list[tuple]:
    """Lower convex hull of points sorted by x (monotone chain).

    A middle point stays only when it lies strictly below the chord, so
    collinear points never do.
    """
    hull: list[tuple] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def evaluate_exact(p: IntPolynomial, a: Union[int, Fraction]):
    """Exact Horner evaluation at an integer or rational point."""
    return horner(p.coeffs, a, 0)


def divmod_exact(p: IntPolynomial, q: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Quotient and remainder of p by q when the quotient is integral.

    Works top-down; each quotient coefficient must divide exactly, otherwise
    the quotient is not an integer polynomial and NotDivisible is raised.
    (Over Q the quotient coefficients are unique, so a stepwise integrality
    failure already certifies non-divisibility over Z.) A monic q needs no
    such test, and each step touches only q's nonzero lower coefficients:
    the step's own top coefficient becomes 0 by construction.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p.coeffs)
    dq = q.degree
    lq = q.lead
    if p.degree < dq:
        return ZERO, p
    lower = [(i, c) for i, c in enumerate(q.coeffs[:dq]) if c]
    quot = [0] * (p.degree - dq + 1)
    for k in range(p.degree - dq, -1, -1):
        f = rem[k + dq]
        if f == 0:
            continue
        if lq != 1:
            if f % lq != 0:
                raise NotDivisible(f"leading step {f} not divisible by {lq}")
            f //= lq
        quot[k] = f
        for i, c in lower:
            rem[k + i] -= f * c
    return IntPolynomial(quot), IntPolynomial(rem[:dq])


def divide_exact(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p / q when q divides p exactly over the integers, else NotDivisible."""
    quot, rem = divmod_exact(p, q)
    if not rem.is_zero:
        raise NotDivisible("nonzero remainder")
    return quot


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lead(b)^(deg a - deg b + 1) * a  mod  b (the quotient is integral)."""
    return divmod_exact(a * b.lead ** (a.degree - b.degree + 1), b)[1]


def _subresultants(a: IntPolynomial, b: IntPolynomial):
    """Collins' subresultant pseudo-remainder sequence of a, b (deg a >= deg b),
    with the g/h scaling of Brown & Traub (JACM 1971).

    Yields (a_i, b_i, h_i), starting from (a, b, 1). The divisions by g*h^delta
    are exact and keep coefficient growth polynomial. Ends at the first b_i that
    is constant or divides a_i: b_i is then a gcd of a and b over Q.
    """
    g = h = 1
    yield a, b, h
    while b.degree > 0:
        r = _pseudo_rem(a, b)
        if r.is_zero:
            return
        delta = a.degree - b.degree
        a, b = b, IntPolynomial([c // (g * h**delta) for c in r.coeffs])
        g = a.lead
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        yield a, b, h


def gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Integer polynomial gcd via the subresultant pseudo-remainder sequence.

    Returns the primitive gcd with positive leading coefficient, scaled by the
    gcd of the two contents (so gcd(2p, 2p) == 2p up to sign normalization).
    """
    if p.is_zero or q.is_zero:
        f = p + q
        return f.primitive_part() * f.content()
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    *_, (_, last, _) = _subresultants(a, b)
    return last.primitive_part() * math.gcd(p.content(), q.content())


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Sylvester resultant, p-rows-first sign convention.

    Equals lead(p)^deg(q) * prod q(alpha) over the roots alpha of p, i.e. the
    determinant of the Sylvester matrix whose first deg(q) rows carry p's
    coefficients. Computed by the subresultant pseudo-remainder sequence; no
    floating intermediates.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant requires nonzero polynomials")
    a, b, s = p, q, 1
    if a.degree < b.degree:
        a, b, s = b, a, (-1) ** (a.degree * b.degree)
    # contents scale whole Sylvester rows: deg(b) rows of a, deg(a) rows of b
    ca, cb = a.content(), b.content()
    t = ca**b.degree * cb**a.degree
    a = IntPolynomial([c // ca for c in a.coeffs])
    b = IntPolynomial([c // cb for c in b.coeffs])
    for a, b, h in _subresultants(a, b):
        if a.degree % 2 and b.degree % 2:
            s = -s
    if b.degree > 0:
        return 0  # a common factor
    return s * t * (b.coeffs[0] ** a.degree // h ** max(a.degree - 1, 0))


_SQFREE_WITNESS_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)


# -- F_p: polynomials as lists of residues, ascending, no trailing zeros ------


def _rem_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    """a mod b over F_prime, in place on a; b nonzero."""
    inv = pow(b[-1], -1, prime)
    db = len(b) - 1
    while len(a) > db:
        f = a.pop() * inv % prime
        if f:
            shift = len(a) - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - f * b[i]) % prime
        while a and not a[-1]:
            a.pop()
    return a


def gcd_degree_mod(p: IntPolynomial, q: IntPolynomial, prime: int) -> int:
    """deg gcd(p mod prime, q mod prime); -1 when either reduces to zero.

    Euclid on lists of Python ints, for a prime of any size. For a prime
    dividing neither leading coefficient, deg gcd mod prime >= deg gcd over
    Q, so a *trivial* modular gcd proves the rational gcd trivial.
    """
    a = list(_trim([c % prime for c in p.coeffs]))
    b = list(_trim([c % prime for c in q.coeffs]))
    if not a or not b:
        return -1
    while b:
        a, b = b, _rem_mod(a, b, prime)
    return len(a) - 1


def _witnessed_squarefree(p: IntPolynomial, dp: IntPolynomial) -> bool:
    """Whether some witness prime, dividing neither lead, has trivial gcd(p, dp) mod prime."""
    return any(
        gcd_degree_mod(p, dp, prime) == 0
        for prime in _SQFREE_WITNESS_PRIMES
        if p.lead % prime and dp.lead % prime
    )


def is_squarefree(p: IntPolynomial) -> bool:
    """Whether p has no repeated roots.

    Fast path: a prime witness with trivial modular gcd(p, p') certifies
    squarefreeness outright. Only when every witness shows a nontrivial
    modular gcd (which for an actually squarefree p has vanishing
    probability) does this fall back to the exact subresultant gcd.
    """
    if p.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if p.degree <= 0:
        return True
    dp = p.derivative()
    return _witnessed_squarefree(p, dp) or gcd(p, dp).degree == 0


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive, positive leading coefficient."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if p.degree == 0:
        return ONE
    dp = p.derivative()
    if _witnessed_squarefree(p, dp):
        return p.primitive_part()
    # over Q the quotient is exact; contents may not divide, so clear them first
    return divide_exact(p.primitive_part(), gcd(p, dp).primitive_part()).primitive_part()


# -- canonical serialization -------------------------------------------------


def serialize(p: IntPolynomial) -> str:
    """Canonical text form: 'deg=<n>' header, then ascending decimal coefficients."""
    lines = [f"deg={p.degree}"]
    lines.extend(str(c) for c in p.coeffs)
    return "\n".join(lines) + "\n"


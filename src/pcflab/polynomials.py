"""Exact univariate polynomial algebra over arbitrary-precision integers.

This is the substrate everything else is built on: critical-orbit polynomials,
resultants for the integrality engine, minimal polynomials of evaluation
points. Coefficients are Python ints (ascending degree order, no trailing
zeros), evaluation points are exact `fractions.Fraction`s, and nothing in this
module ever rounds.

Multiplication routes through Kronecker substitution (pack the coefficients
into one huge integer, multiply once, unpack), which turns polynomial products
into single big-integer products on plain Python ints.
gcd and resultants use the subresultant pseudo-remainder sequence, which keeps
intermediate coefficient growth polynomial instead of exponential.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import NotDivisible

# Exact scalar type accepted by evaluation helpers.
Rational = Fraction

_SCHOOLBOOK_CUTOFF = 48  # below this many coefficients, packing costs more than it saves


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(int(c) for c in coeffs[:end])


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


def _mul_coeffs(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Coefficient convolution; Kronecker substitution above the cutoff."""
    if not a or not b:
        return ()
    if len(a) * len(b) <= _SCHOOLBOOK_CUTOFF * _SCHOOLBOOK_CUTOFF // 16:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _trim(out)

    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    stride = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 2
    stride_bytes = (stride + 7) // 8
    apos = [c if c > 0 else 0 for c in a]
    aneg = [-c if c < 0 else 0 for c in a]
    bpos = [c if c > 0 else 0 for c in b]
    bneg = [-c if c < 0 else 0 for c in b]
    ap, an = _pack(apos, stride_bytes), _pack(aneg, stride_bytes)
    bp, bn = _pack(bpos, stride_bytes), _pack(bneg, stride_bytes)
    plus = ap * bp + an * bn
    minus = ap * bn + an * bp
    count = len(a) + len(b) - 1
    up = _unpack(plus, stride_bytes, count)
    um = _unpack(minus, stride_bytes, count)
    return _trim([x - y for x, y in zip(up, um)])


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
        result = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

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


def compose(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p(q(x)) by Horner over polynomials."""
    if p.is_zero:
        return ZERO
    result = IntPolynomial([p.coeffs[-1]])
    for c in reversed(p.coeffs[:-1]):
        result = result * q
        if c:
            result = result + IntPolynomial([c])
    return result


def horner(coeffs: Sequence, z, acc):
    """sum_i coeffs[i] z^i by Horner's rule, accumulated onto acc (a zero of z's type).

    The one Horner loop of the package: exact here, float64 arrays, mpc
    numbers and balls in the root finder.
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
    failure already certifies non-divisibility over Z.)
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p.coeffs)
    dq = q.degree
    lq = q.lead
    if p.degree < dq:
        return ZERO, p
    quot = [0] * (p.degree - dq + 1)
    for k in range(p.degree - dq, -1, -1):
        top = rem[k + dq]
        if top == 0:
            continue
        if top % lq != 0:
            raise NotDivisible(f"leading step {top} not divisible by {lq}")
        f = top // lq
        quot[k] = f
        for i, c in enumerate(q.coeffs):
            rem[k + i] -= f * c
    return IntPolynomial(quot), IntPolynomial(rem)


def divide_exact(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p / q when q divides p exactly over the integers, else NotDivisible."""
    quot, rem = divmod_exact(p, q)
    if not rem.is_zero:
        raise NotDivisible("nonzero remainder")
    return quot


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lead(b)^(deg a - deg b + 1) * a  mod  b."""
    da, db = a.degree, b.degree
    lb = b.lead
    rem = list(a.coeffs)
    for k in range(da - db, -1, -1):
        top = rem[k + db]
        # multiply the tail by lb, then eliminate the top term with b shifted by k
        for i in range(k + db):
            rem[i] *= lb
        if top:
            for i, c in enumerate(b.coeffs[:-1]):
                rem[k + i] -= top * c
        rem[k + db] = 0
    return IntPolynomial(rem[:db])


def gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Integer polynomial gcd via the subresultant pseudo-remainder sequence.

    Returns the primitive gcd with positive leading coefficient, scaled by the
    gcd of the two contents (so gcd(2p, 2p) == 2p up to sign normalization).
    The g/h coefficient control keeps intermediate growth tame at the degrees
    this package reaches.
    """
    if p.is_zero:
        return q.primitive_part() * (q.content() if not q.is_zero else 0)
    if q.is_zero:
        return p.primitive_part() * p.content()
    cont = math.gcd(p.content(), q.content())
    a = p.primitive_part()
    b = q.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    g = h = 1
    while True:
        delta = a.degree - b.degree
        r = _pseudo_rem(a, b)
        if r.is_zero:
            return b.primitive_part() * cont
        if b.degree == 0:
            return IntPolynomial([cont])
        a, b = b, IntPolynomial([c // (g * h**delta) for c in r.coeffs])
        g = abs(a.lead)
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        if b.degree == 0:
            # constant nonzero remainder: the polynomials are coprime
            return IntPolynomial([cont])


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Sylvester resultant, p-rows-first sign convention.

    Equals lead(p)^deg(q) * prod q(alpha) over the roots alpha of p, i.e. the
    determinant of the Sylvester matrix whose first deg(q) rows carry p's
    coefficients. Computed by the subresultant pseudo-remainder sequence; no
    floating intermediates.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant requires nonzero polynomials")
    a, b = p, q
    s = 1
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.coeffs[0] ** a.degree
    # contents scale whole Sylvester rows: deg(b) rows of a, deg(a) rows of b
    ca, cb = a.content(), b.content()
    t = ca**b.degree * cb**a.degree
    a = IntPolynomial([c // ca for c in a.coeffs])
    b = IntPolynomial([c // cb for c in b.coeffs])
    g = h = 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = _pseudo_rem(a, b)
        if r.is_zero:
            return 0
        a = b
        denom = g * h**delta
        b = IntPolynomial([c // denom for c in r.coeffs])
        g = a.lead
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        if b.degree == 0:
            dfin = a.degree
            core = b.coeffs[0] ** dfin // (h ** (dfin - 1) if dfin > 0 else 1)
            return s * t * core


_SQFREE_WITNESS_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)


def gcd_degree_mod(p: IntPolynomial, q: IntPolynomial, prime: int) -> int:
    """deg gcd(p mod prime, q mod prime); -1 when either reduces to zero.

    Vectorized Euclid over F_prime: int64 arithmetic for prime < 2^31, whose
    products fit, and Python integers (object arrays) for any larger prime.
    Used as a one-sided certificate: the modular gcd degree upper-bounds
    nothing, but a *trivial* modular gcd proves the rational gcd is trivial
    whenever prime divides neither leading coefficient.
    """
    import numpy as np

    dtype = np.int64 if prime < 2**31 else object
    a = np.array([c % prime for c in p.coeffs], dtype=dtype)
    b = np.array([c % prime for c in q.coeffs], dtype=dtype)

    def trim(v):
        nz = np.nonzero(v)[0]
        return v[: nz[-1] + 1] if nz.size else v[:0]

    a, b = trim(a), trim(b)
    if a.size == 0 or b.size == 0:
        return -1
    if a.size < b.size:
        a, b = b, a
    while b.size > 1:
        inv = pow(int(b[-1]), prime - 2, prime)
        while a.size >= b.size:
            f = (int(a[-1]) * inv) % prime
            if f:
                a[a.size - b.size :] = (a[a.size - b.size :] - f * b) % prime
            a = trim(a[:-1]) if a[-1] == 0 else trim(a)
        if a.size == 0:
            return b.size - 1
        a, b = b, a
    return 0 if b.size else a.size - 1


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
    for prime in _SQFREE_WITNESS_PRIMES:
        if p.lead % prime == 0 or (not dp.is_zero and dp.lead % prime == 0):
            continue
        if gcd_degree_mod(p, dp, prime) == 0:
            return True
    return gcd(p, dp).degree == 0


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive, positive leading coefficient."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if p.degree == 0:
        return ONE
    if is_squarefree(p):
        return p.primitive_part()
    g = gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive_part()
    # over Q the quotient is exact; contents may not divide, so clear them first
    return divide_exact(p.primitive_part(), g.primitive_part()).primitive_part()


# -- canonical serialization -------------------------------------------------


def serialize(p: IntPolynomial) -> str:
    """Canonical text form: 'deg=<n>' header, then ascending decimal coefficients."""
    lines = [f"deg={p.degree}"]
    lines.extend(str(c) for c in p.coeffs)
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> IntPolynomial:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("deg="):
        raise ValueError("missing deg= header")
    deg = int(lines[0][4:])
    coeffs = [int(ln) for ln in lines[1:]]
    if deg != len(coeffs) - 1:
        raise ValueError(f"header says deg={deg} but {len(coeffs)} coefficients follow")
    p = IntPolynomial(coeffs)
    if p.degree != deg:
        raise ValueError("non-canonical serialization (trailing zero coefficients)")
    return p

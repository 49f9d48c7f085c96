"""Outward-rounded complex ball arithmetic on top of mpmath.

A ball is a center (mpc) plus a radius (mpf) guaranteed to contain the true
value. mpmath rounds centers to nearest at the active working precision, so
every operation adds a few-ulp slack term to the radius; radius arithmetic
itself is padded by a fixed upward factor. This is deliberately simple rather
than general: it holds only the functions the escape-rate iteration
(pcflab.heights) and the kernel sums (pcflab.equidist) need, and the tests
use them as the reference for the fixed-point kernel. ComplexBall is also the
type of certified root disks; the root finder evaluates polynomials on its
own kernel (pcflab.fixedball) and converts to ComplexBall at the end.

All operations honor the *current* mpmath precision (use mp.workprec around
call sites); the slack scales with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp

# multiplicative pad applied to every radius computation (covers the
# round-to-nearest error of the radius arithmetic itself)
_UP = None
_UP_PREC = -1


def _up():
    # covers a few hundred ulps of radius-arithmetic rounding at the current precision
    global _UP, _UP_PREC
    if _UP_PREC != mp.mp.prec:
        _UP = mp.mpf(1) + mp.mpf(2) ** (10 - mp.mp.prec)
        _UP_PREC = mp.mp.prec
    return _UP


def _eps() -> mp.mpf:
    # ulp-scale bound for center rounding at the current precision, with margin
    return mp.mpf(2) ** (3 - mp.mp.prec)


@dataclass(frozen=True)
class ComplexBall:
    """Closed disk {z : |z - center| <= radius}."""

    center: mp.mpc
    radius: mp.mpf

    def __post_init__(self):
        if self.radius < 0 or not mp.isfinite(self.radius):
            raise ValueError("ball radius must be finite and nonnegative")

    @property
    def real(self) -> mp.mpf:
        return self.center.real

    @property
    def imag(self) -> mp.mpf:
        return self.center.imag

    def abs_bounds(self) -> tuple[mp.mpf, mp.mpf]:
        """Rigorous lower/upper bounds for |z| over the ball."""
        m = abs(self.center)
        lo = (m - self.radius * _up()) / _up()
        hi = (m + self.radius) * _up()
        return (lo if lo > 0 else mp.mpf(0)), hi

    def contains_zero(self) -> bool:
        return self.abs_bounds()[0] == 0

    def __repr__(self) -> str:
        return f"ComplexBall({mp.nstr(self.center, 12)}, r={mp.nstr(self.radius, 3)})"


Number = Union[int, Fraction, float, complex, mp.mpf, mp.mpc]


def exact_ball(x: Number) -> ComplexBall:
    """Ball for a scalar, radius 0 when representable, ulp-sized otherwise."""
    if isinstance(x, int):
        c = mp.mpc(x)
        r = mp.mpf(0) if abs(x).bit_length() <= mp.mp.prec else abs(c) * _eps()
        return ComplexBall(c, r)
    if isinstance(x, Fraction):
        c = mp.mpc(mp.mpf(x.numerator) / x.denominator)
        exactish = (
            abs(x.numerator).bit_length() <= mp.mp.prec
            and x.denominator.bit_length() <= mp.mp.prec
            and (x.denominator & (x.denominator - 1)) == 0
        )
        r = mp.mpf(0) if exactish else abs(c) * _eps()
        return ComplexBall(c, r)
    c = mp.mpc(x)
    return ComplexBall(c, mp.mpf(0))


def ball(center: Number, radius: Number = 0) -> ComplexBall:
    return ComplexBall(mp.mpc(center), mp.mpf(radius))


def badd(a: ComplexBall, b: ComplexBall) -> ComplexBall:
    c = a.center + b.center
    r = ((a.radius + b.radius) + abs(c) * _eps()) * _up()
    return ComplexBall(c, r)


def bmul(a: ComplexBall, b: ComplexBall) -> ComplexBall:
    c = a.center * b.center
    ma, mb = abs(a.center), abs(b.center)
    r = ((ma * b.radius + mb * a.radius + a.radius * b.radius) + abs(c) * _eps()) * _up()
    return ComplexBall(c, r)


def bsqr(a: ComplexBall) -> ComplexBall:
    c = a.center * a.center
    ma = abs(a.center)
    r = ((2 * ma * a.radius + a.radius * a.radius) + abs(c) * _eps()) * _up()
    return ComplexBall(c, r)


def bdiv(a: ComplexBall, b: ComplexBall) -> ComplexBall:
    lo_b, _ = b.abs_bounds()
    if lo_b <= 0:
        raise ZeroDivisionError("divisor ball contains zero")
    c = a.center / b.center
    ma, mb = abs(a.center), abs(b.center)
    r = (((a.radius * mb + ma * b.radius) / (lo_b * mb)) + abs(c) * _eps()) * _up()
    return ComplexBall(c, r)


def bpow_int(a: ComplexBall, n: int) -> ComplexBall:
    if n < 0:
        raise ValueError("negative powers not supported; use bdiv")
    if n == 0:
        return exact_ball(1)
    if n == 1:
        return a
    if n == 2:
        return bsqr(a)
    if n == 3:
        return bmul(bsqr(a), a)
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else bmul(result, base)
        if n > 1:
            base = bsqr(base)
        n >>= 1
    return result


def dist_bounds(a: ComplexBall, b: ComplexBall) -> tuple[mp.mpf, mp.mpf]:
    """Rigorous lower/upper bounds for |x - y|, x in a, y in b."""
    d = abs(a.center - b.center)
    pad = (a.radius + b.radius + d * _eps()) * _up()
    lo = (d / _up()) - pad
    hi = (d + pad) * _up()
    return (lo if lo > 0 else mp.mpf(0)), hi


def disjoint(a: ComplexBall, b: ComplexBall) -> bool:
    return dist_bounds(a, b)[0] > 0


def log_abs_interval(a: ComplexBall) -> tuple[mp.mpf, mp.mpf]:
    """Enclosure of log|z| over the ball; requires 0 outside the ball."""
    lo, hi = a.abs_bounds()
    if lo <= 0:
        raise ZeroDivisionError("log|z| unbounded: ball touches zero")
    pad = _eps() * 4
    llo = mp.log(lo)
    lhi = mp.log(hi)
    return llo - abs(llo) * pad - pad, lhi + abs(lhi) * pad + pad


def log_plus_interval(a: ComplexBall) -> tuple[mp.mpf, mp.mpf]:
    """Enclosure of log^+ |z| = log max(|z|, 1) over the ball."""
    lo, hi = a.abs_bounds()
    pad = _eps() * 4
    if hi <= 1:
        return mp.mpf(0), mp.mpf(0)
    lhi = mp.log(hi)
    lhi += abs(lhi) * pad + pad
    if lo <= 1:
        return mp.mpf(0), lhi
    llo = mp.log(lo)
    return llo - abs(llo) * pad - pad, lhi


"""Outward-rounded complex disks on top of mpmath, without arithmetic.

A ball is a center (mpc) plus a radius (mpf) guaranteed to contain the true
value. ComplexBall is the type of certified root disks, algebraic-number
selectors and conjugates. Ball arithmetic runs only on the fixed-point
kernel (pcflab.fixedball), which converts to and from this type; its tests
check it against exact Fraction arithmetic, not against this module. What
is left here reads disks: exact_ball/ball make one, and the rest bound |z|,
the distance between two disks (hence disjointness), log|z| and log^+|z|.
mpmath rounds to nearest at the active working precision, so each bound is
padded by a few-ulp slack term and a fixed upward factor.

All functions honor the *current* mpmath precision (use mp.workprec around
call sites); the slack scales with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath as mp
from mpmath.libmp import fone, fzero, mpf_add, mpf_div, mpf_gt, mpf_hypot, mpf_mul, mpf_shift
from mpmath.libmp import mpf_sub, round_nearest as RND  # mpmath's default rounding


@lru_cache(maxsize=None)
def _up(prec: int) -> tuple:
    """1 + 2^(10-prec), the multiplicative pad applied to every radius
    computation: covers a few hundred ulps of radius-arithmetic rounding."""
    return mpf_add(fone, mpf_shift(fone, 10 - prec), prec, RND)


def _eps(prec: int) -> tuple:
    """2^(3-prec): ulp-scale bound for center rounding at prec, with margin."""
    return mpf_shift(fone, 3 - prec)


@dataclass(frozen=True)
class ComplexBall:
    """Closed disk {z : |z - center| <= radius}."""

    center: mp.mpc
    radius: mp.mpf

    def __post_init__(self):
        # on the raw tuple: a sign bit, or a zero mantissa with a nonzero
        # exponent (mpmath's inf, -inf and nan)
        sign, man, exp, _ = self.radius._mpf_
        if sign or (not man and exp):
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
        up = mp.mpf(_up(mp.mp.prec))
        lo = (m - self.radius * up) / up
        hi = (m + self.radius) * up
        return (lo if lo > 0 else mp.mpf(0)), hi

    def __repr__(self) -> str:
        return f"ComplexBall({mp.nstr(self.center, 12)}, r={mp.nstr(self.radius, 3)})"


Number = Union[int, Fraction, float, complex, mp.mpf, mp.mpc]


def exact_ball(x: Number) -> ComplexBall:
    """Ball for a scalar, radius 0 when representable, ulp-sized otherwise."""
    if isinstance(x, int):
        c = mp.mpc(x)
        exact = abs(x).bit_length() <= mp.mp.prec
        r = mp.mpf(0) if exact else abs(c) * mp.mpf(_eps(mp.mp.prec))
        return ComplexBall(c, r)
    if isinstance(x, Fraction):
        c = mp.mpc(mp.mpf(x.numerator) / x.denominator)
        exactish = (
            abs(x.numerator).bit_length() <= mp.mp.prec
            and x.denominator.bit_length() <= mp.mp.prec
            and (x.denominator & (x.denominator - 1)) == 0
        )
        r = mp.mpf(0) if exactish else abs(c) * mp.mpf(_eps(mp.mp.prec))
        return ComplexBall(c, r)
    c = mp.mpc(x)
    return ComplexBall(c, mp.mpf(0))


def ball(center: Number, radius: Number = 0) -> ComplexBall:
    return ComplexBall(mp.mpc(center), mp.mpf(radius))


def dist_bounds_raw(z: tuple, w: tuple, rz: tuple, rw: tuple, prec: int) -> tuple:
    """dist_bounds on _mpf_ tuples: centers z, w as (re, im) pairs, radii rz,
    rw. Each step is the libmp call the mpf/mpc operators make, rounded to
    nearest at prec, so the bounds are bit for bit those of the operators."""
    up = _up(prec)
    d = mpf_hypot(mpf_sub(z[0], w[0], prec, RND), mpf_sub(z[1], w[1], prec, RND), prec, RND)
    pad = mpf_add(mpf_add(rz, rw, prec, RND), mpf_mul(d, _eps(prec), prec, RND), prec, RND)
    pad = mpf_mul(pad, up, prec, RND)
    lo = mpf_sub(mpf_div(d, up, prec, RND), pad, prec, RND)
    hi = mpf_mul(mpf_add(d, pad, prec, RND), up, prec, RND)
    return (lo if mpf_gt(lo, fzero) else fzero), hi


def dist_bounds(a: ComplexBall, b: ComplexBall) -> tuple[mp.mpf, mp.mpf]:
    """Rigorous lower/upper bounds for |x - y|, x in a, y in b."""
    lo, hi = dist_bounds_raw(
        a.center._mpc_, b.center._mpc_, a.radius._mpf_, b.radius._mpf_, mp.mp.prec
    )
    return mp.mp.make_mpf(lo), mp.mp.make_mpf(hi)


def disjoint(a: ComplexBall, b: ComplexBall) -> bool:
    return dist_bounds(a, b)[0] > 0


def log_abs_interval(a: ComplexBall) -> tuple[mp.mpf, mp.mpf]:
    """Enclosure of log|z| over the ball; requires 0 outside the ball."""
    lo, hi = a.abs_bounds()
    if lo <= 0:
        raise ZeroDivisionError("log|z| unbounded: ball touches zero")
    pad = mp.mpf(_eps(mp.mp.prec)) * 4
    llo = mp.log(lo)
    lhi = mp.log(hi)
    return llo - abs(llo) * pad - pad, lhi + abs(lhi) * pad + pad


def log_plus_interval(a: ComplexBall) -> tuple[mp.mpf, mp.mpf]:
    """Enclosure of log^+ |z| = log max(|z|, 1) over the ball."""
    lo, hi = a.abs_bounds()
    pad = mp.mpf(_eps(mp.mp.prec)) * 4
    if hi <= 1:
        return mp.mpf(0), mp.mpf(0)
    lhi = mp.log(hi)
    lhi += abs(lhi) * pad + pad
    if lo <= 1:
        return mp.mpf(0), lhi
    llo = mp.log(lo)
    return llo - abs(llo) * pad - pad, lhi


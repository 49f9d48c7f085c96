"""Fixed-point complex arithmetic on Python integers: balls and points.

A ball is the closed disk with center (re + i*im) * 2^-prec and radius
rad * 2^-prec, where re, im and rad are Python ints and rad is an upper
bound (Rump, *Verification methods*, Acta Numerica 2010; van der Hoeven,
*Ball arithmetic*, 2010). Every ball of one computation shares prec.

+ and - are exact and add the radii. * floors the product's center to the
grid and takes the radius |a| r_b + |b| r_a + r_a r_b rounded up, plus 2 ulps
for the center rounding; / does the same with the disk quotient bound and
raises ZeroDivisionError when the divisor may contain 0. An int operand, of
any width, enters exactly. A center off the grid is rounded to nearest on
the way in and that rounding goes into the radius; the way back to a
ComplexBall rounds outward. This is the package's one ball arithmetic: the
root finder certifies on it, and the escape-rate iteration of pcflab.heights
runs on it too, with abs_bounds for its bail and tail tests.

A point is a ball without its radius: the same Gaussian integers on the
same grid, the same exact + and - and int lifts, the same floored * and /.
The same operations on points and on balls give bit-for-bit the same
centers. In the root finder, points carry the polish and the repair
sweeps: a root enters the grid once, every Newton and Aberth step is
floored point arithmetic, and the stop rules are tested on the integers.
Balls carry the last step and the disk: the point, floored, is a ball of
radius 0; the quotient of the value and derivative centers is the point
step there, and once that step is small enough the inclusion radius comes
from abs_bounds of the same two balls, in whole grid units rounded up, and
the disk leaves as one ComplexBall. A point encloses nothing, so it has no
conversion to or from mpmath and no modulus bounds.

Both have an array form, FixedBallArray and FixedPointArray, whose re, im
and rad are 1-D numpy object arrays of Python ints, one lane per ball or
point (an int field is shared by every lane). It runs the scalar classes'
method code itself, with numpy applying each + - * >> // elementwise; only
the value-branching primitives have array forms: _mul_err (the modulus
bounds of * and /, with the radius-0 shortcuts), isqrt, max, and the zero
tests of /, where a lane that may divide by 0 raises for the whole array.
Each formula is written once, lane i of a result is the scalar result on
lane i bit for bit, and the scalar code pays nothing for the array form.
The array primitives are made on the first call of one, so importing this
module does not import numpy. The root finder polishes and certifies its
roots in batches this way, and sums each repair step's pairwise terms; the
escape iteration of pcflab.heights stays scalar.
"""

from __future__ import annotations

from math import isqrt
from types import FunctionType

import mpmath as mp
from mpmath.libmp import from_man_exp

from .balls import ComplexBall


def _mul_err(ar: int, ai: int, ra: int, br: int, bi: int, rb: int) -> int:
    """|a| r_b + (|b| + r_b) r_a for the disks a = ar + i*ai of radius ra and
    b = br + i*bi of radius rb: with |a| and |b| rounded up to integers at
    most 6 % above them, an integer bound on how far a product of points of
    the disks lies from ab. A modulus whose radius factor is 0 is skipped.

    For x >= y >= 0, sqrt(x^2 + y^2) <= x + y^2/(2x) <= x + y/2.
    """
    err = 0
    if rb:
        x, y = abs(ar), abs(ai)
        if x < y:
            x, y = y, x
        err = (x + ((y + 1) >> 1)) * rb
    if ra:
        x, y = abs(br), abs(bi)
        if x < y:
            x, y = y, x
        err += (x + ((y + 1) >> 1) + rb) * ra
    return err


# the zero tests of /; the array form is numpy.any
_any = bool


def _ceil_shift(x: int, s: int) -> int:
    """ceil(x / 2^s) for s >= 0."""
    return -((-x) >> s)


def _to_grid(x: mp.mpf, prec: int) -> tuple[int, int]:
    """(x * 2^prec rounded to nearest, 1 if that was inexact else 0)."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError("cannot enclose a non-finite value")
    if sign:
        man = -man
    s = exp + prec
    if s >= 0:
        return man << s, 0
    v = (man + (1 << (-s - 1))) >> -s
    return v, int((v << -s) != man)


def grid_from_float(x: float, prec: int) -> int:
    """x * 2^prec rounded to nearest, as _to_grid rounds mp.mpf(x): a
    float64 goes onto the grid without passing through mpmath."""
    man, den = x.as_integer_ratio()
    s = den.bit_length() - 1 - prec  # den is 2^(s + prec)
    if s <= 0:
        return man << -s
    return (man + (1 << (s - 1))) >> s


def _to_mpf(x: int, prec: int) -> tuple[tuple, int]:
    """x * 2^-prec floored to mp.prec bits, as an exact _mpf_ tuple, and the
    (nonnegative, integer) error of that rounding in units of 2^-prec."""
    s = max(0, abs(x).bit_length() - mp.mp.prec)
    v = x >> s
    return from_man_exp(v, s - prec), x - (v << s)


class _OnGrid:
    """What balls and points share: integer powers."""

    __slots__ = ()

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported; use /")
        if n == 0:
            return self.lift(1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base


class FixedBall(_OnGrid):
    """Disk {(re + i*im) * 2^-prec + w : |w| <= rad * 2^-prec}."""

    __slots__ = ("re", "im", "rad", "prec")

    def __init__(self, re: int, im: int, rad: int, prec: int):
        self.re, self.im, self.rad, self.prec = re, im, rad, prec

    @classmethod
    def from_mpc(cls, z: mp.mpc, prec: int, radius: mp.mpf = mp.mpf(0)) -> "FixedBall":
        """Ball around z of the given radius, its center rounded to the grid."""
        re, ere = _to_grid(z.real, prec)
        im, eim = _to_grid(z.imag, prec)
        rad, inexact = _to_grid(radius, prec)
        return cls(re, im, rad + inexact + ere + eim, prec)

    @classmethod
    def from_ball(cls, b: ComplexBall, prec: int) -> "FixedBall":
        return cls.from_mpc(b.center, prec, b.radius)

    def lift(self, k: int) -> "FixedBall":
        """The exact integer k, at this ball's precision."""
        return FixedBall(k << self.prec, 0, 0, self.prec)

    def ball(self) -> ComplexBall:
        """Outward-rounded ComplexBall at the current mpmath precision."""
        re, ere = _to_mpf(self.re, self.prec)
        im, eim = _to_mpf(self.im, self.prec)
        rad = self.rad + ere + eim
        s = max(0, rad.bit_length() - mp.mp.prec)
        radius = mp.mp.make_mpf(from_man_exp(_ceil_shift(rad, s), s - self.prec))
        return ComplexBall(mp.mp.make_mpc((re, im)), radius)

    def abs_bounds(self) -> tuple[int, int]:
        """Integer lower and upper bounds on |z| over the disk, in units of 2^-prec."""
        n = self.re * self.re + self.im * self.im
        s = isqrt(n)
        return max(0, s - self.rad), s + (s * s != n) + self.rad

    def __add__(self, o):
        if isinstance(o, int):
            return FixedBall(self.re + (o << self.prec), self.im, self.rad, self.prec)
        return FixedBall(self.re + o.re, self.im + o.im, self.rad + o.rad, self.prec)

    def __sub__(self, o):
        if isinstance(o, int):
            return FixedBall(self.re - (o << self.prec), self.im, self.rad, self.prec)
        return FixedBall(self.re - o.re, self.im - o.im, self.rad + o.rad, self.prec)

    def __mul__(self, o):
        if isinstance(o, int):
            return FixedBall(self.re * o, self.im * o, self.rad * abs(o), self.prec)
        p = self.prec
        ar, ai, ra = self.re, self.im, self.rad
        br, bi, rb = o.re, o.im, o.rad
        return FixedBall(
            (ar * br - ai * bi) >> p,
            (ar * bi + ai * br) >> p,
            _ceil_shift(_mul_err(ar, ai, ra, br, bi, rb), p) + 2,
            p,
        )

    def __truediv__(self, o: "FixedBall"):
        p = self.prec
        ar, ai, ra = self.re, self.im, self.rad
        br, bi, rb = o.re, o.im, o.rad
        n = br * br + bi * bi
        b_lo = isqrt(n)
        if _any(b_lo <= rb):
            raise ZeroDivisionError("divisor ball may contain zero")
        # |a/b - a_c/b_c| <= (r_a |b_c| + |a_c| r_b) / (|b_c| (|b_c| - r_b)),
        # decreasing in |b_c|, so b_lo bounds it from above; |a_c| r_b is
        # _mul_err with b = 0
        err = (ra * b_lo + _mul_err(ar, ai, 0, 0, 0, rb)) << p
        return FixedBall(
            ((ar * br + ai * bi) << p) // n,
            ((ai * br - ar * bi) << p) // n,
            -((-err) // (b_lo * (b_lo - rb))) + 2,
            p,
        )

    def __repr__(self) -> str:
        return f"FixedBall({self.re}, {self.im}, r={self.rad}, prec={self.prec})"


class FixedPoint(_OnGrid):
    """The point (re + i*im) * 2^-prec: a FixedBall's center without its radius.

    Never an enclosure. / raises ZeroDivisionError only when the divisor is
    exactly 0, where FixedBall's raises whenever the divisor ball may hold 0;
    wherever the ball computation returns, the centers agree.
    """

    __slots__ = ("re", "im", "prec")

    def __init__(self, re: int, im: int, prec: int):
        self.re, self.im, self.prec = re, im, prec

    def lift(self, k: int) -> "FixedPoint":
        """The exact integer k, at this point's precision."""
        return FixedPoint(k << self.prec, 0, self.prec)

    def __add__(self, o):
        if isinstance(o, int):
            return FixedPoint(self.re + (o << self.prec), self.im, self.prec)
        return FixedPoint(self.re + o.re, self.im + o.im, self.prec)

    def __sub__(self, o):
        if isinstance(o, int):
            return FixedPoint(self.re - (o << self.prec), self.im, self.prec)
        return FixedPoint(self.re - o.re, self.im - o.im, self.prec)

    def __mul__(self, o):
        if isinstance(o, int):
            return FixedPoint(self.re * o, self.im * o, self.prec)
        p = self.prec
        ar, ai, br, bi = self.re, self.im, o.re, o.im
        return FixedPoint((ar * br - ai * bi) >> p, (ar * bi + ai * br) >> p, p)

    def __truediv__(self, o: "FixedPoint"):
        p = self.prec
        ar, ai, br, bi = self.re, self.im, o.re, o.im
        n = br * br + bi * bi
        if _any(n == 0):
            raise ZeroDivisionError("division by the point 0")
        return FixedPoint(((ar * br + ai * bi) << p) // n, ((ai * br - ar * bi) << p) // n, p)

    def __repr__(self) -> str:
        return f"FixedPoint({self.re}, {self.im}, prec={self.prec})"


# -- array form --------------------------------------------------------------------


class FixedBallArray(FixedBall):
    """FixedBalls in lanes: re, im and rad are 1-D numpy object arrays of
    Python ints, or ints shared by every lane, such as a lift's.

    Every operation is FixedBall's own code, run elementwise, so lane i of a
    result is bit for bit the FixedBall result on lane i. / raises
    ZeroDivisionError when the divisor ball of any lane may hold 0. The
    conversions to and from mpmath (from_mpc, ball) are per lane: index the
    arrays.
    """

    __slots__ = ()


class FixedPointArray(FixedPoint):
    """FixedPoints in lanes, as FixedBallArray holds FixedBalls. / raises
    ZeroDivisionError when the divisor of any lane is exactly 0."""

    __slots__ = ()


def _first_call(name: str):
    """A stand-in for the array primitive name. Its first call puts the
    array primitives, made with numpy, in _ARRAY_GLOBALS in place of the
    stand-ins, so every later call goes straight to numpy."""

    def call(*args):
        import numpy as np

        _ARRAY_GLOBALS.update(
            _mul_err=np.frompyfunc(_mul_err, 6, 1),
            _any=np.any,
            isqrt=np.frompyfunc(isqrt, 1, 1),
            max=np.frompyfunc(max, 2, 1),
        )
        return _ARRAY_GLOBALS[name](*args)

    return call


def isqrt_array(x):
    """isqrt on each lane of an object array of Python ints."""
    return _ARRAY_GLOBALS["isqrt"](x)


# The array classes run the scalar classes' method code under these globals:
# the array forms of the value-branching primitives, and the array classes
# wherever the code names its own class. Each formula stays written once,
# and the scalar methods run as they did.
_ARRAY_GLOBALS = dict(
    globals(),
    FixedBall=FixedBallArray,
    FixedPoint=FixedPointArray,
    **{name: _first_call(name) for name in ("_mul_err", "_any", "isqrt", "max")},
)
for _cls in (FixedBallArray, FixedPointArray):
    for _name, _f in vars(_cls.__base__).items():
        if isinstance(_f, FunctionType):
            setattr(_cls, _name, FunctionType(_f.__code__, _ARRAY_GLOBALS, _name, _f.__defaults__))

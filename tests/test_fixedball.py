"""Fixed-point kernel: every enclosure checked against exact Fraction arithmetic."""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction
from math import isqrt

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pcflab.balls as bl
from pcflab.fixedball import FixedBall, FixedBallArray, FixedPoint, FixedPointArray, grid_from_float

# points on the boundary and inside of the unit disk, as exact rationals
F = Fraction
UNIT = [(0, 0), (1, 0), (0, -1), (F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)), (F(-4, 5), F(-3, 5))]

precs = st.sampled_from([53, 64, 192])


@st.composite
def wide(draw, max_bits, signed=True):
    """An integer of uniformly drawn bit length <= max_bits, random low bits."""
    k = draw(st.integers(0, max_bits))
    v = draw(st.randoms(use_true_random=False)).getrandbits(k) | ((1 << k) >> 1)
    return -v if signed and draw(st.booleans()) else v


@st.composite
def balls(draw, prec=None):
    # centers from below one ulp up to well past the binary point
    p = draw(precs) if prec is None else prec
    return FixedBall(draw(wide(p + 8)), draw(wide(p + 8)), draw(wide(40, signed=False)), p)


def points(b: FixedBall):
    """Exact complex points (re, im) inside b: its center and boundary points."""
    s = Fraction(1, 2**b.prec)
    return [((b.re + b.rad * u) * s, (b.im + b.rad * v) * s) for u, v in UNIT]


def point(b: FixedBall) -> FixedPoint:
    """b's center as a FixedPoint."""
    return FixedPoint(b.re, b.im, b.prec)


def grid(x) -> tuple[int, int, int]:
    return x.re, x.im, x.prec


def contains(b: FixedBall, z) -> bool:
    s = Fraction(1, 2**b.prec)
    dx, dy = z[0] - b.re * s, z[1] - b.im * s
    return dx * dx + dy * dy <= (b.rad * s) ** 2


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def cdiv(a, b):
    n = b[0] ** 2 + b[1] ** 2
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def mpc_fraction(z):
    return mpf_fraction(z.real), mpf_fraction(z.imag)


@st.composite
def pairs(draw):
    a = draw(balls())
    return a, draw(balls(a.prec))


class TestOperations:
    @settings(max_examples=300, deadline=None)
    @given(pairs())
    def test_add_sub_mul(self, ab):
        a, b = ab
        s, d, m = a + b, a - b, a * b
        assert s.rad == a.rad + b.rad and d.rad == a.rad + b.rad
        for x in points(a):
            for y in points(b):
                assert contains(s, (x[0] + y[0], x[1] + y[1]))
                assert contains(d, (x[0] - y[0], x[1] - y[1]))
                assert contains(m, cmul(x, y))

    @settings(max_examples=500, deadline=None)
    @given(precs.flatmap(lambda p: st.tuples(wide(p + 8), balls(p))))
    def test_mul_by_exact_real(self, kb):
        # |a| is exact here, so the product radius has no slack beyond its
        # rounding and the 2-ulp center term
        k, b = kb
        a = FixedBall(k, 0, 0, b.prec)
        m = a * b
        x = points(a)[0]
        for y in points(b):
            assert contains(m, cmul(x, y))

    @settings(max_examples=300, deadline=None)
    @given(pairs())
    def test_div(self, ab):
        a, b = ab
        assume(b.re**2 + b.im**2 > (b.rad + 1) ** 2)  # else it may contain 0
        q = a / b
        for x in points(a):
            for y in points(b):
                assert contains(q, cdiv(x, y))

    @settings(max_examples=100, deadline=None)
    @given(balls(), st.integers(0, 6))
    def test_pow(self, a, n):
        p = a ** n
        for x in points(a):
            want = (Fraction(1), Fraction(0))
            for _ in range(n):
                want = cmul(want, x)
            assert contains(p, want)

    @settings(max_examples=200, deadline=None)
    @given(balls(), wide(600))
    def test_wide_integer_operands_are_exact(self, a, k):
        # integers far wider than prec bits enter without rounding
        assert a.lift(k).rad == 0 and contains(a.lift(k), (Fraction(k), Fraction(0)))
        s, d, m = a + k, a - k, a * k
        assert s.rad == d.rad == a.rad and m.rad == a.rad * abs(k)
        for x in points(a):
            assert contains(s, (x[0] + k, x[1]))
            assert contains(d, (x[0] - k, x[1]))
            assert contains(m, (x[0] * k, x[1] * k))

    @settings(max_examples=200, deadline=None)
    @given(balls(), balls())
    def test_div_by_ball_containing_zero(self, a, b):
        z = FixedBall(b.re, b.im, _abs_ceil(b.re, b.im) + b.rad, a.prec)
        assert z.abs_bounds()[0] == 0
        with pytest.raises(ZeroDivisionError):
            a / z

    @example(FixedBall(1, 1, 0, 53))  # |center| = sqrt(2) ulps: isqrt is inexact
    @settings(max_examples=300, deadline=None)
    @given(balls())
    def test_abs_bounds_enclose_modulus(self, a):
        lo, hi = a.abs_bounds()
        s = Fraction(1, 2**a.prec)
        assert 0 <= lo <= hi
        for x, y in points(a):
            assert (lo * s) ** 2 <= x * x + y * y <= (hi * s) ** 2

    @settings(max_examples=300, deadline=None)
    @given(pairs(), wide(600), st.integers(0, 6))
    def test_point_centers_equal_ball_centers(self, ab, k, n):
        # FixedPoint gives bit for bit the centers of FixedBall
        a, b = ab
        x, y = point(a), point(b)
        for got, want in (
            (x + y, a + b),
            (x - y, a - b),
            (x * y, a * b),
            (x**n, a**n),
            (x + k, a + k),
            (x - k, a - k),
            (x * k, a * k),
            (x.lift(k), a.lift(k)),
        ):
            assert grid(got) == grid(want)

    @settings(max_examples=300, deadline=None)
    @given(pairs())
    def test_point_quotient_centers_equal_ball_centers(self, ab):
        # a divisor ball of radius 0 fails only at the point 0, like a point
        a, b = ab
        assume(b.re or b.im)
        b0 = FixedBall(b.re, b.im, 0, b.prec)
        assert grid(point(a) / point(b)) == grid(a / b0)

    @settings(max_examples=100, deadline=None)
    @given(balls())
    def test_point_divides_by_anything_but_zero(self, a):
        one_ulp = FixedPoint(1, 0, a.prec)
        assert grid(point(a) / one_ulp) == (a.re << a.prec, a.im << a.prec, a.prec)
        with pytest.raises(ZeroDivisionError):
            point(a) / FixedPoint(0, 0, a.prec)

    def test_a_point_is_no_enclosure(self):
        x = FixedPoint(1 << 64, 2 << 64, 64)
        assert not isinstance(x, FixedBall)
        assert not any(hasattr(x, m) for m in ("rad", "ball", "abs_bounds", "from_mpc"))


def _abs_ceil(re, im):
    n = re * re + im * im
    return isqrt(n - 1) + 1 if n else 0


# mpf values with a wide spread of exponents: far below and above the grid
mpfs = st.builds(
    lambda m, e: mp.mpf((m, e)),
    st.integers(-(2**80), 2**80),
    st.integers(-700, 40),
)


class TestConversions:
    @settings(max_examples=300, deadline=None)
    @given(precs, mpfs, mpfs, st.integers(0, 2**40), st.integers(-300, 0))
    def test_ball_in_encloses_off_grid_center_and_radius(self, p, x, y, rm, re):
        with mp.workprec(p + 64):
            cb = bl.ComplexBall(mp.mpc(x, y), mp.mpf((rm, re)))
        fb = FixedBall.from_ball(cb, p)
        c = mpc_fraction(cb.center)
        r = mpf_fraction(cb.radius)
        # the whole input disk: center and four boundary points
        for u, v in UNIT:
            assert contains(fb, (c[0] + r * u, c[1] + r * v))

    @example(p=192, below=256)
    @settings(max_examples=100, deadline=None)
    @given(precs, st.integers(3, 600))
    def test_real_root_with_tiny_imaginary_part(self, p, below):
        # real roots of g_6 (d=2) came out of mp polishing with imaginary
        # parts near 1e-135, far below the 2^-192 grid
        with mp.workprec(p):
            z = mp.mpc(mp.mpf("-1.98542425305421"), mp.mpf(2) ** (-p - below) * 3)
        fb = FixedBall.from_mpc(z, p)
        assert fb.im == 0 and fb.rad == 1
        assert contains(fb, mpc_fraction(z))

    @settings(max_examples=300, deadline=None)
    @given(balls(), st.sampled_from([24, 53, 128, 256]))
    def test_round_trip_to_complex_ball_rounds_outward(self, fb, wp):
        with mp.workprec(wp):
            cb = fb.ball()
        c, r = mpc_fraction(cb.center), mpf_fraction(cb.radius)
        s = Fraction(1, 2**fb.prec)
        dx, dy = c[0] - fb.re * s, c[1] - fb.im * s
        # the ComplexBall holds the whole fixed-point disk
        assert dx * dx + dy * dy <= (r - fb.rad * s) ** 2 and r >= fb.rad * s
        back = FixedBall.from_ball(cb, fb.prec)
        for z in points(fb):
            assert contains(back, z)

    def test_non_finite_input_is_refused(self):
        with pytest.raises(ValueError):
            FixedBall.from_mpc(mp.mpc(mp.inf, 0), 64)
        with pytest.raises(ValueError):
            FixedBall.from_mpc(mp.mpc(0, mp.nan), 64)

    @settings(max_examples=200, deadline=None)
    @given(precs, mpfs, mpfs)
    def test_from_mpc_rounds_to_the_nearest_grid_point(self, p, x, y):
        z = mp.mpc(x, y)
        b = FixedBall.from_mpc(z, p)
        c, s = mpc_fraction(z), Fraction(1, 2**p)
        assert abs(b.re * s - c[0]) <= s / 2 and abs(b.im * s - c[1]) <= s / 2
        assert contains(b, c)

    @pytest.mark.parametrize("wp", [192, 384])
    def test_grid_from_float_rounds_like_from_mpc(self, wp):
        # the float64 Aberth points go onto the grid without mpmath
        special = [0.0, 5e-324, 2.0**-1022, 2.0**-200 * (1 + 2.0**-52), 3 * 2.0**-194, 1e300]
        # ties, an odd number of half grid units: they round up, toward +inf
        ties = [k * 2.0 ** -(wp + 1) for k in (1, 3, 5, 2**52 + 1)]
        rng = random.Random(wp)
        patterns = (rng.getrandbits(64).to_bytes(8, "little") for _ in range(500))
        spread = [x for (x,) in map(struct.Struct("<d").unpack, patterns) if math.isfinite(x)]
        near = [rng.uniform(-4, 4) * 2.0 ** rng.randint(-wp - 60, 4) for _ in range(500)]
        with mp.workprec(wp):
            for x in special + ties + spread + near:
                for y in (x, -x):
                    assert grid_from_float(y, wp) == FixedBall.from_mpc(mp.mpc(y), wp).re, y


@st.composite
def lane_balls(draw, prec):
    """One lane: a ball of the balls strategy, or an mpc rounded onto the
    grid, whose imaginary part may lie far off it."""
    if draw(st.booleans()):
        return draw(balls(prec))
    with mp.workprec(prec + 64):
        z = mp.mpc(draw(mpfs), draw(mpfs))
    return FixedBall.from_mpc(z, prec)


@st.composite
def ball_arrays(draw, prec=None, n=None):
    """(FixedBallArray, its lanes as FixedBalls)."""
    p = draw(precs) if prec is None else prec
    n = draw(st.integers(1, 5)) if n is None else n
    lanes = [draw(lane_balls(p)) for _ in range(n)]
    fields = (np.array([getattr(b, f) for b in lanes], dtype=object) for f in ("re", "im", "rad"))
    return FixedBallArray(*fields, p), lanes


@st.composite
def array_pairs(draw):
    a, a_lanes = draw(ball_arrays())
    b, b_lanes = draw(ball_arrays(a.prec, len(a_lanes)))
    return a, a_lanes, b, b_lanes


def to_points(a: FixedBallArray) -> FixedPointArray:
    return FixedPointArray(a.re, a.im, a.prec)


def lane(x, i):
    """Lane i of an array form, as the fields of its scalar class."""
    fields = ("re", "im", "rad") if isinstance(x, FixedBall) else ("re", "im")
    vals = [getattr(x, f) for f in fields]
    return tuple(v[i] if isinstance(v, np.ndarray) else v for v in vals) + (x.prec,)


def scalar_fields(x):
    return (x.re, x.im, x.rad, x.prec) if isinstance(x, FixedBall) else (x.re, x.im, x.prec)


def assert_lanes(got, wants):
    assert isinstance(got, (FixedBallArray, FixedPointArray))
    for i, want in enumerate(wants):
        assert lane(got, i) == scalar_fields(want), i
        # Python ints, not numpy scalars, of any width
        assert all(type(v) is int for v in lane(got, i))


def quotients(a_lanes, b_lanes):
    """The scalar quotients, or None when one of them raises."""
    try:
        return [x / y for x, y in zip(a_lanes, b_lanes)]
    except ZeroDivisionError:
        return None


def check_div(a, a_lanes, b, b_lanes):
    want = quotients(a_lanes, b_lanes)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert_lanes(a / b, want)


class TestArrayForm:
    """Every operation of an array form equals the scalar operation on each
    lane, bit for bit, radii included."""

    @settings(max_examples=200, deadline=None)
    @given(array_pairs(), st.integers(0, 5))
    def test_balls(self, ab, n):
        a, a_lanes, b, b_lanes = ab
        assert_lanes(a + b, [x + y for x, y in zip(a_lanes, b_lanes)])
        assert_lanes(a - b, [x - y for x, y in zip(a_lanes, b_lanes)])
        assert_lanes(a * b, [x * y for x, y in zip(a_lanes, b_lanes)])
        assert_lanes(a**n, [x**n for x in a_lanes])
        check_div(a, a_lanes, b, b_lanes)
        lo, hi = a.abs_bounds()
        assert [(l, h) for l, h in zip(lo, hi)] == [x.abs_bounds() for x in a_lanes]
        assert all(type(v) is int for v in (*lo, *hi))

    @settings(max_examples=200, deadline=None)
    @given(array_pairs(), st.integers(0, 5))
    def test_points(self, ab, n):
        a, a_lanes, b, b_lanes = ab
        x, y = to_points(a), to_points(b)
        xs = [point(v) for v in a_lanes]
        ys = [point(v) for v in b_lanes]
        assert_lanes(x + y, [u + v for u, v in zip(xs, ys)])
        assert_lanes(x - y, [u - v for u, v in zip(xs, ys)])
        assert_lanes(x * y, [u * v for u, v in zip(xs, ys)])
        assert_lanes(x**n, [u**n for u in xs])
        check_div(x, xs, y, ys)

    @settings(max_examples=200, deadline=None)
    @given(ball_arrays(), wide(600))
    def test_int_operands_of_any_width(self, ab, k):
        a, a_lanes = ab
        for arr, scalars in ((a, a_lanes), (to_points(a), [point(v) for v in a_lanes])):
            assert_lanes(arr + k, [x + k for x in scalars])
            assert_lanes(arr - k, [x - k for x in scalars])
            assert_lanes(arr * k, [x * k for x in scalars])
            assert_lanes(arr.lift(k), [x.lift(k) for x in scalars])

    @settings(max_examples=200, deadline=None)
    @given(ball_arrays(), wide(600))
    def test_lifts_mixed_with_lanes(self, ab, k):
        # a lift holds ints shared by every lane, where the other operand
        # holds arrays
        a, a_lanes = ab
        for arr, scalars in ((a, a_lanes), (to_points(a), [point(v) for v in a_lanes])):
            lift, lifts = arr.lift(k), [x.lift(k) for x in scalars]
            assert_lanes(arr * lift, [x * y for x, y in zip(scalars, lifts)])
            assert_lanes(lift * arr, [y * x for x, y in zip(scalars, lifts)])
            assert_lanes(lift + arr, [y + x for x, y in zip(scalars, lifts)])
            assert_lanes(lift - arr, [y - x for x, y in zip(scalars, lifts)])
            check_div(arr, scalars, lift, lifts)
            check_div(lift, lifts, arr, scalars)

    @settings(max_examples=100, deadline=None)
    @given(array_pairs(), st.data())
    def test_div_raises_when_any_divisor_may_be_zero(self, ab, data):
        a, a_lanes, b, b_lanes = ab
        i = data.draw(st.integers(0, len(b_lanes) - 1))
        rad = b.rad.copy()
        rad[i] = _abs_ceil(b.re[i], b.im[i]) + rad[i]  # lane i holds 0
        with pytest.raises(ZeroDivisionError):
            a / FixedBallArray(b.re, b.im, rad, b.prec)
        re, im = b.re.copy(), b.im.copy()
        re[i] = im[i] = 0  # lane i is the point 0
        with pytest.raises(ZeroDivisionError):
            to_points(a) / FixedPointArray(re, im, b.prec)

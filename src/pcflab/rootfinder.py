"""Certified simultaneous root finding for integer polynomials.

Pipeline: deterministic starting points, a vectorized float64 Aberth-Ehrlich
stage, Newton polishing, then an outward-rounded inclusion disk per root.
The evaluator picks the starts: orbit evaluators of pcflab.critical_orbit
trace them down external rays of the Multibrot set to one of its lemniscates
(a pure function of d and the degree), every other polynomial gets
root-modulus annuli from its coefficient hull (fixed 0.4 rad offset). Either
way they are float64 functions of the input alone, so cache files are
byte-reproducible. The certificate per approximation z is the classical
inclusion disk of radius deg * |p(z)/p'(z)| (at least one root lies inside,
because p'/p is the sum of reciprocal root distances); when all deg disks are
pairwise disjoint, each contains exactly one root and the set is a complete
isolation certificate.

Polishing, certification and repair run on the fixed-point kernel of
pcflab.fixedball, on the grid 2^-wp for working precision wp, passed to
each step explicitly. all_roots holds the points of the whole set as two
object arrays of Python ints, re and im: each root's point is the Gaussian
integer re[j] + i*im[j], from the float64 Aberth point, which goes onto the
grid rounded to nearest, to the finished disk, and each doubling of wp
shifts both arrays in place. Polishing and certification are one lockstep
loop per batch of _BATCH roots; each evaluator call takes a batch as one
FixedPointArray or FixedBallArray, whose lanes give bit for bit the scalar
results. A root takes Newton steps p/p' on its point, each floored, until a
step meets the square root of the stop rule |w| <= 2^-(bits+24) * (1 + |z|),
tested in integers. Once no root of the batch takes point steps, each point
is floored to wp bits, so it is the exact center of a ball of radius 0, and
its next evaluation is of that ball: the quotient of the value and
derivative centers is the point step there, bit for bit, so one evaluation
tests the stop rule and gives the disk. When the step meets the rule, the
radius deg * |p/p'| * 1.0000001 comes from the integer modulus bounds of the
two balls, rounded up to whole grid units, and the target is tested in
integers too; otherwise the root takes the step and is evaluated again. A
batch whose evaluation raises ZeroDivisionError is split in halves and
retried, so only the root that raises loses its Newton step or its disk.
Points and balls floor every product and quotient the same way, so their
centers are identical, and the order of operations in each evaluator
formula fixes the rounding, hence the polished points, the disks and the
cache bytes, whatever the batch size. mpmath enters only where the disks
leave the grid, as ComplexBalls at wp bits for the disjointness check; the
set is sorted on its points, which are the disks' centers.

Precision escalates locally: a root whose disk misses the radius target or is
not proven disjoint from another disk goes to doubled working precision alone,
gets a few Gauss-Seidel Aberth sweeps on the grid against the other points
held fixed, is polished again and gets a new disk. Every other root keeps its
disk. The pairwise disjointness check runs over the whole set after every
round, so the set returned has passed it as a whole.

all_roots takes its evaluator from the caller. Lattice factors get
division-free orbit-recurrence evaluators from pcflab.critical_orbit; a base
point's minimal polynomial goes through Horner on the exact coefficients, in
the CoefficientEvaluator that pcflab.heights builds, which is also the one
check of such input: squarefree, with no coefficient wider than
MAX_COEFF_BITS. Lattice factors are squarefree by theorem, and the
certificate proves it again.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Sequence

import mpmath as mp
from mpmath.libmp import MPZ, fzero

from . import balls as bl
from .cacheio import atomic_write_text
from .errors import NonSquarefreeInput, PrecisionExhausted
from .fixedball import FixedBall, FixedBallArray, FixedPoint, FixedPointArray
from .fixedball import grid_from_float, isqrt_array
from .polynomials import IntPolynomial, horner, is_squarefree, lower_hull, serialize

MAX_PRECISION_BITS = 4096
# widest coefficient CoefficientEvaluator accepts: the float64 stage holds its
# start radii and Aberth points as complex128, so it finds only roots below
# 2^1024 in modulus, and a root of p lies below 2^(MAX_COEFF_BITS + 1)
MAX_COEFF_BITS = 900
_START_ANGLE_OFFSET = 0.4  # radians; fixed for reproducibility
# the float64 Aberth stage: a point freezes after two sweeps in a row whose
# relative step is below _F64_TOL; no input takes _F64_MAX_SWEEPS
_F64_MAX_SWEEPS = 800
_F64_TOL = 5e-14
# rows per block of the float64 pairwise kernels: 16 x 1024 complex128 is
# 256 KiB, within L2. On g_11, 16 rows ran as fast as 32 and 64 to 512 rows
# slower (degrees 161 to 729: 6-10 % slower than 32). The disjointness
# prefilter's blocks run on top of every polished root, so they set the peak
# memory of isolating g_11: 0.7 MiB above the roots at 32 rows, 0.15 at 16.
# No row's result depends on the block size.
_ROW_BLOCK = 16
# roots per batch of the fixed-point passes: Newton steps and disks run on
# FixedPointArray/FixedBallArray lanes of this many roots. On g_11 of d=2,
# one batch per pass (1024 roots) peaked 2 MB above batches of 128, which
# peak about 0.2 MB above one root at a time; batches of 64 and 32 took 12 %
# and 34 % longer. No root's result depends on the batch size.
_BATCH = 128


def _log2_abs(c: int) -> float:
    import numpy as np

    bits = abs(c).bit_length()
    return float(np.log2(abs(c) >> max(0, bits - 64)) + max(0, bits - 64))


# a product or quotient moves the lanes whose |m| is above _RENORM down to
# about 2^8; ** first moves |m| to 1 where |m|^e would leave 2^+-_POW_RANGE,
# so that the power times an operand (at most about 2^212, a sum of d
# renormalized terms) and an int factor up to critical_orbit.DEGREE_CAP
# stays in float64 range
_RENORM = 2.0**200
_POW_RANGE = 800


def _parts(o):
    """(m, s) of a ScaledArray, or of the lift of an int of any width."""
    if not isinstance(o, int):
        return o.m, o.s
    bits = abs(o).bit_length()
    if bits <= 200:
        return float(o), 0.0
    return o / (1 << (bits - 8)), float(bits - 8)  # rounded to nearest


def _renormalized(m, s) -> "ScaledArray":
    """m * 2^s, with the lanes whose |m| is above _RENORM moved down."""
    import numpy as np

    r = np.abs(m)
    big = r > _RENORM
    if np.count_nonzero(big):
        shift = np.where(big, np.ceil(np.log2(r)) - 8, 0.0)
        m, s = m * np.exp2(-shift), s + shift
    return ScaledArray(m, s)


class ScaledArray:
    """Complex lanes m * 2^s, the float64 type that newton_f64 runs the
    evaluator formula on: m is a complex128 array (a float64 scalar for a
    lift) and s its log2 scale, the float 0.0 until a value leaves range,
    then a float64 array. A float mantissa with a separate exponent, as in
    the dpe numbers of MPSolve (Bini and Fiorentino, Numer. Algorithms
    2000): |z|^deg and the orbit's u^d stay finite far from the roots, for
    every d up to critical_orbit.DEGREE_CAP.

    + - * / and ** by an int >= 1; an int operand of any width enters as a
    lift. Callers run it under np.errstate(all="ignore"), as newton_f64 and
    critical_orbit.lemniscate_starts do: a lane that overflows or divides by
    0 gives inf or nan, which the Aberth stage nudges away.
    """

    __slots__ = ("m", "s")

    def __init__(self, m, s=0.0):
        self.m, self.s = m, s

    @staticmethod
    def lift(k: int) -> "ScaledArray":
        """k as a float64 scalar, which, unlike a float, divides by 0 and
        overflows without raising."""
        import numpy as np

        m, s = _parts(k)
        return ScaledArray(np.float64(m), s)

    def complex128(self):
        """m * 2^s, inf or 0 where it leaves float64 range."""
        import numpy as np

        return self.m * np.exp2(self.s)

    def _sum(self, om, os) -> "ScaledArray":
        if type(self.s) is float and type(os) is float and self.s == os:
            return ScaledArray(self.m + om, os)
        import numpy as np

        s = np.maximum(self.s, os)
        return ScaledArray(self.m * np.exp2(self.s - s) + om * np.exp2(os - s), s)

    def __add__(self, o):
        return self._sum(*_parts(o))

    def __sub__(self, o):
        om, os = _parts(o)
        return self._sum(-om, os)

    def __mul__(self, o):
        om, os = _parts(o)
        return _renormalized(self.m * om, self.s + os)

    def __truediv__(self, o):
        om, os = _parts(o)
        return _renormalized(self.m / om, self.s - os)

    def __pow__(self, e: int):
        if e == 1:
            return self
        import numpy as np

        m, s = self.m, self.s
        r = np.abs(m)
        lim = 2.0 ** (_POW_RANGE / e)
        move = (r > lim) | ((r < 1 / lim) & (r > 0))
        if np.count_nonzero(move):
            a = np.where(move, np.log2(r), 0.0)
            m, s = m * np.exp2(-a), s + a
        return ScaledArray(m**e, s * e)


class Evaluator:
    """(value, derivative) of one polynomial, each formula written once.

    Subclasses write value_deriv(z, num) over any scalar type with + - * /
    and ** by an int whose right operand may be an exact integer; num lifts
    an exact integer into z's type. Three forms run it. newton_f64, for the
    float64 Aberth stage, runs it on ScaledArray lanes and maps a complex128
    array to the Newton steps value / derivative. Both grid forms run it on
    the fixed-point kernel pcflab.fixedball, taking and returning its types:
    newton_mp, for polishing and the repair passes' Aberth sweeps, maps a
    FixedPoint to the Newton step, a FixedPoint floored on the same grid;
    value_deriv_ball, for each root's last step and its disk, maps a
    FixedBall to the value and derivative FixedBalls.
    Polishing and certification pass a whole batch of roots at once, as a
    FixedPointArray or FixedBallArray, and the same formula then runs on
    every lane. The point and ball centers are identical, so polishing pays
    for no radius. starts_f64(p) gives the float64 starting points of the
    Aberth stage. Each type's operation order is the formula's, so the
    formula fixes the rounding, hence the float64 points, the polished
    points, the certified disks and the root-cache bytes.
    """

    def newton_f64(self, z: np.ndarray) -> np.ndarray:
        import numpy as np

        with np.errstate(all="ignore"):
            val, der = self.value_deriv(ScaledArray(z), ScaledArray.lift)
            return (val / der).complex128()

    def newton_mp(self, zf: FixedPoint) -> FixedPoint:
        val, der = self.value_deriv(zf, zf.lift)
        return val / der

    def value_deriv_ball(self, zb: FixedBall) -> tuple[FixedBall, FixedBall]:
        return self.value_deriv(zb, zb.lift)


class CoefficientEvaluator(Evaluator):
    """Horner evaluation from the exact coefficients, for arbitrary input.

    The one place where input the finder knows nothing about is checked: it
    raises ValueError when a coefficient is wider than MAX_COEFF_BITS, and
    NonSquarefreeInput when gcd(p, p') is not constant. The roots of such
    a p lie below 2^(MAX_COEFF_BITS + 1) in modulus, within the complex128
    range of the float64 stage's start radii and Aberth points.
    """

    def __init__(self, p: IntPolynomial):
        coeff_bits = p.max_abs_coeff().bit_length()
        if coeff_bits > MAX_COEFF_BITS:
            raise ValueError(
                f"a coefficient of {coeff_bits} bits exceeds the {MAX_COEFF_BITS}-bit limit"
                " of the float64 root-finder stage"
            )
        if not is_squarefree(p):
            raise NonSquarefreeInput("apply squarefree_part before root finding")
        self.poly = p
        self.dpoly = p.derivative()

    def starts_f64(self, p: IntPolynomial) -> np.ndarray:
        """Deterministic float64 starts on root-modulus annuli.

        The annuli come from the upper convex hull of (i, log|a_i|) (Bini's
        initialization): each hull edge from index i0 to i1 contributes
        i1 - i0 points on a circle of radius (|a_i0| / |a_i1|)^(1/(i1-i0)),
        capped by the Fujiwara bound. This places starts in the right annuli,
        so sweep counts stay roughly degree-free. Angles carry the fixed 0.4
        rad offset plus a per-edge stagger; a zero constant term leaves the
        hull short, and then all starts go on one circle of the Fujiwara
        radius. Everything is a pure function of the coefficients, so cache
        files reproduce exactly.
        """
        import numpy as np

        n = p.degree
        log2 = [(i, _log2_abs(c)) for i, c in enumerate(p.coeffs) if c != 0]
        fujiwara = max(((y - log2[-1][1]) / (n - i) for i, y in log2[:-1]), default=0.0)
        rmax_log = 1.0 + fujiwara + 0.0625
        # the upper hull, as the mirrored lower hull; float negation is exact
        hull = [(i, -y) for i, y in lower_hull([(i, -y) for i, y in log2])]
        rl: list[float] = []
        ang: list[float] = []
        for (i0, y0), (i1, y1) in zip(hull[:-1], hull[1:]):
            k = i1 - i0
            for j in range(k):
                rl.append(min((y0 - y1) / k, rmax_log))
                ang.append(
                    2.0 * np.pi * (j + 0.5 * (i0 % 3)) / k + _START_ANGLE_OFFSET + 0.13 * i0
                )
        if len(rl) != n:
            rl = [rmax_log] * n
            ang = [2.0 * np.pi * j / n + _START_ANGLE_OFFSET for j in range(n)]
        return np.exp2(np.clip(np.array(rl), -1000.0, 1000.0)) * np.exp(1j * np.array(ang))

    def value_deriv(self, z, num):
        return horner(self.poly.coeffs, z, num(0)), horner(self.dpoly.coeffs, z, num(0))


@dataclass(frozen=True)
class PCFParameterSet:
    """Certified, isolated roots of one factor polynomial, sorted by center."""

    precision_bits: int
    roots: tuple[bl.ComplexBall, ...]

    def __len__(self) -> int:
        return len(self.roots)


# -- float64 Aberth stage -------------------------------------------------------


def _pairwise_inv_sum(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_k 1/(z_i - z_k) for the selected rows i (k runs over everything)."""
    import numpy as np

    out = np.empty(idx.size, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for b0 in range(0, idx.size, _ROW_BLOCK):
            sel = idx[b0 : b0 + _ROW_BLOCK]
            diff = z[sel, None] - z[None, :]
            diff[np.arange(sel.size), sel] = np.inf
            out[b0 : b0 + sel.size] = (1.0 / diff).sum(axis=1)
    return out


def _aberth_f64(evaluator, z0: np.ndarray):
    """Jacobi-style Aberth sweeps; converged points freeze (but keep repelling)."""
    import numpy as np

    z = z0.copy()
    n = z.size
    nudge = 0.01 + 0.017j
    active = np.arange(n)
    settle = np.zeros(n, dtype=np.int64)  # consecutive small-step sweeps per point
    for _ in range(_F64_MAX_SWEEPS):
        with np.errstate(all="ignore"):
            za = z[active]
            nray = evaluator.newton_f64(za)
            bad = ~np.isfinite(nray)
            if bad.any():
                za[bad] = za[bad] * (1 + 1e-9) + nudge * 1e-9 * (1 + np.abs(za[bad]))
                z[active] = za
                nray[bad] = 0.0
            s = _pairwise_inv_sum(z, active)
            # a point on another one: its copies would step alike forever
            clash = ~np.isfinite(s)
            if clash.any():
                za[clash] += 1e-9 * (1 + np.abs(za[clash])) * np.exp(1j * active[clash])
                z[active] = za
            denom = 1.0 - nray * s
            w = nray / denom
            nf = ~np.isfinite(w)
            w[nf] = nray[nf]
            mag = np.abs(w)
            lim = 0.35 * (1.0 + np.abs(za))
            over = mag > lim
            if over.any():
                w[over] *= lim[over] / mag[over]
            za = za - w
            z[active] = za
            rel = np.abs(w) / (1.0 + np.abs(za))
            ok = np.isfinite(rel) & (rel < _F64_TOL) & ~bad & ~clash
            settle[active] = np.where(ok, settle[active] + 1, 0)
            active = np.nonzero(settle < 2)[0]
            if active.size == 0:
                break
    return z


# -- repair, polishing and certification on the grid ----------------------------


def _aberth_sweeps(evaluator, re, im, idx, wp: int) -> None:
    """Four Gauss-Seidel Aberth sweeps on the points re + i*im of the grid
    2^-wp, in place: the points in idx move, in that order, each step floored.

    Every other point stays fixed but still repels, so a sweep costs
    O(len(idx) * n); a point on the moving one does not repel it. The sweeps
    stop after one in which no step w has |w| >= 2^(8-wp) * (1 + |z|).
    """
    for _ in range(4):
        settled = True
        for j in idx:
            z = FixedPoint(re[j], im[j], wp)
            try:
                nray = evaluator.newton_mp(z)
            except ZeroDivisionError:
                continue
            dre, dim = re[j] - re, im[j] - im
            apart = (dre != 0) | (dim != 0)
            diff = FixedPointArray(dre[apart], dim[apart], wp)
            inv = diff.lift(1) / diff
            denom = z.lift(1) - nray * FixedPoint(inv.re.sum(), inv.im.sum(), wp)
            w = nray / denom if denom.re or denom.im else nray
            re[j] -= w.re
            im[j] -= w.im
            # the relative step, squared, in units of 2^-wp
            one_plus_z = (1 << wp) + isqrt(re[j] * re[j] + im[j] * im[j])
            if (w.re * w.re + w.im * w.im) << 2 * wp >= one_plus_z * one_plus_z << 16:
                settled = False
        if settled:
            return


def _split_retry(f, lanes: np.ndarray) -> list:
    """[(sub, f(sub))] over lanes: f on the whole batch, and on halves of a
    batch that raises ZeroDivisionError, down to single lanes, whose
    result is then None; [] for no lanes. Lanes are independent, so no
    lane's result depends on the batch it ran in."""
    if not lanes.size:
        return []
    try:
        return [(lanes, f(lanes))]
    except ZeroDivisionError:
        if lanes.size == 1:
            return [(lanes, None)]
        h = lanes.size // 2
        return _split_retry(f, lanes[:h]) + _split_retry(f, lanes[h:])


def _floor_bits(x: int, bits: int) -> int:
    """x floored to its leading bits bits (x itself when it is that short)."""
    s = max(0, abs(x).bit_length() - bits)
    return (x >> s) << s


def _one_plus_abs(re, im, wp: int):
    """1 + |z| for the grid points z = re + i*im, in units of 2^-wp; isqrt
    bounds |z| from below."""
    return (1 << wp) + isqrt_array(re * re + im * im)


def _certify_lanes(evaluator, re, im, wp: int, degree: int, bits: int) -> list:
    """Polish the points re + i*im of the grid 2^-wp in place, in lockstep,
    and return their radii deg*|p/p'|*1.0000001 in units of 2^-wp, rounded
    up; None where the disk fails. At most 10 Newton steps per root.

    A root takes point steps until its step w to z meets the square root of
    the stop rule, |w| <= 2^-(bits+24)/2 * (1 + |z|), is its tenth, or
    raises ZeroDivisionError. Once no root takes point steps, each is
    floored to wp bits and takes ball steps: the quotient of the value and
    derivative centers at the ball of radius 0 is newton_mp's step there,
    bit for bit. A root whose ball step meets the stop rule
    |w| <= 2^-(bits+24) * (1 + |z|), or would be its eleventh, stays and
    gets its radius, which must meet the 2^-(bits/2) * (1 + |z|) target;
    the others take the step and are evaluated again. A ball evaluation that
    raises ZeroDivisionError fails the disk.
    """
    import numpy as np

    def newton(sub):
        return evaluator.newton_mp(FixedPointArray(re[sub], im[sub], wp))

    def value_deriv(sub):
        return evaluator.value_deriv_ball(FixedBallArray(re[sub], im[sub], 0, wp))

    steps = np.zeros(re.size, dtype=np.int64)
    balls = np.zeros(re.size, dtype=bool)  # the roots that take ball steps
    radii: list = [None] * re.size
    active = np.arange(re.size)
    while active.size:
        points = active[~balls[active]]
        if points.size:
            for sub, w in _split_retry(newton, points):
                if w is not None:
                    steps[sub] += 1
                    z = FixedPointArray(re[sub], im[sub], wp) - w
                    re[sub], im[sub] = z.re, z.im
                    # the square-root rule, squared, in units of 2^-wp
                    one_plus_z = _one_plus_abs(z.re, z.im, wp)
                    far = (w.re * w.re + w.im * w.im) << (bits + 24) > one_plus_z * one_plus_z
                    sub = sub[~far | (steps[sub] >= 10)]
                balls[sub] = True
            continue
        re[active] = np.array([_floor_bits(x, wp) for x in re[active]], dtype=object)
        im[active] = np.array([_floor_bits(x, wp) for x in im[active]], dtype=object)
        moving = []
        for sub, vd in _split_retry(value_deriv, active):
            if vd is None:
                continue
            val, der = vd
            der_lo = der.abs_bounds()[0]
            live = der_lo > 0
            # newton_mp's step, bit for bit, where the divisor is not 0
            w = FixedPointArray(val.re, val.im, wp) / FixedPointArray(
                np.where(live, der.re, 1), der.im, wp
            )
            one_plus_z = _one_plus_abs(re[sub], im[sub], wp)
            far = (w.re * w.re + w.im * w.im) << 2 * (bits + 24) > one_plus_z * one_plus_z
            far &= live & (steps[sub] < 10)
            steps[sub[far]] += 1
            re[sub[far]] -= w.re[far]
            im[sub[far]] -= w.im[far]
            moving.append(sub[far])
            num = degree * val.abs_bounds()[1] * 10000001 << wp
            rad = -(-num // (np.where(live, der_lo, 1) * 10**7))
            # the target
            live &= ~far & (rad << (bits // 2) <= one_plus_z)
            for k in np.nonzero(live)[0]:
                radii[sub[k]] = rad[k]
        active = np.concatenate([active[:0]] + moving)
    return radii


# -- disjointness ----------------------------------------------------------------


def _distance_rows(cf: np.ndarray):
    """(i0, |cf[i] - cf[k]|) for the rows i of each block from i0 on, with
    inf where k = i."""
    import numpy as np

    for i0 in range(0, cf.size, _ROW_BLOCK):
        dist = np.abs(cf[i0 : i0 + _ROW_BLOCK, None] - cf[None, :])
        rows = np.arange(dist.shape[0])
        dist[rows, rows + i0] = np.inf
        yield i0, dist


def _rounding_slack(cf: np.ndarray) -> float:
    """Bound on how far rounding the centers to float64 moves the distance
    of any pair: each center moves by less than one ulp of the largest
    |center|, and the float64 distances round relatively. Both callers
    take it before _distance_rows, so a center that does not fit a float64
    raises ValueError before any distance is formed from it."""
    import numpy as np

    if not np.isfinite(cf).all():
        raise ValueError("a disk center is too large for the float64 distance prefilter")
    return 4 * float(np.spacing(np.abs(cf).max()))


def _overlapping(disks: list) -> set[int]:
    """Indices of the disks not proven disjoint from every other disk.

    None entries (failed disks) are skipped. A float64 prefilter with a margin
    that covers the center rounding picks the close pairs; each gets the
    exact ball test.
    """
    import numpy as np

    live = [i for i, b in enumerate(disks) if b is not None]
    if len(live) < 2:
        return set()
    cf = np.array([complex(disks[i].center) for i in live], dtype=np.complex128)
    # each radius padded by the center rounding, so that no block needs one
    # more temporary for it
    rf = np.array([float(disks[i].radius) for i in live], dtype=np.float64)
    rf += _rounding_slack(cf) + 1e-290
    bad: set[int] = set()
    for i0, dist in _distance_rows(cf):
        rsum = rf[i0 : i0 + _ROW_BLOCK, None] + rf[None, :]
        close = (dist * (1 - 1e-7) <= rsum) | (dist < 1e-6)
        for i, j in zip(*np.nonzero(close)):
            a, b = live[i + i0], live[j]
            if a < b and not bl.disjoint(disks[a], disks[b]):
                bad.update((a, b))
    return bad


def all_roots(p: IntPolynomial, precision_bits: int, evaluator: Evaluator) -> PCFParameterSet:
    """All complex roots of a squarefree p with disjoint certified disks.

    Every input of degree >= 2 starts from evaluator.starts_f64(p) and the
    float64 Aberth stage; the sweeps on the grid serve only the repair
    passes. Degree 1 is solved exactly and reads no evaluator. A
    lattice factor takes its orbit evaluator from pcflab.critical_orbit,
    whose factor is not checked: deg pairwise disjoint inclusion disks, each
    holding a root, prove deg simple roots. Raises PrecisionExhausted when
    certification still fails at MAX_PRECISION_BITS.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    degree = p.degree
    if degree == 1:
        a0, a1 = p.coeffs
        with mp.workprec(precision_bits + 16):
            root = bl.exact_ball(Fraction(-a0, a1))
        return PCFParameterSet(precision_bits, (root,))

    import numpy as np

    z = _aberth_f64(evaluator, evaluator.starts_f64(p))
    wp = precision_bits + 64
    # each root's current point: the Gaussian integer re[j] + i*im[j] on the
    # grid 2^-wp
    re = np.array([grid_from_float(x, wp) for x in z.real.tolist()], dtype=object)
    im = np.array([grid_from_float(y, wp) for y in z.imag.tolist()], dtype=object)
    wp_limit = max(MAX_PRECISION_BITS + 64, wp)  # always at least one pass
    disks: list = [None] * degree
    todo = np.arange(degree)
    while True:
        radii: list = []
        for b0 in range(0, todo.size, _BATCH):
            batch = todo[b0 : b0 + _BATCH]
            bre, bim = re[batch], im[batch]
            radii += _certify_lanes(evaluator, bre, bim, wp, degree, precision_bits)
            re[batch], im[batch] = bre, bim
        # the disks leave the grid; the disjointness check always covers the
        # whole set, so the set returned has passed it once as a whole
        with mp.workprec(wp):
            for j, r in zip(todo, radii):
                disks[j] = None if r is None else FixedBall(re[j], im[j], r, wp).ball()
            overlapping = _overlapping(disks)
        todo = np.array(sorted({j for j, b in enumerate(disks) if b is None} | overlapping))
        if not todo.size:
            # a disk's center is its root's point, so this is the order of
            # the centers
            order = sorted(range(degree), key=lambda j: (re[j], im[j]))
            return PCFParameterSet(precision_bits, tuple(disks[j] for j in order))
        if 2 * wp > wp_limit:
            raise PrecisionExhausted(
                f"could not certify {degree} disjoint root disks at {MAX_PRECISION_BITS} bits"
            )
        # the same points on the grid of the doubled precision; only the
        # leftover roots move, the rest keep their points and their disks
        re <<= wp
        im <<= wp
        wp *= 2
        _aberth_sweeps(evaluator, re, im, todo, wp)


# -- derived queries -------------------------------------------------------------


def min_pairwise_distance(roots: PCFParameterSet | Sequence[bl.ComplexBall]) -> mp.mpf:
    """Rigorous lower bound on the minimum pairwise root distance."""
    import numpy as np

    balls = roots.roots if isinstance(roots, PCFParameterSet) else tuple(roots)
    if len(balls) < 2:
        raise ValueError("need at least two roots")
    cf = np.array([complex(b.center) for b in balls])
    slack = _rounding_slack(cf)
    # exact outward-rounded recheck of every pair whose float64 distance is
    # within a margin of the float64 minimum: the true minimizing pair's is
    # at most two center roundings above the true minimum, which is at most
    # two above the float64 minimum. One pass over the row blocks finds that
    # minimum, a second the pairs
    low = min(dist.min() for _, dist in _distance_rows(cf))
    cutoff = low * (1 + 1e-6) + slack + 1e-300
    best = None
    for i0, dist in _distance_rows(cf):
        for i, j in zip(*np.nonzero(dist <= cutoff)):
            if i + i0 >= j:
                continue
            lo = bl.dist_bounds(balls[i + i0], balls[j])[0]
            best = lo if best is None else min(best, lo)
    return best


# -- cache files ------------------------------------------------------------------


def poly_hash(p: IntPolynomial) -> str:
    return hashlib.sha256(serialize(p).encode()).hexdigest()


def _mpf_token(x: mp.mpf) -> str:
    # exact (sign, mantissa, exponent) triple; stable across runs by construction
    sign, man, exp, _bc = x._mpf_
    return f"{sign}:{man:x}:{exp}"


# the writer's token, mpmath's normal form: sign 0 or 1, an odd lowercase hex
# mantissa and a plain decimal exponent, or 0:0:0 for zero; a root line is
# three tokens, one space apart
_TOKEN = r"(?:([01]):((?:[1-9a-f][0-9a-f]*)?[13579bdf]):(0|-?[1-9][0-9]*)|0:0:0)"
_ROOT_LINE = re.compile(" ".join([_TOKEN] * 3))


def _mpf_from_token(sign, man_hex, exp) -> tuple:
    """The exact _mpf_ tuple of a canonical token's fields (all None for 0:0:0)."""
    if sign is None:
        return fzero
    man = MPZ(man_hex, 16)
    return (int(sign), man, int(exp), man.bit_length())


def roots_cache_path(root: Path, d: int, n: int, bits: int) -> Path:
    return Path(root) / "roots" / f"d{d}" / f"n{n}.p{bits}.roots"


def factor_roots_cache_path(root: Path, d: int, n: int, label: str, bits: int) -> Path:
    return Path(root) / "roots" / f"d{d}" / f"n{n}-{label}.p{bits}.roots"


def _body_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("".join(ln + "\n" for ln in lines).encode()).hexdigest()


def write_roots_cache(path: Path, poly: IntPolynomial, pset: PCFParameterSet) -> Path:
    body = [
        " ".join((_mpf_token(b.center.real), _mpf_token(b.center.imag), _mpf_token(b.radius)))
        for b in pset.roots
    ]
    lines = [
        "# pcf-lab roots v2",
        f"# poly-sha256={poly_hash(poly)}",
        f"# precision-bits={pset.precision_bits}",
        f"# count={len(pset.roots)}",
        f"# roots-sha256={_body_digest(body)}",
    ]
    atomic_write_text(path, "\n".join(lines + body) + "\n")
    return path


def read_roots_cache(path: Path, poly: IntPolynomial, bits: int):
    """The cached root set, or None when the file is missing, is not a v2
    file for this polynomial and precision, fails its root-line digest, or
    has a root line the writer would not write (_ROOT_LINE). Each token goes
    straight to its exact _mpf_ tuple."""
    path = Path(path)
    if not path.exists():
        return None
    lines = path.read_text().splitlines()
    if len(lines) < 5 or lines[0] != "# pcf-lab roots v2":
        return None
    if lines[1] != f"# poly-sha256={poly_hash(poly)}":
        return None
    if lines[2] != f"# precision-bits={bits}":
        return None
    body = lines[5:]
    if lines[4] != f"# roots-sha256={_body_digest(body)}":
        return None
    # anything truncated or garbled is a miss: the caller recomputes and rewrites
    key, _, count = lines[3].partition("=")
    balls = []
    try:
        if key != "# count" or int(count) != len(body):
            return None
        # built from the exact tokens: a center or radius longer than the
        # working precision, as a repaired root's is, is not rounded
        for ln in body:
            m = _ROOT_LINE.fullmatch(ln)
            if m is None:
                return None
            g = m.groups()
            center = mp.mp.make_mpc((_mpf_from_token(*g[:3]), _mpf_from_token(*g[3:6])))
            balls.append(bl.ComplexBall(center, mp.mp.make_mpf(_mpf_from_token(*g[6:]))))
    except ValueError:
        return None
    return PCFParameterSet(bits, tuple(balls))

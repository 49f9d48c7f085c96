"""Certified simultaneous root finding for integer polynomials.

Pipeline: deterministic starting points, a vectorized float64 Aberth-Ehrlich
stage, Newton polishing, then an outward-rounded inclusion disk per root.
The evaluator picks the starts: orbit evaluators of pcflab.critical_orbit
put them on a lemniscate of the Multibrot set (a pure function of d and the
degree), every other polynomial gets root-modulus annuli from its coefficient
hull (fixed 0.4 rad offset). Either way they are float64 functions of the
input alone, so cache files are byte-reproducible. The
certificate per approximation z is the classical inclusion disk of radius
deg * |p(z)/p'(z)| (at least one root lies inside, because p'/p is the sum of
reciprocal root distances); when all deg disks are pairwise disjoint, each
contains exactly one root and the set is a complete isolation certificate.

Polishing and certification run on the fixed-point kernel of
pcflab.fixedball, on the grid 2^-wp for working precision wp, from the
float64 Aberth point to the finished disk, in batches of _BATCH roots: each
evaluator call takes a batch as one FixedPointArray or FixedBallArray, whose
lanes give bit for bit the scalar results. Each root enters the grid once,
rounded to nearest. Polishing takes its Newton steps p/p' on points
(Gaussian integers on the grid), each step floored, and tests its stop rule
in integers; the batch steps in lockstep and each root leaves at its own
stop. The polished point is floored to wp bits, so it is still a grid point
and the exact center of a ball of radius 0. Certification evaluates the
batch of those balls at once and takes each radius deg * |p/p'| * 1.0000001
from the integer modulus bounds of the value and derivative balls, rounded
up to whole grid units, and tests the target in integers too; each disk
leaves the grid once, as a ComplexBall. A batch whose evaluation raises
ZeroDivisionError is split in halves and retried, so only the root that
raises loses its Newton step or its disk. Points and balls floor every
product and quotient the same way, so their centers are identical, and the
order of operations in each evaluator formula fixes the rounding, hence the
polished points, the disks and the cache bytes, whatever the batch size.

Precision escalates locally: a root whose disk misses the radius target or is
not proven disjoint from another disk goes to doubled working precision alone,
gets a few Aberth corrections against the other points held fixed, is
polished again and gets a new disk. Every other root keeps its disk. The
pairwise disjointness check runs over the whole set after every round, so the
set returned has passed it as a whole.

Lattice factors get division-free orbit-recurrence evaluators from
pcflab.critical_orbit; other polynomials, such as a base point's minimal
polynomial, go through Horner on the exact coefficients, whose evaluator is
also the one check of such input: squarefree, with no coefficient wider than
MAX_COEFF_BITS. Lattice factors are squarefree by theorem, and the
certificate proves it again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

from . import balls as bl
from .cacheio import atomic_write_text
from .errors import NonSquarefreeInput, PrecisionExhausted
from .fixedball import FixedBall, FixedBallArray, FixedPoint, FixedPointArray, isqrt_array
from .polynomials import IntPolynomial, horner, is_squarefree, lower_hull, serialize

DEFAULT_PRECISION_BITS = 256
MAX_PRECISION_BITS = 4096
# widest coefficient CoefficientEvaluator accepts: wider ones do not survive
# the float64 stage's power-of-two scaling
MAX_COEFF_BITS = 900
_START_ANGLE_OFFSET = 0.4  # radians; fixed for reproducibility
# rows per block of the float64 pairwise kernels: 32 x 1024 complex128 is
# 512 KiB, within L2, and on g_11 blocks of 64 to 512 rows ran slower. No
# row's result depends on the block size.
_ROW_BLOCK = 32
# roots per batch of the fixed-point passes: Newton steps and disks run on
# FixedPointArray/FixedBallArray lanes of this many roots. On g_11 of d=2,
# one batch per pass (1024 roots) peaked 2 MB above batches of 128, which
# peak about 0.2 MB above one root at a time; batches of 64 and 32 took 12 %
# and 34 % longer. No root's result depends on the batch size.
_BATCH = 128


def _log2_abs(c: int) -> float:
    bits = abs(c).bit_length()
    return float(np.log2(abs(c) >> max(0, bits - 64)) + max(0, bits - 64))


class Evaluator:
    """(value, derivative) of one polynomial, each formula written once.

    Subclasses write value_deriv(z, num) over any scalar type with + - * /
    and ** by an int whose right operand may be an exact integer; num lifts
    an exact integer into z's type. Both grid forms run it on the fixed-point
    kernel pcflab.fixedball, taking and returning its types: newton_mp, for
    polishing and the repair passes' mp Aberth sweeps, maps a FixedPoint to
    the Newton step value / derivative, a FixedPoint floored on the same grid;
    value_deriv_ball, for certification, maps a FixedBall to the value and
    derivative FixedBalls.
    Polishing and certification pass a whole batch of roots at once, as a
    FixedPointArray or FixedBallArray, and the same formula then runs on
    every lane. The point and ball centers are identical, so polishing pays
    for no radius.
    The vectorized float64 form newton_f64 is the one special case written
    separately; starts_f64(p) gives the float64 starting points of the
    Aberth stage. The kernel's operation order is the formula's, so the formula
    fixes the rounding, hence the polished points, the certified disks and the
    root-cache bytes.
    """

    def newton_mp(self, zf: FixedPoint) -> FixedPoint:
        val, der = self.value_deriv(zf, zf.lift)
        return val / der

    def value_deriv_ball(self, zb: FixedBall) -> tuple[FixedBall, FixedBall]:
        return self.value_deriv(zb, zb.lift)


class CoefficientEvaluator(Evaluator):
    """Horner evaluation from the exact coefficients, for arbitrary input.

    The one place where input the finder knows nothing about is checked: it
    raises ValueError when a coefficient is wider than MAX_COEFF_BITS, and
    NonSquarefreeInput when gcd(p, p') is not constant. The float64 path
    scales the whole polynomial by a power of two (which moves no roots), and
    coefficients of up to MAX_COEFF_BITS bits survive that scaling, as do
    their roots, which stay below 2^(MAX_COEFF_BITS + 1) in modulus.
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
        shift = max(0, coeff_bits - 500)
        self._c64, self._d64 = (
            np.array([float(Fraction(c, 1 << shift)) for c in q.coeffs], dtype=np.float64)
            for q in (p, self.dpoly)
        )

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

    def newton_f64(self, z: np.ndarray) -> np.ndarray:
        zero = np.zeros_like(z)
        with np.errstate(all="ignore"):
            return horner(self._c64, z, zero) / horner(self._d64, z, zero)

    def value_deriv(self, z, num):
        return horner(self.poly.coeffs, z, num(0)), horner(self.dpoly.coeffs, z, num(0))


@dataclass(frozen=True)
class PCFParameterSet:
    """Certified, isolated roots of one factor polynomial, sorted by center."""

    source: object  # FactorDescriptor or IntPolynomial
    precision_bits: int
    roots: tuple[bl.ComplexBall, ...]

    def __len__(self) -> int:
        return len(self.roots)


# -- float64 Aberth stage -------------------------------------------------------


def _pairwise_inv_sum(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_k 1/(z_i - z_k) for the selected rows i (k runs over everything)."""
    out = np.empty(idx.size, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for b0 in range(0, idx.size, _ROW_BLOCK):
            sel = idx[b0 : b0 + _ROW_BLOCK]
            diff = z[sel, None] - z[None, :]
            diff[np.arange(sel.size), sel] = np.inf
            out[b0 : b0 + sel.size] = (1.0 / diff).sum(axis=1)
    return out


def _aberth_f64(evaluator, z0: np.ndarray, max_sweeps: int = 800, tol: float = 5e-14):
    """Jacobi-style Aberth sweeps; converged points freeze (but keep repelling)."""
    z = z0.copy()
    n = z.size
    nudge = 0.01 + 0.017j
    active = np.arange(n)
    settle = np.zeros(n, dtype=np.int64)  # consecutive small-step sweeps per point
    for _ in range(max_sweeps):
        with np.errstate(all="ignore"):
            za = z[active]
            nray = evaluator.newton_f64(za)
            bad = ~np.isfinite(nray)
            if bad.any():
                za[bad] = za[bad] * (1 + 1e-9) + nudge * 1e-9 * (1 + np.abs(za[bad]))
                z[active] = za
                nray[bad] = 0.0
            s = _pairwise_inv_sum(z, active)
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
            ok = np.isfinite(rel) & (rel < tol) & ~bad
            settle[active] = np.where(ok, settle[active] + 1, 0)
            active = np.nonzero(settle < 2)[0]
            if active.size == 0:
                break
    return z


def _aberth_mp(evaluator, zs: list, sweeps: int, idx: Sequence[int]) -> list:
    """Gauss-Seidel Aberth sweeps that move the points in idx, in that order.

    Every other point stays fixed but still repels, so a sweep costs
    O(len(idx) * n).
    """
    n = len(zs)
    for _ in range(sweeps):
        moved = mp.mpf(0)
        for j in idx:
            try:
                nray = evaluator.newton_mp(FixedPoint.from_mpc(zs[j], mp.mp.prec)).center()
            except ZeroDivisionError:
                continue
            s = mp.mpc(0)
            for k in range(n):
                if k != j:
                    diff = zs[j] - zs[k]
                    if diff != 0:
                        s += 1 / diff
            denom = 1 - nray * s
            w = nray / denom if denom != 0 else nray
            zs[j] = zs[j] - w
            moved = max(moved, abs(w) / (1 + abs(zs[j])))
        if moved < mp.mpf(2) ** (-mp.mp.prec + 8):
            break
    return zs


# -- polishing and certification ------------------------------------------------


def _split_retry(f, lanes: np.ndarray) -> list:
    """[(sub, f(sub))] over lanes: f on the whole batch, and on halves of a
    batch that raises ZeroDivisionError, down to single lanes, whose
    result is then None. Lanes are independent, so no lane's result
    depends on the batch it ran in."""
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


def _polish_lanes(evaluator, re: np.ndarray, im: np.ndarray, precision_bits: int) -> None:
    """At most 10 Newton steps on the points re + i*im of the grid 2^-wp,
    wp = mp.prec, in place and in lockstep: each point stops at its first
    step w with |w| <= 2^-(bits+24) * (1 + |z|), or when its step raises
    ZeroDivisionError."""
    wp = mp.mp.prec
    shift = 2 * (precision_bits + 24)

    def newton(sub):
        return evaluator.newton_mp(FixedPointArray(re[sub], im[sub], wp))

    active = np.arange(re.size)
    for _ in range(10):
        moving = []
        for sub, w in _split_retry(newton, active):
            if w is None:
                continue
            z = FixedPointArray(re[sub], im[sub], wp) - w
            re[sub], im[sub] = z.re, z.im
            # the stop rule in units of 2^-wp, squared; isqrt bounds |z| from below
            one_plus_z = (1 << wp) + isqrt_array(z.re * z.re + z.im * z.im)
            moving.append(sub[(w.re * w.re + w.im * w.im) << shift > one_plus_z * one_plus_z])
        active = np.concatenate(moving) if moving else active[:0]
        if not active.size:
            return


def _disk_radii(evaluator, re: np.ndarray, im: np.ndarray, degree: int, precision_bits: int):
    """Per grid point re + i*im: the radius deg*|p/p'|*1.0000001 in units of
    2^-wp, wp = mp.prec, rounded up, or None when the test fails, the ball
    evaluation raises ZeroDivisionError, or the radius misses the
    2^-(bits/2) * (1 + |z|) target."""
    wp = mp.mp.prec

    def balls(sub):
        return evaluator.value_deriv_ball(FixedBallArray(re[sub], im[sub], 0, wp))

    radii: list = [None] * re.size
    for sub, vd in _split_retry(balls, np.arange(re.size)):
        if vd is None:
            continue
        val, der = vd
        der_lo = der.abs_bounds()[0]
        live = der_lo > 0
        num = degree * val.abs_bounds()[1] * 10000001 << wp
        rad = -(-num // (np.where(live, der_lo, 1) * 10**7))
        # the target; isqrt bounds |z| from below
        zr, zi = re[sub], im[sub]
        live &= rad << (precision_bits // 2) <= (1 << wp) + isqrt_array(zr * zr + zi * zi)
        for k in np.nonzero(live)[0]:
            radii[sub[k]] = rad[k]
    return radii


def _polished_disks(evaluator, zs: list, batch: Sequence[int], degree: int, precision_bits: int):
    """Polish the roots zs[j], j in batch, in place and return their disks,
    None where the disk fails, on the grid 2^-wp, wp = mp.prec.

    Each root enters the grid rounded to nearest and leaves it once, as its
    disk. The polished point is floored to wp bits, so it is still a grid
    point and the exact center of a ball of radius 0 for _disk_radii.
    """
    wp = mp.mp.prec
    pts = [FixedPoint.from_mpc(zs[j], wp) for j in batch]
    re = np.array([z.re for z in pts], dtype=object)
    im = np.array([z.im for z in pts], dtype=object)
    _polish_lanes(evaluator, re, im, precision_bits)
    re = np.array([_floor_bits(x, wp) for x in re], dtype=object)
    im = np.array([_floor_bits(x, wp) for x in im], dtype=object)
    radii = _disk_radii(evaluator, re, im, degree, precision_bits)
    disks = []
    for k, j in enumerate(batch):
        zs[j] = FixedPoint(re[k], im[k], wp).center()
        disks.append(None if radii[k] is None else FixedBall(re[k], im[k], radii[k], wp).ball())
    return disks


# -- disjointness ----------------------------------------------------------------


def _distance_rows(cf: np.ndarray):
    """(i0, |cf[i] - cf[k]|) for the rows i of each block from i0 on, with
    inf where k = i."""
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
    if not np.isfinite(cf).all():
        raise ValueError("a disk center is too large for the float64 distance prefilter")
    return 4 * float(np.spacing(np.abs(cf).max()))


def _overlapping(disks: list) -> set[int]:
    """Indices of the disks not proven disjoint from every other disk.

    None entries (failed disks) are skipped. A float64 prefilter with a margin
    that covers the center rounding picks the close pairs; each gets the
    exact ball test.
    """
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


def _sort_key(b: bl.ComplexBall):
    return (b.center.real, b.center.imag, b.radius)


def all_roots(
    p: IntPolynomial,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    evaluator=None,
    max_precision: int = MAX_PRECISION_BITS,
    source=None,
) -> PCFParameterSet:
    """All complex roots of a squarefree p with disjoint certified disks.

    Every input of degree >= 2 starts from evaluator.starts_f64(p) and the
    float64 Aberth stage; the arbitrary-precision sweeps serve only the
    repair passes. Degree 1 is solved exactly and needs no evaluator. With
    no evaluator, p gets a CoefficientEvaluator, which refuses (ValueError)
    a coefficient wider than MAX_COEFF_BITS and raises NonSquarefreeInput
    when gcd(p, p') is nonconstant. An orbit evaluator's factor is not
    checked: deg pairwise disjoint inclusion disks, each holding a root,
    prove deg simple roots. Raises PrecisionExhausted when certification
    still fails at max_precision.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    degree = p.degree
    if degree == 1:
        a0, a1 = p.coeffs
        with mp.workprec(precision_bits + 16):
            root = bl.exact_ball(Fraction(-a0, a1))
        return PCFParameterSet(source if source is not None else p, precision_bits, (root,))
    if evaluator is None:
        evaluator = CoefficientEvaluator(p)

    zs = [mp.mpc(z) for z in _aberth_f64(evaluator, evaluator.starts_f64(p))]
    wp = precision_bits + 64
    wp_limit = max(max_precision + 64, wp)  # always at least one pass
    disks: list = [None] * degree
    todo: Sequence[int] = range(degree)
    repair = False
    while wp <= wp_limit:
        with mp.workprec(wp):
            if repair:
                # only the leftover roots move; the rest keep their points
                # and their disks
                _aberth_mp(evaluator, zs, 4, todo)
            for b0 in range(0, len(todo), _BATCH):
                batch = todo[b0 : b0 + _BATCH]
                for j, disk in zip(
                    batch, _polished_disks(evaluator, zs, batch, degree, precision_bits)
                ):
                    disks[j] = disk
            # the disjointness check always covers the whole set, so the set
            # returned has passed it once as a whole
            failed = {j for j, b in enumerate(disks) if b is None}
            todo = sorted(failed | _overlapping(disks))
            if not todo:
                disks.sort(key=_sort_key)
                return PCFParameterSet(
                    source if source is not None else p, precision_bits, tuple(disks)
                )
        wp *= 2
        repair = True
    raise PrecisionExhausted(
        f"could not certify {degree} disjoint root disks at {max_precision} bits"
    )


# -- derived queries -------------------------------------------------------------


def min_pairwise_distance(roots: PCFParameterSet | Sequence[bl.ComplexBall]) -> mp.mpf:
    """Rigorous lower bound on the minimum pairwise root distance."""
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


def closest_root_to(
    roots: PCFParameterSet | Sequence[bl.ComplexBall], alpha: bl.ComplexBall
) -> tuple[int, tuple[mp.mpf, mp.mpf]]:
    """Index of the root nearest alpha plus rigorous (lower, upper) distance bounds.

    Ties on overlapping bounds resolve by center distance, then index.
    """
    balls = roots.roots if isinstance(roots, PCFParameterSet) else tuple(roots)
    if not balls:
        raise ValueError("empty root set")
    best_idx = 0
    best_center = None
    for i, b in enumerate(balls):
        dc = abs(b.center - alpha.center)
        if best_center is None or dc < best_center:
            best_center = dc
            best_idx = i
    return best_idx, bl.dist_bounds(balls[best_idx], alpha)


# -- cache files ------------------------------------------------------------------


def poly_hash(p: IntPolynomial) -> str:
    return hashlib.sha256(serialize(p).encode()).hexdigest()


def _mpf_token(x: mp.mpf) -> str:
    # exact (sign, mantissa, exponent) triple; stable across runs by construction
    sign, man, exp, _bc = x._mpf_
    return f"{sign}:{man:x}:{exp}"


def _mpf_from_token(tok: str) -> tuple:
    """The exact _mpf_ value of a token, whatever the working precision."""
    sign, man_hex, exp = tok.split(":")
    man = int(man_hex, 16)
    return libmp.from_man_exp(-man if sign == "1" else man, int(exp))


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


def read_roots_cache(path: Path, poly: IntPolynomial, bits: int, source=None):
    """The cached root set, or None when the file is missing, is not a v2
    file for this polynomial and precision, or fails its root-line digest."""
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
            re_t, im_t, r_t = ln.split()
            center = mp.mp.make_mpc((_mpf_from_token(re_t), _mpf_from_token(im_t)))
            balls.append(bl.ComplexBall(center, mp.mp.make_mpf(_mpf_from_token(r_t))))
    except ValueError:
        return None
    return PCFParameterSet(source if source is not None else poly, bits, tuple(balls))

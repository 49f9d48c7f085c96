"""Certified root finding: frozen oracle values, Vieta containment, nesting."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import pcflab.balls as bl
from pcflab import critical_orbit
from pcflab.critical_orbit import (
    enumerate_factors,
    exact_period_factor,
    factor_evaluator,
    gleason,
    gleason_evaluator,
    misiurewicz_factor,
)
from pcflab import polynomials, rootfinder
from pcflab.errors import NonSquarefreeInput, PrecisionExhausted
from pcflab.fixedball import FixedBall, FixedBallArray, FixedPoint
from pcflab.polynomials import IntPolynomial
from pcflab.rootfinder import (
    CoefficientEvaluator,
    ScaledArray,
    all_roots,
    min_pairwise_distance,
    read_roots_cache,
    roots_cache_path,
    write_roots_cache,
)

from oracles import cubic_roots_oracle

P = IntPolynomial
CUBIC = [1, 1, 2, 1]  # x^3 + 2x^2 + x + 1, the period-3 factor


def approx_roots(pset):
    return sorted(complex(b.center) for b in pset.roots)


class TestAllRoots:
    def test_linear(self):
        ps = all_roots(P([1, 1]), 128, CoefficientEvaluator(P([1, 1])))
        assert len(ps.roots) == 1
        assert complex(ps.roots[0].center) == -1

    def test_two_roots(self):
        ps = all_roots(P([0, 1, 1]), 128, CoefficientEvaluator(P([0, 1, 1])))
        got = sorted(complex(b.center).real for b in ps.roots)
        assert got == pytest.approx([-1.0, 0.0], abs=1e-30)

    def test_cubic_against_independent_oracle(self):
        want = sorted((complex(r) for r in cubic_roots_oracle(CUBIC)), key=lambda z: (z.real, z.imag))
        ps = all_roots(P(CUBIC), 256, CoefficientEvaluator(P(CUBIC)))
        got = sorted((complex(b.center) for b in ps.roots), key=lambda z: (z.real, z.imag))
        for w, g in zip(want, got):
            assert abs(w - g) < 1e-50
        # frozen decimals from the oracle
        assert got[0].real == pytest.approx(-1.75487766624669276, abs=1e-15)
        assert got[1] == pytest.approx(-0.12256116687665361 - 0.74486176661974423j, abs=1e-14)

    def test_radius_meets_contract(self):
        bits = 192
        ps = all_roots(P(CUBIC), bits, CoefficientEvaluator(P(CUBIC)))
        for b in ps.roots:
            assert b.radius <= mp.mpf(2) ** (-bits // 2) * (1 + abs(b.center))

    def test_rejects_non_squarefree(self):
        with pytest.raises(NonSquarefreeInput):
            CoefficientEvaluator(P([1, 2, 1]))  # (x+1)^2

    def test_evaluator_is_required(self):
        # no Horner fallback: a lattice factor without its orbit evaluator
        # fails at once, not after a 12-18 s run to PrecisionExhausted
        with pytest.raises(TypeError):
            all_roots(exact_period_factor(2, 8).poly, 128)

    def test_sorted_by_real_then_imag(self):
        ps = all_roots(gleason(2, 4), 128, evaluator=gleason_evaluator(2, 4))
        keys = [(b.center.real, b.center.imag) for b in ps.roots]
        assert keys == sorted(keys)

    def test_vieta_containment_random(self):
        rng = random.Random(5)
        for _ in range(12):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 7))]
            p = P(coeffs)
            if p.is_zero or p.degree < 2:
                continue
            from pcflab.polynomials import squarefree_part

            p = squarefree_part(p)
            if p.degree < 2:
                continue
            ps = all_roots(p, 128, CoefficientEvaluator(p))
            with mp.workprec(192):
                ssum = FixedBall(0, 0, 0, 192)
                prod = ssum.lift(1)
                for b in ps.roots:
                    fb = FixedBall.from_ball(b, 192)
                    ssum = ssum + fb
                    prod = prod * fb
                ssum, prod = ssum.ball(), prod.ball()
                a = p.coeffs
                want_sum = mp.mpf(Fraction(-a[-2], a[-1]).numerator) / Fraction(
                    -a[-2], a[-1]
                ).denominator
                lo, hi = bl.dist_bounds(ssum, bl.exact_ball(Fraction(-a[-2], a[-1])))
                assert lo == 0  # the exact value lies inside the sum ball
                sign = -1 if p.degree % 2 else 1
                lo, hi = bl.dist_bounds(prod, bl.exact_ball(Fraction(sign * a[0], a[-1])))
                assert lo == 0

    def test_nested_on_precision_doubling(self):
        # pair by proximity: conjugate pairs share a real part, so the sort
        # order between them can flip across precisions
        p = exact_period_factor(2, 5).poly
        lo_ps = all_roots(p, 128, CoefficientEvaluator(p))
        hi_ps = all_roots(p, 256, CoefficientEvaluator(p))
        assert len(lo_ps.roots) == len(hi_ps.roots)
        with mp.workprec(320):
            for b in hi_ps.roots:
                a = min(lo_ps.roots, key=lambda r: abs(r.center - b.center))
                # refined ball sits inside the coarse one (tiny slack for rounding)
                assert abs(a.center - b.center) + b.radius <= a.radius * (
                    1 + mp.mpf(1e-10)
                ) + mp.mpf(2) ** (-300)

    def test_refuses_coefficients_over_900_bits(self):
        # 2^900 - 1 is the widest accepted coefficient
        p = P([-(2**900 - 1), 0, 1])
        assert len(all_roots(p, 128, CoefficientEvaluator(p))) == 2
        # wider ones are refused by the evaluator, before all_roots can run:
        # the float64 stage, which every input of degree >= 2 takes, cannot
        # hold them, and the float64 centers of roots near 10^400 would be inf
        a = 10**400
        for p in (P([-(10**350), 0, 1]), P([-a, 1]) * P([-a - 1, 1])):
            with pytest.raises(ValueError, match="900-bit limit"):
                CoefficientEvaluator(p)

    def test_linear_needs_no_evaluator(self):
        # degree 1 is solved exactly, whatever the width of its coefficients,
        # and the evaluator is not read
        ps = all_roots(P([-(10**400), 1]), 128, None)
        (b,) = ps.roots
        with mp.workprec(2000):
            assert bl.dist_bounds(b, bl.exact_ball(10**400))[0] == 0
        assert b.radius <= mp.mpf(10) ** 400 * mp.mpf(2) ** -128

    def test_orbit_evaluators_skip_the_squarefree_check(self, monkeypatch):
        calls = []
        real = rootfinder.is_squarefree

        def counted(p):
            calls.append(p.degree)
            return real(p)

        monkeypatch.setattr(rootfinder, "is_squarefree", counted)
        monkeypatch.setattr(polynomials, "is_squarefree", counted)
        for desc in enumerate_factors(2, 6):
            all_roots(desc.poly, 128, evaluator=factor_evaluator(desc))
        all_roots(gleason(2, 6), 128, evaluator=gleason_evaluator(2, 6))
        assert calls == []
        # the count does see the check on coefficient input
        all_roots(P(CUBIC), 128, CoefficientEvaluator(P(CUBIC)))
        assert calls == [3]


class TestDerivedQueries:
    def test_min_pairwise_simple(self):
        ps = all_roots(P([0, 1, 1]), 128, CoefficientEvaluator(P([0, 1, 1])))
        assert float(min_pairwise_distance(ps)) == pytest.approx(1.0, rel=1e-20)

    def test_min_pairwise_cubic(self):
        # conjugate pair distance = 2 * 0.74486176... frozen from the oracle
        ps = all_roots(P(CUBIC), 192, CoefficientEvaluator(P(CUBIC)))
        assert float(min_pairwise_distance(ps)) == pytest.approx(1.4897235332394885, rel=1e-12)

    def test_min_pairwise_covers_center_rounding(self):
        # the float64 distances are 1.0000889e-12 and 1.0000501e-12: rounding
        # 2 + 1e-12 to float64 moves it by far more than a relative 1e-6 of
        # the distance, and the pair at 2 is the closer one
        with mp.workprec(200):
            r = mp.mpf(2) ** -100
            centers = [2, 2 + mp.mpf("1e-12"), mp.mpf("1e-3"), mp.mpf("1e-3") + mp.mpf("1.00005e-12")]
            balls = [bl.ComplexBall(mp.mpc(c), r) for c in centers]
            lo = min_pairwise_distance(balls)
            assert mp.mpf("1e-12") - 2 * r - mp.mpf(2) ** -190 <= lo <= mp.mpf("1e-12")

    def test_min_pairwise_refuses_centers_beyond_float64(self):
        # the float64 centers are inf and their distances nan, which no
        # prefilter cutoff selects: the pairs must not be skipped silently
        with mp.workprec(3000):
            a = mp.mpf(10) ** 400
            balls = [bl.ComplexBall(mp.mpc(c), mp.mpf(0)) for c in (a, a + 1, -a)]
            with pytest.raises(ValueError, match="float64"):
                min_pairwise_distance(balls)
            with pytest.raises(ValueError, match="float64"):
                rootfinder._overlapping(balls)

    def test_min_pairwise_needs_two(self):
        ps = all_roots(P([1, 1]), 128, CoefficientEvaluator(P([1, 1])))
        with pytest.raises(ValueError):
            min_pairwise_distance(ps)

    @staticmethod
    def closest(ps, alpha):
        """The root nearest alpha by center, with certified distance bounds."""
        b = min(ps.roots, key=lambda r: abs(r.center - alpha.center))
        return b, bl.dist_bounds(b, alpha)

    def test_closest_root(self):
        ps = all_roots(P([0, 1, 1]), 128, CoefficientEvaluator(P([0, 1, 1])))
        with mp.workprec(160):
            b, (lo, hi) = self.closest(ps, bl.exact_ball(1))
            assert abs(complex(b.center)) < 1e-30
            assert lo <= 1 <= hi
            b, (lo, hi) = self.closest(ps, bl.exact_ball(Fraction(-9, 10)))
            assert abs(complex(b.center) + 1) < 1e-30
            assert abs(float(lo) - 0.1) < 1e-12

    def test_closest_root_cubic_from_one(self):
        # closest root to 1 is one of the conjugate pair; expected distance
        # recomputed from the companion-free oracle roots
        want = min(abs(1 - complex(r)) for r in cubic_roots_oracle(CUBIC))
        assert want == pytest.approx(1.3472054872, rel=1e-9)  # frozen digits
        ps = all_roots(P(CUBIC), 192, CoefficientEvaluator(P(CUBIC)))
        with mp.workprec(224):
            b, (lo, hi) = self.closest(ps, bl.exact_ball(1))
        assert abs(complex(b.center).real + 0.12256116687665361) < 1e-12
        assert float(lo) == pytest.approx(want, rel=1e-12)
        assert lo <= hi


class TestRootCache:
    def test_roundtrip_and_determinism(self, tmp_path):
        p = exact_period_factor(2, 4).poly
        ps = all_roots(p, 128, CoefficientEvaluator(p))
        path = roots_cache_path(tmp_path, 2, 4, 128)
        write_roots_cache(path, p, ps)
        data1 = path.read_bytes()
        back = read_roots_cache(path, p, 128)
        assert back is not None
        assert len(back.roots) == len(ps.roots)
        for a, b in zip(ps.roots, back.roots):
            assert a.center == b.center and a.radius == b.radius
        # recompute + rewrite: byte identical
        ps2 = all_roots(p, 128, CoefficientEvaluator(p))
        write_roots_cache(path, p, ps2)
        assert path.read_bytes() == data1

    def test_cache_rejects_wrong_poly(self, tmp_path):
        p = exact_period_factor(2, 4).poly
        ps = all_roots(p, 128, CoefficientEvaluator(p))
        path = roots_cache_path(tmp_path, 2, 4, 128)
        write_roots_cache(path, p, ps)
        other = exact_period_factor(2, 3).poly
        assert read_roots_cache(path, other, 128) is None

    def test_cache_rejects_truncated_or_garbled(self, tmp_path):
        p = exact_period_factor(2, 5).poly
        path = roots_cache_path(tmp_path, 2, 5, 128)
        write_roots_cache(path, p, all_roots(p, 128, CoefficientEvaluator(p)))
        lines = path.read_text().splitlines()
        assert lines[3] == "# count=15"
        path.write_text("\n".join(lines[:14]) + "\n")  # 9 of 15 root lines
        assert read_roots_cache(path, p, 128) is None
        for bad in ("0:zz:-3 0:1:0 0:1:-200", "0:1:0 0:1:0", "0:1:0 0:1:0 1:1:-200"):
            path.write_text("\n".join(lines[:5] + [bad] + lines[6:]) + "\n")
            assert read_roots_cache(path, p, 128) is None
        path.write_text("\n".join(lines[:3] + ["# count=fifteen"] + lines[4:]) + "\n")
        assert read_roots_cache(path, p, 128) is None


    @staticmethod
    def written(tmp_path):
        p = exact_period_factor(2, 4).poly
        path = roots_cache_path(tmp_path, 2, 4, 128)
        write_roots_cache(path, p, all_roots(p, 128, CoefficientEvaluator(p)))
        return p, path

    def test_cache_rejects_moved_center(self, tmp_path):
        # the first center's mantissa raised by 2^-8 relative: a center moved
        # by far more than its radius, in a line that still parses
        p, path = self.written(tmp_path)
        lines = path.read_text().splitlines()
        re_t, rest = lines[5].split(" ", 1)
        sign, man, exp = re_t.split(":")
        man = int(man, 16)
        lines[5] = f"{sign}:{man + (man >> 8):x}:{exp} {rest}"
        path.write_text("\n".join(lines) + "\n")
        assert read_roots_cache(path, p, 128) is None

    @pytest.mark.parametrize("bad", [
        "2:3:0", "-1:3:0", "0:-3:0",  # sign other than 0 or 1, signed mantissa
        "0:0x3:0", "0:1_1:0", "0:3:1_0", "0:3:+1", "0:3:01", "0:3:-0",  # other spellings
        "0:3: 0", "0:3:0 ", "0:3:\t0",  # spaces
        "0:6:0", "0:B:0", "0:03:0",  # even, upper-case, leading zero
        "1:0:0", "0:0:5", "0:0:-456",  # zeros other than 0:0:0
    ])
    def test_cache_rejects_noncanonical_token(self, tmp_path, bad):
        # the first center's real part respelled, with the roots-sha256 line
        # recomputed, so only the token's form can make the miss
        p, path = self.written(tmp_path)
        lines = path.read_text().splitlines()
        first, rest = lines[5].split(" ", 1)

        def rewrite(token):
            body = [f"{token} {rest}"] + lines[6:]
            digest = hashlib.sha256("".join(ln + "\n" for ln in body).encode()).hexdigest()
            path.write_text("\n".join(lines[:4] + [f"# roots-sha256={digest}"] + body) + "\n")

        rewrite(first)
        assert read_roots_cache(path, p, 128) is not None
        rewrite(bad)
        assert read_roots_cache(path, p, 128) is None

    def test_repaired_roots_read_back_exactly(self, tmp_path):
        # with the coefficient evaluator, 13 of these 63 roots need a 384-bit
        # repair pass, so their centers carry more bits than bits + 64; read
        # back rounded, they moved by far more than their radii
        p = exact_period_factor(2, 7).poly
        ps = all_roots(p, 128, CoefficientEvaluator(p))
        path = roots_cache_path(tmp_path, 2, 7, 128)
        write_roots_cache(path, p, ps)
        back = read_roots_cache(path, p, 128)
        assert back is not None and len(back.roots) == 63
        repaired = 0
        for a, b in zip(ps.roots, back.roots):
            assert a.center == b.center and a.radius == b.radius
            repaired += a.center.real._mpf_[3] > 128 + 64
        assert repaired > 0

    def test_v1_file_is_a_miss_and_gets_rewritten(self, tmp_path):
        from pcflab.cli import cached_root_sets

        p, path = self.written(tmp_path)
        v2 = path.read_bytes()
        lines = path.read_text().splitlines()
        assert lines[0] == "# pcf-lab roots v2" and lines[4].startswith("# roots-sha256=")
        path.write_text("\n".join(["# pcf-lab roots v1"] + lines[1:4] + lines[5:]) + "\n")
        assert read_roots_cache(path, p, 128) is None
        ps = cached_root_sets([(path, p, 128, CoefficientEvaluator(p))])[0]
        assert len(ps) == p.degree
        assert path.read_bytes() == v2


def scalars(z):
    """The scalar FixedPoints or FixedBalls of z: z itself, or one per lane
    of an array form."""
    if not isinstance(z.re, np.ndarray):
        return [z]
    if isinstance(z, FixedPoint):
        return [FixedPoint(re, im, z.prec) for re, im in zip(z.re, z.im)]
    rad = z.rad if isinstance(z.rad, np.ndarray) else [z.rad] * z.re.size
    return [FixedBall(re, im, r, z.prec) for re, im, r in zip(z.re, z.im, rad)]


def grid_complex(z):
    """The point of a scalar FixedPoint or FixedBall center, as a complex."""
    return complex(z.re / (1 << z.prec), z.im / (1 << z.prec))


class Widening:
    """Forwards to an evaluator and logs the grid precision of each point
    handed to newton_mp and value_deriv_ball, one entry per point of a batch.
    While that precision is below below, the value ball at points within 1e-6
    of a target is widened by 1 (2^prec grid units), so that root's inclusion
    disk misses its radius target; the other points' balls are kept."""

    def __init__(self, inner, targets=(), below=0):
        self.inner = inner
        self.targets = [complex(t) for t in targets]
        self.below = below
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def near_target(self, zb):
        """Per point of zb: whether it lies within 1e-6 of a target."""
        return [
            any(abs(grid_complex(z) - t) < 1e-6 for t in self.targets) for z in scalars(zb)
        ]

    def newton_mp(self, z):
        self.calls += [("newton_mp", z.prec)] * len(scalars(z))
        return self.inner.newton_mp(z)

    def value_deriv_ball(self, zb):
        self.calls += [("value_deriv_ball", zb.prec)] * len(scalars(zb))
        val, der = self.inner.value_deriv_ball(zb)
        if zb.prec < self.below:
            widen = np.array([n << val.prec for n in self.near_target(zb)], dtype=object)
            val = FixedBallArray(val.re, val.im, val.rad + widen, val.prec)
        return val, der

    def calls_above(self, prec):
        """(newton_mp, value_deriv_ball) calls made above working precision prec."""
        late = [name for name, wp in self.calls if wp > prec]
        return late.count("newton_mp"), late.count("value_deriv_ball")


def disk_key(b):
    return (b.center, b.radius)


def assert_pairwise_disjoint(pset):
    with mp.workprec(512):
        for i, a in enumerate(pset.roots):
            for b in pset.roots[i + 1 :]:
                assert bl.disjoint(a, b)


class TestLocalizedRepair:
    BITS = 128
    FIRST_WP = BITS + 64  # working precision of the first pass

    @pytest.fixture(scope="class")
    def desc(self):
        return exact_period_factor(2, 7)  # degree 63, no root escalates

    @pytest.fixture(scope="class")
    def plain(self, desc):
        return all_roots(desc.poly, self.BITS, evaluator=factor_evaluator(desc))

    @pytest.mark.parametrize("k", [1, 2])
    def test_only_failing_roots_are_repaired(self, desc, plain, k):
        targets = [plain.roots[i].center for i in (3, 17)[:k]]
        ev = Widening(factor_evaluator(desc), targets, below=2 * self.FIRST_WP)
        ps = all_roots(desc.poly, self.BITS, evaluator=ev)
        assert len(ps) == desc.poly.degree
        for b in ps.roots:
            assert b.radius <= mp.mpf(2) ** (-self.BITS // 2) * (1 + abs(b.center))
        assert_pairwise_disjoint(ps)
        # untouched roots keep the disks of the unperturbed run, bit for bit
        def near_target(b):
            return any(abs(complex(b.center) - complex(t)) < 1e-6 for t in targets)
        kept = {disk_key(b) for b in ps.roots if not near_target(b)}
        assert len(kept) == desc.poly.degree - k
        assert kept <= {disk_key(b) for b in plain.roots}
        # the repair works on the k failing roots alone: at most 4 Aberth and
        # 10 Newton steps plus one disk each, far below one call per root
        newton, ball = ev.calls_above(self.FIRST_WP)
        assert ball == k
        assert 0 < newton <= 14 * k < desc.poly.degree / 2

    def test_coincident_start_points_end_up_separated(self, desc, plain, monkeypatch):
        ev = Widening(factor_evaluator(desc))
        starts = ev.starts_f64

        def doubled(p):
            z = starts(p)
            z[1] = z[0]
            return z

        monkeypatch.setattr(ev, "starts_f64", doubled, raising=False)
        ps = all_roots(desc.poly, self.BITS, evaluator=ev)
        assert len(ps) == desc.poly.degree
        assert_pairwise_disjoint(ps)
        # the float64 stage split the copies, so no disk was repaired
        assert ev.calls_above(self.FIRST_WP) == (0, 0)
        with mp.workprec(512):
            for b in ps.roots:
                assert sum(not bl.disjoint(b, a) for a in plain.roots) == 1

    def test_coincident_float64_points_end_up_separated(self, desc, plain, monkeypatch):
        aberth = rootfinder._aberth_f64

        def doubled(evaluator, z0):
            z = aberth(evaluator, z0)
            z[1] = z[0]
            return z

        monkeypatch.setattr(rootfinder, "_aberth_f64", doubled)
        ev = Widening(factor_evaluator(desc))
        ps = all_roots(desc.poly, self.BITS, evaluator=ev)
        assert len(ps) == desc.poly.degree
        assert_pairwise_disjoint(ps)
        # both copies were repaired, and each disk holds its own root
        assert ev.calls_above(self.FIRST_WP)[1] == 2
        with mp.workprec(512):
            for b in ps.roots:
                assert sum(not bl.disjoint(b, a) for a in plain.roots) == 1

    def test_exhaustion_still_raises(self, desc, plain, monkeypatch):
        ev = Widening(factor_evaluator(desc), [plain.roots[5].center], below=10**9)
        monkeypatch.setattr(rootfinder, "MAX_PRECISION_BITS", 1024)
        with pytest.raises(PrecisionExhausted):
            all_roots(desc.poly, self.BITS, evaluator=ev)
        # one pass per doubling up to the cap: 192, 384, 768 bits
        assert sorted({wp for _, wp in ev.calls}) == [192, 384, 768]
        assert ev.calls_above(self.FIRST_WP)[1] == 2


class TestRepairedDisks:
    """The repair pass end to end. Horner on the coefficients of the d=2
    exact-period-7 factor leaves 13 of its 63 roots to a repair pass at 384
    bits; no benchmark workload runs one, so this is that path's guard."""

    def test_against_a_second_isolation(self):
        desc = exact_period_factor(2, 7)
        ev = Widening(CoefficientEvaluator(desc.poly))
        ps = all_roots(desc.poly, 128, ev)
        assert len(ps) == desc.poly.degree == 63
        repaired = [wp for name, wp in ev.calls if name == "value_deriv_ball" and wp > 192]
        assert repaired == [384] * 13
        # every disk meets exactly one disk of the orbit evaluator's
        # isolation at 256 bits, and no two meet the same one
        other = all_roots(desc.poly, 256, factor_evaluator(desc))
        with mp.workprec(512):
            met = [
                [i for i, a in enumerate(other.roots) if not bl.disjoint(b, a)] for b in ps.roots
            ]
            for b in ps.roots:
                assert b.radius * 2**64 <= 1 + abs(b.center)
        assert all(len(m) == 1 for m in met)
        assert sorted(i for (i,) in met) == list(range(63))
        assert_pairwise_disjoint(ps)


class Raising(Widening):
    """Like Widening, but while the grid precision is below below,
    value_deriv_ball raises ZeroDivisionError, as for a divisor ball that may
    hold 0, on any batch with a point within 1e-6 of a target. Calls that
    raise are not logged."""

    def value_deriv_ball(self, zb):
        if zb.prec < self.below and any(self.near_target(zb)):
            raise ZeroDivisionError("a target in the batch")
        return super().value_deriv_ball(zb)


class TestSplitRetry:
    BITS = TestLocalizedRepair.BITS
    FIRST_WP = TestLocalizedRepair.FIRST_WP

    def test_a_raising_root_is_repaired_alone(self):
        desc = exact_period_factor(2, 7)  # 63 roots: one batch
        plain = all_roots(desc.poly, self.BITS, evaluator=factor_evaluator(desc))
        target = plain.roots[17].center
        ev = Raising(factor_evaluator(desc), [target], below=2 * self.FIRST_WP)
        ps = all_roots(desc.poly, self.BITS, evaluator=ev)
        assert len(ps) == desc.poly.degree
        assert_pairwise_disjoint(ps)
        # the batch split down to the target; every other root of the batch
        # got its disk once, the unperturbed run's bit for bit
        kept = {disk_key(b) for b in ps.roots if abs(complex(b.center) - complex(target)) >= 1e-6}
        assert len(kept) == desc.poly.degree - 1
        assert kept <= {disk_key(b) for b in plain.roots}
        first = [wp for name, wp in ev.calls if name == "value_deriv_ball" and wp == self.FIRST_WP]
        assert len(first) == desc.poly.degree - 1
        assert ev.calls_above(self.FIRST_WP)[1] == 1


class TestCofactorZeros:
    """Misiurewicz factors at the roots they share with g_q. The orbit formula
    has no division, so these roots certify on the first pass like any other."""

    @staticmethod
    def ball_precisions(desc):
        ev = Widening(factor_evaluator(desc))
        ps = all_roots(desc.poly, 128, evaluator=ev)
        assert len(ps) == desc.poly.degree
        return [wp for name, wp in ev.calls if name == "value_deriv_ball"]

    def test_root_at_zero_certifies_on_first_pass(self):
        # g_q = c for d=3 misiurewicz-2-4, so the factor and g_q share the root 0
        precs = self.ball_precisions(misiurewicz_factor(3, 2, 4))
        assert len(precs) == 17 and max(precs) == 2 * 64 + 64

    def test_roots_at_plus_minus_i_certify_on_first_pass(self):
        # g_q vanishes at exactly +-i
        desc = misiurewicz_factor(3, 3, 7)
        precs = self.ball_precisions(desc)
        assert len(precs) == desc.poly.degree == 483
        assert max(precs) == 192

    def test_roots_near_plus_minus_0_26_plus_minus_1_26i_need_no_repair(self):
        # four roots at +-0.2644+-1.2605i, shared with g_3, took a 384-bit
        # repair pass when the factor was evaluated as raw / g_q^(d-2)
        desc = misiurewicz_factor(3, 4, 7)
        precs = self.ball_precisions(desc)
        assert len(precs) == desc.poly.degree == 477
        assert max(precs) == 192


class TestNoEscalation:
    """Every root of these factors certifies on the first pass: one ball
    evaluation per root, at the first working precision, 128 + 64 bits."""

    @staticmethod
    def cases():
        for d, max_n in ((2, 8), (3, 6), (4, 4)):
            for f in enumerate_factors(d, max_n):
                yield f.label, f"d{d}", f.poly, factor_evaluator(f)
        for n in range(2, 11):
            yield f"gleason-{n}", "d2", gleason(2, n), gleason_evaluator(2, n)

    def test_first_pass_certifies_every_root(self):
        cases = list(self.cases())
        assert len(cases) == 76
        for label, d, p, inner in cases:
            ev = Widening(inner)
            ps = all_roots(p, 128, evaluator=ev)
            assert len(ps) == p.degree
            precs = [wp for name, wp in ev.calls if name == "value_deriv_ball"]
            assert len(precs) == (p.degree if p.degree > 1 else 0), (d, label)
            assert all(wp == 192 for wp in precs), (d, label)


class TestStepCounts:
    """The number of Newton steps and disks it takes to certify every root of
    the d=2 Gleason polynomials and of one Misiurewicz factor: a stop rule
    that quietly takes one more step, or a disk that needs a second pass,
    changes these. Each root takes point steps until one meets the square
    root of the stop rule; its first ball evaluation then meets the rule
    itself and certifies, so every root gets one disk."""

    # n: (newton_mp calls, value_deriv_ball calls)
    COUNTS = {
        2: (2, 2), 3: (7, 4), 4: (14, 8), 5: (31, 16), 6: (62, 32), 7: (127, 64), 8: (254, 128)
    }

    @staticmethod
    def calls(p, inner):
        ev = Widening(inner)
        ps = all_roots(p, 128, evaluator=ev)
        assert len(ps) == p.degree
        names = [name for name, _ in ev.calls]
        return names.count("newton_mp"), names.count("value_deriv_ball")

    @pytest.mark.parametrize("n", sorted(COUNTS))
    def test_gleason_calls(self, n):
        assert self.calls(gleason(2, n), gleason_evaluator(2, n)) == self.COUNTS[n]

    def test_misiurewicz_calls(self):
        # 483 roots, all on the first pass
        desc = misiurewicz_factor(3, 5, 7)
        assert self.calls(desc.poly, factor_evaluator(desc)) == (963, 483)


class Certified(Widening):
    """Also keeps every point handed to value_deriv_ball, as a FixedBall."""

    def __init__(self, inner):
        super().__init__(inner)
        self.points = []

    def value_deriv_ball(self, zb):
        self.points += scalars(zb)
        return super().value_deriv_ball(zb)


def value_deriv_1024(coeffs, z, wp):
    """p(z) and p'(z) as Gaussian integers in units of 2^-1024, by Horner on
    the exact coefficients with each product floored: an oracle that shares
    no code with the evaluators or with pcflab.fixedball. z lies on the grid
    2^-wp, so it enters exactly."""
    P = 1024
    zr, zi = (int(mp.ldexp(x, wp)) for x in (z.real, z.imag))
    vr = vi = dr = di = 0
    for c in reversed(coeffs):
        dr, di = ((dr * zr - di * zi) >> wp) + vr, ((dr * zi + di * zr) >> wp) + vi
        vr, vi = ((vr * zr - vi * zi) >> wp) + (c << P), (vr * zi + vi * zr) >> wp
    return (vr, vi), (dr, di)


def mpf_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


class TestIntegerDisk:
    """Every disk against an independent oracle: its center is the grid point
    it was certified at and meets the stop rule there, its radius holds
    deg * |p/p'| * 1.0000001 and meets the target, and the disks are
    pairwise disjoint."""

    BITS = 128

    @pytest.mark.parametrize(
        "spec",
        [("gleason", 2, 6), ("period", 3, 4), ("misiurewicz", 3, 4, 7), ("quartic",)],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_disks_against_oracle(self, spec):
        p, inner = point_kernel_case(spec)
        ev = Certified(inner)
        ps = all_roots(p, self.BITS, evaluator=ev)
        assert len(ps) == p.degree
        certified = {(zb.re, zb.im, zb.prec) for zb in ev.points if zb.rad == 0}
        precs = {prec for _, _, prec in certified}
        deg = p.degree
        for b in ps.roots:
            # the center is a point certified on the grid 2^-wp, exactly
            on_grid = [FixedBall.from_mpc(b.center, wp) for wp in precs]
            (g,) = [g for g in on_grid if g.rad == 0 and (g.re, g.im, g.prec) in certified]
            # the radius holds the inclusion disk of the 1024-bit oracle
            (vr, vi), (dr, di) = value_deriv_1024(p.coeffs, b.center, g.prec)
            rad = mpf_fraction(b.radius)
            assert rad * rad * (dr * dr + di * di) * 10**14 >= (
                deg * deg * (vr * vr + vi * vi) * 10000001**2
            )
            with mp.workprec(1024):
                # and meets the 2^-(bits/2) * (1 + |c|) target
                assert b.radius * 2 ** (self.BITS // 2) <= 1 + abs(b.center)
                # the center meets the stop rule: |p/p'| <= 2^-(bits+24) * (1 + |c|)
                v, d = abs(mp.mpc(vr, vi)), abs(mp.mpc(dr, di))
                assert v * 2 ** (self.BITS + 24) <= d * (1 + abs(b.center))
        # pairwise disjoint: balls.disjoint on every pair closer than 1e-3;
        # the radii are below 1e-15, so the rest are disjoint by far
        assert all(b.radius < 1e-15 for b in ps.roots)
        cf = np.array([complex(b.center) for b in ps.roots])
        close = np.abs(cf[:, None] - cf[None, :]) < 1e-3
        with mp.workprec(512):
            for i, j in zip(*np.nonzero(close)):
                if i < j:
                    assert bl.disjoint(ps.roots[i], ps.roots[j])


class TestEmptyPass:
    def test_overlapping_without_live_disks(self):
        assert rootfinder._overlapping([None] * 3) == set()
        assert rootfinder._overlapping([None, bl.exact_ball(1), None]) == set()

    def test_every_disk_failing_escalates(self):
        # every disk of the first pass fails, so no disk is live when the
        # disjointness check runs; the set certifies on the next doubling
        desc = exact_period_factor(2, 4)
        plain = all_roots(desc.poly, 128, evaluator=factor_evaluator(desc))
        ev = Widening(factor_evaluator(desc), [b.center for b in plain.roots], below=300)
        ps = all_roots(desc.poly, 128, evaluator=ev)
        assert len(ps) == desc.poly.degree
        assert_pairwise_disjoint(ps)
        assert ev.calls_above(192)[1] == desc.poly.degree
        with mp.workprec(512):
            for b in ps.roots:
                assert sum(not bl.disjoint(b, a) for a in plain.roots) == 1


class TestFactorRootBounds:
    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4)])
    def test_roots_within_modulus_bound(self, d, n):
        desc = exact_period_factor(d, n)
        ps = all_roots(desc.poly, 128, evaluator=factor_evaluator(desc))
        bound = 2 ** (1 / (d - 1)) + 1e-12
        for b in ps.roots:
            assert abs(complex(b.center)) + float(b.radius) <= bound


class CountingNewton:
    """Forwards to an evaluator and counts newton_f64 calls: one per float64
    Aberth sweep."""

    def __init__(self, inner):
        self.inner = inner
        self.sweeps = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def newton_f64(self, z):
        self.sweeps += 1
        return self.inner.newton_f64(z)


def float64_sweeps(desc):
    ev = CountingNewton(factor_evaluator(desc))
    rootfinder._aberth_f64(ev, ev.starts_f64(desc.poly))
    return ev.sweeps


class TestLemniscateStarts:
    def test_gleason_11_sweeps(self):
        # hull starts on one circle took 530 float64 sweeps here, starts on
        # lemniscate arcs 26; the external-ray starts take 13
        ev = CountingNewton(gleason_evaluator(2, 11))
        ps = all_roots(gleason(2, 11), 128, evaluator=ev)
        assert len(ps) == 1024
        assert ev.sweeps <= 16

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 5), (3, 7)])
    def test_exact_roots_of_g_q_settle(self, m, n):
        # a point that lands on c = 0 or -1 exactly used to be nudged off
        # and drawn back, for all 800 sweeps
        assert float64_sweeps(misiurewicz_factor(2, m, n)) <= 12

    @pytest.mark.parametrize(
        "d,degree",
        [(2, 1024), (3, 2160), (2, 3), (3, 2), (2, 4096), (4, 64), (5, 100), (600, 599)],
    )
    def test_pure_float64_function_of_d_and_degree(self, d, degree, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LAPACK is not deterministic across builds")

        monkeypatch.setattr(np, "roots", forbidden)
        monkeypatch.setattr(np, "linalg", None)
        monkeypatch.setattr(critical_orbit, "_starts", {})  # trace, not recall
        z = critical_orbit.lemniscate_starts(d, degree)
        assert z.shape == (degree,) and np.isfinite(z).all()
        assert np.array_equal(z, critical_orbit.lemniscate_starts(d, degree))
        assert len(set(z.tolist())) == degree
        # on the lemniscate |g_m| = R, where m is the least level with
        # deg g_m = d^(m-1) >= degree and R = 4 up to d = 256, with
        # arg g_m(z_j) = 2 pi (j + t) d^(m-1) / degree, t = 1/(4(d-1))
        m = 1
        while d ** (m - 1) < degree:
            m += 1
        with np.errstate(all="ignore"):
            g = critical_orbit._jets(d, ScaledArray(z), ScaledArray.lift, m)[m].v.complex128()
        assert np.isfinite(g).all()
        assert np.allclose(np.abs(g), 2.0 ** min(2.0, 512 / d), rtol=1e-9)
        turns = (np.arange(degree) + 0.25 / (d - 1)) * d ** (m - 1) / degree
        assert np.allclose(np.angle(g * np.exp(-2j * np.pi * turns)), 0, atol=1e-8)

    def test_each_call_returns_its_own_array(self):
        # start sets are kept per (d, degree); a caller that writes into the
        # array it got must not move the next caller's starts
        z = critical_orbit.lemniscate_starts(3, 161)
        kept = z.copy()
        z[:] = 0
        assert np.array_equal(critical_orbit.lemniscate_starts(3, 161), kept)

    def test_every_factor_evaluator_is_an_orbit_evaluator(self):
        # so every lattice factor starts on a lemniscate
        for d in (2, 3, 4):
            for f in enumerate_factors(d, 5):
                assert isinstance(factor_evaluator(f), critical_orbit.OrbitEvaluator), f.label

    def test_newton_f64_is_written_once(self):
        # every evaluator's float64 step is its value_deriv on ScaledArray
        # lanes, so no formula has a second, float64 form
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        kinds = [k for k in subclasses(rootfinder.Evaluator) if k.__module__.startswith("pcflab.")]
        assert {CoefficientEvaluator, critical_orbit.GleasonEvaluator,
                critical_orbit.ExactPeriodEvaluator, critical_orbit.MisiurewiczEvaluator} <= set(kinds)
        assert [k.__name__ for k in kinds if "newton_f64" in vars(k)] == []

    def test_no_float64_stage_reaches_max_sweeps(self):
        cases = [(f.poly, factor_evaluator(f)) for f in enumerate_factors(2, 8)]
        cases += [(f.poly, factor_evaluator(f)) for f in enumerate_factors(3, 6)]
        cases += [(f.poly, factor_evaluator(f)) for f in enumerate_factors(4, 4)]
        cases += [(gleason(2, n), gleason_evaluator(2, n)) for n in range(2, 12)]
        for p, inner in cases:
            if p.degree > 1:  # all_roots solves a linear factor exactly
                ev = CountingNewton(inner)
                rootfinder._aberth_f64(ev, ev.starts_f64(p))
                assert ev.sweeps <= 20


class TestLargeDegree:
    """Isolation for large d, where the float64 orbit rescales before the
    d-th power and every external-ray start lies outside M_d."""

    def test_gleason_2_of_d_100_from_starts_outside_m_d(self):
        # g_2 = c (c^99 + 1): its roots are 0 and e^(i pi (2k+1)/99), k < 99
        starts = critical_orbit.lemniscate_starts(100, 100)
        assert (np.abs(starts) > 2 ** (1 / 99)).all()
        ps = all_roots(gleason(100, 2), 128, gleason_evaluator(100, 2))
        assert len(ps) == 100
        assert_pairwise_disjoint(ps)
        with mp.workprec(256):
            exact = [mp.mpc(0)] + [mp.expjpi(mp.mpf(2 * k + 1) / 99) for k in range(99)]
            holders = [
                [i for i, b in enumerate(ps.roots) if abs(b.center - r) < b.radius] for r in exact
            ]
        assert all(len(h) == 1 for h in holders)
        assert len({h[0] for h in holders}) == 100

    def test_gleason_3_of_d_30(self):
        ps = all_roots(gleason(30, 3), 128, gleason_evaluator(30, 3))
        assert len(ps) == 900
        # the exact ball test on every pair the float64 prefilter finds close
        assert rootfinder._overlapping(list(ps.roots)) == set()


def ball_ratio(evaluator, zb):
    """The center of val / der of the formula run on FixedBalls: the oracle
    for newton_mp, which runs it on FixedPoints."""
    val, der = evaluator.value_deriv(zb, zb.lift)
    return val / der


QUARTIC = P([3, -1, 4, 1, 5])


def point_kernel_case(spec):
    """(polynomial, evaluator) for a spec of TestPointKernel."""
    kind, *args = spec
    if kind == "gleason":
        return gleason(*args), gleason_evaluator(*args)
    if kind == "quartic":
        return QUARTIC, rootfinder.CoefficientEvaluator(QUARTIC)
    desc = exact_period_factor(*args) if kind == "period" else misiurewicz_factor(*args)
    return desc.poly, factor_evaluator(desc)


class TestPointKernel:
    """Polishing runs each formula on FixedPoints. Its Newton ratio equals
    the one from FixedBall centers bit for bit, so no polished point moves."""

    @pytest.mark.parametrize(
        "spec",
        [
            ("gleason", 2, 5),
            ("period", 2, 6),
            ("period", 3, 4),
            ("misiurewicz", 2, 3, 6),
            ("misiurewicz", 3, 4, 7),  # q = 3
            ("misiurewicz", 4, 3, 5),
            ("quartic",),
        ],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_newton_mp_equals_ball_centers(self, spec):
        # at the float64 Aberth points that polishing starts from, and at
        # the polished roots
        p, ev = point_kernel_case(spec)
        starts = rootfinder._aberth_f64(ev, ev.starts_f64(p))
        roots = [b.center for b in all_roots(p, 128, evaluator=ev).roots]
        assert len(roots) == p.degree
        for wp in (192, 384):
            for z in [mp.mpc(complex(s)) for s in starts] + roots:
                zb = FixedBall.from_mpc(z, wp)
                got = ev.newton_mp(FixedPoint(zb.re, zb.im, wp))
                want = ball_ratio(ev, zb)
                assert (got.re, got.im, got.prec) == (want.re, want.im, wp), (wp, z)


class TestBatches:
    """The fixed-point passes polish and certify _BATCH roots at a time: a
    batch of one root or of all of them gives the same cache bytes, whose
    root lines are the exact tokens of every disk."""

    def cache_bytes(self, p, ev, batch, tmp_path, monkeypatch):
        monkeypatch.setattr(rootfinder, "_BATCH", batch)
        path = tmp_path / f"batch{batch}.roots"
        write_roots_cache(path, p, all_roots(p, 128, evaluator=ev))
        return path.read_bytes()

    def assert_batch_free(self, p, make_ev, tmp_path, monkeypatch):
        sizes = (1, rootfinder._BATCH, p.degree)
        runs = [self.cache_bytes(p, make_ev(), b, tmp_path, monkeypatch) for b in sizes]
        assert f"# count={p.degree}\n".encode() in runs[0]
        assert runs[1:] == runs[:1] * 2

    @pytest.mark.parametrize(
        "spec",
        [("gleason", 2, 8), ("period", 3, 4), ("misiurewicz", 3, 4, 7), ("quartic",)],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_batch_size_changes_nothing(self, spec, tmp_path, monkeypatch):
        p, _ = point_kernel_case(spec)
        self.assert_batch_free(p, lambda: point_kernel_case(spec)[1], tmp_path, monkeypatch)

    def test_with_a_repair_pass(self, tmp_path, monkeypatch):
        desc = exact_period_factor(2, 7)
        plain = all_roots(desc.poly, 128, evaluator=factor_evaluator(desc))
        targets = [plain.roots[i].center for i in (3, 17)]

        def widening():
            return Widening(factor_evaluator(desc), targets, below=2 * TestLocalizedRepair.FIRST_WP)

        self.assert_batch_free(desc.poly, widening, tmp_path, monkeypatch)
        ev = widening()
        ps = all_roots(desc.poly, 128, evaluator=ev)
        assert ev.calls_above(TestLocalizedRepair.FIRST_WP)[1] == 2
        # the two repaired centers lie on the finer grid; the integer sort
        # keys order the mixed grids as the mpf values do
        fine = [b for b in ps.roots if b.center.real._mpf_[2] < -TestLocalizedRepair.FIRST_WP]
        assert len(fine) == 2
        assert list(ps.roots) == sorted(ps.roots, key=lambda b: (b.center.real, b.center.imag))


def traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    """The float64 pairwise kernels work through blocks of _ROW_BLOCK rows:
    small peaks at 1024 roots, and the results of a single block."""

    LIMIT = 4_000_000  # bytes; one 1024 x 1024 complex128 array is 16.8 MB

    @pytest.fixture(scope="class")
    def g11(self):
        ev = gleason_evaluator(2, 11)
        starts = ev.starts_f64(gleason(2, 11))
        return ev, starts, all_roots(gleason(2, 11), 128, evaluator=ev)

    def test_memory_peaks_at_1024_roots(self, g11):
        ev, starts, ps = g11
        _, peak = traced_peak(rootfinder._aberth_f64, ev, starts)
        assert peak < self.LIMIT
        bad, peak = traced_peak(rootfinder._overlapping, list(ps.roots))
        assert bad == set() and peak < self.LIMIT
        _, peak = traced_peak(min_pairwise_distance, ps)
        assert peak < self.LIMIT

    def test_blocks_give_the_one_block_results(self, g11, monkeypatch):
        ev, starts, ps = g11
        z = rootfinder._aberth_f64(ev, starts)
        disks = list(ps.roots)
        disks[7] = bl.ComplexBall(disks[8].center, disks[8].radius)  # one overlapping pair
        idx = (np.arange(0, z.size), np.arange(3, z.size, 7))
        blocked = (
            [rootfinder._pairwise_inv_sum(z, i).tobytes() for i in idx],
            rootfinder._overlapping(disks),
            min_pairwise_distance(ps),
        )
        monkeypatch.setattr(rootfinder, "_ROW_BLOCK", z.size)
        single = (
            [rootfinder._pairwise_inv_sum(z, i).tobytes() for i in idx],
            rootfinder._overlapping(disks),
            min_pairwise_distance(ps),
        )
        assert blocked == single
        assert blocked[1] == {7, 8}

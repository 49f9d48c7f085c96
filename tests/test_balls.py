"""Disk bounds: |z|, log^+|z| and the distance between two disks."""

from __future__ import annotations

import mpmath as mp
import pytest

import pcflab.balls as bl


class TestRadiusCheck:
    @pytest.mark.parametrize("radius", [-mp.mpf(2) ** -300, mp.inf, -mp.inf, mp.nan])
    def test_negative_or_nonfinite_radius_raises(self, radius):
        with pytest.raises(ValueError):
            bl.ComplexBall(mp.mpc(1, 2), radius)

    @pytest.mark.parametrize("radius", [mp.mpf(0), mp.mpf(2) ** -300])
    def test_zero_or_tiny_radius_passes(self, radius):
        assert bl.ComplexBall(mp.mpc(1, 2), radius).radius == radius


class TestContainment:
    def test_abs_bounds_order(self):
        with mp.workprec(64):
            b = bl.ball(mp.mpc(3, 4), mp.mpf("0.25"))
            lo, hi = b.abs_bounds()
            assert lo <= 5 <= hi
            assert 4.7 < lo and hi < 5.3

    def test_log_plus_interval(self):
        with mp.workprec(64):
            inside = bl.ball(mp.mpc("0.5"), mp.mpf("0.1"))
            assert bl.log_plus_interval(inside) == (0, 0)
            straddle = bl.ball(mp.mpc("1.0"), mp.mpf("0.5"))
            lo, hi = bl.log_plus_interval(straddle)
            assert lo == 0 and hi >= mp.log(mp.mpf("1.5")) * (1 - mp.mpf(2) ** -40)

    def test_dist_bounds(self):
        with mp.workprec(64):
            a = bl.ball(0, mp.mpf("0.125"))
            b = bl.ball(1, mp.mpf("0.25"))
            lo, hi = bl.dist_bounds(a, b)
            assert float(lo) == pytest.approx(0.625, abs=1e-12)
            assert float(hi) == pytest.approx(1.375, abs=1e-12)
            assert bl.disjoint(a, b)
            assert not bl.disjoint(a, bl.ball(0.25, mp.mpf("0.5")))

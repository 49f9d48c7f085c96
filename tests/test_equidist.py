"""Kernel averages and discrepancy reports."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest

import pcflab.balls as bl
from pcflab.critical_orbit import gleason, gleason_evaluator, orbit
from pcflab.equidist import (
    avg_log_distance_roots,
    avg_log_distance_vieta,
    discrepancy_report,
    fitted_min_constant,
)
from pcflab.errors import HypothesisViolated, KernelSingular
from pcflab.heights import AlgebraicNumber, escape_rate_arch
from pcflab.rootfinder import all_roots

from oracles import (
    escape_rate_oracle,
    horner_fraction,
    mp_avg_log_distance,
    mp_dist_bounds,
)


def orbit_value(d: int, n: int, alpha: Fraction) -> Fraction:
    """u_n of alpha's critical orbit, in exact Fractions."""
    return next(islice(orbit(d, alpha, Fraction(0)), n, None))


class TestVietaAverage:
    def test_level_4_at_one(self):
        # orbit 1 -> 2 -> 5 -> 26: average is ln(26)/8 = 0.4072621...
        assert orbit_value(2, 4, Fraction(1)) == 26
        got = avg_log_distance_vieta(2, 4, 1)
        with mp.workprec(300):
            assert abs(got - mp.log(26) / 8) < 1e-60
        assert mp.nstr(got, 8) == "0.40726207"

    def test_level_2_at_three(self):
        assert orbit_value(2, 2, Fraction(3)) == 12
        got = avg_log_distance_vieta(2, 2, 3)
        with mp.workprec(300):
            assert abs(got - mp.log(12) / 2) < 1e-60
        assert mp.nstr(got, 8) == "1.2424533"

    def test_matches_polynomial_evaluation(self):
        # the recurrence value equals Horner evaluation of g_n, exactly
        for n in range(1, 7):
            for a in (Fraction(1), Fraction(-3), Fraction(1, 2)):
                assert orbit_value(2, n, a) == horner_fraction(
                    list(gleason(2, n).coeffs), a
                )

    def test_singular_at_pcf_parameter(self):
        with pytest.raises(KernelSingular):
            avg_log_distance_vieta(2, 2, 0)
        with pytest.raises(KernelSingular):
            avg_log_distance_vieta(2, 4, -1)  # -1 has period 2, so g_4(-1) = 0


class TestRootsAverage:
    def test_matches_vieta_small(self):
        ps = all_roots(gleason(2, 2), 192, gleason_evaluator(2, 2))
        with mp.workprec(256):
            res = avg_log_distance_roots(ps, bl.exact_ball(3))
            want = avg_log_distance_vieta(2, 2, 3, 192)
            assert abs(res.value - want) < 1e-40
            assert res.error_bound < 1e-40

    def test_overlap_raises(self):
        ps = all_roots(gleason(2, 2), 128, gleason_evaluator(2, 2))
        with mp.workprec(160):
            fat = bl.ball(0, mp.mpf("0.5"))  # covers the root at 0
            with pytest.raises(KernelSingular):
                avg_log_distance_roots(ps, fat)


GOLDEN = AlgebraicNumber.from_min_poly([-1, -1, 1], 1)  # -0.618..., as rerun's equidist


@pytest.fixture(scope="module")
def golden_root_sets():
    return {
        n: all_roots(gleason(2, n), 128, evaluator=gleason_evaluator(2, n)).roots
        for n in range(2, 9)
    }


def _hand_made_cases():
    """(root disks, alpha disk): radius 0, a wide radius, alpha nearly on a root."""
    a = bl.ball(mp.mpc("0.25", "-1.5"))
    return [
        ([bl.ball(mp.mpc(1, 2)), bl.ball(mp.mpc("-0.75", 0))], a),
        ([bl.ball(mp.mpc(3, -4), mp.mpf("1.75")), bl.ball(mp.mpc(-5, 0), mp.mpf(2))], a),
        ([bl.ball(mp.mpc("0.25", "-1.5") + mp.mpf(2) ** -40, mp.mpf(2) ** -52)], a),
    ]


class TestRawLoopIsBitIdentical:
    """The plain-log average and dist_bounds run on _mpf_ tuples; they must
    give the _mpf_ of the mp-object formula exactly, at every precision."""

    @staticmethod
    def assert_same(disks, alpha):
        got = avg_log_distance_roots(disks, alpha)
        want_value, want_error = mp_avg_log_distance(disks, alpha)
        assert got.value._mpf_ == want_value._mpf_
        assert got.error_bound._mpf_ == want_error._mpf_
        for b in disks:
            got_lo, got_hi = bl.dist_bounds(b, alpha)
            want_lo, want_hi = mp_dist_bounds(b, alpha)
            assert (got_lo._mpf_, got_hi._mpf_) == (want_lo._mpf_, want_hi._mpf_)

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_golden_ratio_levels(self, golden_root_sets, prec):
        with mp.workprec(prec):
            alpha = GOLDEN.selected_conjugate(prec)
            for disks in golden_root_sets.values():
                self.assert_same(disks, alpha)

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("case", range(3))
    def test_hand_made_disks(self, prec, case):
        with mp.workprec(prec):
            self.assert_same(*_hand_made_cases()[case])

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_alpha_inside_a_root_disk_is_singular(self, prec):
        with mp.workprec(prec):
            alpha = bl.ball(mp.mpc("0.5", "0.5"), mp.mpf(2) ** -60)
            disks = [bl.ball(mp.mpc(2, 0)), bl.ball(mp.mpc("0.5", "0.5001"), mp.mpf("0.001"))]
            assert mp_avg_log_distance(disks, alpha) is None
            assert bl.dist_bounds(disks[1], alpha)[0] == 0 == mp_dist_bounds(disks[1], alpha)[0]
            with pytest.raises(KernelSingular):
                avg_log_distance_roots(disks, alpha)


class TestDiscrepancyReport:
    def test_level_4_alpha_one(self):
        [rep] = discrepancy_report(2, [4], 1, tau=0.5, C=1.0)
        assert rep.N == 8
        assert rep.passed
        with mp.workprec(200):
            want_emp = mp.log(26) / 8
            assert abs(rep.empirical_avg - want_emp) < 1e-40
        want_green = escape_rate_oracle(2, 1)
        assert abs(rep.green_value - want_green) < 1e-10
        assert float(rep.discrepancy) == pytest.approx(
            abs(float(mp.log(26) / 8 - want_green)), rel=1e-6
        )

    def test_level_2_alpha_three(self):
        [rep] = discrepancy_report(2, [2], 3)
        want_green = escape_rate_oracle(2, 3)
        assert abs(rep.green_value - want_green) < 1e-10
        assert rep.passed  # 5.2e-3 discrepancy under a ~1.8 bound

    def test_rejects_pcf_alpha(self):
        with pytest.raises(HypothesisViolated):
            discrepancy_report(2, [4], 0)
        # a root of c^3 + 2c^2 + c + 1 has critical period 3; the gate runs
        # before any root set is looked up
        period3 = AlgebraicNumber.from_min_poly([1, 1, 2, 1], 0)
        looked_up = []
        with pytest.raises(HypothesisViolated):
            discrepancy_report(2, range(2, 5), period3, averages=looked_up.append)
        assert looked_up == []

    def test_algebraic_alpha_numeric_path(self):
        golden = AlgebraicNumber.from_min_poly([-1, -1, 1], 1)
        [rep] = discrepancy_report(2, [5], golden, precision_bits=192)
        assert rep.path == "roots-numeric"
        want = escape_rate_oracle(2, mp.mpf("1.61803398874989484820458683436563811772"))
        assert abs(rep.green_value - want) < 1e-9
        assert rep.passed

    def test_averages_asked_once_for_every_level(self):
        golden = AlgebraicNumber.from_min_poly([-1, -1, 1], 1)
        looked_up = []

        def averages(ball):
            looked_up.append(ball)
            return [
                avg_log_distance_roots(all_roots(gleason(2, n), 128, gleason_evaluator(2, n)), ball).value
                for n in (3, 4)
            ]

        reports = discrepancy_report(2, [3, 4], golden, precision_bits=128, averages=averages)
        assert len(looked_up) == 1
        assert [r.n for r in reports] == [3, 4]
        default = discrepancy_report(2, [3, 4], golden, precision_bits=128)
        assert [r.tsv_row() for r in reports] == [r.tsv_row() for r in default]

    def test_fitted_constant(self):
        reports = discrepancy_report(2, range(3, 9), 1)
        fit = fitted_min_constant(reports)
        assert 0 < fit < 1

    def test_convergence_to_escape_rate(self):
        # |a_{n+1} - a_n| <= K d^-n with K fitted on n = 3..6
        vals = {n: avg_log_distance_vieta(2, n, 1) for n in range(3, 13)}
        deltas = {n: abs(vals[n + 1] - vals[n]) for n in range(3, 12)}
        K = max(float(deltas[n]) * 2**n for n in range(3, 6)) * 1.2
        for n in range(6, 12):
            assert float(deltas[n]) * 2**n <= K
        want = escape_rate_oracle(2, 1)
        assert abs(vals[12] - want) < 1e-6


class TestZeroHeightWitness:
    def test_near_parabolic_point(self):
        # 1/4 + 1e-6 sits just outside the set: tiny positive rate
        a = Fraction(1, 4) + Fraction(1, 10**6)
        res = escape_rate_arch(2, a, target_error=1e-12)
        assert res.escaped and res.value > 0

    def test_bounded_kernel_sequence_near_zero(self):
        eps = Fraction(1, 10**9)
        vals = [abs(float(avg_log_distance_vieta(2, n, eps))) for n in range(1, 13)]
        assert max(vals) <= abs(float(mp.log(mp.mpf(1e-9)))) + 1
        assert vals[-1] < vals[0]

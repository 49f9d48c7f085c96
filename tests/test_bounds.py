"""Closed-form bound evaluators and their desk-scale empirical checks."""

from __future__ import annotations

import random

import mpmath as mp
import pytest

import pcflab.balls as bl
from pcflab.bounds import (
    BoundReport,
    LinearFormInput,
    beg_linear_form_constant,
    beg_lower_bound,
    degree_lower_bound_check,
    mahler_separation_bound,
    pcf_modulus_bound,
    pcf_modulus_check,
    prop31_bound,
    separation_check,
    thm15_threshold,
)
from pcflab.critical_orbit import enumerate_factors, factor_evaluator
from pcflab.heights import weil_height
from pcflab.rootfinder import CoefficientEvaluator, all_roots
from pcflab.polynomials import IntPolynomial

P = IntPolynomial


class TestBegBound:
    def test_constant_at_degree_one(self):
        # c1(2, 1) = 12 (16e)^8: the max(1, log d)^2 factor is 1 at degree 1
        c1 = beg_linear_form_constant(2, 1)
        assert float(c1) == pytest.approx(12 * (16 * float(mp.e)) ** 8, rel=1e-12)
        assert float(c1) == pytest.approx(1.5364e14, rel=1e-3)

    def test_formula_value(self):
        # heights log2, log3 at degree 1 both sit below the floor
        # 2/(log 3)^3 = 1.5085..., so Theta is the floor squared
        inp = LinearFormInput(
            heights=(float(mp.log(2)), float(mp.log(3))),
            exponents=(1, -1),
            field_degree=1,
            place_norm=2,
        )
        floor = 2 / float(mp.log(3)) ** 3
        assert floor == pytest.approx(1.50833, rel=1e-5)
        want = (
            -float(beg_linear_form_constant(2, 1))
            * (2 / float(mp.log(2)))
            * floor**2
            * float(mp.log(3))
        )
        assert float(beg_lower_bound(inp)) == pytest.approx(want, rel=1e-12)

    def test_floor_branch(self):
        tiny = LinearFormInput(
            heights=(1e-9, 1e-9), exponents=(1, -1), field_degree=1, place_norm=2
        )
        floor = 2 / float(mp.log(3)) ** 3
        got = beg_lower_bound(tiny)
        ref = LinearFormInput(
            heights=(floor, floor), exponents=(1, -1), field_degree=1, place_norm=2
        )
        assert float(got) == pytest.approx(float(beg_lower_bound(ref)), rel=1e-12)

    def test_monotone_in_heights_and_B(self):
        base = LinearFormInput(heights=(2.0, 2.0), exponents=(1, -1), field_degree=1, place_norm=2)
        higher = LinearFormInput(
            heights=(3.0, 2.0), exponents=(1, -1), field_degree=1, place_norm=2
        )
        bigger_b = LinearFormInput(
            heights=(2.0, 2.0), exponents=(7, -1), field_degree=1, place_norm=2
        )
        assert beg_lower_bound(base) < 0
        assert beg_lower_bound(higher) < beg_lower_bound(base)
        assert beg_lower_bound(bigger_b) < beg_lower_bound(base)

    def test_true_values_respect_bound(self):
        # 200 random pairs of small rationals: log|a1/a2 - 1| > bound
        rng = random.Random(97)
        from fractions import Fraction

        count = 0
        while count < 200:
            a1 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            a2 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            if a1 == a2:
                continue
            count += 1
            with mp.workprec(96):
                actual = mp.log(abs(mp.mpf(a1.numerator) / a1.denominator
                                    * a2.denominator / a2.numerator - 1))
            inp = LinearFormInput(
                heights=(float(weil_height(a1)), float(weil_height(a2))),
                exponents=(1, -1),
                field_degree=1,
                place_norm=2,
            )
            assert actual > beg_lower_bound(inp)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearFormInput(heights=(1.0,), exponents=(1,), field_degree=1, place_norm=2)
        with pytest.raises(ValueError):
            LinearFormInput(heights=(1.0, 1.0), exponents=(0, 0), field_degree=1, place_norm=2)


class TestMahlerSeparation:
    def test_frozen_values(self):
        got = mahler_separation_bound(3, 2)
        # sqrt(3) * 4^(-7/2) * 2^(-2) = sqrt(3)/512
        assert float(got.value) == pytest.approx(float(mp.sqrt(3) / 512), rel=1e-12)
        assert float(got.value) == pytest.approx(3.383e-3, rel=1e-3)
        got2 = mahler_separation_bound(2, 1)
        assert float(got2.value) == pytest.approx(float(mp.sqrt(3) * 3 ** mp.mpf(-2.5)), rel=1e-12)
        assert float(got2.value) == pytest.approx(0.11111, rel=1e-3)

    def test_weak_form_is_weaker(self):
        for d_c, h in [(2, 1), (5, 7), (30, 10**6)]:
            b = mahler_separation_bound(d_c, h)
            assert b.weak <= b.value

    def test_against_actual_separation(self):
        p = P([1, 1, 2, 1])
        ps = all_roots(p, 192, CoefficientEvaluator(p))
        from pcflab.rootfinder import min_pairwise_distance

        sep = min_pairwise_distance(ps)
        bound = mahler_separation_bound(p.degree, p.max_abs_coeff())
        assert sep >= bound.value


class TestProp31:
    def test_trivial_point(self):
        assert float(prop31_bound(0.0, 2, 1, 0.1, 1.0)) == pytest.approx(2.0)

    def test_arithmetic(self):
        v = prop31_bound(float(mp.log(2)), 2, 3, 1.0, 1.0)
        assert float(v) == pytest.approx((float(mp.log(2)) + 2) * 3**9, rel=1e-12)
        assert float(v) == pytest.approx(53008.3, rel=1e-4)

    def test_empirical_vs_bound(self):
        # alpha = 1 against the level-3 periodic parameters: every root is at
        # distance >= 1, so the empirical max of log|x - alpha|^-1 is <= 0
        p = P([1, 1, 2, 1])
        ps = all_roots(p, 160, CoefficientEvaluator(p))
        with mp.workprec(200):
            lows = [bl.dist_bounds(b, bl.exact_ball(1))[0] for b in ps.roots]
            emp = max(-mp.log(lo) for lo in lows)
        assert min(lows) > 1
        bound = prop31_bound(0.0, 2, 3, 0.5, 1.0)
        assert emp <= 0 <= bound


class TestDegreeAndModulus:
    def test_degree_report(self):
        rep = degree_lower_bound_check(3, 4, 2)
        assert float(rep.bound_value) == pytest.approx(13.5)
        assert rep.empirical_value == 27  # deg g_4 = 3^3
        assert rep.satisfied

    def test_degree_trivial(self):
        rep = degree_lower_bound_check(2, 1, 1)
        assert float(rep.bound_value) == 1.0 and rep.satisfied

    def test_modulus_values(self):
        assert float(pcf_modulus_bound(2)) == pytest.approx(2.0)
        assert float(pcf_modulus_bound(3)) == pytest.approx(2**0.5)
        assert float(pcf_modulus_bound(4)) == pytest.approx(2 ** (1 / 3))

    @staticmethod
    def lattice_root_sets(d, max_n):
        """(descriptors, root sets) of the lattice factors of degree >= 1."""
        descs = [desc for desc in enumerate_factors(d, max_n) if desc.poly.degree >= 1]
        return descs, [all_roots(desc.poly, 128, evaluator=factor_evaluator(desc)) for desc in descs]

    def test_modulus_batch_small(self):
        root_sets = self.lattice_root_sets(2, 4)[1]
        assert root_sets and all(ps.roots for ps in root_sets)
        rep = pcf_modulus_check(2, 4, root_sets)
        assert rep.satisfied
        # the level-3 Misiurewicz parameter -2 sits exactly on the circle
        assert float(rep.empirical_value) == pytest.approx(2.0, abs=1e-20)

    def test_separation_per_factor_in_lattice_order(self):
        descs, root_sets = self.lattice_root_sets(2, 4)
        reps = separation_check(descs, root_sets)
        # one report per set with a pair of roots, named after its descriptor
        want = [desc.label for desc, ps in zip(descs, root_sets) if len(ps.roots) >= 2]
        assert [r.name for r in reps] == [f"separation-{label}" for label in want]
        assert reps and all(r.satisfied for r in reps)


class TestThm15Threshold:
    def test_values(self):
        assert thm15_threshold(1, 1, 1) == 1
        assert thm15_threshold(1, 2, 1) == 8
        assert thm15_threshold(1, 2, 2) == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            thm15_threshold(1, 0, 1)


class TestBoundReport:
    def test_line_format(self):
        rep = BoundReport(name="x", bound_value=mp.mpf(1))
        assert rep.line().split("\t")[0] == "x"

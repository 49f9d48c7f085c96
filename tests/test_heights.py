"""Escape rates, Newton polygons, the Weil height and the PCF gate."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import mpmath as mp
import pytest

from pcflab import heights
from pcflab.errors import HypothesisUndecided
from pcflab.heights import (
    AlgebraicNumber,
    conjugate_valuations,
    escape_rate_arch,
    green_nonarch,
    is_pcf_parameter,
    local_height_arch,
    local_height_functional_check,
    nonarch_mass,
    weil_height,
)
from pcflab.polynomials import IntPolynomial

from oracles import escape_rate_oracle, integer_orbit_is_finite

P = IntPolynomial

CUBICS = [(1, 1, 2, 1), (-2, 0, 0, 1), (-1, -1, 0, 1), (1, 1, 0, 1), (1, -3, 0, 1)]


@lru_cache(maxsize=1)
def box_alphas():
    """Every irreducible monic c^2 + bc + e with |b|, |e| <= 6, and five
    irreducible cubics, each as (coefficients, AlgebraicNumber)."""
    quadratics = [
        (e, b, 1)
        for b in range(-6, 7)
        for e in range(-6, 7)
        if b * b - 4 * e < 0 or math.isqrt(b * b - 4 * e) ** 2 != b * b - 4 * e
    ]
    return tuple((c, AlgebraicNumber.from_min_poly(c, 0)) for c in quadratics + CUBICS)


class TestEscapeRate:
    def test_bounded_critical_orbit_at_zero(self):
        res = escape_rate_arch(2, 0, max_iter=200)
        assert not res.escaped
        assert res.value == 0

    def test_basilica_is_bounded(self):
        res = escape_rate_arch(2, -1, max_iter=300)
        assert not res.escaped and res.value == 0

    def test_c_equals_one_matches_oracle(self):
        # plain-iteration oracle at fixed high precision, frozen digits:
        # G_2(1) = 0.40735430...  (the 1 -> 2 -> 5 -> 26 -> 677 orbit)
        want = escape_rate_oracle(2, 1)
        assert mp.nstr(want, 9) == "0.407354523"
        res = escape_rate_arch(2, 1, target_error=1e-12)
        assert res.escaped
        assert abs(res.value - want) < 1e-11
        assert res.error_bound < 1e-10

    def test_c_equals_three_matches_oracle(self):
        want = escape_rate_oracle(2, 3)  # 3 -> 12 -> 147 -> 21612 -> ...
        assert mp.nstr(want, 9) == "1.2476255"
        res = escape_rate_arch(2, 3, target_error=1e-12)
        assert res.escaped
        assert abs(res.value - want) < 1e-11

    def test_degree_three(self):
        want = escape_rate_oracle(3, Fraction(3, 2))
        res = escape_rate_arch(3, Fraction(3, 2), target_error=1e-12)
        assert res.escaped
        assert abs(res.value - want) < 1e-11

    def test_error_bound_is_honest(self):
        # tighter target must give a value within the looser bound
        loose = escape_rate_arch(2, 1, target_error=1e-6)
        tight = escape_rate_arch(2, 1, target_error=1e-20, precision_bits=320)
        assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound

    def test_continuity_outside_the_set(self):
        # |G(c) - G(c')| small for |c - c'| = 1e-6 on escaping samples
        rng_points = [Fraction(3, 1), Fraction(1, 1), Fraction(-5, 2), Fraction(13, 5)]
        delta = Fraction(1, 10**6)
        for c in rng_points:
            a = escape_rate_arch(2, c, target_error=1e-14)
            b = escape_rate_arch(2, c + delta, target_error=1e-14)
            assert a.escaped and b.escaped
            assert abs(a.value - b.value) < 1e-4

    def test_complex_c_matches_oracle_degree_two(self):
        # off the real axis the kernel's |z| upper bound carries up to 6 %
        # slack in every product radius; the values must not move
        for c in (0.5 + 0.5j, -0.75 + 0.25j, 0.375 + 0.375j, -0.75 + 0.0625j):
            want = escape_rate_oracle(2, c)
            res = escape_rate_arch(2, c, target_error=1e-12)
            assert res.escaped, c
            assert abs(res.value - want) <= res.error_bound < 1e-11, c

    def test_complex_c_matches_oracle_degree_three(self):
        for c in (0.5 + 0.75j, -0.25 + 1j, -0.25 + 0.8125j):
            want = escape_rate_oracle(3, c)
            res = escape_rate_arch(3, c, target_error=1e-12)
            assert res.escaped, c
            assert abs(res.value - want) <= res.error_bound < 1e-11, c

    def test_bounded_verdict_bounds_the_rate(self):
        # 1/4 + 10^-4 escapes slowly, past step 300: a 100-step bounded
        # verdict's error bound 2^-100 (log B + log 2) must hold its rate
        c = Fraction(1, 4) + Fraction(1, 10**4)
        bounded = escape_rate_arch(2, c, max_iter=100)
        escaped = escape_rate_arch(2, c)
        assert not bounded.escaped and escaped.escaped
        assert bounded.value == 0 < bounded.error_bound < 1e-29
        assert escaped.value + escaped.error_bound <= bounded.error_bound

    def test_bounded_orbit_at_precision_cap_runs_one_pass_per_level(self, monkeypatch):
        # c = -2 from z = 1/2 stays in [-2, 2], but its enclosure degenerates
        # at every precision up to the cap; each pass computes its bail
        # radius once, and the last pass's window is the verdict
        import pcflab.heights as H

        precs = []
        bail = H._bail_radius

        def counted(d, c_abs_hi):
            precs.append(mp.mp.prec)
            return bail(d, c_abs_hi)

        monkeypatch.setattr(H, "_bail_radius", counted)
        res = local_height_arch(2, -2, Fraction(1, 2))
        assert not res.escaped and res.value == 0
        assert 0 < res.iterations_used < H.DEFAULT_MAX_ITER
        assert float(res.error_bound * 2**res.iterations_used) == pytest.approx(math.log(4))
        assert precs == [wp + 32 for wp in (256, 512, 1024, 2048, 4096)]

    def test_wide_input_ball_stops_doubling(self, monkeypatch):
        # the -sqrt(2) conjugate as a 256-bit root disk (radius ~3.6e-96): from
        # 544 bits on, its own radius, not rounding, limits the window, so a
        # third pass would certify the same 1951 steps again
        import pcflab.heights as H
        from pcflab.rootfinder import CoefficientEvaluator, all_roots

        p = P([-2, 0, 1])
        c = min(all_roots(p, 256, CoefficientEvaluator(p)).roots, key=lambda b: b.center.real)
        precs = []
        bail = H._bail_radius

        def counted(d, c_abs_hi):
            precs.append(mp.mp.prec)
            return bail(d, c_abs_hi)

        monkeypatch.setattr(H, "_bail_radius", counted)
        res = escape_rate_arch(2, c, target_error=1e-6, max_iter=4096)
        assert not res.escaped and res.value == 0
        assert res.iterations_used == 1951
        assert precs == [288, 544]
        # B = 2 (1 + 2^-20): the window's bound is 2^-1951 (log B + log 2)
        assert float(res.error_bound * 2**res.iterations_used) == pytest.approx(math.log(4))


class TestLocalHeightFunctional:
    def test_fixed_point_zero(self):
        res = local_height_arch(2, 0, 0, max_iter=64)
        assert not res.escaped and res.value == 0

    def test_pure_power_map(self):
        # c = 0, |z| > 1: lambda(z) = log|z| exactly; lambda(100) = 2 lambda(10)
        r = local_height_functional_check(2, 0, 10)
        assert r < 1e-12

    def test_spec_sample_point(self):
        r = local_height_functional_check(2, 1, 3, precision_bits=128)
        assert r < 1e-10

    def test_grid(self):
        pts = [(Fraction(1), Fraction(3)), (Fraction(-2), Fraction(5, 2)), (Fraction(1, 2), Fraction(7, 3))]
        for c, z in pts:
            assert local_height_functional_check(2, c, z) < 1e-10


class TestNewtonPolygon:
    def test_half_at_two(self):
        # 2t - 1: root 1/2 has v_2 = -1
        assert conjugate_valuations(P([-1, 2]), 2) == [(Fraction(-1), 1)]
        assert nonarch_mass(P([-1, 2]), 2) == 1

    def test_sqrt2_at_two(self):
        # t^2 - 2: both roots have v_2 = 1/2; no denominator mass
        assert conjugate_valuations(P([-2, 0, 1]), 2) == [(Fraction(1, 2), 2)]
        assert nonarch_mass(P([-2, 0, 1]), 2) == 0

    def test_mixed_slopes(self):
        # (2t - 1)(t - 2) = 2t^2 - 5t + 2: valuations -1 and +1 at p = 2
        assert sorted(conjugate_valuations(P([2, -5, 2]), 2)) == [
            (Fraction(-1), 1),
            (Fraction(1), 1),
        ]

    def test_mass_equals_lead_valuation_for_primitive(self):
        import random

        rng = random.Random(31)
        for _ in range(40):
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(2, 7))]
            p = P(coeffs)
            if p.is_zero or p.degree < 1:
                continue
            p = p.primitive_part()
            for prime in (2, 3, 5, 7):
                from pcflab.numtheory import valuation

                lead_val = valuation(p.lead, prime) if p.lead else 0
                assert nonarch_mass(p, prime) == lead_val

    @pytest.mark.parametrize("place", [-2, 1, 4])
    def test_non_prime_place_raises(self, place):
        for f in (heights.newton_polygon_slopes, conjugate_valuations, nonarch_mass):
            with pytest.raises(ValueError):
                f(P([1, 0, 4]), place)


class TestGreenNonarch:
    def test_half_at_two_gives_log_two(self):
        v = green_nonarch(Fraction(1, 2), 2)
        with mp.workprec(300):
            assert abs(v - mp.log(2)) < 1e-60

    def test_sqrt_two_at_two_vanishes(self):
        alpha = AlgebraicNumber.from_min_poly([-2, 0, 1], 0)
        assert green_nonarch(alpha, 2) == 0

    def test_unit_at_five(self):
        assert green_nonarch(3, 5) == 0

    def test_non_prime_place_raises(self):
        with pytest.raises(ValueError):
            green_nonarch(3, 1)
        with pytest.raises(ValueError):
            green_nonarch(AlgebraicNumber.from_min_poly([1, 0, 4], 0), 4)


class TestWeilHeight:
    def test_integer(self):
        with mp.workprec(300):
            assert abs(weil_height(2) - mp.log(2)) < 1e-70

    def test_inverse_of_three(self):
        with mp.workprec(300):
            assert abs(weil_height(Fraction(1, 3)) - mp.log(3)) < 1e-70

    def test_golden_ratio(self):
        # h = (1/2) log phi = 0.2406059...: Mahler measure of t^2 - t - 1 is phi
        alpha = AlgebraicNumber.from_min_poly([-1, -1, 1], 1)
        with mp.workprec(300):
            want = mp.log((1 + mp.sqrt(5)) / 2) / 2
            assert mp.nstr(want, 8) == "0.24060591"
            assert abs(weil_height(alpha) - want) < 1e-60


class TestCriticalHeightByPlace:
    """The critical height h(c) = sum over places of the critical escape
    rate, averaged over conjugates: escape_rate_arch at the archimedean
    place, green_nonarch at each prime."""

    def test_pcf_zero(self):
        res = escape_rate_arch(2, 0, max_iter=300)
        assert not res.escaped and res.value == 0
        # a bounded-after-N verdict, not a proof: the rate is only bounded
        assert 0 < res.error_bound < 1e-80
        assert all(green_nonarch(0, p) == 0 for p in (2, 3, 5))

    def test_pcf_basilica(self):
        res = escape_rate_arch(2, -1, max_iter=300)
        assert not res.escaped and res.value == 0
        assert res.iterations_used == 300

    def test_integer_point_is_pure_archimedean(self):
        res = escape_rate_arch(2, 1)
        want = escape_rate_oracle(2, 1)
        assert res.escaped
        assert abs(res.value - want) <= res.error_bound < 1e-10
        assert all(green_nonarch(1, p) == 0 for p in (2, 3, 5, 7))

    def test_one_half_has_finite_part(self):
        arch = escape_rate_oracle(2, Fraction(1, 2))
        assert arch is not None  # orbit 0.5 -> 0.75 -> 1.0625 -> ... escapes
        res = escape_rate_arch(2, Fraction(1, 2))
        assert res.escaped and abs(res.value - arch) < 1e-10
        with mp.workprec(300):
            assert abs(green_nonarch(Fraction(1, 2), 2) - mp.log(2)) < 1e-60
        assert green_nonarch(Fraction(1, 2), 3) == 0

    def test_golden_ratio_embeddings(self):
        # the conjugate 1 - phi = -0.618... lies inside the Mandelbrot set, so
        # only the phi embedding contributes, and at half weight
        alpha = AlgebraicNumber.from_min_poly([-1, -1, 1], 1)
        o1 = escape_rate_oracle(2, mp.mpf("-0.61803398874989484820458683436563811772"))
        assert o1 is None
        o2 = escape_rate_oracle(2, mp.mpf("1.61803398874989484820458683436563811772"))
        rates = {}
        for b in alpha.conjugates():
            res = escape_rate_arch(2, b, max_iter=600)
            rates[round(float(b.center.real), 3)] = res
        assert set(rates) == {-0.618, 1.618}
        assert not rates[-0.618].escaped and rates[-0.618].value == 0
        assert rates[-0.618].error_bound < 1e-100
        assert rates[1.618].escaped and abs(rates[1.618].value - o2) < 1e-9
        assert all(green_nonarch(alpha, p) == 0 for p in (2, 3, 5))

    def test_pcf_roots_have_tiny_height(self):
        from pcflab.critical_orbit import exact_period_factor, factor_evaluator
        from pcflab.rootfinder import all_roots

        desc = exact_period_factor(2, 3)
        ps = all_roots(desc.poly, 256, factor_evaluator(desc))
        assert len(ps.roots) == 3
        for b in ps.roots:
            res = escape_rate_arch(2, b, max_iter=400)
            assert not res.escaped and res.value == 0
            assert res.error_bound < 1e-8
        assert all(nonarch_mass(desc.poly, p) == 0 for p in (2, 3, 5))


class TestPcfGate:
    def test_rational_cases(self):
        assert is_pcf_parameter(2, 0)
        assert is_pcf_parameter(2, -1)
        assert is_pcf_parameter(2, -2)
        assert not is_pcf_parameter(2, 1)
        assert not is_pcf_parameter(2, Fraction(1, 2))  # not an algebraic integer
        assert not is_pcf_parameter(3, -1)  # 0 -> -1 -> -2 -> -9 -> ... escapes

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_integers_take_the_orbit_path(self, d):
        # integers go through the same Z[t]/(A) orbit and escape test as
        # every other algebraic integer
        for a in range(-10, 11):
            assert is_pcf_parameter(d, a) == integer_orbit_is_finite(d, a), a

    def test_algebraic_cases(self):
        period3 = AlgebraicNumber.from_min_poly([1, 1, 2, 1], 0)
        assert is_pcf_parameter(2, period3)
        golden = AlgebraicNumber.from_min_poly([-1, -1, 1], 1)
        assert not is_pcf_parameter(2, golden)

    def test_reducible_input_keeps_the_selected_factor(self):
        # c^2 + c - 2 = (c + 2)(c - 1); its root 0 is -2, which is PCF
        alpha = AlgebraicNumber.from_min_poly([-2, 1, 1], 0)
        assert alpha.min_poly.coeffs == (2, 1)
        assert is_pcf_parameter(2, alpha)
        # c^3 - 2c = c(c^2 - 2): the selected -sqrt(2) keeps c^2 - 2
        alpha = AlgebraicNumber.from_min_poly([0, -2, 0, 1], 0)
        assert alpha.min_poly.coeffs == (-2, 0, 1)
        assert float(alpha.selected_conjugate().center.real) == pytest.approx(-2**0.5)


    def test_reducible_quartic_is_decided_by_its_selected_root_only(self):
        # (c^2 + c - 1)(c^2 + 1) stays whole: its roots are -1.618, -i, i, 0.618
        quartic = [-1, 1, 0, 1, 1]
        assert AlgebraicNumber.from_min_poly(quartic, 2).degree == 4
        # i is PCF, and 0.618, of the other factor, escapes: no verdict
        with pytest.raises(HypothesisUndecided):
            is_pcf_parameter(2, AlgebraicNumber.from_min_poly(quartic, 2))
        # a selected root that escapes still decides
        assert not is_pcf_parameter(2, AlgebraicNumber.from_min_poly(quartic, 3))

    def test_eisenstein_criterion(self):
        assert heights._eisenstein(IntPolynomial([-2, 0, 0, 0, 1]))  # at 2
        assert heights._eisenstein(IntPolynomial([18, 12, 0, 0, 1]))  # at 2, not 3
        assert heights._eisenstein(IntPolynomial([-3 * 16381, 0, 0, 0, 1]))  # at 16381
        assert not heights._eisenstein(IntPolynomial([4, 0, 0, 0, 1]))  # (c^2+2c+2)(c^2-2c+2)
        assert not heights._eisenstein(IntPolynomial([-1, 1, 0, 1, 1]))
        # past the prime bound: g itself, a proven prime, is tried
        assert heights._eisenstein(IntPolynomial([-16411, 0, 0, 0, 1]))
        assert heights._eisenstein(IntPolynomial([-2 * 2 * 16411, 0, 0, 0, 1]))  # cofactor 16411
        # a composite cofactor, 16411 * 16417, is not tried
        assert not heights._eisenstein(IntPolynomial([-16411 * 16417, 0, 0, 0, 1]))

    def test_eisenstein_quartic_needs_no_balls(self, monkeypatch):
        # c^4 - 2 is irreducible: the escape of 2^(1/4) decides for all four
        # roots, the bounded -2^(1/4) included
        alphas = [AlgebraicNumber.from_min_poly([-2, 0, 0, 0, 1], k) for k in range(4)]

        def refuse(*args, **kwargs):
            raise AssertionError("the exact gate isolated or iterated a ball")

        monkeypatch.setattr(heights, "escape_rate_arch", refuse)
        monkeypatch.setattr(heights, "all_roots", refuse)
        monkeypatch.setattr(AlgebraicNumber, "conjugates", refuse)
        for alpha in alphas:
            assert alpha.degree == 4
            assert not is_pcf_parameter(2, alpha)

    @pytest.mark.parametrize("d", [2, 3])
    def test_box_matches_recorded_verdicts(self, d):
        # verdicts recorded from the escape-rate gate this one replaces; the
        # integers -10..10 are test_integers_take_the_orbit_path's
        pcf = {(2, (1, 0, 1)), (3, (1, 0, 1)), (2, (1, 1, 2, 1))}
        for coeffs, alpha in box_alphas():
            assert is_pcf_parameter(d, alpha) == ((d, coeffs) in pcf), coeffs

    @pytest.mark.parametrize("d", [2, 3])
    def test_degree_three_and_below_need_no_balls(self, monkeypatch, d):
        expected = {c: is_pcf_parameter(d, a) for c, a in box_alphas()}

        def refuse(*args, **kwargs):
            raise AssertionError("the exact gate isolated or iterated a ball")

        monkeypatch.setattr(heights, "escape_rate_arch", refuse)
        monkeypatch.setattr(heights, "all_roots", refuse)
        monkeypatch.setattr(AlgebraicNumber, "conjugates", refuse)
        assert {c: is_pcf_parameter(d, a) for c, a in box_alphas()} == expected
        for a in range(-10, 11):
            assert is_pcf_parameter(d, a) == integer_orbit_is_finite(d, a), a

    @pytest.mark.parametrize("d", [2, 3])
    def test_witness_names_a_conjugate_beyond_the_cauchy_bound(self, d):
        # Tr(u_n) is the sum of the ball orbits at the conjugates, and one
        # of those balls is certifiably outside |z| <= R when the witness fires
        from pcflab.critical_orbit import orbit
        from pcflab.polynomials import ZERO, X, divmod_exact

        fired = 0
        for coeffs, alpha in box_alphas():
            A = alpha.min_poly
            R = max(2, 1 + max(map(abs, A.coeffs[:-1])))
            t = heights.Residue(divmod_exact(X, A)[1], A)
            exact = orbit(d, t, heights.Residue(ZERO, A))
            for n, u in enumerate(islice(exact, 8)):
                if heights._escape_witness(u, R):
                    break
            else:
                continue
            fired += 1
            with mp.workprec(288):
                prec = mp.mp.prec
                zs = []
                for b in alpha.conjugates(256):
                    cb = heights._as_fixed(b)
                    zs.append(next(islice(orbit(d, cb, heights._as_fixed(0)), n, None)))
                assert max(z.abs_bounds()[0] for z in zs) > R << prec, coeffs
                total = sum((z.ball().center for z in zs), mp.mpc(0))
                assert abs(total - u.trace()) <= 1e-30 * (1 + abs(total)), coeffs
        assert fired == len(box_alphas()) - (2 if d == 2 else 1)

    def test_power_sums_are_the_conjugates(self):
        # Newton's identities against the certified conjugates' power sums
        for coeffs, alpha in box_alphas():
            with mp.workprec(288):
                conj = alpha.conjugates(256)
                want = [sum(b.center**j for b in conj) for j in range(len(conj))]
            got = heights._power_sums(alpha.min_poly)
            assert all(abs(g - w) < 1e-60 for g, w in zip(got, want, strict=True)), coeffs

    def test_spent_budget_is_undecided(self, monkeypatch):
        monkeypatch.setattr(heights, "ORBIT_CAP", 1)
        with pytest.raises(HypothesisUndecided):
            is_pcf_parameter(2, AlgebraicNumber.from_min_poly([-1, -1, 1], 1))


class TestConjugateMemo:
    def test_one_squarefree_check_per_conjugate_set(self, monkeypatch):
        from pcflab import polynomials, rootfinder
        from pcflab.cli import parse_alpha

        heights._root_disks.cache_clear()
        calls = []
        real = rootfinder.is_squarefree

        def counted(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(rootfinder, "is_squarefree", counted)
        monkeypatch.setattr(polynomials, "is_squarefree", counted)
        alpha = parse_alpha("5,1,3:0")
        first = alpha.conjugates(256)
        assert alpha.conjugates(256) is first
        assert len(calls) == 1

    def test_non_squarefree_input_is_a_value_error(self):
        with pytest.raises(ValueError, match="squarefree"):
            AlgebraicNumber.from_min_poly([1, 2, 1], 0)  # (c + 1)^2


class TestBoundedWindowModulus:
    def test_no_64_step_bounded_orbit_outside_modulus_bound(self):
        # contrapositive of the bounded-orbit modulus bound: every parameter
        # with |c| > 2^(1/(d-1)) + 1e-6 escapes within a 64-step window
        import math

        for d in (2, 3):
            bound = 2 ** (1 / (d - 1))
            for k in range(40):
                ang = 2 * math.pi * k / 40 + 0.05
                c = complex((bound + 1e-6) * math.cos(ang), (bound + 1e-6) * math.sin(ang))
                res = escape_rate_arch(d, mp.mpc(c), max_iter=64, precision_bits=96)
                assert res.escaped, (d, c)


class TestLipschitzWindow:
    def test_hundred_pair_grid_outside_the_set(self):
        # |G(c) - G(c')| stays Lipschitz-small for |c - c'| = 1e-6 on a ring
        # of escaping parameters
        import math

        pairs = 0
        delta = Fraction(1, 10**6)
        for k in range(100):
            ang = 2 * math.pi * k / 100
            c = mp.mpc(2.5 * math.cos(ang), 2.5 * math.sin(ang))
            a = escape_rate_arch(2, c, target_error=1e-12, precision_bits=96)
            b = escape_rate_arch(2, c + mp.mpf(float(delta)), target_error=1e-12, precision_bits=96)
            assert a.escaped and b.escaped
            assert abs(a.value - b.value) <= 10 * float(delta)
            pairs += 1
        assert pairs == 100

"""Critical-orbit polynomials, factors, and their degree laws."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import mpmath as mp

from pcflab.critical_orbit import (
    ExactPeriodEvaluator,
    GleasonEvaluator,
    MisiurewiczEvaluator,
    _jets,
    exact_period_factor,
    enumerate_factors,
    factor_evaluator,
    gleason,
    gleason_cache_path,
    gleason_evaluator,
    misiurewicz_factor,
    orbit,
    write_gleason_cache,
)
from pcflab.errors import DegreeCapExceeded, FactorizationStructureViolated
from pcflab.fixedball import FixedBall, FixedPoint
from pcflab.heights import Residue
from pcflab.numtheory import divisors, mobius
from pcflab.polynomials import (
    ZERO,
    IntPolynomial,
    X,
    divide_exact,
    divmod_exact,
    evaluate_exact,
    is_squarefree,
    resultant,
    serialize,
)
from pcflab.rootfinder import CoefficientEvaluator, ScaledArray

from oracles import horner_fraction, naive_divmod, naive_gcd, naive_mul

P = IntPolynomial


class TestGleason:
    def test_small_cases(self):
        assert gleason(2, 1).coeffs == (0, 1)  # c
        assert gleason(2, 2).coeffs == (0, 1, 1)  # c^2 + c
        # g_3 = g_2^2 + c, frozen from the schoolbook product oracle
        expected = naive_mul([0, 1, 1], [0, 1, 1])
        expected[1] += 1
        assert expected == [0, 1, 1, 2, 1]
        assert gleason(2, 3).coeffs == tuple(expected)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3), (5, 3)])
    def test_degree_law(self, d, n):
        assert gleason(d, n).degree == d ** (n - 1)
        assert gleason(d, n).is_monic

    def test_degree_27_monic_for_d3(self):
        g = gleason(3, 4)
        assert g.degree == 27 and g.is_monic

    def test_zero_is_always_pcf(self):
        for d in (2, 3, 4):
            for n in range(1, 6):
                assert evaluate_exact(gleason(d, n), 0) == 0

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            gleason(3, 20)
        with pytest.raises(DegreeCapExceeded):
            gleason(2, 20)

    def test_recurrence_against_evaluation(self):
        # g_{k+1}(a) = g_k(a)^d + a at a rational point, exactly
        a = Fraction(1, 3)
        for d in (2, 3):
            vals = [Fraction(0)]
            for _ in range(5):
                vals.append(vals[-1] ** d + a)
            for n in range(1, 6):
                assert evaluate_exact(gleason(d, n), a) == vals[n]


class TestOrbit:
    """orbit(d, c, start) gives u_n = g_n(c) in the rings of the PCF gate and
    the Vieta average; the evaluator oracles below cover the jets."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(3), Fraction(7, 3), Fraction(-5, 2)])
    def test_fractions(self, d, alpha):
        us = list(islice(orbit(d, alpha, Fraction(0)), 6))
        assert us[0] == 0
        for n in range(1, 6):
            assert us[n] == evaluate_exact(gleason(d, n), alpha)
            # so the numerator is b^(d^(n-1)) g_n(a/b), an integer
            assert us[n].denominator == alpha.denominator ** (d ** (n - 1))

    @pytest.mark.parametrize(
        "d, coeffs",
        [(2, [-3, 1]), (2, [-1, -1, 1]), (2, [1, 1, 2, 1]), (3, [-3, 1]), (3, [-1, -1, 1]),
         (3, [1, 1, 2, 1]), (3, [-2, 0, 1])],
    )
    def test_residues(self, d, coeffs):
        A = P(coeffs)
        t = Residue(divmod_exact(X, A)[1], A)
        for n, u in enumerate(islice(orbit(d, t, Residue(ZERO, A)), 6 if d == 2 else 5)):
            assert u.poly == divmod_exact(gleason(d, n), A)[1], n


class TestOrbitF64:
    """The float64 orbit, the jets of ScaledArray lanes, against mpmath for
    large d, where |u_k|^d is far outside float64 range: u_2 = 1.2^4096 + 1.2
    is about 2^1077."""

    CS = [1.2, 1.05 + 0.3j, -1.3, 0.9 + 0.7j]

    @pytest.mark.parametrize("d", [100, 600, 4096])
    def test_log_modulus_and_newton_ratio_match_mpmath(self, d):
        with np.errstate(all="ignore"):
            z = ScaledArray(np.array(self.CS, dtype=np.complex128))
            jets = _jets(d, z, ScaledArray.lift, 4)
            # u_0 = 0 has no log and no Newton ratio
            logs = [None] + [u.v.s + np.log2(np.abs(u.v.m)) for u in jets[1:]]
            ratios = [None] + [(u.v / u.d).complex128() for u in jets[1:]]
        # at 64 bits the oracle itself is off by up to 8.8e-13 at d = 4096
        with mp.workprec(200):
            for i, c in enumerate(self.CS):
                u = du = mp.mpc(0)
                for k in range(1, 5):
                    u, du = u**d + c, d * u ** (d - 1) * du + 1
                    want = float(mp.log(abs(u), 2))
                    assert abs(logs[k][i] - want) <= 1e-12 * max(1, abs(want))
                    ratio = complex(u / du)
                    assert abs(ratios[k][i] - ratio) <= 1e-12 * abs(ratio), (c, k)

    def test_gleason_newton_ratio_is_finite_at_d_100(self):
        step = GleasonEvaluator(100, 3).newton_f64(np.array([1.2 + 0j]))
        assert np.isfinite(step).all() and step[0] != 0


def _exact_step(poly: IntPolynomial, z: complex) -> complex:
    """p(z) / p'(z) at 4000 bits, by Horner on the exact coefficients."""
    with mp.workprec(4000):
        val, der = mp.polyval(list(reversed(poly.coeffs)), mp.mpc(z), derivative=True)
        return complex(val / der)


class TestNewtonF64Oracle:
    """The float64 Newton step of every evaluator kind against p/p' from the
    exact coefficients, near M_d and far out, where |z|^deg leaves float64
    range (1000^128 for g_8 of d=2)."""

    POINTS = [0.5 + 0.5j, -2.1 + 0.1j, 0.4 - 1.1j, 1.5j, -0.75 + 0.2j, 0.3 + 0.05j,
              -1.2 + 0.3j, 1000j, -300 + 40j]

    def assert_steps(self, poly, ev, label):
        got = ev.newton_f64(np.array(self.POINTS, dtype=np.complex128))
        assert got.dtype == np.complex128
        for z, step in zip(self.POINTS, got.tolist()):
            want = _exact_step(poly, z)
            assert abs(step - want) <= 1e-12 * abs(want), (label, z)

    @pytest.mark.parametrize("d,top", [(2, 8), (3, 5), (4, 4)])
    def test_orbit_evaluators(self, d, top):
        for n in range(1, top + 1):
            self.assert_steps(gleason(d, n), gleason_evaluator(d, n), f"g_{n}")
        for f in enumerate_factors(d, top):
            self.assert_steps(f.poly, factor_evaluator(f), f.label)

    @pytest.mark.parametrize(
        "coeffs",
        [[-1, -1, 1], [-2, 0, 0, 1], [1, 0, 4], [16411, 16411, 0, 0, 1], [3, -1, 4, 1, 5],
         # 250-digit coefficients
         [-(10**250 - 3), 17, 10**249 + 1, 5]],
        ids=["golden", "cbrt2", "4c2+1", "quartic-16411", "quartic", "wide"],
    )
    def test_coefficient_evaluator(self, coeffs):
        p = P(coeffs)
        self.assert_steps(p, CoefficientEvaluator(p), coeffs)

    def test_zero_step_at_exact_float_roots(self):
        period2 = exact_period_factor(2, 2)
        assert factor_evaluator(period2).newton_f64(np.array([-1 + 0j])).tolist() == [0]
        mis = misiurewicz_factor(2, 2, 3)
        assert factor_evaluator(mis).newton_f64(np.array([0j, -2 + 0j])).tolist() == [0, 0]


class TestPreperiodic:
    # P_{m,n} = g_n - g_m vanishes at the c with f_c^m(0) = f_c^n(0)
    def test_examples(self):
        assert (gleason(2, 2) - gleason(2, 0)).coeffs == (0, 1, 1)  # g_0 = 0
        assert (gleason(2, 2) - gleason(2, 1)).coeffs == (0, 0, 1)  # c^2
        assert (gleason(2, 3) - gleason(2, 1)).coeffs == (0, 0, 1, 2, 1)  # c^4+2c^3+c^2

    def test_degree(self):
        for d, m, n in [(2, 1, 4), (3, 2, 3)]:
            assert (gleason(d, n) - gleason(d, m)).degree == d ** (n - 1)


class TestExactPeriodFactor:
    def test_small_factors(self):
        assert exact_period_factor(2, 1).poly.coeffs == (0, 1)
        assert exact_period_factor(2, 2).poly.coeffs == (1, 1)  # c + 1, degree 1
        assert exact_period_factor(2, 3).poly.coeffs == (1, 1, 2, 1)  # c^3+2c^2+c+1

    def test_mobius_degrees(self):
        for n in range(1, 11):
            assert exact_period_factor(2, n).poly.degree == sum(
                mobius(n // k) * 2 ** (k - 1) for k in divisors(n)
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_product_reassembles_gleason(self, d):
        max_n = 10 if d == 2 else 6
        for n in range(1, max_n + 1):
            prod = P([1])
            for k in divisors(n):
                prod = prod * exact_period_factor(d, k).poly
            assert prod == gleason(d, n)


class TestMisiurewiczFactor:
    def test_level_1_2(self):
        desc = misiurewicz_factor(2, 1, 2)
        assert desc.poly.coeffs == (0, 1)  # c; root 0 is periodic, so strict is trivial
        assert desc.strict_poly.coeffs == (1,)

    def test_level_2_3_contains_minus_two(self):
        desc = misiurewicz_factor(2, 2, 3)
        # orbit of 0 at c=-2 is 0 -> -2 -> 2 -> 2: g_3(-2) = g_2(-2) by Horner
        assert horner_fraction([0, 1, 1, 2, 1], Fraction(-2)) == horner_fraction(
            [0, 1, 1], Fraction(-2)
        )
        assert evaluate_exact(desc.strict_poly, -2) == 0
        assert desc.strict_poly.coeffs == (2, 1)  # c + 2

    def test_level_1_3_is_purely_periodic(self):
        # f(0) = f^3(0) forces 0 periodic: no strictly preperiodic roots exist,
        # and c = -2 in particular is NOT a root (g_3(-2) - g_1(-2) = 4)
        desc = misiurewicz_factor(2, 1, 3)
        assert horner_fraction([0, 1, 1, 2, 1], Fraction(-2)) - Fraction(-2) == 4
        assert desc.poly.coeffs == (0, 1, 1)
        assert desc.strict_poly.degree <= 0

    def test_strict_part_disjoint_from_periodic_factors(self):
        desc = misiurewicz_factor(2, 2, 3)
        for k in range(1, 4):
            assert resultant(desc.strict_poly, exact_period_factor(2, k).poly) != 0

    def test_divides_preperiodic_poly(self):
        for d, m, n in [(2, 2, 4), (2, 3, 5), (3, 2, 4)]:
            desc = misiurewicz_factor(d, m, n)
            # poly divides P_{m,n} = g_n - g_m: resultant-free check via exact division
            quot, rem = divmod_exact(gleason(d, n) - gleason(d, m), desc.poly)
            assert rem.is_zero

    def test_multiplicity_layer_for_d3(self):
        # d=3: the cofactor has double roots where both orbits vanish; the
        # squarefree factor keeps them once
        desc = misiurewicz_factor(3, 2, 4)
        assert evaluate_exact(desc.poly, 0) == 0
        assert evaluate_exact(desc.strict_poly, 0) != 0

    @pytest.mark.parametrize("d,max_n", [(2, 8), (3, 6), (4, 4)])
    def test_factor_is_strict_part_times_g_q(self, d, max_n):
        # poly = raw / g_q^(d-2) and strict = poly / g_q; poly is what strict
        # times g_q gave, from raw / g_q^(d-1)
        for n in range(2, max_n + 1):
            for m in range(1, n):
                desc = misiurewicz_factor(d, m, n)
                a, b = gleason(d, n - 1), gleason(d, m - 1)
                gq = gleason(d, math.gcd(n - 1, m - 1))
                raw = ZERO
                for j in range(d):
                    raw = raw + a**j * b ** (d - 1 - j)
                assert desc.poly == desc.strict_poly * gq
                assert desc.poly == divide_exact(raw, gq ** (d - 1)) * gq

    @pytest.mark.parametrize("d", [2, 3])
    def test_g_q_not_dividing_raw_raises(self, d, monkeypatch):
        # (m, n) = (3, 6) has q = 1; c + 1 in place of g_1 divides no cofactor
        import pcflab.critical_orbit as co

        real = co.gleason
        monkeypatch.setattr(co, "gleason", lambda d, k: P([1, 1]) if k == 1 else real(d, k))
        with pytest.raises(FactorizationStructureViolated) as exc:
            misiurewicz_factor(d, 3, 6)
        assert str(exc.value) == (
            f"misiurewicz cofactor (d={d}, m=3, n=6) not divisible by g_q^(d-1)"
        )


def _naive_add(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _naive_pow(p: list, k: int) -> list:
    out = [1]
    for _ in range(k):
        out = naive_mul(out, p)
    return out


def _small_levels():
    for d, max_n in ((2, 7), (3, 5), (4, 4)):
        for n in range(2, max_n + 1):
            for m in range(1, n):
                yield d, m, n


class TestMisiurewiczOracle:
    """The factor construction against schoolbook arithmetic on small levels."""

    @pytest.mark.parametrize("d,m,n", list(_small_levels()))
    def test_against_naive_cofactor(self, d, m, n):
        desc = misiurewicz_factor(d, m, n)
        a = list(gleason(d, n - 1).coeffs)
        b = list(gleason(d, m - 1).coeffs) if m > 1 else []
        raw = []
        for j in range(d):
            raw = _naive_add(raw, naive_mul(_naive_pow(a, j), _naive_pow(b, d - 1 - j)))
        # the cofactor identity g_n - g_m = (a - b) * raw
        assert naive_mul(raw, _naive_add(a, [-c for c in b])) == list(
            (gleason(d, n) - gleason(d, m)).coeffs
        )
        # poly is the primitive squarefree part of raw
        draw = [i * c for i, c in enumerate(raw)][1:]
        quot, rem = naive_divmod(raw, naive_gcd(raw, draw))
        assert not rem
        den = math.lcm(*(c.denominator for c in quot))
        ints = [int(c * den) for c in quot]
        g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
        assert list(desc.poly.coeffs) == [c // g for c in ints]
        # strict_poly shares no root with any period-j factor, j | n - m
        strict = list(desc.strict_poly.coeffs)
        for j in divisors(n - m):
            assert len(naive_gcd(strict, list(exact_period_factor(d, j).poly.coeffs))) == 1


class _Schoolbook:
    """Integer polynomials as coefficient lists whose products are naive_mul:
    orbit run on them builds each g_n with no packed product."""

    def __init__(self, coeffs: list):
        self.coeffs = coeffs

    def __add__(self, other):
        return _Schoolbook(_naive_add(self.coeffs, other.coeffs))

    def __pow__(self, k: int):
        return _Schoolbook(_naive_pow(self.coeffs, k))


class TestSchoolbookOrbit:
    """gleason and the Misiurewicz factors for d = 3 and 4, above the
    Kronecker cutoff, against the orbit run on schoolbook products and
    divided over Q."""

    @pytest.mark.parametrize("d,max_n", [(3, 6), (4, 5)])
    def test_gleason_and_misiurewicz_factors(self, d, max_n):
        g = [u.coeffs for u in islice(orbit(d, _Schoolbook([0, 1]), _Schoolbook([])), max_n + 1)]
        assert [list(gleason(d, n).coeffs) for n in range(max_n + 1)] == g
        for n in range(2, max_n + 1):
            for m in range(1, n):
                a, b, gq = g[n - 1], g[m - 1], g[math.gcd(n - 1, m - 1)]
                raw = []
                for j in range(d):
                    raw = _naive_add(raw, naive_mul(_naive_pow(a, j), _naive_pow(b, d - 1 - j)))
                poly, rem = naive_divmod(raw, _naive_pow(gq, d - 2))
                assert not rem
                strict, rem = naive_divmod(poly, gq)
                assert not rem
                desc = misiurewicz_factor(d, m, n)
                assert list(desc.poly.coeffs) == poly
                assert list(desc.strict_poly.coeffs) == strict


class TestLatticeInvariants:
    """What the factor construction guarantees by theorem, checked here once
    instead of on every run: Gleason's lemma (g_n squarefree, monic of degree
    d^(n-1)), the Möbius degree of the exact-period parts, and Hutz-Towsley
    for the Misiurewicz factors and their strictly preperiodic parts."""

    @pytest.mark.parametrize("d,max_n", [(2, 11), (3, 7), (4, 5), (5, 4)])
    def test_lattice(self, d, max_n):
        for n in range(1, max_n + 1):
            g = gleason(d, n)
            assert g.is_monic and g.degree == d ** (n - 1)
        for desc in enumerate_factors(d, max_n):
            assert is_squarefree(desc.poly), desc.label
            if desc.kind == "exact-period":
                assert desc.poly.degree == sum(
                    mobius(desc.n // k) * d ** (k - 1) for k in divisors(desc.n)
                ), desc.label
            else:
                assert is_squarefree(desc.strict_poly), desc.label


class TestFactorBytes:
    # sha256 over the serialized factors of two enumerations: the factor
    # exports of `enumerate` must not change by a byte when the construction does
    GOLDEN = "63550e2792cf33d04e090daba6611ad9f0a59cdae94441bff51cf1ee29da39db"

    def test_serialized_factors_are_pinned(self):
        h = hashlib.sha256()
        for d, max_n in ((2, 9), (3, 6)):
            for desc in enumerate_factors(d, max_n):
                h.update(f"d={d} {desc.label}\n".encode())
                h.update(serialize(desc.poly).encode())
                if desc.strict_poly is not None:
                    h.update(serialize(desc.strict_poly).encode())
        assert h.hexdigest() == self.GOLDEN


class TestEnumerateAndCache:
    def test_enumerate_counts(self):
        factors = enumerate_factors(2, 4)
        kinds = [f.kind for f in factors]
        assert kinds.count("exact-period") == 4
        assert kinds.count("misiurewicz") == 6  # (m,n): 1<=m<n<=4

    def test_cache_roundtrip(self, tmp_path):
        path = write_gleason_cache(tmp_path, 2, 5)
        assert path == gleason_cache_path(tmp_path, 2, 5)
        assert path.read_text() == serialize(gleason(2, 5))
        before = path.read_bytes()
        write_gleason_cache(tmp_path, 2, 5)
        assert path.read_bytes() == before


class TestConcurrency:
    def test_parallel_table_growth(self):
        # the memoized g_k table takes a lock for writes; hammer it from
        # several threads and check everyone sees identical polynomials
        from concurrent.futures import ThreadPoolExecutor

        import pcflab.critical_orbit as co

        co._tables.pop(7, None)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda n: gleason(7, n), [3, 4, 4, 3, 4, 3, 4, 4]))
        ref3 = gleason(7, 3)
        ref4 = gleason(7, 4)
        for poly in results:
            assert poly in (ref3, ref4)
        assert ref4.degree == 343


def _grid_fraction(x: int, prec: int) -> Fraction:
    """The grid integer x as the rational x * 2^-prec."""
    return Fraction(x, 1 << prec)


class TestEvaluatorOracle:
    """Each evaluator formula against exact rational evaluation of its polynomial."""

    CASES = [
        ("gleason", lambda: (gleason(3, 4), gleason_evaluator(3, 4))),
        ("period-6", lambda: _factor_case(exact_period_factor(2, 6), ExactPeriodEvaluator)),
        ("period-4-d3", lambda: _factor_case(exact_period_factor(3, 4), ExactPeriodEvaluator)),
        ("misiurewicz-1-5", lambda: _factor_case(misiurewicz_factor(2, 1, 5), GleasonEvaluator)),
        ("misiurewicz-3-6", lambda: _factor_case(misiurewicz_factor(2, 3, 6), MisiurewiczEvaluator)),
        ("misiurewicz-2-4-d3", lambda: _factor_case(misiurewicz_factor(3, 2, 4), MisiurewiczEvaluator)),
        # q = gcd(n-1, m-1) > 1: R_i runs over the sigma_d products
        ("misiurewicz-4-7-d3", lambda: _factor_case(misiurewicz_factor(3, 4, 7), MisiurewiczEvaluator)),
        ("misiurewicz-3-5-d4", lambda: _factor_case(misiurewicz_factor(4, 3, 5), MisiurewiczEvaluator)),
        ("misiurewicz-3-5-d5", lambda: _factor_case(misiurewicz_factor(5, 3, 5), MisiurewiczEvaluator)),
        ("coefficients", lambda: (exact_period_factor(2, 5).poly,
                                  CoefficientEvaluator(exact_period_factor(2, 5).poly))),
    ]

    @pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
    def test_ball_contains_exact_value_and_mp_agrees(self, name, make):
        poly, ev = make()
        dpoly = poly.derivative()
        prec = 192
        # odd dyadic points are never roots of a monic integer polynomial
        for x in [Fraction(k, 16) for k in range(-33, 9, 2)] + [Fraction(-7, 4), Fraction(3, 8)]:
            val, der = evaluate_exact(poly, x), evaluate_exact(dpoly, x)
            with mp.workprec(prec):
                z = mp.mpc(mp.mpf(x.numerator) / x.denominator)
                zb = FixedBall.from_mpc(z, prec)
                assert zb.rad == 0  # a dyadic point enters the grid exactly
                for ball, exact in zip(ev.value_deriv_ball(zb), (val, der)):
                    re, im = _grid_fraction(ball.re, prec), _grid_fraction(ball.im, prec)
                    assert (re - exact) ** 2 + im**2 <= _grid_fraction(ball.rad, prec) ** 2, (name, x)
                step = ev.newton_mp(FixedPoint(zb.re, zb.im, prec))
                ratio = val / der
                err = abs(_grid_fraction(step.re, prec) - ratio) + abs(_grid_fraction(step.im, prec))
                assert err <= abs(ratio) * Fraction(2) ** (24 - prec), (name, x)


def test_factor_evaluator_refuses_unknown_kind():
    # a lattice factor never falls back to Horner on its coefficients
    desc = dataclasses.replace(exact_period_factor(2, 3), kind="quotient")
    with pytest.raises(ValueError, match="quotient"):
        factor_evaluator(desc)


def _factor_case(desc, kind):
    ev = factor_evaluator(desc)
    assert type(ev) is kind
    return desc.poly, ev

"""Meeting primes, exact residue tests, and the integrality census."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pcflab.cli import main
from pcflab.critical_orbit import enumerate_factors
from pcflab.errors import HypothesisViolated
from pcflab.heights import AlgebraicNumber
from pcflab.integrality import (
    PrimeSet,
    census,
    is_S_integral,
    meeting_test_exact,
)
from pcflab.numtheory import is_prime, valuation
from pcflab.polynomials import IntPolynomial, evaluate_exact, resultant

from oracles import horner_fraction

P = IntPolynomial


class TestPrimeSet:
    def test_ordering_and_validation(self):
        s = PrimeSet.of([5, 2])
        assert s.primes == (2, 5)
        with pytest.raises(ValueError):
            PrimeSet((2, 4))
        with pytest.raises(ValueError):
            PrimeSet((5, 2))


class TestMeetingPrimes:
    def test_basilica_center_vs_one(self):
        # B = t + 1 (x = -1), A = t - 1 (alpha = 1): |Res| = 2
        assert is_S_integral(P([1, 1]), 1, []).meeting_primes == {2}

    def test_origin_vs_one(self):
        # B = t (x = 0): Res = A(0) = -1, unit resultant
        assert is_S_integral(P([0, 1]), 1, []).meeting_primes == set()

    def test_period3_vs_one(self):
        b = P([1, 1, 2, 1])
        assert abs(horner_fraction([1, 1, 2, 1], Fraction(1))) == 5
        assert is_S_integral(b, 1, []).meeting_primes == {5}

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_S_integral(P([1, 2]), 1, [])

    def test_refuses_a_shared_root(self):
        # B = t - 1 vanishes at alpha = 1: Res = 0
        with pytest.raises(ValueError):
            is_S_integral(P([-1, 1]), 1, [])

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(41)
        for _ in range(25):
            b1 = P([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            b2 = P([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            a = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            if a.is_zero:
                continue
            r1, r2, r12 = resultant(b1, a), resultant(b2, a), resultant(b1 * b2, a)
            if 0 in (r1, r2):
                continue
            assert abs(r12) == abs(r1) * abs(r2)
            for p in (2, 3, 5, 7, 11):
                v = valuation(r12, p) if r12 % p == 0 else 0
                v1 = valuation(r1, p) if r1 % p == 0 else 0
                v2 = valuation(r2, p) if r2 % p == 0 else 0
                assert v == v1 + v2


class TestMeetingTestExact:
    def test_basilica_meets_one_at_two(self):
        assert meeting_test_exact(P([1, 1]), P([-1, 1]), 2)  # -1 = 1 mod 2

    def test_half_never_meets_integral_factor_at_two(self):
        # alpha = 1/2 is non-integral at 2, so the definition's second branch
        # applies and no meeting happens
        assert not meeting_test_exact(P([1, 1]), P([-1, 2]), 2)

    def test_period3_meets_one_at_five(self):
        b = P([1, 1, 2, 1])
        assert horner_fraction([1, 1, 2, 1], Fraction(1)) % 5 == 0
        assert meeting_test_exact(b, P([-1, 1]), 5)
        assert not meeting_test_exact(b, P([-1, 1]), 3)

    def test_agrees_with_fast_path_for_integral_alpha(self):
        # for a monic A, B and A meet at p exactly when p divides Res(B, A)
        rng = random.Random(43)
        for _ in range(30):
            b = P([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] + [1])
            a = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
            r = resultant(b, a)
            if r == 0:
                continue
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 97):
                assert (r % p == 0) == meeting_test_exact(b, a, p)


    def test_prime_above_int64_range(self):
        # products of residues mod 2^61 - 1 overflow int64; the gcd must still end
        p = 2**61 - 1
        a = P([p, -(1 + p), 1])  # (x - 1)(x - p) = x(x - 1) mod p
        assert meeting_test_exact(P([-1, 1]), a, p)
        assert not meeting_test_exact(P([-2, 1]), a, p)
        assert not meeting_test_exact(P([1, 2, 3, 4, 1, 1]), P([3, 5, 7, 11, 1]), p)


class TestIsSIntegral:
    def test_basilica_example(self):
        v = is_S_integral(P([1, 1]), 1, PrimeSet.of([2]))
        assert v.is_S_integral and v.meeting_primes == {2}
        v = is_S_integral(P([1, 1]), 1, PrimeSet.of([3]))
        assert not v.is_S_integral and v.meeting_primes == {2}

    def test_origin_always_integral(self):
        for s in ([], [2], [3, 7]):
            assert is_S_integral(P([0, 1]), 1, PrimeSet.of(s)).is_S_integral

    def test_non_integral_alpha_uses_exact_path(self):
        alpha = AlgebraicNumber.from_rational(Fraction(1, 2))
        v = is_S_integral(P([1, 1]), alpha, PrimeSet.of([]))
        # x = -1 vs alpha = 1/2: meets nowhere finite (|x - a|_2 = 2, |x-a| Res support {3})
        r = resultant(P([1, 1]), P([-1, 2]))
        assert abs(r) == 3
        assert v.meeting_primes == {3}
        assert not v.is_S_integral
        assert is_S_integral(P([1, 1]), alpha, PrimeSet.of([3])).is_S_integral

    def test_exact_path_overrides_fast_at_lead_primes(self):
        # A = 2t^2 - 7t + 7, irreducible (discriminant -7). Mod 2 it is
        # t + 1, so its 2-adically integral conjugate is 1 mod 2 and x = 1
        # meets it at p=2, but the normalization v_p(Res) > deg(B) * v_p(lead)
        # misses it: v_2(Res) = 1 = deg(B) * v_2(lead), not strictly greater.
        b = P([-1, 1])
        a = P([7, -7, 2])
        r = resultant(b, a)
        assert valuation(r, 2) == 1 and b.degree * valuation(2, 2) == 1
        assert meeting_test_exact(b, a, 2)
        v = is_S_integral(b, AlgebraicNumber.from_min_poly([7, -7, 2], 0), PrimeSet.of([]))
        assert 2 in v.meeting_primes


class TestCensus:
    def test_ground_truth_levels_3(self):
        res = census(2, 3, 1, PrimeSet.of([2, 5]))
        by_label = {r.label: r for r in res.rows}
        assert by_label["period-1"].meeting_primes == ()
        assert by_label["period-2"].meeting_primes == (2,)
        assert by_label["period-3"].meeting_primes == (5,)
        assert res.s_integral_count == 3
        # the only nontrivial strictly-preperiodic factor at level <= 3 is c+2,
        # which meets alpha=1 at 3 only
        assert by_label["misiurewicz-2-3"].meeting_primes == (3,)
        assert not by_label["misiurewicz-2-3"].is_S_integral

    def test_empty_finite_s(self):
        res = census(2, 3, 1, PrimeSet.of([]))
        winners = [r.label for r in res.rows if r.is_S_integral and r.kind == "exact-period"]
        assert winners == ["period-1"]

    def test_pcf_alpha_rejected(self):
        with pytest.raises(HypothesisViolated):
            census(2, 2, 0, PrimeSet.of([2]))
        with pytest.raises(HypothesisViolated):
            census(2, 2, -1, PrimeSet.of([2]))

    def test_tsv_shape(self):
        res = census(2, 3, 1, PrimeSet.of([2, 5]))
        lines = res.to_tsv().strip().splitlines()
        assert lines[0].startswith("kind\tm\tn\t")
        assert len(lines) == len(res.rows) + 1


def _census_polys(d: int, max_n: int) -> dict:
    """(kind, m, n) -> the polynomial census reports on for that factor."""
    return {
        (f.kind, f.m, f.n): f.poly if f.kind == "exact-period" else f.strict_poly
        for f in enumerate_factors(d, max_n)
    }


class TestCensusCompleteness:
    # for an integer alpha, A = x - alpha is monic and Res(B, A) = +-B(alpha):
    # the meeting primes are exactly its prime support

    def test_integer_alpha_primes_multiply_back(self):
        polys = _census_polys(3, 5)
        res = census(3, 5, 3, PrimeSet.of([2, 3]))
        assert len(res.rows) == sum(1 for b in polys.values() if b.degree >= 1)
        for row in res.rows:
            value = abs(evaluate_exact(polys[(row.kind, row.m, row.n)], 3))
            assert all(is_prime(p) for p in row.meeting_primes), row.label
            assert math.prod(p ** valuation(value, p) for p in row.meeting_primes) == value

    def test_three_halves_scan(self, tmp_path, capsys):
        # its resultants include 17 * 15667 * 22123 * 10324393, where one gcd per
        # ECM curve takes in every factor at once
        code = main(["integral-scan", "--d", "2", "--max-n", "7", "--alpha=3/2",
                     "--S", "2,3,5", "--cache", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        polys = _census_polys(2, 7)
        rows = [line.split("\t") for line in out.splitlines()
                if not line.startswith(("#", "kind"))]
        assert len(rows) == sum(1 for b in polys.values() if b.degree >= 1)
        for kind, m, n, _, primes, _ in rows:
            B = polys[(kind, None if m == "-" else int(m), int(n))]
            listed = [] if primes == "-" else [int(p) for p in primes.split(",")]
            assert all(is_prime(p) for p in listed)
            # Res(B, 2x - 3) = +-2^deg(B) B(3/2); away from lead(A) = 2 the
            # listed primes account for all of it
            value = abs(int(evaluate_exact(B, Fraction(3, 2)) * 2**B.degree))
            odd = value // 2 ** valuation(value, 2)
            assert math.prod(p ** valuation(odd, p) for p in listed if p != 2) == odd

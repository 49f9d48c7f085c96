"""Factoring: trial division, budgeted Pollard-Brent, then Lenstra ECM."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflab.numtheory import (
    _ecm,
    _ecm_curve,
    _pollard_brent,
    _primes,
    factorize,
    is_prime,
    valuation,
)

P10 = 1477733329
P13 = 1968992521747
P18 = 874473710687861827
# the period-5 resultant of d = 3 against alpha = 3
RES_40 = P10 * P13 * P18
# 17 * 15667 * 22123 * 10324393: one gcd at the end of stage 1 takes in
# every factor at once on every curve
TRAP = 60833571145382921

SMALL_PRIMES = (97, 101, 7919, 10007, 65537, 999983, 15485863, 999999937,
                P10, 10000000019, 999999999989, P13)
LARGE_PRIMES = (1000000000000037, 99999999999999997, P18)
# (n, the factor Pollard-Brent returns for it): the sign of the differences
# in rho's product must change no gcd, and so no returned factor
RHO_FACTORS = [(p * P18, p) for p in SMALL_PRIMES if p < 10**8] + [(TRAP // 17, 15667 * 22123)]


def test_fixed_primes_are_prime():
    for p in SMALL_PRIMES + LARGE_PRIMES:
        assert is_prime(p), p
    assert [len(str(p)) for p in (97, P13, P18)] == [2, 13, 18]


def test_sieve_matches_trial_division():
    expect = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    assert list(_primes(0, 200)) == expect
    assert list(_primes(100, 200)) == [p for p in expect if p >= 100]


class TestFactorize:
    def test_forty_digit_resultant(self):
        assert factorize(RES_40) == {P10: 1, P13: 1, P18: 1}

    def test_gcd_equals_n_trap(self):
        assert factorize(TRAP) == {17: 1, 15667: 1, 22123: 1, 10324393: 1}

    @pytest.mark.parametrize("e", [2, 3])
    def test_power_of_13_digit_prime(self, e):
        assert factorize(P13**e) == {P13: e}

    def test_one_negative_zero(self):
        assert factorize(1) == {}
        assert factorize(-1) == {}
        assert factorize(-360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-RES_40) == factorize(RES_40)
        with pytest.raises(ValueError):
            factorize(0)

    def test_strong_pseudoprime(self):
        # a strong pseudoprime to every prime base up to 23
        n = 3825123056546413051
        assert not is_prime(n)
        assert factorize(n) == {149491: 1, 747451: 1, 34233211: 1}

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(SMALL_PRIMES), min_size=0, max_size=4),
        st.lists(st.sampled_from(LARGE_PRIMES), min_size=0, max_size=1),
    )
    def test_product_of_known_primes(self, small, large):
        primes = small + large
        expect: dict[int, int] = {}
        for p in primes:
            expect[p] = expect.get(p, 0) + 1
        assert factorize(math.prod(primes)) == expect


class TestValuation:
    def test_signs(self):
        assert valuation(-24, 2) == 3
        assert valuation(24, -2) == 3
        assert valuation(7, 2) == 0

    @pytest.mark.parametrize("p", [-1, 0, 1])
    def test_no_place_below_two(self, p):
        with pytest.raises(ValueError):
            valuation(8, p)


class TestStages:
    def test_rho_budget_gives_up(self):
        # a 13-digit smallest factor is past the Pollard-Brent budget, and so
        # is this 9-digit one; the 8-digit one is within it
        assert _pollard_brent(P13 * P18) is None
        assert _pollard_brent(15485863 * P18) == 15485863
        assert _pollard_brent(999999937 * P18) is None

    @pytest.mark.parametrize("n, factor", RHO_FACTORS)
    def test_rho_factor_is_pinned(self, n, factor):
        assert _pollard_brent(n) == factor

    def test_ecm_splits_13_by_18_digit_semiprime(self):
        assert _ecm(P13 * P18) in (P13, P18)

    def test_stage_two_finds_what_stage_one_misses(self):
        # on the curve of seed 9 the group order mod P13 has one prime factor
        # between 2000 and 200000
        n = P13 * P18
        assert _ecm_curve(n, 9, 2000, 2000) is None
        assert _ecm_curve(n, 9, 2000, 200_000) == P13

    def test_ecm_curve_never_returns_n(self):
        n = TRAP // 17
        for sigma in range(6, 30):
            g = _ecm_curve(n, sigma, 2000, 100_000)
            assert g is None or (1 < g < n and n % g == 0)
        g = _ecm(n)
        assert 1 < g < n and n % g == 0

"""Factoring: trial division, budgeted Pollard-Brent, then Lenstra ECM."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcflab
from pcflab import numtheory
from pcflab.integrality import census
from pcflab.numtheory import (
    _ECM_D,
    _ecm,
    _ecm_curve,
    _pollard_brent,
    _primes,
    _stage2_plan,
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
# {sigma: factor} for every sigma in 6..45 on which _ecm_curve(n, sigma, 1000,
# 100_000) splits n, recorded with a gcd after every prime of stage 1 and
# every prime of stage 2 multiplied in on its own; the other seeds give None
CURVE_SPLITS = {
    P13 * P18: {12: P13, 16: P13, 20: P13, 31: P13, 33: P13, 34: P13, 42: P13},
    RES_40: {7: P10, 8: P10, 9: P10, 11: P10, 12: P13, 14: P10, 16: P13, 20: P13,
             23: P10, 24: P10, 29: P10, 30: P10, 31: P13, 32: P10, 33: P13, 34: P13,
             35: P10, 36: P10, 38: P10, 41: P10, 42: P13},
}


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
        # curve i has seed 6 + i; the first to split P13 * P18 is seed 12
        n = P13 * P18
        assert _ecm(n, 0) == (P13, 7)
        assert _ecm(n, 3) == (P13, 7)
        assert _ecm(n, 7) == (P13, 11)

    @pytest.mark.parametrize("n", list(CURVE_SPLITS))
    def test_curve_outcomes_are_pinned(self, n):
        got = {s: _ecm_curve(n, s, 1000, 100_000) for s in range(6, 46)}
        assert got == {s: CURVE_SPLITS[n].get(s) for s in range(6, 46)}

    def test_stage_two_finds_what_stage_one_misses(self):
        # on the curve of seed 9 the group order mod P13 has one prime factor
        # between 2000 and 200000
        n = P13 * P18
        assert _ecm_curve(n, 9, 2000, 2000) is None
        assert _ecm_curve(n, 9, 2000, 200_000) == P13

    def test_ecm_curve_never_returns_n(self):
        # each curve's gcd at the end of a stage 1 chunk takes in more than one
        # factor; redone a prime at a time, it returns what a gcd after every
        # prime returns (recorded that way)
        n = TRAP // 17
        a, b = 15667, 22123
        pinned = [a, b, b, a, a, b, a, b, a, a, b, b, a, b, a, a, b, b, b, b, a * b, b, b, a]
        for sigma, expect in zip(range(6, 30), pinned):
            g = _ecm_curve(n, sigma, 2000, 100_000)
            assert g == expect and 1 < g < n and n % g == 0
        assert _ecm(n, 0) == (15667, 1)


class TestStageTwoPlan:
    @pytest.mark.parametrize("b1", [2, 50, 104, 105, 1000, 2000])
    def test_every_prime_in_range_is_on_the_plan(self, b1):
        b2 = 100 * b1
        m, plan = _stage2_plan(b1, b2)
        steps = plan.split(b"\0")
        assert m == (b1 + _ECM_D // 2) // _ECM_D
        for p in _primes(b1 + 1, b2 + 1):
            g = (p + _ECM_D // 2) // _ECM_D - m
            assert abs(p - (m + g) * _ECM_D) in steps[g], (b1, p)
        for g, step in enumerate(steps):
            c = (m + g) * _ECM_D
            assert len(set(step)) == len(step)  # each distinct j once
            for j in step:
                assert 0 < j < _ECM_D // 2
                assert any(b1 < q <= b2 and is_prime(q) for q in (c - j, c + j)), (b1, c, j)

    def test_paired_primes_share_a_product(self):
        # 9,424 primes in (1000, 100000], one product per distinct j of each step
        m, plan = _stage2_plan(1000, 100_000)
        assert len(_primes(1001, 100_001)) == 9424
        assert len(plan) - plan.count(0) == 7411

    def test_first_step_primes_below_half_d(self):
        # B1 < D/2: the first step is centred at 0 and its j are the primes
        # themselves, including 3, 5 and 7, which divide D
        m, plan = _stage2_plan(2, 200)
        assert m == 0
        assert list(plan.split(b"\0")[0]) == list(_primes(3, 105))


@contextmanager
def recorded(curve=None):
    """Record every rho call's n and every curve's (n, sigma) in two lists;
    curve, if given, stands in for _ecm_curve."""
    rho, curves = [], []
    real_rho, real_curve = numtheory._pollard_brent, curve or numtheory._ecm_curve

    def count_rho(m):
        rho.append(m)
        return real_rho(m)

    def count_curve(m, sigma, b1, b2):
        curves.append((m, sigma))
        return real_curve(m, sigma, b1, b2)

    with mock.patch.object(numtheory, "_pollard_brent", count_rho), \
            mock.patch.object(numtheory, "_ecm_curve", count_curve):
        yield rho, curves


class TestResumedSearch:
    def test_census_work_is_pinned(self):
        # census(3, 5, 3, [2, 3]) factors the period-5 resultant; the parts of
        # each ECM split used to start again with rho and seed 6: 6 rho passes
        # and 10 curves then, 5 and 8 now
        with recorded() as (rho, curves):
            census(3, 5, 3, [2, 3])
        assert (len(rho), len(curves)) == (5, 8)

    def test_split_parts_skip_rho_and_resume(self):
        # seed 7 splits off P10; P13 * P18 goes on at seed 8, with no rho
        with recorded() as (rho, curves):
            out = factorize(RES_40)
        assert out == {P10: 1, P13: 1, P18: 1}
        assert rho == [RES_40]
        assert curves == [(RES_40, 6), (RES_40, 7)] + [(P13 * P18, s) for s in range(8, 13)]

    def test_both_composite_parts_resume(self):
        # a curve that splits n into two composites: each part's first curve
        # is the next seed, and neither part runs rho
        P16 = 1000000000000037
        n = RES_40 * P16

        def curve(m, sigma, b1, b2):
            return P10 * P13 if (m, sigma) == (n, 7) else _ecm_curve(m, sigma, b1, b2)

        with recorded(curve) as (rho, curves):
            out = factorize(n)
        assert out == {P10: 1, P13: 1, P18: 1, P16: 1}
        assert rho == [n]
        first = {}
        for m, sigma in curves:
            first.setdefault(m, sigma)
        assert first[n] == 6
        assert first[P10 * P13] == first[P18 * P16] == 8


def test_import_builds_no_ecm_tables():
    # the stage 1 chunks and the stage 2 plan are built on first use, so a
    # run that never reaches ECM pays nothing for them
    src = str(Path(pcflab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import pcflab.cli, pcflab.numtheory as nt; "
             "print(nt._stage1_chunks.cache_info().currsize, nt._stage2_plan.cache_info().currsize)")
    res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.stdout.split() == ["0", "0"], res.stderr

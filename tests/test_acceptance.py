"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete (they also appear in captured output on failure). Tolerances
are pinned here, not configurable: they are the exit criteria of the build.

Heavy root sets are memoized by (polynomial hash, precision) so criteria share
work; the full module runs in a few minutes, dominated by the degree-2160
certified root isolation that criterion 2 requires at d = 3.
"""

from __future__ import annotations

import filecmp
import random
import time
from fractions import Fraction

import mpmath as mp

import pcflab.balls as bl
from pcflab.bounds import LinearFormInput, beg_lower_bound, mahler_separation_bound
from pcflab.critical_orbit import (
    enumerate_factors,
    exact_period_factor,
    factor_evaluator,
    gleason,
    gleason_evaluator,
)
from pcflab.equidist import avg_log_distance_roots, avg_log_distance_vieta, discrepancy_report, fitted_min_constant
from pcflab.heights import (
    AlgebraicNumber,
    escape_rate_arch,
    green_nonarch,
    local_height_functional_check,
    weil_height,
)
from pcflab.integrality import PrimeSet, census
from pcflab.numtheory import divisors, factorize, mobius
from pcflab.polynomials import IntPolynomial, squarefree_part
from pcflab.rootfinder import all_roots, min_pairwise_distance, poly_hash

from oracles import horner_fraction

_ROOT_MEMO: dict = {}


def roots_of(poly, bits, evaluator):
    key = (poly_hash(poly), bits)
    if key not in _ROOT_MEMO:
        _ROOT_MEMO[key] = all_roots(poly, bits, evaluator)
    return _ROOT_MEMO[key]


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_01_degree_laws(self):
        t0 = time.perf_counter()
        checked = 0
        for d in (2, 3, 4, 5):
            n = 1
            while d ** (n - 1) <= 4096:
                assert gleason(d, n).degree == d ** (n - 1)
                assert gleason(d, n).is_monic
                checked += 1
                n += 1
        for n in range(1, 11):
            desc = exact_period_factor(2, n)
            want = sum(mobius(n // k) * 2 ** (k - 1) for k in divisors(n))
            assert desc.poly.degree == want
        elapsed = time.perf_counter() - t0
        report(
            1,
            elapsed < 10.0,
            f"deg g_n = d^(n-1) on {checked} cases (d=2..5, cap 4096) and Möbius "
            f"factor degrees for d=2, n<=10, in {elapsed:.2f}s (< 10s)",
        )

    def test_02_modulus_bound(self):
        worst_margin = None
        total = 0
        for d in (2, 3):
            bound = mp.mpf(2) ** (mp.mpf(1) / (d - 1)) + mp.mpf(1e-12)
            for desc in enumerate_factors(d, 8):
                if desc.poly.degree < 1:
                    continue
                ps = roots_of(desc.poly, 128, factor_evaluator(desc))
                for b in ps.roots:
                    over = (abs(b.center) + b.radius) - bound
                    worst_margin = over if worst_margin is None else max(worst_margin, over)
                    total += 1
        report(
            2,
            worst_margin is not None and worst_margin <= 0,
            f"all {total} roots of every level-<=8 factor (d=2,3) obey "
            f"|c| <= 2^(1/(d-1)) + 1e-12 at 128 bits "
            f"(worst slack {mp.nstr(-worst_margin, 4)})",
        )

    def test_03_vieta_roots_agreement(self):
        t0 = time.perf_counter()
        tol = mp.mpf(2) ** -64
        worst = mp.mpf(0)
        combos = 0
        for n in range(1, 11):
            ps = roots_of(gleason(2, n), 256, gleason_evaluator(2, n))
            for a in (Fraction(1), Fraction(3), Fraction(-3), Fraction(1, 2)):
                with mp.workprec(300):
                    vieta = avg_log_distance_vieta(2, n, a, 256)
                    numeric = avg_log_distance_roots(ps, bl.exact_ball(a))
                    worst = max(worst, abs(vieta - numeric.value) + numeric.error_bound)
                combos += 1
        elapsed = time.perf_counter() - t0
        report(
            3,
            worst < tol and elapsed < 60.0,
            f"|vieta - roots| <= {mp.nstr(worst, 4)} < 2^-64 over {combos} combos "
            f"(d=2, n<=10, alpha in {{1,3,-3,1/2}}), {elapsed:.1f}s (< 60s)",
        )

    def test_04_escape_rate_realized(self):
        vieta = avg_log_distance_vieta(2, 12, Fraction(1), 256)
        iterated = escape_rate_arch(2, 1, target_error=1e-14, precision_bits=256)
        diff = abs(vieta - iterated.value)
        report(
            4,
            iterated.escaped and diff < 1e-6,
            f"|avg_log_distance_vieta(2,12,1) - G_2(1)| = {mp.nstr(diff, 4)} < 1e-6 "
            f"(G_2(1) = {mp.nstr(iterated.value, 12)} by tail-bounded iteration)",
        )

    def test_05_rate_shape(self):
        reports = []
        for alpha in (1, 3):
            reports.extend(discrepancy_report(2, range(3, 13), alpha, tau=0.5, C=1.0))
        fitted = fitted_min_constant(reports)
        report(
            5,
            all(r.passed for r in reports) and fitted < 1.0,
            f"discrepancy <= (log N/N)^(1/2)(log^+|alpha| + 1/tau) on all "
            f"{len(reports)} cases (d=2, 3<=n<=12, alpha in {{1,3}}, tau=0.5); "
            f"fitted minimal C = {fitted:.4g} < 1",
        )

    def test_06_height_consistency(self):
        suite = [
            IntPolynomial([-2, 0, 1]),  # t^2 - 2
            IntPolynomial([-1, 3]),  # 3t - 1
            IntPolynomial([-1, -1, 1]),  # t^2 - t - 1
        ]
        rng = random.Random(2026)
        while len(suite) < 50:
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(2, 6))]
            p = IntPolynomial(coeffs)
            if p.is_zero or p.degree < 1:
                continue
            p = squarefree_part(p)
            if p.degree >= 1:
                suite.append(p)
        worst = mp.mpf(0)
        for p in suite:
            alpha = AlgebraicNumber.from_min_poly(p, 0, 256)
            with mp.workprec(320):
                mahler = weil_height(alpha, 256)
                arch = mp.mpf(0)
                for b in alpha.conjugates(256):
                    lo, hi = bl.log_plus_interval(b)
                    arch += (lo + hi) / 2
                local = arch / alpha.degree
                lead = abs(p.lead)
                if lead > 1:
                    for prime in sorted(factorize(lead)):
                        local += green_nonarch(alpha, prime, 256)
                worst = max(worst, abs(mahler - local))
        report(
            6,
            worst < mp.mpf(10) ** -20,
            f"Mahler-form == local-sum form within {mp.nstr(worst, 4)} < 1e-20 "
            f"over a {len(suite)}-polynomial suite at 256 bits",
        )

    def test_07_call_silverman(self):
        cs = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [
            Fraction(1, 2),
            Fraction(-5, 2),
            Fraction(3),
            Fraction(1, 4),
            Fraction(-3, 4),
        ]
        zs = [Fraction(v) for v in (0, 2, -2, 3, -3, 4, 10)] + [
            Fraction(5, 2),
            Fraction(-7, 3),
            Fraction(1, 2),
        ]
        worst = mp.mpf(0)
        for c in cs:
            for z in zs:
                r = local_height_functional_check(2, c, z, precision_bits=128)
                worst = max(worst, r)
        report(
            7,
            worst < mp.mpf(10) ** -10,
            f"max |lambda(z^2+c) - 2 lambda(z)| = {mp.nstr(worst, 4)} < 1e-10 "
            f"on the {len(cs)}x{len(zs)} sample grid",
        )

    def test_08_census_ground_truth(self):
        # independent Horner check of the three resultant evaluations first
        g1 = [0, 1]
        g2 = [1, 1]
        g3 = [1, 1, 2, 1]
        assert abs(horner_fraction(g1, Fraction(1))) == 1
        assert abs(horner_fraction(g2, Fraction(1))) == 2
        assert abs(horner_fraction(g3, Fraction(1))) == 5
        result = census(2, 3, 1, PrimeSet.of([2, 5]))
        by_label = {r.label: r for r in result.rows}
        ok = (
            by_label["period-1"].meeting_primes == ()
            and by_label["period-2"].meeting_primes == (2,)
            and by_label["period-3"].meeting_primes == (5,)
            and result.s_integral_count == 3
        )
        report(
            8,
            ok,
            "meeting primes = {} / {2} / {5} for the level-<=3 exact-period "
            "factors (alpha=1), Horner-verified; census with S={2,5} reports "
            f"{result.s_integral_count} S-integral factors",
        )

    def test_09_separation(self):
        worst_ratio = None
        checked = 0
        for desc in enumerate_factors(2, 8):
            if desc.poly.degree < 2:
                continue
            ps = roots_of(desc.poly, 128, factor_evaluator(desc))
            sep = min_pairwise_distance(ps)
            bound = mahler_separation_bound(desc.poly.degree, desc.poly.max_abs_coeff())
            assert sep >= bound.value, desc.label
            ratio = sep / bound.value
            worst_ratio = ratio if worst_ratio is None else min(worst_ratio, ratio)
            checked += 1
        report(
            9,
            checked > 0,
            f"min pairwise root distance >= separation bound for all {checked} "
            f"factors (d=2, n<=8); smallest actual/bound ratio {mp.nstr(worst_ratio, 4)}",
        )

    def test_10_beg_sanity(self):
        rng = random.Random(777)
        quads = []
        while len(quads) < 12:
            # nonzero constant term keeps every conjugate away from zero
            coeffs = [rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9])]
            coeffs += [rng.randint(-9, 9), rng.randint(1, 9)]
            p = squarefree_part(IntPolynomial(coeffs))
            if p.degree == 2 and p.coeffs[0] != 0:
                quads.append(AlgebraicNumber.from_min_poly(p, rng.randint(0, 1), 128))
        count = 0
        worst_gap = None
        while count < 200:
            if count % 5 == 4 and len(quads) >= 2:
                a1, a2 = rng.sample(quads, 2)
                x1 = a1.selected_conjugate(128).center
                x2 = a2.selected_conjugate(128).center
                degree = 4
            else:
                f1 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                f2 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                if f1 == f2:
                    continue
                a1, a2 = AlgebraicNumber.from_rational(f1), AlgebraicNumber.from_rational(f2)
                with mp.workprec(128):
                    x1, x2 = mp.mpc(mp.mpf(f1.numerator) / f1.denominator), mp.mpc(
                        mp.mpf(f2.numerator) / f2.denominator
                    )
                degree = 1
            with mp.workprec(128):
                if abs(x1) < mp.mpf(2) ** -30 or abs(x2) < mp.mpf(2) ** -30:
                    continue
                lam = x1 / x2 - 1
                if abs(lam) < mp.mpf(2) ** -40:
                    continue
                actual = mp.log(abs(lam))
            bound = beg_lower_bound(
                LinearFormInput(
                    heights=(float(weil_height(a1, 128)), float(weil_height(a2, 128))),
                    exponents=(1, -1),
                    field_degree=degree,
                    place_norm=2,
                )
            )
            gap = actual - bound
            assert gap > 0
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
            count += 1
        report(
            10,
            worst_gap is not None and worst_gap > 0,
            f"log|a1 a2^-1 - 1| exceeds the linear-forms lower bound on all 200 "
            f"samples (smallest margin {mp.nstr(worst_gap, 6)})",
        )

    def test_11_determinism(self, tmp_path):
        from pcflab.cli import main

        def full_run(cache):
            argsets = [
                ["enumerate", "--d", "2", "--max-n", "4", "--bits", "128", "--cache", str(cache)],
                ["integral-scan", "--d", "2", "--max-n", "3", "--alpha", "1", "--S", "2,5",
                 "--cache", str(cache)],
                ["equidist", "--d", "2", "--max-n", "6", "--alpha", "1", "--plot",
                 "--cache", str(cache)],
                ["bounds", "--d", "2", "--max-n", "4", "--cache", str(cache)],
                ["plot", "--d", "2", "--max-n", "3", "--bits", "128", "--cache", str(cache)],
            ]
            for args in argsets:
                assert main(args) == 0

        c1, c2 = tmp_path / "run1", tmp_path / "run2"
        full_run(c1)
        full_run(c2)
        files1 = sorted(p.relative_to(c1) for p in c1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(c2) for p in c2.rglob("*") if p.is_file())
        assert files1 == files2
        mismatches = [
            str(rel) for rel in files1 if not filecmp.cmp(c1 / rel, c2 / rel, shallow=False)
        ]
        report(
            11,
            not mismatches,
            f"two consecutive full runs byte-identical across {len(files1)} "
            f"cache/report/plot files" + (f"; mismatches: {mismatches}" if mismatches else ""),
        )

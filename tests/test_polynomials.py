"""Exact polynomial algebra: spec'd examples plus randomized oracle checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflab import critical_orbit, polynomials
from pcflab.critical_orbit import enumerate_factors
from pcflab.errors import NotDivisible
from pcflab.polynomials import (
    _SCHOOLBOOK_CUTOFF,
    IntPolynomial,
    divide_exact,
    divmod_exact,
    evaluate_exact,
    gcd,
    gcd_degree_mod,
    resultant,
    serialize,
    squarefree_part,
)

from oracles import (
    horner_fraction,
    naive_divmod,
    naive_gcd,
    naive_mul,
    numpy_gcd_degree_mod,
    sylvester_resultant,
)

P = IntPolynomial

small_polys = st.builds(
    P,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=9),
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


class TestBasics:
    def test_canonical_trim(self):
        assert P([1, 2, 0, 0]).coeffs == (1, 2)
        assert P([]).is_zero and P([0, 0]).is_zero
        assert P([0, 0]).degree == -1

    def test_immutable_and_hashable(self):
        p = P([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)
        assert hash(p) == hash(P([1, 2]))

    def test_mul_matches_schoolbook_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 30))]
            b = [rng.randint(-50, 50) for _ in range(rng.randint(1, 30))]
            assert (P(a) * P(b)).coeffs == tuple(naive_mul(a, b))

    def test_mul_kronecker_path_large(self):
        # force the packed path with sizes above the cutoff and mixed signs
        rng = random.Random(11)
        a = [rng.randint(-(10**12), 10**12) for _ in range(90)]
        b = [rng.randint(-(10**12), 10**12) for _ in range(77)]
        assert (P(a) * P(b)).coeffs == tuple(naive_mul(a, b))

    def test_pow(self):
        p = P([1, 1])
        assert (p**4).coeffs == (1, 4, 6, 4, 1)
        assert (P([]) ** 0).coeffs == (1,)
        assert (p**0).coeffs == (1,)


def packed(length: int) -> bool:
    """Whether a product of two polynomials of this many coefficients is packed."""
    return length * length > _SCHOOLBOOK_CUTOFF * _SCHOOLBOOK_CUTOFF // 16


SIGNED_RANGES = {"positive": (1, 10**15), "negative": (-(10**15), -1), "mixed": (-(10**15), 10**15)}


class TestPackedProducts:
    """Squares, powers and exact division above the Kronecker cutoff,
    against schoolbook arithmetic."""

    @pytest.mark.parametrize("signs", sorted(SIGNED_RANGES))
    def test_square_of_one_object(self, signs):
        rng = random.Random(signs)
        for size in (13, 40, 97):
            c = [rng.randint(*SIGNED_RANGES[signs]) for _ in range(size)]
            p = P(c)
            assert packed(size)
            assert (p * p).coeffs == tuple(naive_mul(c, c))
            assert (p * P(c)).coeffs == (p * p).coeffs  # an equal copy takes the product path

    @pytest.mark.parametrize("signs", sorted(SIGNED_RANGES))
    @pytest.mark.parametrize("k", range(7))
    def test_pow(self, signs, k):
        rng = random.Random(f"{signs}{k}")
        c = [rng.randint(*SIGNED_RANGES[signs]) for _ in range(20)]
        expected = [1]
        for _ in range(k):
            expected = naive_mul(expected, c)
        assert packed(20) and (P(c) ** k).coeffs == tuple(expected)

    @pytest.mark.parametrize("q", [
        [3, -1, 4, 1, -5, 9, 2, -6, 1],  # monic
        [3, -1, 4, 1, -5, 9, 2, -6, -7],  # non-monic
        [5, 0, 0, 0, 0, 0, 0, -2, 0, 0, 1],  # sparse, monic
        [-4, 0, 0, 0, 0, 0, 3],  # sparse, non-monic
        [0, 1],  # c
        [2, 1],  # c + 2
    ])
    def test_divide_exact(self, q):
        rng = random.Random(str(q))
        quot = [rng.randint(-(10**9), 10**9) for _ in range(60)]
        prod = naive_mul(quot, q)
        assert packed(len(quot)) and divide_exact(P(prod), P(q)).coeffs == tuple(quot)
        # a remainder of lower degree leaves the quotient as it was
        rem = [rng.randint(-50, 50) for _ in range(len(q) - 1)]
        rem[0] = rem[0] or 1
        off = [a + (rem[i] if i < len(rem) else 0) for i, a in enumerate(prod)]
        assert divmod_exact(P(off), P(q)) == (P(quot), P(rem))
        assert list(P(rem).coeffs) == naive_divmod(off, q)[1]
        with pytest.raises(NotDivisible):
            divide_exact(P(off), P(q))
        if abs(q[-1]) > 1:  # a top coefficient the divisor's lead does not divide
            with pytest.raises(NotDivisible):
                divide_exact(P(prod[:-1] + [prod[-1] + 1]), P(q))

    def test_gleason_table_squares_once_per_level(self, monkeypatch):
        # g_{k+1} = g_k**2 + c: one packed square of g_k's 2^(k-1) + 1 positive
        # coefficients at each level above the cutoff, and no product by 1
        sizes = []
        pack = polynomials._pack

        def counted(coeffs, stride_bytes):
            sizes.append(len(coeffs))
            return pack(coeffs, stride_bytes)

        monkeypatch.setattr(polynomials, "_pack", counted)
        monkeypatch.setattr(critical_orbit, "_tables", {})
        critical_orbit.gleason(2, 11)
        squared = [2 ** (k - 1) + 1 for k in range(1, 11)]
        assert sizes == [n for n in squared if packed(n)]
        assert len(sizes) == 6


PRIMES = (2, 3, 7, 2147483647, 2147483659, 2**61 - 1, 2**89 - 1)


class TestGcdDegreeMod:
    """Euclid on lists against the earlier numpy version (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(PRIMES),
        st.lists(st.integers(-(10**30), 10**30), max_size=8),
        st.lists(st.integers(-(10**30), 10**30), max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_matches_numpy_version(self, prime, a, b, shared, vanish):
        # a shared factor gives gcds of positive degree; vanish makes p a
        # multiple of the prime, so it reduces to zero
        p, q = naive_mul(a, shared), naive_mul(b, shared)
        if vanish:
            p = [c * prime for c in p]
        assert gcd_degree_mod(P(p), P(q), prime) == numpy_gcd_degree_mod(p, q, prime)

    def test_census_shapes(self):
        for desc in enumerate_factors(2, 6):
            f = list(desc.poly.coeffs)
            for g, prime in (([-7, 3], 3), ([4, 0, 9], 3), ([-1, -2, 2], 2), ([-1, 2], 2**31 + 11)):
                assert gcd_degree_mod(desc.poly, P(g), prime) == numpy_gcd_degree_mod(f, g, prime)

    def test_zero_reductions(self):
        assert gcd_degree_mod(P([7, 14]), P([1, 1]), 7) == -1
        assert gcd_degree_mod(P([1, 1]), P([2**61 - 1]), 2**61 - 1) == -1
        assert gcd_degree_mod(P([]), P([1]), 3) == -1
        assert gcd_degree_mod(P([1, 0, 1]), P([1, 1]), 2) == 1  # (x + 1)^2 and x + 1 mod 2
        assert gcd_degree_mod(P([5]), P([1, 1]), 3) == 0


class TestEvaluate:
    def test_simple_points(self):
        assert evaluate_exact(P([0, 1, 1]), 3) == 12
        assert evaluate_exact(P([0, 1]), 0) == 0

    def test_quartic_at_one_oracle(self):
        coeffs = [0, 1, 1, 2, 1]
        assert horner_fraction(coeffs, Fraction(1)) == 5
        assert evaluate_exact(P(coeffs), 1) == 5

    def test_rational_point(self):
        p = P([1, 0, 4])  # 4t^2 + 1
        assert evaluate_exact(p, Fraction(1, 2)) == 2


class TestDivideExact:
    def test_linear_factor(self):
        assert divide_exact(P([0, 1, 1]), P([0, 1])).coeffs == (1, 1)

    def test_quartic_by_t_oracle(self):
        assert divide_exact(P([0, 1, 1, 2, 1]), P([0, 1])).coeffs == (1, 1, 2, 1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact(P([1, 0, 1]), P([-1, 1]))  # (t^2+1)/(t-1), remainder 2

    @settings(max_examples=60)
    @given(nonzero_polys, nonzero_polys)
    def test_roundtrip(self, p, q):
        assert divide_exact(p * q, q) == p


class TestResultant:
    def test_spec_small_cases(self):
        assert resultant(P([0, 1]), P([-1, 1])) == -1  # Res(t, t-1)
        assert abs(resultant(P([1, 0, 1]), P([-1, 1]))) == 2
        p = P([2, 0, 3, 1])
        assert resultant(p, p) == 0

    def test_sign_convention_matches_sylvester_determinant(self):
        rng = random.Random(3)
        for _ in range(120):
            a = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
            b = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
            pa, pb = P(a), P(b)
            if pa.is_zero or pb.is_zero:
                continue
            want = sylvester_resultant(list(pa.coeffs), list(pb.coeffs))
            assert want.denominator == 1
            assert resultant(pa, pb) == want.numerator

    def test_constant_edges(self):
        assert resultant(P([5]), P([1, 2, 3])) == 25  # 5^deg q
        assert resultant(P([1, 2, 3]), P([5])) == 25
        assert resultant(P([4]), P([7])) == 1  # empty Sylvester matrix

    @settings(max_examples=80)
    @given(nonzero_polys, nonzero_polys)
    def test_antisymmetry(self, p, q):
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)

    def test_monic_linear_is_evaluation(self):
        rng = random.Random(17)
        for _ in range(40):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            p = P(coeffs)
            if p.is_zero:
                continue
            a = rng.randint(-5, 5)
            q = P([-a, 1])
            # q monic linear with root a: |Res(p, q)| = |p(a)|
            assert abs(resultant(p, q)) == abs(evaluate_exact(p, a))

    def test_census_factors_against_non_monic_linear(self):
        # every factor polynomial up to d = 2, n = 8 (degree up to 120) against
        # A = b t - a, whose root is a/b: Res(B, A) = (-b)^deg B * B(a/b)
        polys = {f for desc in enumerate_factors(2, 8) for f in (desc.poly, desc.strict_poly)}
        polys = [f for f in polys if f is not None and f.degree >= 1]
        assert max(f.degree for f in polys) == 120
        for B in polys:
            for a, b in ((7, 3), (-5, 2), (3, 1), (1, 4)):
                want = (-b) ** B.degree * evaluate_exact(B, Fraction(a, b))
                assert resultant(B, P([-a, b])) == want


def euclid_inverse(quotients, r, s):
    """(a, b) whose remainder sequence over Q ends ..., r, s: the quotients
    rebuild each remainder from the two after it."""
    for q in reversed(quotients):
        r, s = q * r + s, r
    return r, s


# (a, b) pairs whose remainder sequence drops degree by >= 2 in one step after
# the first, with negative and non-unit leads and content on either side; the
# last shares the factor -3t^2 + 2t - 7 (resultant 0)
_A1, _B1 = euclid_inverse([P([2, -3]), P([-5, 0, 1])], P([4, 1, 0, -2]), P([-1, 3]))
_A2, _B2 = euclid_inverse([P([1, 0, 0, -4])], P([3, 0, 0, 5]), P([-2, 7]))
_A3, _B3 = euclid_inverse([P([0, -1]), P([2, 0, 1])], P([1, 0, 0, 0, -3]), P([5]))
DEGREE_DROPS = [
    (_A1, _B1),
    (6 * _A1, _B1),
    (_A2, 4 * _B2),
    (10 * _A3, 15 * _B3),
    (P([-7, 2, -3]) * _A1, 2 * P([-7, 2, -3]) * _B1),
]


class TestDegreeDrops:
    @pytest.mark.parametrize("a, b", DEGREE_DROPS)
    def test_sequence_drops_degree(self, a, b):
        degrees, x, y = [], list(a.coeffs), list(b.coeffs)
        while y:
            degrees.append(len(y) - 1)
            x, y = y, naive_divmod(x, y)[1]
        assert any(hi - lo >= 2 for hi, lo in zip(degrees, degrees[1:]))

    @pytest.mark.parametrize("a, b", DEGREE_DROPS)
    def test_gcd_matches_oracle(self, a, b):
        cont = math.gcd(a.content(), b.content())
        want = [c * cont for c in naive_gcd(list(a.coeffs), list(b.coeffs))]
        assert gcd(a, b).coeffs == gcd(b, a).coeffs == tuple(want)

    @pytest.mark.parametrize("a, b", DEGREE_DROPS)
    def test_resultant_matches_sylvester_determinant(self, a, b):
        for p, q in ((a, b), (b, a)):
            want = sylvester_resultant(list(p.coeffs), list(q.coeffs))
            assert want.denominator == 1
            assert resultant(p, q) == want.numerator

    def test_shared_factor_has_resultant_zero(self):
        a, b = DEGREE_DROPS[-1]
        assert resultant(a, b) == 0 and gcd(a, b).degree >= 2


class TestGcdAndSquarefree:
    def test_squarefree_examples(self):
        assert squarefree_part(P([0, 0, 1])).coeffs == (0, 1)  # t^2 -> t
        assert squarefree_part(P([0, 1, 1])).coeffs == (0, 1, 1)
        sq = P([1, 1]) * P([1, 1]) * P([-2, 1])  # (t+1)^2 (t-2)
        assert squarefree_part(sq).coeffs == (-2, -1, 1)

    def test_gcd_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            a = [rng.randint(-8, 8) for _ in range(rng.randint(1, 6))]
            b = [rng.randint(-8, 8) for _ in range(rng.randint(1, 6))]
            common = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            pa, pb, pc = P(a), P(b), P(common)
            if pa.is_zero or pb.is_zero or pc.is_zero:
                continue
            g_lib = gcd(pa * pc, pb * pc).primitive_part()
            g_ora = naive_gcd(list((pa * pc).coeffs), list((pb * pc).coeffs))
            assert g_lib.coeffs == tuple(g_ora)

    def test_gcd_content_handling(self):
        assert gcd(P([6]), P([2, 4])).coeffs == (2,)
        assert gcd(P([]), P([-3, -6])).coeffs == (3, 6)


class TestSerialization:
    def test_text_form(self):
        assert serialize(P([-3, 0, 7, 120])) == "deg=3\n-3\n0\n7\n120\n"

    def test_zero_poly(self):
        assert serialize(P([])) == "deg=-1\n"


class TestResultantRootsCrosscheck:
    def test_resultant_matches_root_product(self):
        # |Res(p, q)| = |lead(q)|^deg(p) * prod |p(beta_j)| over the roots of q,
        # cross-validated against certified numeric roots at 256 bits
        import random

        import mpmath as mp

        from pcflab.rootfinder import CoefficientEvaluator, all_roots

        rng = random.Random(61)
        done = 0
        while done < 10:
            p = P([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
            q = P([rng.randint(-9, 9) for _ in range(rng.randint(3, 6))])
            if p.is_zero or q.is_zero or q.degree < 1:
                continue
            q = squarefree_part(q)
            if q.degree < 1:
                continue
            r = resultant(p, q)
            if r == 0:
                continue
            roots = all_roots(q, 256, CoefficientEvaluator(q))
            with mp.workprec(360):
                acc = mp.mpf(abs(q.lead)) ** p.degree
                for b in roots.roots:
                    val = mp.mpc(0)
                    for c in reversed(p.coeffs):
                        val = val * b.center + c
                    acc *= abs(val)
                assert abs(acc - abs(r)) / abs(r) < mp.mpf(10) ** -20
            done += 1

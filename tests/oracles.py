"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
schoolbook convolutions, Fraction-exact Gaussian elimination, bisection.
Slow is fine; these only run on small inputs.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp


def naive_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook coefficient convolution (ascending order)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_divmod(p: list[int], q: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over Q, ascending coefficient lists in, Fractions out."""
    rem = [Fraction(c) for c in p]
    dq = len(q) - 1
    lq = Fraction(q[-1])
    if len(rem) - 1 < dq:
        return [], rem
    quot = [Fraction(0)] * (len(rem) - dq)
    for k in range(len(rem) - 1 - dq, -1, -1):
        f = rem[k + dq] / lq
        quot[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, rem


def sylvester_resultant(p: list[int], q: list[int]) -> Fraction:
    """det of the Sylvester matrix with p-rows first, by Fraction elimination."""
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    if n == 0:
        return Fraction(1)
    pd = list(reversed(p))  # descending
    qd = list(reversed(q))
    rows = []
    for i in range(dq):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pd] + [Fraction(0)] * (dq - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qd] + [Fraction(0)] * (dp - 1 - i))
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
    return det


def naive_gcd(p: list[int], q: list[int]) -> list[int]:
    """Primitive gcd with positive lead, by monic Euclid over Q."""
    import math

    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        _, r = naive_divmod_frac(a, b)
        a, b = b, trim(r)
    if not a:
        return []
    # clear denominators, make primitive with positive lead
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def naive_divmod_frac(p: list[Fraction], q: list[Fraction]):
    rem = list(p)
    dq = len(q) - 1
    lq = q[-1]
    if len(rem) - 1 < dq:
        return [], rem
    quot = [Fraction(0)] * (len(rem) - dq)
    for k in range(len(rem) - 1 - dq, -1, -1):
        f = rem[k + dq] / lq
        quot[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def horner_fraction(coeffs: list[int], a: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def cubic_roots_oracle(coeffs: list[int], dps: int = 60):
    """Roots of a real cubic with one real root: bisection + quadratic formula.

    Companion-free on purpose; used to pin values for the period-3 factor
    x^3 + 2x^2 + x + 1 and friends.
    """
    assert len(coeffs) == 4

    def f(x):
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    with mp.workdps(dps):
        lo, hi = mp.mpf(-8), mp.mpf(8)
        assert f(lo) * f(hi) < 0
        for _ in range(dps * 4):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        r = (lo + hi) / 2
        # deflate: coeffs are a3 x^3 + a2 x^2 + a1 x + a0 = a3 (x - r)(x^2 + bx + c)
        a3, a2, a1, _ = [mp.mpf(c) for c in reversed(coeffs)]
        b = a2 / a3 + r
        c = a1 / a3 + r * b
        disc = b * b - 4 * c
        sq = mp.sqrt(disc) if disc >= 0 else mp.mpc(0, mp.sqrt(-disc))
        r2 = (-b + sq) / 2
        r3 = (-b - sq) / 2
        return [mp.mpc(r), mp.mpc(r2), mp.mpc(r3)]


def escape_rate_oracle(d: int, c, steps_after: int = 12, dps: int = 80):
    """Plain-iteration escape rate lim d^-k log|z_k|, z_0 = c, z <- z^d + c.

    Independent of the package's ball-arithmetic implementation: fixed high
    working precision, fixed number of post-escape steps, explicit tail bound
    check. Returns an mpf, or None when no escape within 20000 steps.
    """
    with mp.workdps(dps):
        cc = mp.mpmathify(c)
        bail = max(2, (2 * abs(cc)) ** (mp.mpf(1) / d), mp.mpf(2) ** (mp.mpf(1) / (d - 1)))
        z = cc
        k = 0
        while abs(z) < bail:
            z = z**d + cc
            k += 1
            if k > 20000:
                return None
        for _ in range(steps_after):
            z = z**d + cc
            k += 1
        # tail after k steps is below log(2)/(d^k (d-1)), far under oracle use
        return mp.log(abs(z)) / mp.mpf(d) ** k


def integer_orbit_is_finite(d: int, a: int) -> bool:
    """Whether 0 has a finite orbit under z^d + a, a an integer.

    Once |u| > |a| + 2 the orbit grows strictly, since |u^d + a| >= |u|^2 - |a|
    > |u|; before that it stays in a finite set, so it repeats or leaves it.
    """
    seen = set()
    u = 0
    while u not in seen:
        if abs(u) > abs(a) + 2:
            return False
        seen.add(u)
        u = u**d + a
    return True


def mp_dist_bounds(a, b):
    """Bounds on |x - y| over two disks (objects with .center and .radius),
    by the mp-object formula at the working precision: the center distance,
    padded by both radii plus an eps = 2^(3-prec) share of the distance, and
    the whole scaled by up = 1 + 2^(10-prec)."""
    up = mp.mpf(1) + mp.mpf(2) ** (10 - mp.mp.prec)
    eps = mp.mpf(2) ** (3 - mp.mp.prec)
    d = abs(a.center - b.center)
    pad = (a.radius + b.radius + d * eps) * up
    lo = (d / up) - pad
    hi = (d + pad) * up
    return (lo if lo > 0 else mp.mpf(0)), hi


def mp_avg_log_distance(disks, alpha):
    """(value, error_bound) of the plain-log kernel average over disks, in
    mp objects: the midpoint and half-width of [log lo, log hi] per disk,
    summed, over the count. None when alpha's disk meets one of them."""
    total = mp.mpf(0)
    halfwidth = mp.mpf(0)
    for b in disks:
        lo, hi = mp_dist_bounds(b, alpha)
        if lo <= 0:
            return None
        llo, lhi = mp.log(lo), mp.log(hi)
        total += (llo + lhi) / 2
        halfwidth += (lhi - llo) / 2
    return total / len(disks), halfwidth / len(disks)


def numpy_gcd_degree_mod(p: list[int], q: list[int], prime: int) -> int:
    """deg gcd(p mod prime, q mod prime), -1 when either reduces to zero, by
    vectorized Euclid on numpy arrays: int64 below 2^31, objects above. The
    package's earlier F_p gcd, kept to check the list version against."""
    import numpy as np

    dtype = np.int64 if prime < 2**31 else object
    a = np.array([c % prime for c in p], dtype=dtype)
    b = np.array([c % prime for c in q], dtype=dtype)

    def trim(v):
        nz = np.nonzero(v)[0]
        return v[: nz[-1] + 1] if nz.size else v[:0]

    a, b = trim(a), trim(b)
    if a.size == 0 or b.size == 0:
        return -1
    if a.size < b.size:
        a, b = b, a
    while b.size > 1:
        inv = pow(int(b[-1]), prime - 2, prime)
        while a.size >= b.size:
            f = (int(a[-1]) * inv) % prime
            if f:
                a[a.size - b.size :] = (a[a.size - b.size :] - f * b) % prime
            a = trim(a[:-1]) if a[-1] == 0 else trim(a)
        if a.size == 0:
            return b.size - 1
        a, b = b, a
    return 0 if b.size else a.size - 1

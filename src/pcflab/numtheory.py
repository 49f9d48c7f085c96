"""Elementary number theory: primality, factoring, Möbius, valuations.

Everything here is deterministic. Primality uses a Miller-Rabin test with a
base set proven sufficient below 3.3 * 10^24, falling back to a fixed list of
pseudo-random bases (derived from the input) above that. Above that limit a
True is a probable prime only, not a proven one, and so is every prime
factor above it that factorize reports. Factoring runs three stages, each
only on what the one before left unsplit: trial division below 10^4; Brent's
variant of Pollard rho for a fixed number of steps, which finds factors of up
to 7 digits and most of 8 digits; then Lenstra's elliptic curve method
(Montgomery, *Speeding the Pollard and elliptic curve methods*, 1987) on
Montgomery curves from Suyama's parametrisation with curve seeds 6, 7, 8, ...:
an x-only ladder for stage 1 up to B1 and the standard continuation for stage
2 up to B2, with B1 raised on a fixed schedule whenever a batch of curves
fails. Pollard rho costs about sqrt(p) steps to find a prime factor p; ECM's
cost grows far more slowly, so larger factors are left to it.

Each piece of work is done once. What fails on n fails on its divisors, so
the parts of an ECM split skip rho and go on at the next curve. Stage 1 takes
one gcd per chunk of about 256 bits, from a base point made affine after each
chunk; stage 2 multiplies in x(mD*Q) - x(j*Q) once for both primes mD +- j,
from a plan built once per (B1, B2) as bytes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, compress, islice, repeat
from typing import Iterator, Optional

# Bases proving primality for all n < 3.3e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3317044064679887385961981

_TRIAL_LIMIT = 10_000
# Pollard-Brent gives up once its cycle length passes this (about 4x as many
# squarings in all): enough for factors of up to 7 digits and most of 8, and
# a pass that finds nothing costs about one curve of the first ECM batch.
_RHO_BUDGET = 1 << 12
# ECM batches of (B1, curves), after the table B1 grows 5-fold per batch of
# the last size; stage 2 runs to B2 = _ECM_B2_RATIO * B1 in giant steps of
# _ECM_D (2*3*5*7). Curve seeds are sigma = 6, 7, 8, ... in order.
_ECM_SCHEDULE = ((1_000, 10), (2_000, 25), (11_000, 90), (50_000, 300))
_ECM_B2_RATIO = 100
_ECM_D = 210
_ECM_FIRST_SIGMA = 6
_ECM_CHUNK_BITS = 256  # stage 1 takes one gcd per chunk of about this size

_prime_table = array("L")  # every prime below _prime_limit, grown on demand
_prime_limit = 0


def _primes(lo: int, hi: int) -> array:
    """The primes p with lo <= p < hi, from one table grown to the largest hi asked."""
    global _prime_table, _prime_limit
    if _prime_limit < hi:
        size = max(hi, 2 * _prime_limit)
        sieve = bytearray(b"\x01") * size
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(size - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, size, p)))
        _prime_table, _prime_limit = array("L", compress(range(size), sieve)), size
    return _prime_table[bisect_left(_prime_table, lo) : bisect_left(_prime_table, hi)]


def is_prime(n: int) -> bool:
    """Whether n is prime: proven below _MR_PROVEN_LIMIT (about 3.3 * 10^24);
    above it a True means only that n passed Miller-Rabin on 53 bases, a
    probable prime. A False is always a proof of compositeness."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _MR_PROVEN_LIMIT:
        bases = _MR_BASES
    else:
        # Deterministic extra bases seeded from n itself; 40 rounds keeps the
        # error probability far below anything observable at desk scale.
        bases = _MR_BASES + tuple(2 + (n * (k * k + 1)) % (n - 3) for k in range(1, 41))
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> Optional[int]:
    """A nontrivial factor of odd composite n (Brent's cycle variant of Pollard
    rho with y -> y^2 + 10), or None if the budget runs out first."""
    y, c, m = 3, 10, 128
    g = r = q = 1
    x = ys = y
    while g == 1 and r <= _RHO_BUDGET:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n  # the sign of a factor leaves every gcd alone
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # the last batch of m steps took in every factor: redo it one gcd a step
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g if 1 < g < n else None


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """2P for P = (x:z) on the Montgomery curve with (A + 2)/4 = a24."""
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(x1: int, z1: int, x2: int, z2: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """P1 + P2 from P1, P2 and P1 - P2 = (xd:zd)."""
    u = (x1 - z1) * (x2 + z2)
    v = (x1 + z1) * (x2 - z2)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """k * (x:1) for k >= 1 (Montgomery ladder: R1 - R0 = P throughout).

    _xadd and _xdbl written out in the loop, which is the hot path of stage 1;
    an affine P saves a product per step."""
    x0, z0 = x, 1
    x1, z1 = _xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        u = (x1 - z1) * (x0 + z0)
        v = (x1 + z1) * (x0 - z0)
        xs, zs = (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            x0, z0 = xs, zs
            s, d = (x1 + z1) ** 2 % n, (x1 - z1) ** 2 % n
            x1, z1 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        else:
            x1, z1 = xs, zs
            s, d = (x0 + z0) ** 2 % n, (x0 - z0) ** 2 % n
            x0, z0 = s * d % n, (s - d) * (d + a24 * (s - d)) % n
    return x0, z0


@lru_cache(maxsize=None)
def _stage1_chunks(b1: int) -> list[tuple[int, tuple[int, ...]]]:
    """Stage 1's multipliers in order, each prime p taken e times for the
    largest p^e <= b1, in chunks (k, multipliers) of about _ECM_CHUNK_BITS bits."""
    chunks, k, ps = [], 1, []
    for p in _primes(2, b1 + 1):
        q = p
        while q <= b1:
            k, q = k * p, q * p
            ps.append(p)
        if k.bit_length() >= _ECM_CHUNK_BITS:
            chunks.append((k, tuple(ps)))
            k, ps = 1, []
    return chunks + [(k, tuple(ps))] if ps else chunks


@lru_cache(maxsize=None)
def _stage2_plan(b1: int, b2: int) -> tuple[int, bytes]:
    """Stage 2's giant steps for the primes in (b1, b2]: (m, plan), where the
    plan lists for giant step g, centred at (m + g)D, each distinct j with
    (m + g)D +- j prime, and a zero byte ends every step but the last."""
    D, h = _ECM_D, _ECM_D // 2
    m = (b1 + h) // D
    plan = bytearray()
    c, step = m * D, 0  # the centre of the current step, and where its j start
    for p in _primes(b1 + 1, b2 + 1):
        while p > c + h:
            plan.append(0)
            c, step = c + D, len(plan)
        if p < c or plan.find(p - c, step) < 0:  # c + j shares c - j's factor
            plan.append(abs(p - c))
    return m, bytes(plan)


def _ecm_curve(n: int, sigma: int, b1: int, b2: int) -> Optional[int]:
    """One ECM curve: a nontrivial factor of n, or None when the curve finds none.

    On square-free n, what a gcd after every prime of stage 1 and every giant
    step of stage 2 returns (a chunk whose gcd is not 1 is redone a prime at a
    time), so a gcd equal to n gives up on this curve instead of hiding factors.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x, z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g if g < n else None
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    x = x * pow(z, -1, n) % n
    for k, ps in _stage1_chunks(b1):
        xk, zk = _ladder(k, x, a24, n)
        if math.gcd(zk, n) == 1:
            x = xk * pow(zk, -1, n) % n
            continue
        for p in ps:
            xk, zk = _ladder(p, x, a24, n)
            g = math.gcd(zk, n)
            if g != 1:
                return g if g < n else None
            x = xk * pow(zk, -1, n) % n
    # stage 2: a prime p = m*D +- j (0 < j < D/2) with p*Q = O gives
    # x(mD*Q) = x(j*Q); the baby steps j*Q are made affine once, so each j
    # costs one product against the projective giant step mD*Q
    D = _ECM_D
    m, plan = _stage2_plan(b1, b2)
    if m == 0:  # 0*Q = O: the baby steps' gcds test the first step's primes
        m, plan = 1, plan.partition(b"\0")[2]
    baby = [0] * (D // 2)  # baby[j] = x(j*Q), affine
    xj, zj = x, 1
    x2, z2 = _xdbl(x, 1, a24, n)
    xl, zl = x, 1  # (j - 2)Q for j = 1 is -Q, whose x is Q's
    for j in range(1, D // 2, 2):
        if math.gcd(j, D) == 1 or j > b1:  # j > b1 only for b1 < D/2
            g = math.gcd(zj, n)
            if g != 1:
                return g if g < n else None
            baby[j] = xj * pow(zj, -1, n) % n
        (xj, zj), (xl, zl) = _xadd(xj, zj, x2, z2, xl, zl, n), (xj, zj)
    xD, zD = _ladder(D, x, a24, n)
    xm, zm = _ladder(m * D, x, a24, n)
    xn, zn = _ladder((m + 1) * D, x, a24, n)
    acc = 1
    for j in plan:
        if j:
            acc = acc * (xm - baby[j] * zm) % n
            continue
        g = math.gcd(acc, n)
        if g != 1:
            return g if g < n else None
        (xm, zm), (xn, zn) = (xn, zn), _xadd(xn, zn, xD, zD, xm, zm, n)
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _ecm_batches() -> Iterator[tuple[int, int]]:
    yield from _ECM_SCHEDULE
    b1, curves = _ECM_SCHEDULE[-1]
    while True:
        b1 *= 5
        yield b1, curves


def _ecm(n: int, start: int) -> tuple[int, int]:
    """(a nontrivial factor of composite n, the next curve's index) by Lenstra
    ECM, running curves start, start + 1, ... (curve i has seed sigma = 6 + i);
    factorize calls it on n with no prime factor below 10^4."""
    b1s = chain.from_iterable(repeat(b1, curves) for b1, curves in _ecm_batches())
    for i, b1 in islice(enumerate(b1s), start, None):
        g = _ecm_curve(n, _ECM_FIRST_SIGMA + i, b1, _ECM_B2_RATIO * b1)
        if g is not None:
            return g, i + 1
    raise AssertionError("the batch schedule is endless")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; factorize(0) raises."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _primes(2, _TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # (m, m's next ECM curve; 0 while rho has not run): rho and each curve that
    # failed on m fail on its divisors too, so an ECM split's parts skip them
    stack = [(n, 0)] if n > 1 else []
    while stack:
        m, curve = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m) if curve == 0 else None
        if d is None:
            d, curve = _ecm(m, curve)
        stack += [(d, curve), (m // d, curve)]
    return out


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0, |p| >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if abs(p) < 2:
        raise ValueError(f"valuation at {p} is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    fac = factorize(n)
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Möbius function: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1

"""Elementary number theory: primality, factoring, Möbius, valuations.

Everything here is deterministic. Primality uses a Miller-Rabin test with a
base set proven sufficient below 3.3 * 10^24, falling back to a fixed list of
pseudo-random bases (derived from the input) above that; factoring combines a
trial-division wheel with Brent's variant of Pollard rho, which is plenty for
the desk-scale resultants this package produces.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Bases proving primality for all n < 3.3e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3317044064679887385961981

_SMALL_PRIME_LIMIT = 10_000


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * (_SMALL_PRIME_LIMIT + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(_SMALL_PRIME_LIMIT**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((_SMALL_PRIME_LIMIT - start) // p + 1)
    return tuple(i for i, flag in enumerate(sieve) if flag)


def is_prime(n: int) -> bool:
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


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = (seed * 2 + 1) % n, (seed * 3 + 7) % n, 128
        if c == 0:
            c = 1
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1  # cycle degenerated; restart with new parameters


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; factorize(0) raises."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
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

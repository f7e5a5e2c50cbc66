"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports primegaps.  The sieve is a plain full-width numpy
sieve (the package sieves odd-only segments), primality at height is a
deterministic Miller-Rabin test, and the reciprocal sums use digamma and
trigamma expansions where the package sums term by term.
"""

from __future__ import annotations

import math

import numpy as np

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
EULER_GAMMA = 0.57721566490153286061


def plain_sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def window_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi), lo >= 2, given every prime <= isqrt(hi - 1) in base.

    Full-width mask, unlike the package's odd-only one.  Small primes mark
    by slicing; primes >= 4096 hit the window a few times each and mark by
    fancy-index writes, 2^14 primes at a time.
    """
    n = hi - lo
    composite = np.zeros(n, dtype=bool)
    base = base[base <= math.isqrt(hi - 1)]
    for p in base[base < 4096].tolist():
        composite[max(p * p, -(-lo // p) * p) - lo :: p] = True
    large = base[base >= 4096]
    for chunk in range(0, large.size, 1 << 14):  # bounds the index arrays
        p = large[chunk : chunk + (1 << 14)]
        first = np.maximum(p * p, -(-lo // p) * p) - lo
        hit = first < n
        first, p = first[hit], p[hit]
        counts = (n - 1 - first) // p + 1
        step = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        composite[np.repeat(first, counts) + np.repeat(p, counts) * step] = True
    return lo + np.flatnonzero(~composite).astype(np.int64)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3 * 10**24 with bases 2..37."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_after(n: int) -> int:
    m = n + 1
    while not is_prime(m):
        m += 1
    return m


def prev_prime_at_most(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


_DIRECT = 4096


def _digamma(m: float) -> float:
    """psi(m) for m >= 1000, to double precision."""
    m2 = m * m
    return math.log(m) - 1 / (2 * m) - 1 / (12 * m2) + 1 / (120 * m2 * m2)


def _trigamma_tail(m: float) -> float:
    """sum_{j >= m} 1/j^2 for m >= 1000, to double precision."""
    return 1 / m + 1 / (2 * m * m) + 1 / (6 * m**3) - 1 / (30 * m**5)


def recip_sum(a: int, b: int, power: int) -> float:
    """sum_{j=a}^{b} j^-power for power 1 or 2."""
    if b - a < _DIRECT or b < 1000:
        return math.fsum(1.0 / j**power for j in range(a, b + 1))
    head = 0.0
    if a < 1000:
        head = math.fsum(1.0 / j**power for j in range(a, 1000))
        a = 1000
    if power == 1:
        tail = math.log1p((b + 1 - a) / a) + _digamma(b + 1) - math.log(b + 1) - (
            _digamma(a) - math.log(a)
        )
    else:
        tail = _trigamma_tail(a) - _trigamma_tail(b + 1)
    return head + tail

"""Slow, independent reference implementations used to pin expected values.

Everything here favours obviousness over speed: plain byte-array sieves,
quadratic scans, exact rational arithmetic.  Nothing imports the package
under test.
"""

from __future__ import annotations

from fractions import Fraction


def naive_primes(limit: int) -> list[int]:
    """All primes <= limit by a one-shot, non-segmented sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def loop_window_primes(lo: int, hi: int, base) -> list[int]:
    """Primes in [lo, hi) by one strided pass per odd base prime, in Python ints.

    The per-prime loop the segment kernel started from, over a bytearray of
    the window's odd numbers.  base is ascending and must hold every prime
    <= isqrt(hi - 1) for the result to be the true primes.
    """
    first_odd = lo | 1
    flags = bytearray([1]) * ((hi - first_odd + 1) // 2)
    if first_odd == 1:
        flags[0] = 0
    for p in map(int, base):
        if p == 2:
            continue
        if p * p >= hi:
            break
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:
            start += p
        i = (start - first_odd) // 2
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    odds = [first_odd + 2 * i for i, f in enumerate(flags) if f]
    return [2, *odds] if lo <= 2 < hi else odds


def naive_gaps(limit: int, inclusive: bool, include_first: bool) -> list[tuple[int, int, int]]:
    """(index, lower_prime, gap) triples with the upper prime <x (or <=x)."""
    primes = naive_primes(limit if inclusive else limit - 1)
    out = []
    for j in range(len(primes) - 1):
        index = j + 1
        if index == 1 and not include_first:
            continue
        out.append((index, primes[j], primes[j + 1] - primes[j]))
    return out


def naive_tau(limit: int, inclusive: bool = False, include_first: bool = False) -> dict[int, int]:
    hist: dict[int, int] = {}
    for _, _, gap in naive_gaps(limit, inclusive, include_first):
        hist[gap] = hist.get(gap, 0) + 1
    return dict(sorted(hist.items()))


def naive_power_sum(limit: int, k: int, inclusive: bool = False, include_first: bool = False) -> int:
    return sum(gap**k for _, _, gap in naive_gaps(limit, inclusive, include_first))


def naive_records(limit: int) -> list[tuple[int, int, int]]:
    """Left-to-right maxima (index, gap, lower_prime), first gap included."""
    best = 0
    out = []
    for index, lower, gap in naive_gaps(limit, inclusive=True, include_first=True):
        if gap > best:
            best = gap
            out.append((index, gap, lower))
    return out


def naive_bracket(a: int, b: int) -> tuple[int, int, int]:
    """(L1, L, L2) for the interval (a, b] by direct prime enumeration."""
    limit = 2 * b + 200
    primes = naive_primes(limit)
    inside = [p for p in primes if a < p <= b]
    if len(inside) < 2:
        raise ValueError("need at least two primes in (a, b]")
    after = min(p for p in primes if p > b)
    return (inside[-1] - inside[0], b - a, after - inside[0])


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin: bases 2..37 decide every n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def next_prime(n: int) -> int:
    """Smallest prime > n."""
    n += 1
    while not is_prime_mr(n):
        n += 1
    return n


def prev_prime(n: int) -> int:
    """Largest prime <= n (n >= 2)."""
    while not is_prime_mr(n):
        n -= 1
    return n


def mr_bracket(a: int, b: int) -> tuple[int, int, int]:
    """(L1, L, L2) for (a, b] from Miller-Rabin scans at both ends, no sieve."""
    first, last = next_prime(a), prev_prime(b)
    if last <= first:
        raise ValueError("need at least two primes in (a, b]")
    return (last - first, b - a, next_prime(b) - first)


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def harmonic2(n: int) -> Fraction:
    return sum((Fraction(1, j * j) for j in range(1, n + 1)), Fraction(0))


def order_stat_mean_exact(i: int, n: int, lam: float) -> float:
    """E of the i-th smallest of n iid exponentials, exact float tail sum."""
    import math

    return math.fsum(1.0 / j for j in range(n - i + 1, n + 1)) / lam


def erlang_upper_tail(n: int, x: float) -> float:
    """P(sum of n iid Exp(1) > x), exact series."""
    import math

    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    return math.exp(-x) * total

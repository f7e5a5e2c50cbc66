"""Slow, independent reference implementations used to pin expected values.

Everything here favours obviousness over speed: plain byte-array sieves,
quadratic scans, exact rational arithmetic.  Nothing imports the package
under test.
"""

from __future__ import annotations

import math
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
    return math.fsum(1.0 / j for j in range(n - i + 1, n + 1)) / lam


def erlang_upper_tail(n: int, x: float) -> float:
    """P(sum of n iid Exp(1) > x), exact series."""
    term = 1.0
    total = 1.0
    for k in range(1, n):
        term *= x / k
        total += term
    return math.exp(-x) * total


# (H_n, sum of 1/j^2 for j <= n) to 30 significant digits.  Computed with
# mpmath 1.3.0 at 50 digits as harmonic(n) and zeta(2) - psi(1, n + 1).
# The rows up to 10**5 are checked against the term-by-term sum in
# test_expmodel.
HARMONIC_TABLE = {
    10**3: ("7.48547086055034491265651820433", "1.64393456668155980313905802382"),
    10**4: ("9.78760603604438226417847790485", "1.64483407184805976980608183331"),
    10**5: ("12.0901461298634279473632193635", "1.64492406689822626980574850331"),
    10**6: ("14.3927267228657236313811274932", "1.64493306684872643630574849998"),
    10**7: ("16.6953113658598518153991189395", "1.64493396684823143647224849998"),
    10**8: ("18.9978964138538983244171103942", "1.64493405684822648647241499998"),
    10**9: ("21.3004815023479440166851018489", "1.64493406584822643697241516648"),
    10**10: ("23.6030665948919897007855933036", "1.64493406674822643647741516665"),
    10**11: ("25.9056516878410353848044097583", "1.64493406683822643647246516665"),
    10**12: ("28.208236780830581068822409463", "1.64493406684722643647241566665"),
    10**13: ("30.5108218738241767528404010001", "1.64493406684812643647241517165"),
    10**14: ("32.8134069668181774368583924557", "1.6449340668482164364724151667"),
    10**15: ("35.1159920598122186208763839103", "1.64493406684822543647241516665"),
    10**16: ("37.418577152806263854894375365", "1.64493406684822633647241516665"),
    10**17: ("39.7211622458003094939123668197", "1.64493406684822642647241516665"),
    10**18: ("42.0237473387943551734303582744", "1.64493406684822643547241516665"),
    2**62: ("43.5523408596181420445833238377", "1.64493406684822643625557473215"),
    2**63 - 1: ("44.2454880401780873538379256333", "1.6449340668482264363639949494"),
}

# Longest range summed term by term; covers i = 100002 at any height.
RECIP_SUM_TERMS = 2 * 10**5


def recip_sum(lo: int, hi: int, power: int) -> float:
    """Sum of 1/j^power over lo <= j <= hi: every term exactly rounded and
    summed by fsum for short ranges, else a HARMONIC_TABLE row (lo = 1)."""
    if hi - lo + 1 <= RECIP_SUM_TERMS:
        return math.fsum(1.0 / j**power for j in range(lo, hi + 1))
    if lo == 1 and hi in HARMONIC_TABLE:
        return float(HARMONIC_TABLE[hi][power - 1])
    raise ValueError(f"no oracle for [{lo}, {hi}]")

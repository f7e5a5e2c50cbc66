"""Segmented sieve of Eratosthenes.

_mark is the one marking step: it checks a window and sieves its odd-only boolean mask, half a
megabyte for 2**20 numbers wherever the window lies, into a buffer a walk may pass back.  It
copies the mask from a read-only pattern of the odd multiples of 3..17 (built at first use),
doubled in place past one period.  Each larger odd base prime gets its first index from one
start rule, one in-place modulo exact to 2**63 - 1 (the cap on every limit).  Primes below
both _LOOP_PRIME_LIMIT and the window's odd count clear a strided slice each; larger ones below
the count share one stride loop (as in Oliveira e Silva, Herzog and Pardi, 2014) whose rounds
strike the shrinking prefix still sure of a hit, and one tail store marks each prime's one
possible hit left, the last of a stride prime or the only one of a prime >= the count.
Primes are listed only where a caller reads them: sieve_segment turns a mask into primes,
prime_count counts each window's mask, nth_prime lists only the window that holds p_n, and the
gap fold (gapstats._fold_range) reads each mask's odd slots.  _windows is the one walk, in
DEFAULT_SEGMENT_SIZE windows read at each step, for iter_prime_segments, the counts and the
fold.  Each query builds its base once, base_for(bound), from a read-only table of the primes
<= isqrt(isqrt(2**63 - 1)) built once per process, so no sieve recurses more than one level.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

__all__ = [
    "MAX_LIMIT",
    "DEFAULT_SEGMENT_SIZE",
    "MAX_SEGMENT_SIZE",
    "BoundaryRule",
    "PrimeSegment",
    "base_for",
    "simple_sieve",
    "sieve_segment",
    "iter_prime_segments",
    "prime_count",
    "nth_prime",
]

MAX_LIMIT = 2**63 - 1
DEFAULT_SEGMENT_SIZE = 1 << 20
# Guards the per-segment mask allocation, not the overall limit.
MAX_SEGMENT_SIZE = 1 << 26
# Slices up to here, the stride loop above: past here a slice costs more than its marks.
_LOOP_PRIME_LIMIT = 8192
# simple_sieve's table: every base sieve up to isqrt(MAX_LIMIT) takes its base from it.
_TABLE_LIMIT = math.isqrt(math.isqrt(MAX_LIMIT))
_SPARSE_FROM = 485_165_196  # e^20: past it the odd-prime density 2/ln x is below 0.1
_PATTERN_PRIMES = (3, 5, 7, 11, 13, 17)
_PERIOD = 255_255  # 3 * 5 * 7 * 11 * 13 * 17: the pattern repeats every _PERIOD odd slots


class BoundaryRule(Enum):
    """Which prime pairs near the limit x contribute a gap.

    STRICT keeps pairs with the upper prime < x (the tau-file
    convention); INCLUSIVE keeps upper prime <= x (the D_k convention).
    The two coincide whenever x is composite.
    """

    STRICT = "strict"
    INCLUSIVE = "inclusive"


@dataclass(frozen=True)
class PrimeSegment:
    """Primes found in the half-open window [lo, hi)."""

    lo: int
    hi: int
    primes: np.ndarray

    def __post_init__(self) -> None:
        self.primes.setflags(write=False)


def _check_limit(x: int, name: str = "limit") -> None:
    if x > MAX_LIMIT:
        raise ValueError(f"{name} {x} exceeds supported range 2**63 - 1")


def base_for(bound: int) -> np.ndarray:
    """Every prime <= isqrt(bound - 1), the base of any window below bound, past 2**63 refused."""
    _check_limit(bound - 1)
    return simple_sieve(math.isqrt(max(bound - 1, 0)))


@cache
def _small_primes() -> np.ndarray:
    """Every prime <= _TABLE_LIMIT, read-only: each pass squares the reach of its base."""
    primes = np.array([2, 3], dtype=np.int64)
    for hi in (16, 256, _TABLE_LIMIT):
        primes = sieve_segment(2, hi + 1, primes).primes
    return primes


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as one ascending int64 array, the caller's own copy.

    Up to _TABLE_LIMIT this is a prefix of the table.  Above it the
    segments of iter_prime_segments past the table fill one array sized
    by Dusart's bound on pi(limit); their base, built first, is the table
    or one walk over it, so the recursion is at most one level deep.
    Memory is about pi(limit) int64 values plus one mask.
    """
    table = _small_primes()
    if limit <= _TABLE_LIMIT:
        return table[: np.searchsorted(table, limit, side="right")].copy()
    base = base_for(limit + 1)
    ln = math.log(limit)
    out = np.empty(int(limit / ln * (1 + 1.2762 / ln)) + 1, dtype=np.int64)
    n = table.size
    out[:n] = table
    for seg in iter_prime_segments(_TABLE_LIMIT + 1, limit + 1, base):
        out[n : n + seg.primes.size] = seg.primes
        n += seg.primes.size
    out.resize(n, refcheck=False)
    return out


def _missing_base_prime(base: np.ndarray, need: int) -> bool:
    """True when some prime <= need is absent from the ascending base list.

    base is trusted to be the full prime list up to its own last entry,
    so only the window (base[-1], need] has to be scanned; for a sane
    base that window is at most one prime gap wide, and trial division
    there needs only the base primes <= isqrt(need).
    """
    if base.size == 0:
        return True
    last = int(base[-1])
    if last >= need:
        return False
    small = base[: np.searchsorted(base, math.isqrt(need), side="right")].tolist()
    for m in range((last + 1) | 1, need + 1, 2):
        if all(m % p for p in small if p * p <= m):
            return True
    return False


@cache
def _pattern() -> np.ndarray:
    """Two periods of odd slots, slot j for 2 j + 1, every odd multiple of 3..17 struck."""
    pattern = np.ones(2 * _PERIOD, dtype=bool)
    for p in _PATTERN_PRIMES:
        pattern[p >> 1 :: p] = False
    pattern.setflags(write=False)
    return pattern


def _start_indices(first_odd: int, primes: np.ndarray) -> np.ndarray:
    """Index i, for first_odd + 2 i, of each odd p's first odd multiple >= first_odd.

    The odd multiples of p are p + 2 p k, so i = (p - first_odd) / 2 mod p:
    one modulo, computed in place in the result, on values below 2^62 in
    magnitude.  The multiple is p itself when p >= first_odd."""
    i = primes >> 1
    i -= first_odd >> 1
    i %= primes
    return i


def _mark(lo: int, hi: int, base_primes: np.ndarray, buf: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Check the window, then mark it: buf[:count] is the odd-only mask of [lo, hi), slot i for
    (lo | 1) + 2 i, and buf's True slots past count (past e^20 alone) are the extraction's pad.
    A walk passes the previous window's buf back, refilled here when it is large enough.  Stride
    round k strikes the prefix of primes p <= count // (k + 1), each sure of k + 1 hits; then
    each prime sits at its one possible hit left, and one tail store marks those below count."""
    if lo < 2:
        raise ValueError(f"segment start {lo} below 2")
    if hi <= lo:
        raise ValueError(f"empty or reversed window [{lo}, {hi})")
    if hi - lo > MAX_SEGMENT_SIZE:
        raise ValueError(f"segment span {hi - lo} exceeds {MAX_SEGMENT_SIZE}")
    _check_limit(hi - 1)
    base = np.asarray(base_primes, dtype=np.int64)
    need = math.isqrt(hi - 1)
    if need >= 2 and _missing_base_prime(base, need):
        raise ValueError(f"base primes incomplete: need all primes <= {need}")

    first_odd = lo | 1
    count = (hi - first_odd + 1) // 2
    # room for a tail of True slots: count // 9 + 1 of them lift even an empty mask past 0.1
    size = count + (count // 9 + 1 if hi > _SPARSE_FROM else 0)
    # a reused buf spares a fresh mask's page faults in every window
    buf = buf[:size] if buf is not None and buf.size >= size else np.empty(size, dtype=bool)
    if size > count:
        buf[count:] = True
    mask = buf[:count]
    n, r = min(count, _PERIOD), (first_odd >> 1) % _PERIOD
    mask[:n] = _pattern()[r : r + n]
    while n < count:
        mask[n : 2 * n] = mask[: min(n, count - n)]
        n *= 2
    for p in _PATTERN_PRIMES:  # the pattern struck its own primes
        if first_odd <= p < hi:
            mask[(p - first_odd) >> 1] = True
    odd = base[np.searchsorted(base, 19) : np.searchsorted(base, need, side="right")]
    if odd.size:
        starts = _start_indices(first_odd, odd)
        split = np.searchsorted(odd, min(_LOOP_PRIME_LIMIT, count))
        for p, i in zip(odd[:split].tolist(), starts[:split].tolist()):
            mask[i::p] = False
        large = odd[split : max(split, np.searchsorted(odd, count))]
        start = starts[split : split + large.size]
        rounds = count // int(large[0]) if large.size else 0  # the smallest stride prime's sure hits
        for n in np.searchsorted(large, count // np.arange(1, rounds + 1), side="right").tolist():
            mask[start[:n]] = False
            np.add(start[:n], large[:n], out=start[:n])
        last = starts[split:]
        mask[last.compress(last < count)] = False
        # base primes inside the window struck themselves
        mask[(odd[np.searchsorted(odd, first_odd) :] - first_odd) >> 1] = True
    return buf, count


def sieve_segment(lo: int, hi: int, base_primes: np.ndarray) -> PrimeSegment:
    """Sieve the window [lo, hi) with base_primes, every prime <= isqrt(hi - 1) in ascending
    order.  The primes keep nothing else alive: no mask and no padded index array."""
    buf, count = _mark(lo, hi, base_primes)
    pad = buf.size - count
    if pad:  # the fewest True slots that keep flatnonzero on its branch-free loop
        pad = max(0, (count - 10 * int(np.count_nonzero(buf[:count]))) // 9 + 1)
    odds = np.flatnonzero(buf[: count + pad])
    if pad:  # a copy keeps no pad alive; freeing the mask first keeps malloc from trimming the heap
        del buf
        odds = odds[:-pad].copy()
    odds *= 2
    odds += lo | 1
    if lo <= 2 < hi:
        odds = np.concatenate(([np.int64(2)], odds))
    return PrimeSegment(lo=lo, hi=hi, primes=odds)


def _windows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[lo, hi) in consecutive DEFAULT_SEGMENT_SIZE windows (read at each step) but the last."""
    while lo < hi:
        end = min(lo + DEFAULT_SEGMENT_SIZE, hi)
        yield lo, end
        lo = end


def _count(lo: int, hi: int, base: np.ndarray) -> int:
    """The number of primes in the window [lo, hi): its marks counted, none listed."""
    buf, count = _mark(lo, hi, base)
    return int(np.count_nonzero(buf[:count])) + (lo <= 2 < hi)


def iter_prime_segments(lo: int, hi: int, base: np.ndarray) -> Iterator[PrimeSegment]:
    """Yield consecutive PrimeSegments covering [lo, hi), DEFAULT_SEGMENT_SIZE wide but the last,
    sieved with the caller's base: every prime <= isqrt(hi - 1), as base_for(hi) builds it."""
    return (sieve_segment(a, b, base) for a, b in _windows(lo, hi))


def _integer(value: object, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


def prime_count(x: int) -> int:
    """pi(x): number of primes <= x, each window's marks counted and no prime listed."""
    bound = _integer(x, "limit") + 1
    base = base_for(bound)
    return sum(_count(lo, hi, base) for lo, hi in _windows(2, bound))


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed (nth_prime(1) = 2); of the windows counted only p_n's is listed."""
    n = _integer(n, "prime index")
    if n < 1:
        raise ValueError(f"prime index {n} must be >= 1")
    # p_n <= p_m <= m (log m + log log m - c), c = 0 from m = 6 (Rosser), 0.9484 from 39017 (Dusart)
    m = max(n, 6)
    bound = int(m * (math.log(m) + math.log(math.log(m)) - 0.9484 * (m >= 39017))) + 1
    _check_limit(bound, f"prime index {n}: the bound on p_n")
    base = base_for(bound + 1)
    for lo, hi in _windows(2, bound + 1):
        found = _count(lo, hi, base) if hi <= bound else n  # the bound puts p_n in the last window
        if found >= n:
            return int(sieve_segment(lo, hi, base).primes[n - 1])
        n -= found

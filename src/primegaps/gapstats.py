"""Gap statistics: histograms, exact power sums, moments, record gaps.

Accumulators form a monoid under merge, so a sweep is split into contiguous ranges, folded
independently (long sweeps in forked children, one share per usable CPU) and joined in order,
each at the prime where the one before it ends, which merge alone checks.  A range owns the gaps
whose upper prime lies in it, as in the windows of Oliveira e Silva, Herzog and Pardi (2014), so
where the cuts and the sieve's segments fall never changes a statistic.  A range is folded from
each window's mask: its half-gaps, the odd slots' differences, go to one bincount, and only a
window that may hold a record lists its primes.  plan_sweep lays out every sweep, its limits
checked before any base or fork; one sweep answers limits in any order, a list in the caller's
order.  Power sums are plain Python integers and therefore exact at any k; each moment, the
mean, the variance and the Taylor ratio is one correctly rounded true division of two exact
integers.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain, pairwise

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, MAX_LIMIT, BoundaryRule, _check_limit, _integer, _mark
from .sieve import _windows, base_for, sieve_segment

__all__ = [
    "MaxGapRecord",
    "GapAccumulator",
    "MomentSummary",
    "merge",
    "power_sum",
    "moments",
    "max_gap_records",
    "gap_statistics",
    "gap_statistics_at",
    "plan_sweep",
    "tau_histogram",
    "interval_gap_bracket",
]

_RECORD_BLOCK = 1 << 12  # gaps per block of the record scan in from_gap_arrays
# Wider than every prime gap below 2**64 (none exceeds 1550, the shipped record
# table): a sweep range looks back this far for its first gap's lower prime, and
# interval_gap_bracket finds its three primes this close to a and b.
_GAP_WINDOW = 1 << 12
# Fewest numbers in a share: a fork and its copy-on-write faults cost ~30 ms, repaid from 2^25 on.
_SHARE_FLOOR = 1 << 24


@dataclass(frozen=True)
class MaxGapRecord:
    """A left-to-right maximal gap: G = gap at index, starting at lower_prime."""

    index: int
    gap: int
    lower_prime: int


@dataclass
class GapAccumulator:
    """Summary of the gaps between consecutive primes over a contiguous stretch.

    first_index is the index of its first gap, or of the next when empty (None while
    unplaced); first_prime and last_prime are the lower prime of its first gap and
    the upper prime of its last (None when empty); counts is the gap histogram and
    records the running left-to-right maxima, so the largest gap is records[-1].gap.
    """

    first_index: int | None = None
    first_prime: int | None = None
    last_prime: int | None = None
    counts: Counter = field(default_factory=Counter)
    records: list[MaxGapRecord] = field(default_factory=list)

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    @property
    def overall_max(self) -> int:
        return self.records[-1].gap if self.records else 0

    @classmethod
    def from_gap_arrays(
        cls, first_index: int, gaps: np.ndarray, lower_primes: np.ndarray
    ) -> GapAccumulator:
        """Bulk constructor for gaps at consecutive indices: the sweep's record windows
        (_fold_range), perfbench's windows at height and the tests build through it.  Records
        come from a block scan, O(n) on any input: a block after the first whose top beats no
        earlier block's holds no record, so the running max skips it.
        """
        if gaps.size != lower_primes.size:
            raise ValueError("gaps and lower_primes length mismatch")
        if gaps.size == 0:
            return cls()
        bins = np.bincount(gaps)
        seen = np.flatnonzero(bins)
        counts = Counter(dict(zip(seen.tolist(), bins[seen].tolist())))
        firsts = np.arange(0, gaps.size, _RECORD_BLOCK)
        tops = np.maximum.accumulate(np.maximum.reduceat(gaps, firsts))
        firsts = firsts[np.concatenate(([True], tops[1:] > tops[:-1]))]
        picked = np.concatenate([gaps[i : i + _RECORD_BLOCK] for i in firsts.tolist()])
        hits = np.flatnonzero(picked > np.concatenate(([0], np.maximum.accumulate(picked)[:-1])))
        where = firsts[hits // _RECORD_BLOCK] + hits % _RECORD_BLOCK
        records = [
            MaxGapRecord(first_index + i, g, p)
            for i, g, p in zip(where.tolist(), gaps[where].tolist(), lower_primes[where].tolist())
        ]
        last_prime = int(lower_primes[-1]) + int(gaps[-1])
        return cls(first_index, int(lower_primes[0]), last_prime, counts, records)


def merge(left: GapAccumulator, right: GapAccumulator) -> GapAccumulator:
    """Join two summaries where right starts at the prime where left ends: the one
    rule for a join.  Right's records are renumbered to follow a placed left and kept
    only where they beat everything on the left, the left-to-right maxima rule.  An
    empty side needs no adjacency and leaves the other side's ends.
    """
    if left.n and right.n and right.first_prime != left.last_prime:
        raise ValueError(
            f"ranges not adjacent: left ends at prime {left.last_prime}, "
            f"right starts at prime {right.first_prime}"
        )
    placed = None not in (left.first_index, right.first_index)
    shift = left.first_index + left.n - right.first_index if placed else 0
    counts = Counter(left.counts)
    counts.update(right.counts)
    best = left.overall_max
    kept = [r for r in right.records if r.gap > best]
    if shift:
        kept = [MaxGapRecord(r.index + shift, r.gap, r.lower_prime) for r in kept]
    first = right.first_index if left.first_index is None else left.first_index
    first_prime = right.first_prime if left.first_prime is None else left.first_prime
    last_prime = left.last_prime if right.last_prime is None else right.last_prime
    return GapAccumulator(first, first_prime, last_prime, counts, left.records + kept)


def power_sum(acc: GapAccumulator, k: int) -> int:
    """Exact S_k = sum of d^k over all accumulated gaps (k = 0 gives n), for any integer k."""
    k = _integer(k, "moment order")
    if k < 0:
        raise ValueError(f"power {k} must be >= 0")
    return sum(d**k * c for d, c in acc.counts.items())


@dataclass(frozen=True)
class MomentSummary:
    """Raw moments about the origin plus mean/variance/Taylor ratio.

    power_sums holds exact integer S_k for every requested k; moments
    holds mu'_k = S_k / n, variance v = (n S_2 - S_1^2) / (n (n-1)) and
    taylor_ratio v / mean^2 = n (n S_2 - S_1^2) / ((n-1) S_1^2), each one
    correctly rounded true division of exact ints, as float(Fraction) is.
    """

    n: int
    power_sums: Mapping[int, int]
    moments: Mapping[int, float]
    mean: float
    variance: float | None
    taylor_ratio: float | None


def moments(acc: GapAccumulator, ks: Iterable[int]) -> MomentSummary:
    orders = sorted({_integer(k, "moment order") for k in ks})
    if not orders:
        raise ValueError("no moment orders requested")
    if any(k < 0 for k in orders):
        raise ValueError("moment orders must be >= 0")
    n = acc.n
    if n == 0:
        raise ValueError("empty accumulator has no moments")
    sums = {k: power_sum(acc, k) for k in orders}
    s1 = sums[1] if 1 in sums else power_sum(acc, 1)
    s2 = sums[2] if 2 in sums else power_sum(acc, 2)
    try:
        mus = {k: s / n for k, s in sums.items()}
    except OverflowError:  # every gap is >= 1, so S_k/n grows with k
        raise ValueError(f"gap moment S_k/n overflows a float at k={orders[-1]}, n={n}") from None
    if n < 2:
        return MomentSummary(n, sums, mus, s1 / n, None, None)
    spread = n * s2 - s1 * s1
    return MomentSummary(n, sums, mus, s1 / n, spread / (n * (n - 1)), n * spread / ((n - 1) * s1 * s1))


def max_gap_records(acc: GapAccumulator) -> list[MaxGapRecord]:
    """Record gaps G_n; requires a stream that started at index 1."""
    if not acc.n:
        raise ValueError("empty accumulator has no records")
    if acc.first_index != 1:
        raise ValueError(
            "records need the full stream from index 1 (include the first gap)"
        )
    return list(acc.records)


def _fold_range(lo: int, hi: int, base: np.ndarray) -> GapAccumulator:
    """The gaps whose upper prime lies in [lo, hi), indexed from 1, read from each window's mask
    over the sweep's base: the walk starts _GAP_WINDOW before lo, for the prime before lo, and only
    a window whose largest gap beats the range's best, so may hold a record, lists its primes."""
    hist = np.zeros(_GAP_WINDOW // 2, dtype=np.int64)  # half-gap -> count: every gap is below it
    counts, records, n, best, prev, buf = Counter(), [], 0, 0, 2, None  # 2 leads a walk from 2
    for a, b in _windows(max(2, lo - _GAP_WINDOW), hi):
        buf, count = _mark(a, b, base, buf)
        # as in sieve_segment: past e^20, the fewest True slots that keep flatnonzero branch-free
        pad = buf.size - count and max(0, (count - 10 * int(np.count_nonzero(buf[:count]))) // 9 + 1)
        slots, odd = np.flatnonzero(buf[: count + pad])[: -pad or None], a | 1
        cut = int(np.searchsorted(slots, (lo - odd + 1) >> 1))  # slots below cut hold primes < lo
        if cut:  # the last prime below lo leads the range's first gap
            prev, slots = odd + 2 * int(slots[cut - 1]), slots[cut:]
        if not slots.size:
            continue
        half = np.empty_like(slots)
        half[0] = slots[0] - ((prev - odd) >> 1)
        np.subtract(slots[1:], slots[:-1], out=half[1:])
        last = odd + 2 * int(slots[-1])
        if not best or 2 * int(half.max()) > best:  # its gaps and lower primes, in place in half and slots
            gaps = np.left_shift(half, 1, out=half)
            gaps[0] -= prev == 2  # d_1 = 1
            slots <<= 1
            slots += odd
            slots -= gaps
            part = GapAccumulator.from_gap_arrays(n + 1, gaps, slots)
            records += [r for r in part.records if r.gap > best]
            counts.update(part.counts)
            best = part.overall_max
        else:
            hist += np.bincount(half, minlength=hist.size)
        n, prev = n + half.size, last
    seen = np.flatnonzero(hist)
    counts.update(dict(zip((2 * seen).tolist(), hist[seen].tolist())))
    # the range's first gap is its first record
    return GapAccumulator(1, records[0].lower_prime, prev, counts, records) if n else GapAccumulator()


def _fold_child(share: list[tuple[int, int]], base: np.ndarray, conn) -> None:
    """A forked child sends its share's folds, or the error that stopped them."""
    try:
        conn.send([_fold_range(lo, hi, base) for lo, hi in share])
    except Exception as exc:
        conn.send(exc)


def _fold_shares(shares: list[list[tuple[int, int]]], base: np.ndarray) -> list[GapAccumulator]:
    """Every share's folds in order, all but the first share's from forked children unless
    a second thread is alive (a fork copies its locks) or this process is a daemon.  Children
    read the parent's base pages and hold SIGINT blocked; a SIGTERM (exit 143) or a Ctrl-C
    stops the parent, whose finally kills them."""
    children, previous = [], None
    try:
        if len(shares) > 1 and threading.active_count() == 1:
            import multiprocessing  # only a split sweep pays for the import
            if not multiprocessing.current_process().daemon:  # a daemon may have no children
                if threading.current_thread() is threading.main_thread():  # signal.signal refuses others
                    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
                context = multiprocessing.get_context("fork")
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
                try:
                    for share in shares[1:]:
                        receiver, sender = context.Pipe(duplex=False)
                        with sender:
                            child = context.Process(target=_fold_child, args=(share, base, sender))
                            child.start()
                        children.append((child, receiver, share[0][0], share[-1][1]))
                finally:  # a Ctrl-C held back meanwhile is raised once every started child is listed
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                shares = shares[:1]
        folds = [_fold_range(lo, hi, base) for share in shares for lo, hi in share]
        for child, receiver, lo, hi in children:
            try:
                result = receiver.recv()
            except EOFError:  # killed, or stopped by an error it could not send
                child.join()
                raise ChildProcessError(f"share [{lo}, {hi}) ended with exit code {child.exitcode}") from None
            if isinstance(result, Exception):
                raise result
            folds += result
        return folds
    finally:
        for child, receiver, *_ in children:
            child.kill()  # a no-op for a child that has sent its share
            child.join()
            receiver.close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def plan_sweep(
    limits: Iterable[int],
    rule: BoundaryRule = BoundaryRule.STRICT,
    start: int = 2,
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """One sweep's layout: each limit's bound, in the caller's order, and the ranges that
    partition [start, top) in shares.  A bound is the limit under STRICT, limit + 1 under
    INCLUSIVE, at least start.  Limits are integers in [3, 2**63 - 1], in any order, repeats
    allowed, checked before any base or fork.  The span is cut at every bound and at start +
    (top - start) * i // count for 0 < i < count: at most one share per usable CPU (as taskset
    sets them), each share of a split span holding _SHARE_FLOOR numbers or more."""
    limits = [_integer(limit, "limit") for limit in limits]
    if any(limit < 3 for limit in limits):
        raise ValueError(f"limits must be at least 3 (no gap lies below 3), got {limits}")
    _check_limit(max(limits, default=3))
    bounds = [max(start, limit if rule is BoundaryRule.STRICT else limit + 1) for limit in limits]
    top = max(bounds, default=start)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = max(1, min(cpus, (top - start) // _SHARE_FLOOR))
    cuts = [start + (top - start) * i // count for i in range(1, count)]
    ranges = list(pairwise(sorted({start, *bounds, *cuts})))
    return bounds, [[r for r in ranges if lo <= r[0] < hi] for lo, hi in pairwise([start, *cuts, top])]


def gap_statistics_at(
    limits: Iterable[int],
    rule: BoundaryRule = BoundaryRule.STRICT,
    include_first: bool = False,
) -> list[GapAccumulator]:
    """The accumulator of every gap below each limit, a list in the caller's order, folded
    over plan_sweep's shares (all but the first in forked children) with one base for the
    top.  Each range is folded from index 1; merge checks every join and renumbers each range
    to follow the seed, an empty accumulator placed at the sweep's first index."""
    start, first = (2, 1) if include_first else (4, 2)  # no gap ending at 4 or later is d_1 = 1
    bounds, shares = plan_sweep(limits, rule, start)
    folds = _fold_shares(shares, base_for(max(bounds, default=2)))
    total = seed = GapAccumulator(first)
    at = {}
    for (_, hi), acc in zip(chain.from_iterable(shares), folds):
        total = at[hi] = merge(total, acc)
    return [at.get(bound, seed) for bound in bounds]  # a bound at the start ends no range


def gap_statistics(
    limit: int,
    rule: BoundaryRule = BoundaryRule.STRICT,
    include_first: bool = False,
) -> GapAccumulator:
    """Sieve up to the limit and fold every gap into one accumulator."""
    return gap_statistics_at([limit], rule, include_first)[0]


def tau_histogram(limit: int) -> dict[int, int]:
    """tau_d(limit), gap to count in ascending gaps, in the convention of the
    record tau files: STRICT, with d_1 = 1 left out, so every gap is even."""
    return dict(sorted(gap_statistics(limit).counts.items()))


def interval_gap_bracket(a: int, b: int) -> tuple[int, int, int]:
    """Bracket the interval length L = b - a by sums of prime gaps.

    L1 sums the gaps strictly inside (a, b]; L2 additionally takes the
    gap leaving the last prime <= b.  L1 < L always.  L <= L2 holds
    whenever the prime deficit at b, nextprime(b) - b, is at least the
    deficit at a; at typical scales L2/L -> 1 but the right inequality
    can fail (e.g. a=8, b=30 gives L2 = 20 < L = 22).

    Only three primes count: the first after a, the last <= b and the
    next after b, each within _GAP_WINDOW of a or b.  When (a, b] and the
    window after b fit one segment they are sieved whole; otherwise only
    _GAP_WINDOW past a and _GAP_WINDOW on each side of b, one window each
    over one base.  b and nextprime(b) must both lie in the supported range.
    """
    a, b = _integer(a, "a"), _integer(b, "b")
    if not 2 < a < b:
        raise ValueError(f"need 2 < a < b, got ({a}, {b})")
    _check_limit(b)
    bound = min(b + 1 + _GAP_WINDOW, MAX_LIMIT + 1)  # cut at 2**63, the end of the range
    spans = [(a + 1, bound)]
    if bound - a > DEFAULT_SEGMENT_SIZE:
        spans = [(a + 1, a + 1 + _GAP_WINDOW), (b + 1 - _GAP_WINDOW, bound)]
    base = base_for(bound)
    primes = np.concatenate([sieve_segment(lo, hi, base).primes for lo, hi in spans])
    cut = int(np.searchsorted(primes, b, side="right"))
    if cut == primes.size:
        raise ValueError(f"no prime follows b = {b} below {bound}")
    if cut < 2:  # two spans always hold two primes <= b
        raise ValueError(f"interval ({a}, {b}] holds {cut} primes; need >= 2")
    first, last, after = primes[[0, cut - 1, cut]].tolist()
    return last - first, b - a, after - first

"""Segmented sieve, and the gaps folded from it, against naive references."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from primegaps import (
    BoundaryRule,
    GapAccumulator,
    MaxGapRecord,
    gap_statistics,
    merge,
    nth_prime,
    power_sum,
    prime_count,
    simple_sieve,
    sieve_segment,
)
from primegaps import sieve
from primegaps.sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_LIMIT,
    MAX_SEGMENT_SIZE,
    _TABLE_LIMIT,
    _start_indices,
    base_for,
    iter_prime_segments,
)

import oracles


# Limits up to _TABLE_LIMIT are a prefix of the base-prime table.  Above it
# the segments start at _TABLE_LIMIT + 1, so _TABLE_LIMIT + 2^20 is the last
# limit that fits one 2^20-number segment and 3 * 2^20 + 7 needs three;
# 1031^2 is the first prime square past 2^20
@pytest.mark.parametrize(
    "limit",
    [0, 1, 2, 3, 4, 5, 30, 97, 100, 1000, 10**4,
     _TABLE_LIMIT - 1, _TABLE_LIMIT, _TABLE_LIMIT + 1,
     oracles.prev_prime(_TABLE_LIMIT), oracles.next_prime(_TABLE_LIMIT),
     2**20 - 1, 2**20, 2**20 + 1, 2**20 + 2, 1031**2,
     _TABLE_LIMIT + 2**20, _TABLE_LIMIT + 2**20 + 1, 3 * 2**20 + 7],
)
def test_simple_sieve_matches_naive(limit):
    assert simple_sieve(limit).tolist() == oracles.naive_primes(limit)


def test_simple_sieve_hands_out_copies():
    first = simple_sieve(100)
    first[:] = 4
    assert simple_sieve(100).tolist() == oracles.naive_primes(100)


def test_simple_sieve_peaks_near_its_result():
    # one array sized by Dusart's bound on pi(x), shrunk in place
    tracemalloc.start()
    try:
        primes = simple_sieve(2**26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * primes.nbytes


def test_a_window_at_2_40_sieves_its_base_in_at_most_two_calls(monkeypatch):
    limits = []
    original = sieve.simple_sieve

    def counted(limit):
        limits.append(limit)
        return original(limit)

    monkeypatch.setattr(sieve, "simple_sieve", counted)
    hi = 2**40 + DEFAULT_SEGMENT_SIZE
    base = base_for(hi)
    sieved = len(limits)
    assert sieved <= 2
    next(iter_prime_segments(2**40, hi, base))
    assert len(limits) == sieved  # the walker builds no base of its own


def test_segment_concatenation_is_complete(oracle_primes_1e6, segment_width):
    # every hi <= 10^6, all segment sizes: concatenation == one-shot sieve
    for size in (64, 1000, 1 << 16, DEFAULT_SEGMENT_SIZE):
        segment_width(size)
        got = np.concatenate([seg.primes for seg in iter_prime_segments(2, 10**6 + 1, base_for(10**6 + 1))])
        assert got.tolist() == oracle_primes_1e6


def test_segments_partition_the_range(segment_width):
    # at the shipped constant every segment but the last is exactly as wide as
    # the '#' header's segment_size= says
    for lo in (2, 3, 2**40 + 5):
        bound = lo + 2 * DEFAULT_SEGMENT_SIZE + 12345
        segs = list(iter_prime_segments(lo, bound, base_for(bound)))
        assert (segs[0].lo, segs[-1].hi) == (lo, bound)
        assert all(left.hi == right.lo for left, right in zip(segs, segs[1:]))
        assert [seg.hi - seg.lo for seg in segs] == [DEFAULT_SEGMENT_SIZE] * 2 + [12345]
    segment_width(1000)
    segs = list(iter_prime_segments(2, 10**5, base_for(10**5)))
    assert segs[0].lo == 2
    assert segs[-1].hi == 10**5
    for left, right in zip(segs, segs[1:]):
        assert left.hi == right.lo
        assert left.primes.size == 0 or left.primes[-1] < right.lo


@pytest.mark.parametrize("limit", [10, 100, 1000, 10**4, 10**5, 10**6])
def test_prime_count_matches_naive(limit, oracle_primes_1e6):
    expected = sum(1 for p in oracle_primes_1e6 if p <= limit)
    assert prime_count(limit) == expected


def test_simple_sieve_inclusive_boundary():
    assert simple_sieve(7).tolist() == [2, 3, 5, 7]
    assert simple_sieve(8).tolist() == [2, 3, 5, 7]
    assert simple_sieve(1).size == 0
    assert prime_count(1) == 0
    assert prime_count(-3) == 0


@pytest.mark.parametrize(
    "n, p",
    [
        (1, 2), (2, 3), (3, 5), (4, 7), (5, 11), (6, 13), (7, 17),
        (25, 97), (168, 997), (217, 1327), (1000, 7919), (3512, 32749),
    ],
)
def test_nth_prime_spot_values(n, p):
    assert nth_prime(n) == p


def test_nth_prime_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        nth_prime(0)


def test_sieve_segment_input_validation():
    base = simple_sieve(1000)
    with pytest.raises(ValueError):
        sieve_segment(1, 100, base)
    with pytest.raises(ValueError):
        sieve_segment(100, 100, base)
    with pytest.raises(ValueError):
        sieve_segment(2, 2 + MAX_SEGMENT_SIZE + 2, base)


def test_sieve_segment_rejects_incomplete_base():
    with pytest.raises(ValueError, match="base primes incomplete"):
        sieve_segment(1000, 2000, simple_sieve(10))


def test_sieve_segment_accepts_base_ending_before_composite_need():
    # isqrt(39^2) = 39 is not prime; a base ending at 37 is complete
    seg = sieve_segment(1500, 1522, simple_sieve(37))
    assert seg.primes.tolist() == [1511]
    # need = 49 = 7^2: trial division must still reach the prime isqrt(need)
    assert sieve_segment(2400, 2402, simple_sieve(47)).primes.size == 0


def test_limit_cap_enforced(monkeypatch):
    def no_base(limit):
        raise AssertionError(f"base to {limit} built before the range check")

    monkeypatch.setattr(sieve, "simple_sieve", no_base)
    with pytest.raises(ValueError, match=rf"^limit {MAX_LIMIT + 1} exceeds supported range"):
        simple_sieve(MAX_LIMIT + 1)
    with pytest.raises(ValueError, match=rf"^limit {2**63} exceeds supported range"):
        prime_count(2**63)
    with pytest.raises(ValueError, match="exceeds supported range"):
        nth_prime(10**18)  # p_n lies past 2^63, a bound refused before any base is built


def test_prime_segment_arrays_are_frozen():
    seg = sieve_segment(2, 100, simple_sieve(10))
    with pytest.raises(ValueError):
        seg.primes[0] = 4


# gaps folded from the segments


def test_gap_events_match_naive_both_rules():
    for rule, inclusive in ((BoundaryRule.STRICT, False), (BoundaryRule.INCLUSIVE, True)):
        for include_first in (True, False):
            expected = oracles.naive_gaps(10**4, inclusive, include_first)
            index, lowers, gaps = zip(*expected)
            want = GapAccumulator.from_gap_arrays(index[0], np.array(gaps), np.array(lowers))
            assert gap_statistics(10**4, rule, include_first) == want


def test_boundary_rules_differ_exactly_at_a_prime_limit():
    # 97 is prime: INCLUSIVE sees the gap 89 -> 97, STRICT stops at 89
    strict = gap_statistics(97, BoundaryRule.STRICT, include_first=True)
    inclusive = gap_statistics(97, BoundaryRule.INCLUSIVE, include_first=True)
    last_gap = GapAccumulator.from_gap_arrays(24, np.array([8]), np.array([89]))
    assert merge(strict, last_gap) == inclusive
    assert (inclusive.n, inclusive.last_prime) == (24, 97)
    # 98 is composite: both rules agree
    assert gap_statistics(98, BoundaryRule.STRICT, include_first=True) == inclusive


@pytest.mark.parametrize("size", [64, 1000, 1 << 16])
def test_gap_events_independent_of_segment_size(size, acc_100k, segment_width):
    segment_width(size)
    got = gap_statistics(10**5, BoundaryRule.STRICT, include_first=True)
    assert got == acc_100k


def test_gap_event_parity():
    acc = gap_statistics(10**5, BoundaryRule.STRICT, include_first=True)
    assert acc.counts[1] == 1
    assert all(d % 2 == 0 for d in acc.counts if d != 1)


def test_gap_event_chain_coherence(oracle_primes_1e6, segment_width):
    # 64-number segments put over a thousand joins below 10^5; every
    # gap across a join must chain, so the gaps telescope to p_last - 2.
    segment_width(64)
    acc = gap_statistics(10**5, BoundaryRule.STRICT, include_first=True)
    below = [p for p in oracle_primes_1e6 if p < 10**5]
    assert (acc.first_index, acc.n, acc.last_prime) == (1, len(below) - 1, below[-1])
    assert power_sum(acc, 1) == below[-1] - 2


def test_exclude_first_starts_at_index_two():
    acc = gap_statistics(100, include_first=False)
    assert acc.first_index == 2
    assert acc.records[0] == MaxGapRecord(index=2, gap=2, lower_prime=3)


def test_gap_events_rejects_tiny_limit():
    with pytest.raises(ValueError):
        gap_statistics(2)


@pytest.mark.parametrize("lo", [2, 3, 4, 1000, 99991, 99992])
def test_segments_start_at_any_lo(lo, oracle_primes_1e6, segment_width):
    segment_width(1000)
    segs = list(iter_prime_segments(lo, 2 * 10**5 + 1, base_for(2 * 10**5 + 1)))
    assert segs[0].lo == lo
    got = np.concatenate([seg.primes for seg in segs])
    assert got.tolist() == [p for p in oracle_primes_1e6 if lo <= p <= 2 * 10**5]


# One base of every prime <= 2^24 serves windows up to 2^48 + 2^24.  Windows
# at 2^52 (3 s each) and 2^62 - 2^20 (a base of pi(2^31) ~ 10^8 primes) are
# left out to keep the suite fast and its memory small.
_WINDOW = 4096
_HEIGHTS = {"2^32": 2**32, "2^40": 2**40, "2^48": 2**48}


@pytest.fixture(scope="module")
def base_2p24() -> np.ndarray:
    return simple_sieve(2**24)


def _mr_primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo | 1, hi, 2) if oracles.is_prime_mr(n)]


@pytest.mark.parametrize("offset", [_WINDOW, _WINDOW // 2], ids=["below", "across"])
@pytest.mark.parametrize("height", list(_HEIGHTS.values()), ids=list(_HEIGHTS))
def test_sieve_segment_matches_miller_rabin_at_height(height, offset, base_2p24):
    lo = height - offset
    hi = lo + _WINDOW
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == _mr_primes(lo, hi)
    assert got  # a 4096-wide window this low always holds primes


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, _WINDOW - 1), max_size=8, unique=True))
def test_window_cuts_concatenate_to_the_same_primes(cuts):
    lo = 2**32 - _WINDOW // 2
    hi = lo + _WINDOW
    base = simple_sieve(math.isqrt(hi - 1))
    edges = [lo, *sorted(lo + c for c in cuts), hi]
    parts = [sieve_segment(a, b, base).primes for a, b in zip(edges, edges[1:])]
    assert np.concatenate(parts).tolist() == sieve_segment(lo, hi, base).primes.tolist()


# Full 2^20 windows are where base primes above sieve._LOOP_PRIME_LIMIT hit
# many times each; the 4096-wide windows above never see one hit twice.
# Past e^20 the odd-prime density is below 0.1 and the kernel pads its mask
# with True slots: 4.8e8 lies below that switch, the window from e^20 - 2^20
# straddles it, and the rest lie past it.
_E20 = math.ceil(math.exp(20))
_SWITCH_HEIGHTS = {"4.8e8": 480_000_000, "e^20-2^20": _E20 - 2**20, "e^20+2^20": _E20 + 2**20,
                   "2^29": 2**29, "2^30": 2**30, "2^36": 2**36, "2^44": 2**44}


@pytest.mark.parametrize("height", list(_SWITCH_HEIGHTS.values()), ids=list(_SWITCH_HEIGHTS))
def test_full_window_matches_the_per_prime_loop(height, base_2p24):
    lo = height + 12345
    hi = lo + DEFAULT_SEGMENT_SIZE
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)


@pytest.mark.parametrize("height", list(_SWITCH_HEIGHTS.values()), ids=list(_SWITCH_HEIGHTS))
def test_partial_window_matches_the_per_prime_loop(height, base_2p24):
    lo = height + 54321
    hi = lo + 2**19 + 4321
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)


# One slot past e^20: a prime, an odd composite, and an even number (no odd slot)
@pytest.mark.parametrize(
    "lo", [oracles.next_prime(_E20), oracles.next_prime(_E20) + 2, _E20],
    ids=["prime", "odd-composite", "even"],
)
def test_one_slot_window_past_the_density_switch(lo, base_2p24):
    got = sieve_segment(lo, lo + 1, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, lo + 1, base_2p24)


@pytest.mark.parametrize("height", [2**30, 2**44], ids=["2^30", "2^44"])
def test_a_window_at_height_keeps_no_pad_alive(height):
    # a pass that holds many windows' primes must not hold their padded index arrays too
    primes = sieve_segment(height, height + DEFAULT_SEGMENT_SIZE, simple_sieve(2**22)).primes
    assert primes.base is None or primes.base.nbytes <= primes.nbytes


_P = 8209  # the first prime above sieve._LOOP_PRIME_LIMIT
# 131071 * _Q is near 2^36, and its least prime factor, 2^17 - 1, is above the limit
_Q = oracles.next_prime(2**36 // 131071)


@pytest.mark.parametrize(
    "lo, hi",
    [(_P**2 - 4096, _P**2 + 1), (_P**2, _P**2 + 4096),
     (131071 * _Q, 131071 * _Q + 2**17), (131071 * _Q - 2**17, 131071 * _Q + 1)],
    ids=["ends-on-p^2", "starts-on-p^2", "starts-on-multiple", "ends-on-multiple"],
)
def test_window_edges_on_large_prime_multiples(lo, hi, base_2p24):
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)
    edge = lo if lo in (_P**2, 131071 * _Q) else hi - 1
    assert edge not in got


# lo is drawn one binary octave at a time, so most windows sit above 2^26,
# the first height whose base reaches past sieve._LOOP_PRIME_LIMIT
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40).flatmap(lambda e: st.integers(2 ** (e - 1) + 1, 2**e)),
       st.integers(1, 2**17))
def test_random_windows_match_the_per_prime_loop(base_2p24, lo, width):
    hi = lo + width
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)


# No test can hold a base up to isqrt(2^63 - 1), so the start indices of the
# largest admissible primes are checked against Python ints directly.
_TOP_PRIMES = [oracles.prev_prime(math.isqrt(MAX_LIMIT))]
for _ in range(4):
    _TOP_PRIMES.append(oracles.prev_prime(_TOP_PRIMES[-1] - 1))


def _python_start_indices(first_odd: int, primes: list[int]) -> list[int]:
    """Index of each p's first odd multiple >= first_odd, p itself included."""
    want = []
    for p in primes:
        m = -(-first_odd // p) * p
        want.append((m + p * (m % 2 == 0) - first_odd) // 2)
    return want


@pytest.mark.parametrize("first_odd", [1, _P**2 - 2 * 99, 2**63 - 2**20 + 1, 2**63 - 3])
def test_start_indices_are_exact_near_2_63(first_odd):
    primes = [_P, 8219, 8221, 131071, *_TOP_PRIMES]
    got = _start_indices(first_odd, np.array(primes, dtype=np.int64)).tolist()
    assert got == _python_start_indices(first_odd, primes)


# first_odd is drawn one binary octave at a time up to 2^63 - 1.
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 63).flatmap(lambda e: st.integers(2 ** (e - 1), 2**e - 1)))
def test_start_indices_match_python_ints(n):
    first_odd = n | 1
    root = math.isqrt(first_odd)
    above = oracles.next_prime(root)
    near = [oracles.prev_prime(max(root, 3)), above, oracles.next_prime(above)]
    top = math.isqrt(MAX_LIMIT)
    primes = sorted({p for p in [3, 5, 7, 8191, _P, *near, *_TOP_PRIMES] if 2 < p <= top})
    got = _start_indices(first_odd, np.array(primes, dtype=np.int64)).tolist()
    assert got == _python_start_indices(first_odd, primes)


def _twin_above(n: int) -> int:
    q = oracles.next_prime(n)
    while not oracles.is_prime_mr(q + 2):
        q = oracles.next_prime(q)
    return q


# A base prime p >= the window's odd count hits the window at most once and
# goes to the one-hit store; p = count - 2 hits twice when its first multiple
# has index 0 or 1.  8219 and 8221 are twin primes, and so are q and q + 2
# above 2^27, so in a window starting on 8219^2 or 8219 q the next odd
# multiple of 8219 has no other base prime to mark it.
@pytest.mark.parametrize("count", [8217, 8219, 8221], ids=["p-2", "p", "p+2"])
@pytest.mark.parametrize("k", [8219, _twin_above(2**27)], ids=["p^2", "p*q"])
def test_windows_whose_odd_count_is_near_a_base_prime(count, k, base_2p24):
    lo = 8219 * k
    hi = lo + 2 * count
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)


# Windows that start on a base prime p.  The kernel marks with the primes
# <= isqrt(hi - 1) alone, so p strikes itself, and the store after marking
# restores it, only when hi > p^2: under MAX_SEGMENT_SIZE that is a slice
# prime, as from lo = 3 and in [1021, 1021^2 + 1), where 1021 = isqrt(hi - 1).
# 8191 (the last slice prime), 8219 (a stride prime at height) and 524309
# (above the 2^19 odd count, a one-hit prime at height) start windows that
# they do not mark.
@pytest.mark.parametrize(
    "lo, hi",
    [(3, 4), (3, 100), (3, 2**20), (1021, 1021**2 + 1),
     (8191, 8191 + 2**20), (8219, 8219 + 2**20), (524309, 524309 + 2**20)],
)
def test_windows_that_start_on_a_base_prime(lo, hi, base_2p24):
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)
    assert got[0] == lo


def test_top_window_agrees_with_the_loop_on_a_partial_base(monkeypatch):
    # with the completeness check off, both sides cross off the same primes
    # near the 2^63 edge, where int64 has no room for absolute multiples
    monkeypatch.setattr(sieve, "_missing_base_prime", lambda base, need: False)
    base = [*simple_sieve(12000).tolist(), *reversed(_TOP_PRIMES)]
    lo, hi = MAX_LIMIT + 1 - DEFAULT_SEGMENT_SIZE, MAX_LIMIT + 1
    got = sieve_segment(lo, hi, np.array(base)).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base)

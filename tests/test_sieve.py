"""Segmented sieve, and the gaps folded from it, against naive references."""

from __future__ import annotations

import bisect
import math
import re
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
    # at the shipped constant every segment but the last is DEFAULT_SEGMENT_SIZE
    # wide; no report names the width
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
        # Dusart's bound on p_n holds from n = 39017 on; a walk to it would stop short of p_38708
        (38708, 463447), (39017, 467473), (10**6, 15485863),
    ],
)
def test_nth_prime_spot_values(n, p):
    assert nth_prime(n) == p


def test_nth_prime_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        nth_prime(0)


@pytest.mark.parametrize(
    "query, value, name",
    [(prime_count, 7.9, "limit"), (prime_count, "100", "limit"), (prime_count, 100.0, "limit"),
     (nth_prime, 2.5, "prime index"), (nth_prime, None, "prime index")],
)
def test_counts_refuse_a_non_integer_and_name_it(query, value, name):
    with pytest.raises(TypeError, match=rf"^{name} {re.escape(repr(value))} is not an integer$"):
        query(value)


def test_counts_take_any_integer_type():
    # as a Python int: np.uint8(255) + 1 would wrap to 0
    assert prime_count(np.uint8(255)) == 54
    assert prime_count(np.int64(100)) == 25
    assert nth_prime(np.int32(25)) == 97


@pytest.fixture(scope="module")
def oracle_primes_2p20() -> list[int]:
    # past the prime after 2^20 + 2, the last number the walks below count to
    return oracles.naive_primes(DEFAULT_SEGMENT_SIZE + 2**10)


# Windows start at 2, so window j is [2 + j w, 2 + (j + 1) w) and its last number
# is 1 + (j + 1) w.  x stays within 2^10 windows of 2, so 16-wide windows reach
# 16384 and the others 2 * 10^5; the slowest example, five walks of about 1300
# 16-wide windows, takes about 0.4 s.
@settings(max_examples=6, deadline=None)
@given(width_and_x=st.sampled_from([16, 64, 1000, DEFAULT_SEGMENT_SIZE]).flatmap(
    lambda width: st.tuples(st.just(width), st.integers(-2, min(2 * 10**5, 2**10 * width)))))
def test_counts_in_any_windows_match_the_oracle(width_and_x, oracle_primes_2p20):
    width, x = width_and_x
    end = 2 + (max(x - 2, 0) // width + 1) * width  # the first number past x's window
    pi = {y: bisect.bisect_right(oracle_primes_2p20, y) for y in (x, end - 1, end)}
    indices = {1, 2, pi[x] - 1, pi[x]} - {-1, 0}
    with pytest.MonkeyPatch.context() as walk_windows_of:
        walk_windows_of.setattr(sieve, "DEFAULT_SEGMENT_SIZE", width)
        counts = {y: prime_count(y) for y in pi}
        nth = {k: nth_prime(k) for k in indices}
    assert counts == pi
    assert nth == {k: oracle_primes_2p20[k - 1] for k in indices}


@pytest.mark.parametrize("width, n, p", [(1000, 9592, 99991), (DEFAULT_SEGMENT_SIZE, 78498, 999983),
                                         (DEFAULT_SEGMENT_SIZE, 25, 97)])
def test_a_count_lists_no_prime_and_an_nth_prime_one_window(width, n, p, monkeypatch, segment_width):
    # p_n lies in a window before the last one of nth_prime's walk in the first two cases
    listed, extract = [], sieve.sieve_segment

    def logged(lo, hi, base):
        listed.append((lo, hi))
        return extract(lo, hi, base)

    monkeypatch.setattr(sieve, "sieve_segment", logged)
    segment_width(width)
    assert prime_count(p) == n
    assert listed == []
    assert nth_prime(n) == p
    [(lo, hi)] = listed
    assert lo <= p < hi


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
    named = rf"^prime index {10**18}: the bound on p_n \d+ exceeds supported range"
    with pytest.raises(ValueError, match=named):
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


# base_2p24 is base_for(2^48 + 2^16): every walk below is a 2^16 span from a lo in
# [2^44, 2^48], in windows from 4096 to 2^20 wide.  The slowest example, 4096-wide
# windows at 2^48, takes about 0.16 s.
@settings(max_examples=6, deadline=None)
@given(lo=st.integers(2**44, 2**48), width=st.sampled_from([2**12, 2**14, 2**16, 2**20]))
def test_a_walk_at_height_partitions_its_span_into_one_windows_primes(lo, width, base_2p24):
    hi = lo + 2**16
    with pytest.MonkeyPatch.context() as walk_windows_of:
        walk_windows_of.setattr(sieve, "DEFAULT_SEGMENT_SIZE", width)
        segs = list(iter_prime_segments(lo, hi, base_2p24))
    assert [(seg.lo, seg.hi) for seg in segs] == [(a, min(a + width, hi)) for a in range(lo, hi, width)]
    got = np.concatenate([seg.primes for seg in segs])
    assert got.tolist() == sieve_segment(lo, hi, base_2p24).primes.tolist()


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


@pytest.mark.parametrize("height", [2, *_SWITCH_HEIGHTS.values()], ids=["2", *_SWITCH_HEIGHTS])
def test_a_windows_count_leaves_out_the_pad(height, base_2p24):
    # prime_count and nth_prime count the marks that sieve_segment lists
    lo = height + (height > 2) * 12345
    hi = lo + DEFAULT_SEGMENT_SIZE
    assert sieve._count(lo, hi, base_2p24) == sieve_segment(lo, hi, base_2p24).primes.size


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


# Every mask starts as a copy of the pattern, which strikes 3..17 themselves; the
# windows below 19 must restore them even when the base stops short of them.
@pytest.mark.parametrize("lo, hi, base", [(2, 8, [2]), (2, 40, [2, 3, 5]), (11, 19, [2, 3])])
def test_windows_below_19_keep_the_pattern_primes(lo, hi, base):
    got = sieve_segment(lo, hi, np.array(base)).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base)
    assert {11, 13, 17} & set(range(lo, hi)) <= set(got)


# A mask past one period of the pattern is doubled in place: 4 periods and 3 odd slots
# leave an uneven tail after the last doubling, below e^20 and past it.
@pytest.mark.parametrize("lo", [480_000_001, 2**30 + 12345], ids=["4.8e8", "2^30"])
def test_a_window_of_four_periods_and_a_tail(lo, base_2p24):
    hi = lo + 2 * (4 * sieve._PERIOD + 3)
    assert (hi - lo + 1) // 2 == 4 * sieve._PERIOD + 3
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)


# A window whose odd count is below _LOOP_PRIME_LIMIT slices only the primes below its
# count; every larger one, and every prime past the limit in the 8193-slot window, hits
# at most once and goes to the tail store.  At 2^48 the per-prime loop takes about 1 s
# a window over its million base primes, so Miller-Rabin checks those windows.
@pytest.mark.parametrize("count", [2047, 2048, 8191, 8193])
@pytest.mark.parametrize("height", [2**40, 2**48], ids=["2^40", "2^48"])
def test_short_windows_at_height(height, count, base_2p24):
    lo = height + 12345
    hi = lo + 2 * count - 1
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == (oracles.loop_window_primes(lo, hi, base_2p24) if height < 2**48 else _mr_primes(lo, hi))


# _P, the smallest stride prime, is sure of count // _P hits and so sets the number of
# stride rounds.  With the odd count 63 _P, a first hit at slot _P - 1 puts its last
# sure hit at count - 1, and a first hit at slot 0 puts its one possible extra hit at
# count, one slot past the mask, where the pad begins past e^20.
@pytest.mark.parametrize("first", [0, _P - 1], ids=["extra-at-count", "last-at-count-1"])
@pytest.mark.parametrize("k", [_P, oracles.next_prime(2**36 // _P)], ids=["p^2", "2^36"])
def test_a_count_that_is_a_multiple_of_a_stride_prime(first, k, base_2p24):
    lo = _P * k - 2 * first
    count = 63 * _P
    hi = lo + 2 * count - 1
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)
    assert (lo + 2 * (first + 62 * _P)) % _P == 0 and lo + 2 * (first + 63 * _P) >= hi


# One odd slot more, count // 63 is still _P, so round 63 must strike _P and leave the
# tail store its 64th hit, at count - 1.  That hit is _P q for a prime q above the
# window's base, so no other prime strikes it.
@pytest.mark.parametrize("m", [_P, 2**36 // _P], ids=["p^2", "2^36"])
def test_an_extra_hit_on_the_last_slot(m, base_2p24):
    q = oracles.next_prime(m + 126)
    lo = _P * (q - 126)
    hi = lo + 2 * (63 * _P + 1) - 1
    assert lo + 2 * 63 * _P == _P * q == hi - 1 and q > math.isqrt(hi - 1)
    got = sieve_segment(lo, hi, base_2p24).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base_2p24)


def test_top_window_agrees_with_the_loop_on_a_partial_base(monkeypatch):
    # with the completeness check off, both sides cross off the same primes
    # near the 2^63 edge, where int64 has no room for absolute multiples
    monkeypatch.setattr(sieve, "_missing_base_prime", lambda base, need: False)
    base = [*simple_sieve(12000).tolist(), *reversed(_TOP_PRIMES)]
    lo, hi = MAX_LIMIT + 1 - DEFAULT_SEGMENT_SIZE, MAX_LIMIT + 1
    got = sieve_segment(lo, hi, np.array(base)).primes.tolist()
    assert got == oracles.loop_window_primes(lo, hi, base)

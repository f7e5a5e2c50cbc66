"""Accumulator algebra, exact moments, records, and interval bracketing."""

from __future__ import annotations

import bisect
import math
import multiprocessing
import os
import random
import signal
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primegaps import cli, gapstats, sieve
from primegaps import (
    BoundaryRule,
    GapAccumulator,
    MaxGapRecord,
    gap_statistics,
    gap_statistics_at,
    interval_gap_bracket,
    known_max_gap_records,
    max_gap_records,
    merge,
    moments,
    power_sum,
    tau_histogram,
)
from primegaps.tauio import format_tau, write_tau

import oracles

# Exact power sums over gaps below 2^15 (strict rule, first gap excluded),
# frozen from the naive reference.
S_2POW15 = {1: 32746, 2: 478068, 3: 9764152, 4: 260764560}


def acc_from_slice(triples, start, stop) -> GapAccumulator:
    """Accumulator over the oracle's (index, lower_prime, gap) triples [start, stop)."""
    index, lowers, gaps = zip(*triples[start:stop])
    return GapAccumulator.from_gap_arrays(index[0], np.array(gaps), np.array(lowers))


def test_three_construction_routes_agree(oracle_gaps_100k, acc_100k):
    # one gap at a time, one bulk array, and the segmented sieve pipeline
    looped = GapAccumulator()
    for i in range(len(oracle_gaps_100k)):
        looped = merge(looped, acc_from_slice(oracle_gaps_100k, i, i + 1))
    assert looped == acc_100k
    vectorized = gap_statistics(10**5, BoundaryRule.STRICT, include_first=True)
    assert vectorized == acc_100k


@pytest.mark.parametrize("rule", list(BoundaryRule))
@pytest.mark.parametrize("include_first", [True, False])
def test_gap_statistics_matches_naive_counts(rule, include_first):
    acc = gap_statistics(10**4, rule, include_first)
    gaps = [
        g
        for _, _, g in oracles.naive_gaps(
            10**4, rule is BoundaryRule.INCLUSIVE, include_first
        )
    ]
    assert acc.n == len(gaps)
    assert sum(acc.counts.values()) == len(gaps)
    assert acc.overall_max == max(gaps)


@pytest.mark.parametrize("rule", list(BoundaryRule))
@pytest.mark.parametrize("include_first", [True, False])
def test_sweep_yields_gap_statistics_at_every_limit(rule, include_first, segment_width):
    # limits off the 64-number segment grid, a repeat, and primes (131, 4099)
    # where the two rules differ; the sweep resumes at each limit.  3 and 4 end
    # at or below the start of a sweep without d_1
    segment_width(64)
    limits = [3, 4, 5, 100, 131, 131, 1000, 4099, 10**4]
    sweep = gap_statistics_at(limits, rule, include_first)
    for limit, acc in zip(limits, sweep, strict=True):
        assert acc == gap_statistics(limit, rule, include_first)
        gaps = oracles.naive_gaps(limit, rule is BoundaryRule.INCLUSIVE, include_first)
        assert acc.n == len(gaps)
        assert power_sum(acc, 2) == sum(g * g for _, _, g in gaps)


# split sweeps: shares folded in forked children and stitched in order

# With 2^12-number shares and three CPUs the sweep to 20000 is cut at 6669
# and 13334 from 4 (13335 under INCLUSIVE, whose top is 20001), and at 6668
# and 13334 from 2: a limit inside the first share, one on the first cut and
# one past it under each rule and start, a repeat, and the prime 13337 just
# past the second cut.  The split-sweep test reads these cuts from the plan.
SPLIT_LIMITS = [1000, 6667, 6668, 6669, 6670, 6670, 13337, 20000]


def use_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def sieved_widths(monkeypatch) -> list[int]:
    """The width of every segment gapstats sieves in this process: each
    segment of a sweep's walks and each of the bracket's windows."""
    widths, walk, window = [], gapstats.iter_prime_segments, gapstats.sieve_segment

    def counting_walk(lo, hi, base):
        for seg in walk(lo, hi, base):
            widths.append(seg.hi - seg.lo)
            yield seg

    def counting_window(lo, hi, base):
        widths.append(hi - lo)
        return window(lo, hi, base)

    monkeypatch.setattr(gapstats, "iter_prime_segments", counting_walk)
    monkeypatch.setattr(gapstats, "sieve_segment", counting_window)
    return widths


def planned(monkeypatch) -> list[tuple[list[int], list[list[tuple[int, int]]]]]:
    """Every plan laid out in this process, bounds and shares, so a test reads its cuts."""
    plans, plan = [], gapstats.plan_sweep

    def spy(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(gapstats, "plan_sweep", spy)
    return plans


def folds_in_this_process(monkeypatch) -> list[tuple[int, int]]:
    """The ranges folded here; a forked child records its own in its copy."""
    folded, fold = [], gapstats._fold_range

    def spy(lo, hi, base):
        folded.append((lo, hi))
        return fold(lo, hi, base)

    monkeypatch.setattr(gapstats, "_fold_range", spy)
    return folded


def oracle_accumulator(limit: int, rule: BoundaryRule, include_first: bool) -> GapAccumulator:
    triples = oracles.naive_gaps(limit, rule is BoundaryRule.INCLUSIVE, include_first)
    if not triples:
        return GapAccumulator(1 if include_first else 2)  # placed where the sweep's next gap would go
    records = []
    for index, lower, gap in triples:
        if gap > (records[-1].gap if records else 0):
            records.append(MaxGapRecord(index, gap, lower))
    counts = Counter(gap for _, _, gap in triples)
    (index, first_prime, _), (_, lower, gap) = triples[0], triples[-1]
    return GapAccumulator(index, first_prime, lower + gap, counts, records)


@pytest.mark.parametrize("rule", list(BoundaryRule))
@pytest.mark.parametrize("include_first", [True, False])
def test_sweep_answers_limits_in_the_callers_order(rule, include_first, small_shares):
    shuffled = [13337, 6669, 20000, 6667, 1000, 6670, 6668, 6670]  # SPLIT_LIMITS, repeat kept
    assert sorted(shuffled) == SPLIT_LIMITS
    sweep = gap_statistics_at(iter(shuffled), rule, include_first)
    assert isinstance(sweep, list)
    assert sweep == [gap_statistics(limit, rule, include_first) for limit in shuffled]
    assert gap_statistics_at([], rule, include_first) == []
    with pytest.raises(ValueError, match="at least 3"):
        gap_statistics_at([1000, 2], rule, include_first)


def no_fold(lo, hi, base):
    raise AssertionError(f"[{lo}, {hi}) folded before the range check")


def no_base(bound):
    raise AssertionError(f"base for {bound} built before the range check")


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_range_cap_is_checked_before_any_fold(cpus, monkeypatch):
    monkeypatch.setattr(gapstats, "_fold_range", no_fold)
    monkeypatch.setattr(gapstats, "base_for", no_base)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="exceeds supported range"):
        gap_statistics(2**63 + 5)
    with pytest.raises(ValueError, match="exceeds supported range"):
        gap_statistics_at([10**6, 2**63 + 5])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("rule", list(BoundaryRule))
def test_an_over_cap_limit_is_named_as_the_caller_gave_it(rule, monkeypatch):
    # a STRICT limit sieves only below itself, yet the limit itself must lie in range
    monkeypatch.setattr(gapstats, "_fold_range", no_fold)
    monkeypatch.setattr(gapstats, "base_for", no_base)
    use_cpus(monkeypatch, 1)
    for limit in (2**63, 2**63 + 5):
        with pytest.raises(ValueError, match=rf"^limit {limit} exceeds supported range 2\*\*63 - 1$"):
            gap_statistics_at([10**6, limit], rule)
    # 2^63 - 1 passes the check; its real base, pi(2^31.5) primes, would not fit a unit test
    bounds = []
    monkeypatch.setattr(gapstats, "base_for", bounds.append)
    with pytest.raises(AssertionError, match="folded"):
        gap_statistics(2**63 - 1, rule)
    assert bounds == [2**63 - 1 if rule is BoundaryRule.STRICT else 2**63]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    limits=st.lists(st.integers(3, 20000), max_size=5),
    rule=st.sampled_from(list(BoundaryRule)),
    include_first=st.booleans(),
    cpus=st.sampled_from([1, 3]),
)
def test_sweep_equals_the_oracle_on_random_limits(
    limits, rule, include_first, cpus, small_shares, segment_width, monkeypatch
):
    # 64-number segments: each range's look-back spans many of them
    segment_width(64)
    use_cpus(monkeypatch, cpus)
    sweep = gap_statistics_at(limits, rule, include_first)
    assert sweep == [oracle_accumulator(limit, rule, include_first) for limit in limits]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    limits=st.lists(st.integers(3, 2 * 10**7), max_size=6),
    rule=st.sampled_from(list(BoundaryRule)),
    start=st.integers(2, 10**7),
    cpus=st.integers(1, 8),
    floor=st.sampled_from([1 << 8, 1 << 12, 1 << 20]),
)
def test_a_sweep_plan_partitions_its_span_into_shares(limits, rule, start, cpus, floor, monkeypatch):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(gapstats, "_SHARE_FLOOR", floor)
    bounds, shares = gapstats.plan_sweep(limits, rule, start)
    assert bounds == [max(start, limit + (rule is BoundaryRule.INCLUSIVE)) for limit in limits]
    top = max(bounds, default=start)
    ranges = [r for share in shares for r in share]  # the shares in order, each contiguous
    edges = [start, *(hi for _, hi in ranges)]
    assert [lo for lo, _ in ranges] == edges[:-1] and edges[-1] == top  # a partition of [start, top)
    assert all(lo < hi for lo, hi in ranges)
    assert {bound for bound in bounds if bound > start} <= set(edges[1:])  # each ends a range
    assert all(shares) or not ranges
    assert len(shares) <= min(cpus, max(1, (top - start) // floor))
    if len(shares) > 1:  # a split span: every share holds at least floor numbers
        assert all(share[-1][1] - share[0][0] >= floor for share in shares)


def chain_reference(chain: list[int]) -> GapAccumulator:
    """The gaps between consecutive primes of the chain, one at a time, indexed from 1."""
    if len(chain) < 2:
        return GapAccumulator()
    return running_max_reference(1, [q - p for p, q in pairwise(chain)], chain[:-1])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lo=st.integers(2, 20000), span=st.integers(0, 3000), width=st.sampled_from([16, 64]))
def test_a_range_fold_equals_the_oracle_across_empty_segments(lo, span, width, segment_width):
    # many 16-number windows hold no prime, so the chain must carry its last prime past them
    segment_width(width)
    hi = lo + span
    primes = oracles.naive_primes(hi - 1)
    below = [p for p in primes if p < lo]
    chain = below[-1:] + primes[len(below) :]  # the last prime below lo, then every prime in [lo, hi)
    assert gapstats._fold_range(lo, hi, sieve.base_for(hi)) == chain_reference(chain)


@pytest.fixture(scope="module")
def height_chain() -> tuple[int, int, list[int]]:
    """A 2^14 span [lo, hi) at 2^40 + 12345 and its chain by Miller-Rabin: the last
    prime below lo, then every prime in the span."""
    lo = 2**40 + 12345
    hi = lo + 2**14
    return lo, hi, [oracles.prev_prime(lo - 1)] + [n for n in range(lo | 1, hi, 2) if oracles.is_prime_mr(n)]


def test_a_range_fold_at_height_equals_miller_rabin(height_chain, segment_width):
    # 4096-number windows: the look-back and the range span five of them
    segment_width(4096)
    lo, hi, chain = height_chain
    assert gapstats._fold_range(lo, hi, sieve.base_for(hi)) == chain_reference(chain)


def test_a_plan_from_a_start_at_height_folds_across_forked_shares(height_chain, small_shares):
    # the span laid out from its own start: three shares, two of them folded in children
    lo, hi, chain = height_chain
    bounds, shares = gapstats.plan_sweep([hi], BoundaryRule.STRICT, start=lo)
    assert bounds == [hi] and len(shares) == 3
    assert all(lo <= a < b <= hi for share in shares for a, b in share)  # [lo, hi) and nothing below
    total = GapAccumulator(1)
    for acc in gapstats._fold_shares(shares, sieve.base_for(hi)):
        total = merge(total, acc)
    assert total == chain_reference(chain)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("rule", list(BoundaryRule))
@pytest.mark.parametrize("include_first", [True, False])
def test_split_sweep_equals_the_in_process_sweep_and_the_oracle(
    rule, include_first, small_shares, monkeypatch
):
    plans = planned(monkeypatch)
    folded_here = folds_in_this_process(monkeypatch)
    split = list(gap_statistics_at(SPLIT_LIMITS, rule, include_first))
    [(bounds, shares)] = plans
    first_cut, second_cut = shares[1][0][0], shares[2][0][0]
    assert {first_cut, first_cut + 1} <= set(bounds)  # a limit on the first cut, one past it
    assert oracles.next_prime(second_cut - 1) == 13337  # the prime just past the second cut
    assert max(hi for _, hi in folded_here) == first_cut  # the other shares folded in children
    use_cpus(monkeypatch, 1)
    assert list(gap_statistics_at(SPLIT_LIMITS, rule, include_first)) == split
    for limit, acc in zip(SPLIT_LIMITS, split, strict=True):
        assert acc == oracle_accumulator(limit, rule, include_first)


def test_split_sweep_of_two_full_shares(monkeypatch):
    folded_here = folds_in_this_process(monkeypatch)
    use_cpus(monkeypatch, 2)
    split = gap_statistics(2**25 + 4)
    assert folded_here == [(4, 4 + 2**24)]  # d_1 left out: 2^25 numbers from 4, two full shares
    use_cpus(monkeypatch, 1)
    assert gap_statistics(2**25 + 4) == split


def test_a_split_sweep_builds_its_base_in_the_parent_alone(small_shares, monkeypatch):
    # three shares, two of them in children (as the split-sweep tests check),
    # which read the parent's base: a child that built its own would fail its share
    parent, build = os.getpid(), sieve.simple_sieve

    def in_the_parent_only(limit):
        if os.getpid() != parent:
            raise AssertionError(f"a child built its own base to {limit}")
        return build(limit)

    monkeypatch.setattr(sieve, "simple_sieve", in_the_parent_only)
    split = gap_statistics_at(SPLIT_LIMITS)
    assert split == [oracle_accumulator(limit, BoundaryRule.STRICT, False) for limit in SPLIT_LIMITS]


@pytest.mark.parametrize(
    "query, bound",
    [
        (lambda: gap_statistics_at([1000, 6666, 20000]), 20000),
        (lambda: interval_gap_bracket(2**32, 2**32 + 2**24), 2**32 + 2**24 + 1 + gapstats._GAP_WINDOW),
        (lambda: sieve.prime_count(10**6), 10**6 + 1),
        # nth_prime walks to Dusart's bound on p_n, n (log n + log log n - 0.9484), and one past it
        (lambda: sieve.nth_prime(10**5), int(10**5 * (math.log(10**5 * math.log(10**5)) - 0.9484)) + 2),
    ],
    ids=["sweep-of-three-ranges", "bracket-of-two-spans", "prime-count", "nth-prime"],
)
def test_a_query_builds_one_base(query, bound, monkeypatch):
    # every simple_sieve call, a base's own base included
    limits, build = [], sieve.simple_sieve
    monkeypatch.setattr(sieve, "simple_sieve", lambda limit: limits.append(limit) or build(limit))
    query()
    by_query = limits[:]
    limits.clear()
    sieve.simple_sieve(math.isqrt(bound - 1))  # one base for the query's top bound
    assert by_query == limits


def test_split_sweep_leaves_no_child(small_shares):
    list(gap_statistics_at(SPLIT_LIMITS))
    assert multiprocessing.active_children() == []


def test_a_split_sweep_restores_the_callers_sigterm_handler(small_shares):
    # the sweep's own handler lives only while its children do; the CLI test stops one with it
    def callers(signum, frame):
        raise AssertionError("no SIGTERM is sent here")

    previous = signal.signal(signal.SIGTERM, callers)
    try:
        assert gap_statistics_at(SPLIT_LIMITS) == [gap_statistics(limit) for limit in SPLIT_LIMITS]
        assert signal.getsignal(signal.SIGTERM) is callers
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failed_share_reaches_the_caller_and_leaves_no_child(where, small_shares, monkeypatch):
    parent, fold = os.getpid(), gapstats._fold_range

    def fold_or_fail(lo, hi, base):
        here = "parent" if os.getpid() == parent else "child"
        if here == where:
            raise ArithmeticError(f"range from {lo} failed in the {here}")
        if here == "child":
            time.sleep(60)  # a failed parent stops its children, not waits for them
        return fold(lo, hi, base)

    monkeypatch.setattr(gapstats, "_fold_range", fold_or_fail)
    start = time.monotonic()
    with pytest.raises(ArithmeticError, match=f"failed in the {where}"):
        list(gap_statistics_at(SPLIT_LIMITS))
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30


# Two seam mutants of the range fold, for every range past the start: one leaves out
# the gap ending at the range's first prime, one also folds the gap before that.
# Each range is consistent on its own, so only the join can see them.
SEAM_MUTANTS = {
    "dropped": lambda lo: oracles.next_prime(lo - 1) + 1,
    "repeated": lambda lo: oracles.prev_prime(lo - 1),
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("mutant", list(SEAM_MUTANTS))
def test_the_sweep_checks_its_own_seams(mutant, cpus, small_shares, monkeypatch, capsys):
    use_cpus(monkeypatch, cpus)
    fold, moved = gapstats._fold_range, SEAM_MUTANTS[mutant]

    def mutant_fold(lo, hi, base):
        return fold(moved(lo) if lo > 4 else lo, hi, base)  # the first range starts the sweep at 4

    monkeypatch.setattr(gapstats, "_fold_range", mutant_fold)
    plans = planned(monkeypatch)
    with pytest.raises(ValueError) as raised:
        gap_statistics_at([20000])
    cut = plans[0][1][1][0][0]  # the first join; the range after it folds in a child
    left_end = oracles.prev_prime(cut - 1)
    right_start = oracles.next_prime(cut - 1) if mutant == "dropped" else oracles.prev_prime(left_end - 1)
    message = f"ranges not adjacent: left ends at prime {left_end}, right starts at prime {right_start}"
    assert str(raised.value) == message
    assert cli.main(["moments", "--limit", "20000"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert multiprocessing.active_children() == []


def killed_in_the_child(monkeypatch) -> None:
    """A child's fold SIGKILLs its own process, so the child sends nothing."""
    parent, fold = os.getpid(), gapstats._fold_range

    def fold_or_die(lo, hi, base):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fold(lo, hi, base)

    monkeypatch.setattr(gapstats, "_fold_range", fold_or_die)


def test_a_child_killed_before_its_result_names_its_share(small_shares, monkeypatch):
    killed_in_the_child(monkeypatch)
    plans = planned(monkeypatch)
    start = time.monotonic()
    with pytest.raises(ChildProcessError) as raised:
        gap_statistics_at(SPLIT_LIMITS)
    assert time.monotonic() - start < 30
    share = plans[0][1][1]  # the first share folded in a child
    assert str(raised.value) == f"share [{share[0][0]}, {share[-1][1]}) ended with exit code -9"
    assert multiprocessing.active_children() == []


def test_a_killed_child_is_a_cli_input_error(small_shares, monkeypatch, capsys):
    # exit 1 is kept for a verification mismatch
    killed_in_the_child(monkeypatch)
    assert cli.main(["moments", "--limit", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: share [")
    assert len(captured.err.splitlines()) == 1
    assert multiprocessing.active_children() == []


def test_a_daemonic_worker_folds_its_sweep_in_process(small_shares):
    # multiprocessing refuses children to a daemon, such as a pool worker
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.apply_async(gap_statistics, (20000,)).get(timeout=60)
    assert in_worker == gap_statistics(20000)
    assert multiprocessing.active_children() == []


def test_sweep_folds_in_process_while_a_second_thread_is_alive(small_shares, monkeypatch):
    # a fork would copy the other thread's locks in whatever state they are
    widths = sieved_widths(monkeypatch)
    plans = planned(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        threaded = gap_statistics(20000)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # every range was sieved here, each from _GAP_WINDOW below its start (not below 2)
    window, shares = gapstats._GAP_WINDOW, plans[0][1]
    assert len(shares) == 3
    assert sum(widths) == sum(hi - max(2, lo - window) for share in shares for lo, hi in share)
    widths.clear()
    assert gap_statistics(20000) == threaded
    # alone, this process sieves its own share only
    assert sum(widths) == sum(hi - max(2, lo - window) for lo, hi in shares[0])


def test_histogram_totals_on_random_limits(oracle_primes_1e6):
    rng = random.Random(20260815)
    for _ in range(20):
        limit = rng.randrange(10, 10**6)
        hist = tau_histogram(limit)
        strictly_below = sum(1 for p in oracle_primes_1e6 if p < limit)
        assert sum(hist.values()) == max(strictly_below - 2, 0)
        format_tau(hist)  # raises on a pair outside the tau convention


def test_tau_spot_values_at_2pow20(hist_2pow20):
    assert hist_2pow20[2] == 8535
    assert hist_2pow20[114] == 1
    assert max(hist_2pow20) == 114


def test_first_power_sum_telescopes_to_last_prime(oracle_primes_1e6):
    for x in (10**3, 10**4, 10**5, 10**6):
        acc = gap_statistics(x, BoundaryRule.INCLUSIVE, include_first=True)
        last = max(p for p in oracle_primes_1e6 if p <= x)
        assert power_sum(acc, 1) == last - 2


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    limits=st.lists(st.one_of(st.integers(3, 5), st.integers(3, 10**6)), max_size=4),
    rule=st.sampled_from(list(BoundaryRule)),
    include_first=st.booleans(),
    cpus=st.integers(1, 4),
)
def test_a_sweep_is_placed_and_telescopes_between_its_end_primes(
    limits, rule, include_first, cpus, oracle_primes_1e6, small_shares, monkeypatch
):
    # the seed places every sweep, an empty one too, at d_1's index or the next
    use_cpus(monkeypatch, cpus)
    for limit, acc in zip(limits, gap_statistics_at(limits, rule, include_first), strict=True):
        assert acc.first_index == (1 if include_first else 2)
        if acc.n:
            bound = limit + (rule is BoundaryRule.INCLUSIVE)
            assert acc.first_prime == (2 if include_first else 3)
            assert acc.last_prime == oracle_primes_1e6[bisect.bisect_left(oracle_primes_1e6, bound) - 1]
            assert power_sum(acc, 1) == acc.last_prime - acc.first_prime


def test_merge_equals_one_pass_on_random_splits(oracle_gaps_100k, acc_100k):
    rng = random.Random(7)
    total = len(oracle_gaps_100k)
    for _ in range(5):
        cut = rng.randrange(1, total)
        left = acc_from_slice(oracle_gaps_100k, 0, cut)
        right = acc_from_slice(oracle_gaps_100k, cut, total)
        assert merge(left, right) == acc_100k
        # indexed from 1, as a range folded on its own is: merge renumbers it
        _, lowers, gaps = zip(*oracle_gaps_100k[cut:])
        from_one = GapAccumulator.from_gap_arrays(1, np.array(gaps), np.array(lowers))
        assert merge(left, from_one) == acc_100k


def test_merge_is_associative(oracle_gaps_100k):
    rng = random.Random(11)
    total = len(oracle_gaps_100k)
    for _ in range(3):
        i, j = sorted(rng.sample(range(1, total), 2))
        a = acc_from_slice(oracle_gaps_100k, 0, i)
        b = acc_from_slice(oracle_gaps_100k, i, j)
        c = acc_from_slice(oracle_gaps_100k, j, total)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_with_empty_is_identity(acc_100k):
    for merged in (merge(acc_100k, GapAccumulator()), merge(GapAccumulator(), acc_100k)):
        assert merged == acc_100k
        # a new summary: it shares no mutable state with its inputs
        assert merged.counts is not acc_100k.counts
        assert merged.records is not acc_100k.records


def test_merge_rejects_non_adjacent_ranges(oracle_gaps_100k):
    a = acc_from_slice(oracle_gaps_100k, 0, 10)
    b = acc_from_slice(oracle_gaps_100k, 11, 20)
    with pytest.raises(ValueError, match="not adjacent"):
        merge(a, b)
    with pytest.raises(ValueError, match="not adjacent"):
        merge(b, a)


def test_records_are_left_to_right_maxima(acc_100k):
    got = [(r.index, r.gap, r.lower_prime) for r in max_gap_records(acc_100k)]
    assert got == oracles.naive_records(10**5 - 1)


def running_max_reference(first_index: int, gaps: list[int], lowers: list[int]) -> GapAccumulator:
    """One gap at a time: a record is a gap above every gap before it."""
    best, records = 0, []
    for i, (gap, lower) in enumerate(zip(gaps, lowers)):
        if gap > best:
            best = gap
            records.append(MaxGapRecord(first_index + i, gap, lower))
    return GapAccumulator(first_index, lowers[0], lowers[-1] + gaps[-1], Counter(gaps), records)


def assert_fold_matches_reference(first_index: int, gaps: list[int]) -> None:
    lowers = [10**12 + 7 * i for i in range(len(gaps))]
    got = GapAccumulator.from_gap_arrays(first_index, np.array(gaps, dtype=np.int64), np.array(lowers))
    assert got == running_max_reference(first_index, gaps, lowers)


_B = gapstats._RECORD_BLOCK


# Records are found block by block, so the cases sit on and around block edges.
@pytest.mark.parametrize(
    "gaps",
    [
        [6],
        [2] * _B,
        [2] * _B + [4],
        list(range(1, 3 * _B + 2)),
        [8] * (3 * _B),
        [2] * (_B - 1) + [10] + [4] * _B,
        [2] * _B + [10] + [4] * (_B - 1) + [12],
    ],
    ids=["one-gap", "one-block", "one-block-plus-one", "ascending", "all-equal",
         "record-on-a-block's-last-slot", "record-on-a-block's-first-slot"],
)
def test_records_across_block_edges_match_the_running_max(gaps):
    assert_fold_matches_reference(3, gaps)


# Gaps drawn from a seed: few values (many ties) or many, up to about the largest
# gap below 2^64, with a rising trend that makes every block a candidate, or none.
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5 * _B), st.integers(1, 2000), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.integers(1, 2**40))
def test_records_match_the_running_max_on_drawn_gaps(size, top, trend, seed, first_index):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, top, size, endpoint=True) + trend * np.arange(size)
    assert_fold_matches_reference(first_index, gaps.tolist())


def test_records_require_the_full_stream():
    acc = gap_statistics(1000, BoundaryRule.STRICT, include_first=False)
    with pytest.raises(ValueError, match="index 1"):
        max_gap_records(acc)
    with pytest.raises(ValueError):
        max_gap_records(GapAccumulator())


def test_record_prefix_below_1e4():
    acc = gap_statistics(10**4, BoundaryRule.INCLUSIVE, include_first=True)
    records = max_gap_records(acc)
    assert [r.index for r in records] == [1, 2, 4, 9, 24, 30, 99, 154, 189, 217, 1183]
    assert [r.gap for r in records] == [1, 2, 4, 6, 8, 14, 18, 20, 22, 34, 36]
    assert [r.lower_prime for r in records] == [2, 3, 7, 23, 89, 113, 523, 887, 1129, 1327, 9551]


def test_power_sums_exact_at_2pow15():
    acc = gap_statistics(1 << 15, BoundaryRule.STRICT, include_first=False)
    for k, expected in S_2POW15.items():
        assert power_sum(acc, k) == expected
        assert oracles.naive_power_sum(1 << 15, k) == expected
    assert power_sum(acc, 0) == acc.n == 3510


def test_power_sum_rejects_negative_order(acc_100k):
    with pytest.raises(ValueError):
        power_sum(acc_100k, -1)


def test_moments_reduce_exactly_before_float_conversion():
    acc = gap_statistics(1 << 15, BoundaryRule.STRICT, include_first=False)
    summary = moments(acc, [0, 1, 2, 3, 4])
    n = 3510
    assert summary.n == n
    assert summary.moments[0] == 1.0
    for k in (1, 2, 3, 4):
        assert summary.moments[k] == float(Fraction(S_2POW15[k], n))
    s1, s2 = S_2POW15[1], S_2POW15[2]
    var = Fraction(n * s2 - s1 * s1, n * (n - 1))
    assert summary.mean == float(Fraction(s1, n))
    assert summary.variance == float(var)
    assert summary.taylor_ratio == float(var / Fraction(s1, n) ** 2)
    assert summary.taylor_ratio == pytest.approx(0.5654, abs=1e-3)


def float_or_none(q: Fraction) -> float | None:
    try:
        return float(q)
    except OverflowError:
        return None


@settings(max_examples=150, deadline=None)
@given(
    counts=st.dictionaries(st.integers(1, 1550), st.integers(1, 2**40), min_size=1, max_size=8),
    orders=st.lists(st.integers(0, 400), min_size=1, max_size=6),
)
def test_moments_are_exact_past_the_fixture(counts, orders):
    # every float is the one float(Fraction) gives, up to the first order whose
    # S_k/n overflows (gaps <= 1550, the largest known, overflow from k = 97 on)
    n = sum(counts.values())
    acc = GapAccumulator(1, counts=Counter(counts))
    sums = [sum(d**k * c for d, c in counts.items()) for k in range(401)]
    exact = [float_or_none(Fraction(s, n)) for s in sums]
    first_over = exact.index(None) if None in exact else 401
    fine = sorted({1, first_over - 1, *(k for k in orders if k < first_over)})
    summary = moments(acc, fine)
    assert summary.moments == {k: exact[k] for k in fine}
    s1, s2 = sums[1], sums[2]
    assert summary.mean == float(Fraction(s1, n))
    if n > 1:
        var = Fraction(n * s2 - s1 * s1, n * (n - 1))
        assert summary.variance == float(var)
        assert summary.taylor_ratio == float(var / Fraction(s1, n) ** 2)
    if first_over <= 400:
        with pytest.raises(ValueError, match=rf"^gap moment S_k/n overflows a float at k={first_over}, n={n}$"):
            moments(acc, [*fine, first_over])


def test_moments_variance_undefined_below_two_gaps():
    acc = GapAccumulator.from_gap_arrays(1, np.array([1]), np.array([2]))
    summary = moments(acc, [1])
    assert summary.mean == 1.0
    assert summary.variance is None
    assert summary.taylor_ratio is None


def test_moments_input_validation(acc_100k):
    with pytest.raises(ValueError):
        moments(acc_100k, [])
    with pytest.raises(ValueError):
        moments(acc_100k, [-1])
    with pytest.raises(ValueError):
        moments(GapAccumulator(), [1])


# A numpy integer must give the Python-int result: an int64 power overflows
# silently, and an int32 limit + 1 wraps to -2^31.
INTEGER_TYPES = [int, np.int32, np.int64, np.uint64]


@pytest.mark.parametrize("kind", INTEGER_TYPES, ids=lambda kind: kind.__name__)
def test_any_integer_type_gives_the_python_int_results(kind, acc_100k):
    summary = moments(acc_100k, [kind(20), kind(1)])
    assert summary == moments(acc_100k, [20, 1])
    assert all(type(k) is int and type(s) is int for k, s in summary.power_sums.items())
    assert power_sum(acc_100k, kind(20)) == power_sum(acc_100k, 20)
    assert gap_statistics(kind(10**4), BoundaryRule.INCLUSIVE) == gap_statistics(10**4, BoundaryRule.INCLUSIVE)
    bounds, shares = gapstats.plan_sweep([kind(2**31 - 1)], BoundaryRule.INCLUSIVE)  # no base, no sieve
    assert bounds == [2**31] and shares[-1][-1][1] == 2**31
    bracket = interval_gap_bracket(kind(10), kind(100))
    assert bracket == interval_gap_bracket(10, 100) == (86, 90, 90)
    assert all(type(value) is int for value in bracket)


def test_a_narrow_integer_type_brackets_as_a_python_int():
    assert interval_gap_bracket(np.uint8(10), np.uint8(100)) == (86, 90, 90)


@pytest.mark.parametrize("value", [1.5, 20.0, np.float64(20), "20"], ids=repr)
def test_a_non_integer_argument_is_refused_by_name(value, acc_100k):
    with pytest.raises(TypeError, match="^moment order .* is not an integer$"):
        moments(acc_100k, [1, value])
    with pytest.raises(TypeError, match="^moment order .* is not an integer$"):
        power_sum(acc_100k, value)
    with pytest.raises(TypeError, match="^limit .* is not an integer$"):
        gap_statistics(value)
    with pytest.raises(TypeError, match="^limit .* is not an integer$"):
        gap_statistics_at([1000, value])
    with pytest.raises(TypeError, match="^a .* is not an integer$"):
        interval_gap_bracket(value, 1000)
    with pytest.raises(TypeError, match="^b .* is not an integer$"):
        interval_gap_bracket(3, value)


def test_histogram_validate_rejects_bad_shapes(tmp_path):
    # the first gap d_1 = 1 is outside the tau convention; gaps 0 and -2 are
    # even but no gap at all, and a tau file could not be read back with them
    path = tmp_path / "bad.dat"
    for counts in ({2: 0}, {3: 1}, {1: 1}, {0: 1}, {-2: 1}):
        with pytest.raises(ValueError, match="invalid gap .* or non-positive count"):
            write_tau(path, counts)
    assert not path.exists()


# interval bracketing


def test_bracket_agrees_with_naive_on_random_intervals():
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        a = rng.randrange(3, 5000)
        b = a + rng.randrange(10, 500)
        try:
            got = interval_gap_bracket(a, b)
        except ValueError:
            continue
        assert got == oracles.naive_bracket(a, b)
        l1, length, _ = got
        assert l1 < length
        checked += 1


def test_bracket_right_sum_usually_but_not_always_covers_the_interval():
    # prime deficits decide the right-hand comparison: nextprime(b) - b
    # must reach nextprime(a) - a for L <= L2
    assert interval_gap_bracket(8, 30) == (18, 22, 20)
    assert interval_gap_bracket(24, 40) == (8, 16, 12)
    l1, length, l2 = interval_gap_bracket(10, 50)
    assert (l1, length, l2) == (36, 40, 42)
    assert l1 < length <= l2


# (a, b] and the window after b span b + 1 + _GAP_WINDOW - a numbers: at most one
# segment is sieved whole, a longer span only near a and b
_ONE_SEGMENT = 2**40 + 12345 + sieve.DEFAULT_SEGMENT_SIZE - 1 - gapstats._GAP_WINDOW
_PRIME_40 = oracles.next_prime(2**40 + 2**21)


@pytest.mark.parametrize(
    "a, b",
    [
        # a and b prime, so (a, b] drops a and keeps b; 2.5 sieve windows
        (oracles.next_prime(2**32), oracles.prev_prime(oracles.next_prime(2**32) + (5 << 19))),
        (2**40 + 12345, 2**40 + 32345),
        (2**40 + 12345, _ONE_SEGMENT),
        (2**40 + 12345, _ONE_SEGMENT + 1),
        (_PRIME_40, oracles.prev_prime(_PRIME_40 + 3 * 2**20)),
    ],
    ids=["2^32-three-windows", "2^40-short", "2^40-one-segment", "2^40-one-past", "2^40-primes-two-spans"],
)
def test_bracket_agrees_with_miller_rabin_at_height(a, b):
    assert interval_gap_bracket(a, b) == oracles.mr_bracket(a, b)


def test_a_long_bracket_sieves_only_near_a_and_b(monkeypatch):
    # _GAP_WINDOW past a, and _GAP_WINDOW on each side of b, whatever b - a is
    widths = sieved_widths(monkeypatch)
    a, b = 2**32, 2**32 + 2**24
    assert interval_gap_bracket(a, b) == oracles.mr_bracket(a, b)
    assert sum(widths) == 3 * gapstats._GAP_WINDOW


def test_gap_window_exceeds_every_known_maximal_gap():
    # so the bracket finds its three primes this close to a and b, and a sweep
    # range's look-back finds the prime before its start, for every number below 2^64
    assert gapstats._GAP_WINDOW > max(r.gap for r in known_max_gap_records())


def test_bracket_walks_past_b_once(monkeypatch):
    # 113 -> 127 is longer than a 4-number window: no second window is sieved
    monkeypatch.setattr(gapstats, "_GAP_WINDOW", 4)
    with pytest.raises(ValueError, match="no prime follows b = 113 below 118"):
        interval_gap_bracket(100, 113)


def sieve_by_miller_rabin(monkeypatch) -> list[int]:
    """Stand-ins for the bracket's base and windows near 2^63, where a real base
    sieve up to isqrt(2^63) would not fit a unit test: the base keeps base_for's
    own range check and records its bound, and each window holds the primes of
    [lo, hi) by Miller-Rabin."""
    bounds, stand_in = [], np.empty(0, dtype=np.int64)

    def range_checked_base(bound):
        sieve._check_limit(bound - 1)
        bounds.append(bound)
        return stand_in

    def miller_rabin_window(lo, hi, base):
        assert base is stand_in
        primes = [n for n in range(lo, hi) if oracles.is_prime_mr(n)]
        return sieve.PrimeSegment(lo, hi, np.array(primes, dtype=np.int64))

    monkeypatch.setattr(gapstats, "base_for", range_checked_base)
    monkeypatch.setattr(gapstats, "sieve_segment", miller_rabin_window)
    return bounds


def test_bracket_reaches_the_last_prime_of_the_range(monkeypatch):
    # 2^63 - 25 is the largest prime below 2^63; the window after b is
    # cut at 2^63 instead of running past the range
    bounds = sieve_by_miller_rabin(monkeypatch)
    a, b = 2**63 - 2000, 2**63 - 100
    assert oracles.next_prime(b) == 2**63 - 25
    assert interval_gap_bracket(a, b) == oracles.mr_bracket(a, b)
    assert bounds == [2**63]


def test_bracket_names_b_when_no_prime_follows_it_in_range(monkeypatch):
    sieve_by_miller_rabin(monkeypatch)
    b = 2**63 - 20
    with pytest.raises(ValueError, match=f"no prime follows b = {b}"):
        interval_gap_bracket(2**63 - 2000, b)
    with pytest.raises(ValueError, match="exceeds supported range"):
        interval_gap_bracket(2**63 - 2000, 2**63)


def test_bracket_input_validation():
    with pytest.raises(ValueError):
        interval_gap_bracket(2, 30)
    with pytest.raises(ValueError):
        interval_gap_bracket(30, 30)
    with pytest.raises(ValueError, match="need >= 2"):
        interval_gap_bracket(24, 28)


def test_from_gap_arrays_rejects_length_mismatch():
    with pytest.raises(ValueError):
        GapAccumulator.from_gap_arrays(1, np.array([2, 4]), np.array([3]))
    with pytest.raises(ValueError):  # also when there are no gaps
        GapAccumulator.from_gap_arrays(1, np.array([], np.int64), np.array([3]))


def test_overall_max_and_n_on_empty():
    acc = GapAccumulator()
    assert acc.n == 0
    assert acc.overall_max == 0

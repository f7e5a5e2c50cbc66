"""Shared fixtures: expensive sieve products computed once per session."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from primegaps import GapAccumulator, gapstats, sieve, tau_histogram

import oracles


@pytest.fixture(scope="session")
def oracle_primes_1e6() -> list[int]:
    return oracles.naive_primes(10**6)


@pytest.fixture(scope="session")
def oracle_gaps_100k() -> list[tuple[int, int, int]]:
    return oracles.naive_gaps(10**5, inclusive=False, include_first=True)


@pytest.fixture(scope="session")
def acc_100k(oracle_gaps_100k) -> GapAccumulator:
    _, lowers, gaps = zip(*oracle_gaps_100k)
    return GapAccumulator.from_gap_arrays(1, np.array(gaps), np.array(lowers))


@pytest.fixture
def fold_segment_size(monkeypatch):
    """Call with a size to make the gap fold walk the sieve in segments of it."""

    def walk_segments_of(size: int) -> None:
        walker = functools.partial(sieve.iter_prime_segments, segment_size=size)
        monkeypatch.setattr(gapstats, "iter_prime_segments", walker)

    return walk_segments_of


@pytest.fixture(scope="session")
def hist_2pow20():
    return tau_histogram(1 << 20)

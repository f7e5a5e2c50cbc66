"""Shared fixtures: expensive sieve products computed once per session."""

from __future__ import annotations

import numpy as np
import pytest

from primegaps import GapAccumulator, sieve, tau_histogram

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
def segment_width(monkeypatch):
    """Call with a size to make every sieve walk, gap folds included, use windows of it."""

    def walk_windows_of(size: int) -> None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)

    return walk_windows_of


@pytest.fixture(scope="session")
def hist_2pow20():
    return tau_histogram(1 << 20)

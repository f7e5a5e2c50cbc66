"""Shared fixtures: expensive sieve products computed once per session."""

from __future__ import annotations

import os

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
def segment_width(monkeypatch):
    """Call with a size to make every sieve walk, gap folds included, use windows of it."""

    def walk_windows_of(size: int) -> None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)

    return walk_windows_of


@pytest.fixture
def small_shares(monkeypatch):
    """Shares of 2^12 numbers or more over three faked CPUs, so a sweep to 20000 forks two."""
    monkeypatch.setattr(gapstats, "_SHARE_FLOOR", 1 << 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


@pytest.fixture(scope="session")
def hist_2pow20():
    return tau_histogram(1 << 20)

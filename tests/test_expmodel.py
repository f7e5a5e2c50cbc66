"""Order-statistic closed forms, stable quantiles, and the spacings simulator."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from primegaps import (
    EULER_GAMMA,
    ExpParams,
    exp_moment,
    large_dev_tail,
    max_order_cdf,
    max_order_mean_asym,
    max_order_quantile,
    max_order_sf,
    max_order_var_asym,
    min_order_quantile,
    order_stat_mean,
    order_stat_var,
    simulate_spacings,
    simulate_uniform_spacings,
)
from primegaps.cli import main
from primegaps.expmodel import GENERATOR, ZETA2

import oracles


def test_exp_moment_small_orders():
    assert exp_moment(1, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert exp_moment(2, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert exp_moment(4, 1.0) == pytest.approx(24.0, rel=1e-15)
    # non-integer order goes through the gamma function
    assert exp_moment(0.5, 1.0) == pytest.approx(math.gamma(1.5), rel=1e-14)


@pytest.mark.parametrize("r", [200, 180.5])
def test_exp_moment_past_float_range_is_a_value_error(r):
    with pytest.raises(ValueError, match=f"past float range at r={r}, rate=1.0"):
        exp_moment(r, 1.0)


def test_exp_moment_scaling_law():
    # scaling a rate-lambda variable by c yields rate lambda/c
    rng = random.Random(42)
    for _ in range(20):
        c = rng.uniform(0.1, 10.0)
        lam = rng.uniform(0.1, 10.0)
        for k in (1, 2, 3, 4):
            scaled = exp_moment(k, lam / c)
            assert scaled == pytest.approx(c**k * exp_moment(k, lam), rel=1e-12)


@pytest.mark.parametrize("i, n", [(1, 1), (1, 10), (5, 10), (10, 10), (1, 9999), (5000, 10**4), (10**4, 10**4)])
def test_order_stat_mean_matches_brute_force(i, n):
    got = order_stat_mean(i, n, 0.7)
    assert got == pytest.approx(oracles.order_stat_mean_exact(i, n, 0.7), rel=1e-13)


@pytest.mark.parametrize("i, n", [(1, 1), (3, 7), (7, 7), (50, 60)])
def test_order_stat_var_matches_exact_rationals(i, n):
    lam = 1.3
    expected = (oracles.harmonic2(n) - oracles.harmonic2(n - i)) / Fraction(13, 10) ** 2
    assert order_stat_var(i, n, lam) == pytest.approx(float(expected), rel=1e-12)


def test_order_stat_bounds_checked():
    with pytest.raises(ValueError):
        order_stat_mean(0, 5, 1.0)
    with pytest.raises(ValueError):
        order_stat_mean(6, 5, 1.0)
    with pytest.raises(ValueError):
        order_stat_var(1, 0, 1.0)


def test_spacing_telescoping():
    # E X_(i+1) - E X_(i) = 1 / (lambda (n - i)); the top spacing is 1/lambda
    lam = 2.5
    for n, i in ((10, 3), (100, 99), (10**4, 1)):
        step = order_stat_mean(i + 1, n, lam) - order_stat_mean(i, n, lam)
        assert step == pytest.approx(1.0 / (lam * (n - i)), rel=1e-12)
    top = order_stat_mean(100, 100, lam) - order_stat_mean(99, 100, lam)
    assert top == pytest.approx(1.0 / lam, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 12345, 10**5, 10**6, 10**7])
def test_harmonic_asymptotic_error_band(n):
    h_n = order_stat_mean(n, n, 1.0)
    assert abs(h_n - math.log(n) - EULER_GAMMA) < 1 / (2 * n) + 1e-12


def _direct_recip_sum(n: int, power: int) -> float:
    # chunks of 2^20 terms keep the reference to a few MB at any n
    chunks = (np.arange(a, min(a + 2**20, n + 1), dtype=np.float64) for a in range(1, n + 1, 2**20))
    return math.fsum(float(np.sum(1.0 / c**power)) for c in chunks)


def test_harmonic_sums_match_a_direct_sum_past_ten_million_terms():
    n = 10**7 + 10
    assert order_stat_mean(n, n, 1.0) == pytest.approx(_direct_recip_sum(n, 1), rel=1e-12)
    assert order_stat_var(n, n, 1.0) == pytest.approx(_direct_recip_sum(n, 2), rel=1e-12)


# (i, n): order statistic i of n, i.e. the reciprocal sums over [n - i + 1, n]
_ACCURACY_GRID = [
    # where the old difference of two Euler-Maclaurin values lost its digits
    (100001, 10**12),
    (100001, 2**62),
    (100002, 201 * 10**5),
    # close ends near 2^62 and at the top of the range
    (1, 2**62),
    (2, 2**62),
    (6, 2**62),
    (1000, 2**62 + 12345),
    (1, 2**63 - 1),
    (7, 2**63 - 1),
    (10**5, 2**63 - 1),
    (6, 10**8),
    # ranges that straddle j = 64, where the term-by-term head meets the tail
    (2, 64),
    (64, 64),
    (10, 70),
    (60, 100),
    (100, 163),
    (65, 65),
    (1000, 1063),
    (5000, 10**7),
    # the whole range [1, n]: the oracle's high-precision table
    *((10**k, 10**k) for k in range(5, 19)),
    (2**62, 2**62),
    (2**63 - 1, 2**63 - 1),
]


@pytest.mark.parametrize("i, n", _ACCURACY_GRID)
def test_order_stats_match_the_oracle_to_1e_14(i, n):
    for got, power in ((order_stat_mean(i, n, 1.0), 1), (order_stat_var(i, n, 1.0), 2)):
        want = oracles.recip_sum(n - i + 1, n, power)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_oracle_table_matches_the_term_by_term_sum(n):
    for power in (1, 2):
        want = oracles.recip_sum(1, n, power)
        assert float(oracles.HARMONIC_TABLE[n][power - 1]) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("stat", [order_stat_mean, order_stat_var])
def test_order_stats_past_float_range_are_value_errors(stat):
    # 1/1e-320 overflows, and 1e-320 ** 2 underflows to 0
    with pytest.raises(ValueError, match="statistic 10 of 10 is past float range at rate=1e-320"):
        stat(10, 10, 1e-320)


def test_expmodel_report_peaks_below_one_mebibyte(capsys):
    tracemalloc.start()
    try:
        assert main(["expmodel", "--n", "10000000"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("n=10000000 ")
    assert peak < 1 << 20


def test_quantile_cdf_round_trip_random():
    rng = random.Random(9)
    for _ in range(50):
        q = rng.uniform(1e-6, 1 - 1e-6)
        lam = rng.uniform(0.01, 100.0)
        # textbook power form: fine while n * eps stays below the tolerance
        n = rng.randrange(1, 10**5)
        y = max_order_quantile(q, ExpParams(n=n, rate=lam))
        back = (1.0 - math.exp(-lam * y)) ** n
        assert back == pytest.approx(1.0 - q, abs=1e-10)
        # stable cdf: holds even where the naive power cannot
        n = rng.randrange(1, 10**9)
        params = ExpParams(n=n, rate=lam)
        y = max_order_quantile(q, params)
        assert max_order_cdf(y, params) == pytest.approx(1.0 - q, abs=1e-10)


def test_min_quantile_round_trip():
    rng = random.Random(10)
    for _ in range(50):
        q = rng.uniform(1e-6, 1 - 1e-6)
        params = ExpParams(n=rng.randrange(1, 10**9), rate=rng.uniform(0.01, 100.0))
        y = min_order_quantile(q, params)
        # the minimum of n exponentials is Exp(n * rate)
        back = math.exp(-params.n * params.rate * y)
        assert back == pytest.approx(q, abs=1e-10)


def test_survival_function_is_relatively_accurate_in_the_far_tail():
    params = ExpParams(n=10**6, rate=1.0)
    for q in (1e-3, 1e-9, 1e-14):
        y = max_order_quantile(q, params)
        assert max_order_sf(y, params) == pytest.approx(q, rel=1e-12)


def test_cdf_sf_complementarity():
    params = ExpParams(n=1000, rate=0.5)
    for y in (0.5, 3.0, 10.0, 25.0):
        assert max_order_cdf(y, params) + max_order_sf(y, params) == pytest.approx(1.0, abs=1e-12)
    assert max_order_sf(-1.0, params) == 1.0
    assert max_order_cdf(-1.0, params) == 0.0


@pytest.mark.parametrize("n", [1, 2, 2**63 - 1])
def test_cdf_and_sf_at_the_edges_of_y(n):
    # y <= 0 (either zero), or rate*y so small that exp(-rate*y) rounds to 1:
    # the maximum lies above y for sure
    for rate, y in ((1.0, 0.0), (1.0, -0.0), (1.0, 1e-17), (1e-300, 1.0)):
        params = ExpParams(n=n, rate=rate)
        assert math.exp(-rate * y) == 1.0
        assert (max_order_cdf(y, params), max_order_sf(y, params)) == (0.0, 1.0)
    params = ExpParams(n=n, rate=1.0)
    assert (max_order_cdf(math.inf, params), max_order_sf(math.inf, params)) == (1.0, 0.0)
    assert math.copysign(1.0, max_order_sf(math.inf, params)) == 1.0
    # a NaN y is not "y <= 0" and not "tail >= 1": it stays NaN
    assert math.isnan(max_order_cdf(math.nan, params))
    assert math.isnan(max_order_sf(math.nan, params))


def test_quantile_rejects_degenerate_probabilities():
    params = ExpParams(n=10, rate=1.0)
    for q in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            max_order_quantile(q, params)
        with pytest.raises(ValueError):
            min_order_quantile(q, params)


def test_exp_params_validation():
    with pytest.raises(ValueError):
        ExpParams(n=0, rate=1.0)
    with pytest.raises(ValueError):
        ExpParams(n=5, rate=0.0)
    with pytest.raises(ValueError):
        ExpParams(n=5, rate=-2.0)
    with pytest.raises(ValueError, match="rate inf must be finite and positive"):
        ExpParams(n=5, rate=math.inf)


def test_max_mean_asymptotic_at_desk_scale():
    # E X_(n) with rate 1/log n approaches (log n)(gamma + log n)
    n = 10**6
    exact = order_stat_mean(n, n, 1.0 / math.log(n))
    assert abs(exact - max_order_mean_asym(n)) / math.log(n) ** 2 < 1e-6


def test_max_var_asymptotic_constant():
    n = 10**8
    exact = order_stat_var(n, n, 1.0 / math.log(n))
    assert exact / math.log(n) ** 2 == pytest.approx(ZETA2, rel=1e-6)
    assert max_order_var_asym(n) == pytest.approx(ZETA2 * math.log(n) ** 2, rel=1e-12)


def test_large_dev_tail_validation():
    with pytest.raises(ValueError):
        large_dev_tail(0.5, 1.0, 10)
    with pytest.raises(ValueError):
        large_dev_tail(2.0, 0.0, 10)
    with pytest.raises(ValueError):
        large_dev_tail(2.0, 1.0, 0)


def test_large_dev_tail_is_log_scale_accurate():
    # exact P(mean of 10 Exp(1) > 2) from the Erlang series
    exact = oracles.erlang_upper_tail(10, 20.0)
    approx = large_dev_tail(2.0, 1.0, 10)
    ratio = math.log(approx) / math.log(exact)
    assert 0.5 <= ratio <= 2.0


def test_spacings_sample_shape_and_normalisation():
    spacings = simulate_spacings(1000, seed=7)
    assert spacings.shape == (1000,)
    assert np.all(spacings > 0)
    assert float(spacings.sum()) == pytest.approx(1.0, abs=1e-12)
    assert GENERATOR == "numpy-pcg64"
    assert type(np.random.default_rng(7).bit_generator).__name__ == "PCG64"
    with pytest.raises(ValueError):
        spacings[0] = 0.5


def test_spacings_reproducible_by_seed():
    a = simulate_spacings(100, seed=3)
    b = simulate_spacings(100, seed=3)
    c = simulate_spacings(100, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    for seed in (0, 1, 2, 12345):  # the bits of Exp(1) drawn through its scale parameter
        draws = np.random.default_rng(seed).exponential(1.0, size=1000)
        assert simulate_spacings(1000, seed).tobytes() == (draws / draws.sum()).tobytes()


def test_uniform_spacings_shape():
    spaced = simulate_uniform_spacings(500, seed=1)
    assert spaced.size == 500
    assert np.all(spaced > 0)
    assert float(spaced.sum()) == pytest.approx(1.0, abs=1e-12)


def test_simulators_reject_empty_samples():
    with pytest.raises(ValueError):
        simulate_spacings(0, seed=1)
    with pytest.raises(ValueError):
        simulate_uniform_spacings(0, seed=1)


def test_normalised_exponentials_match_uniform_spacings_distribution():
    n = 10**4
    exp_sp = simulate_spacings(n, seed=2026)
    uni_sp = simulate_uniform_spacings(n, seed=4052)
    stat = scipy.stats.ks_2samp(exp_sp, uni_sp).statistic
    critical_1pct = 1.6276 * math.sqrt(2.0 / n)
    assert stat < critical_1pct

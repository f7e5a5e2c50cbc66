"""End-to-end acceptance checks.

Twelve numbered checks gate the package: sieved moment tables, gap-count
spots, maximal-gap records and their model columns, the first-moment
sum identity, the variance-to-mean-squared trend, exponential order
statistics, the twin-product constant, simulated spacings, the file
formats, the power-sum form of the moment conjecture, and the shipped
record table with its nearest model curve.  Each check prints
exactly one verdict line on the real stdout (bypassing capture) so a
plain ``pytest -v`` run shows them.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from collections.abc import Callable

import numpy as np
import pytest
from scipy import stats

from primegaps import cli
from primegaps.conjectures import (
    compare_max_gaps,
    compare_moments,
    known_max_gap_records,
    oes_power_sum,
    twin_constant,
)
from primegaps.expmodel import (
    ExpParams,
    large_dev_tail,
    max_order_cdf,
    max_order_mean_asym,
    max_order_quantile,
    max_order_sf,
    min_order_quantile,
    order_stat_mean,
    order_stat_var,
    simulate_spacings,
    simulate_uniform_spacings,
)
from primegaps.gapstats import (
    BoundaryRule,
    GapAccumulator,
    gap_statistics,
    gap_statistics_at,
    merge,
    moments,
    power_sum,
    tau_histogram,
)
from primegaps.reports import collect_records, parse_limit, table1_rows, table2_rows
from primegaps.sieve import simple_sieve
from primegaps.tauio import read_tau, write_tau

import oracles

ZETA2 = math.pi**2 / 6


def _rel(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


@pytest.fixture
def announce(capsys) -> Callable[[str], None]:
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def _run(announce, num: int, title: str, body: Callable[[], str]) -> None:
    """Run one check and print its verdict line whatever happens."""
    try:
        detail = body()
    except BaseException as exc:
        announce(f"acceptance {num:2d}: FAIL  {title}  [{type(exc).__name__}]")
        raise
    announce(f"acceptance {num:2d}: PASS  {title}  ({detail})")


# Reference rows per exponent t: gap count n, mu'_1..mu'_4, maximal gap.
_MOMENT_ROWS = {
    15: (3510, (9.3293, 136.2017, 2.7818e03, 7.4292e04), 72),
    18: (22998, (11.3982, 210.7095, 5.5060e03, 1.8546e05), 86),
    21: (155609, (13.4770, 304.1124, 9.8914e03, 4.2503e05), 148),
    24: (1077869, (15.5652, 412.7866, 1.5776e04, 7.8862e05), 154),
    27: (7603551, (17.6520, 539.4491, 2.3885e04, 1.3864e06), 222),
}


def test_acceptance_01_moment_table_rows(announce) -> None:
    def body() -> str:
        start = time.perf_counter()
        rows = table1_rows([1 << t for t in _MOMENT_ROWS])
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        assert [row[0] for row in rows] == list(_MOMENT_ROWS)
        for t, n, *mus, max_gap in rows:
            want_n, want_mus, want_max_gap = _MOMENT_ROWS[t]
            assert n == want_n
            assert max_gap == want_max_gap
            for got, want in zip(mus, want_mus, strict=True):
                assert _rel(got, want) <= 2e-4
        return f"five limits, n and G exact, mu' within 2e-4, {elapsed:.2f}s"

    _run(announce, 1, "moment table rows at 2^15..2^27", body)


def test_acceptance_02_gap_count_spots(announce) -> None:
    def body() -> str:
        start = time.perf_counter()
        hist = tau_histogram(1 << 20)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert hist[2] == 8535
        assert hist[114] == 1
        assert max(hist) == 114
        return f"tau_2 = 8535, tau_114 = 1, largest gap 114, {elapsed * 1e3:.0f}ms"

    _run(announce, 2, "gap-count spot checks at 2^20", body)


_RECORD_INDICES = (1, 2, 4, 9, 24, 30, 99, 154, 189, 217, 1183)
_RECORD_GAPS = (1, 2, 4, 6, 8, 14, 18, 20, 22, 34, 36)
_RECORD_PRIMES = (2, 3, 7, 23, 89, 113, 523, 887, 1129, 1327, 9551)


def test_acceptance_03_record_prefix(announce) -> None:
    def body() -> str:
        start = time.perf_counter()
        records = collect_records(10**4)
        elapsed = time.perf_counter() - start
        assert tuple(r.index for r in records) == _RECORD_INDICES
        assert tuple(r.gap for r in records) == _RECORD_GAPS
        assert tuple(r.lower_prime for r in records) == _RECORD_PRIMES
        return f"11 records exact, {elapsed * 1e3:.0f}ms"

    _run(announce, 3, "maximal-gap record prefix below 10^4", body)


def test_record_fixture_prefix_matches_fresh_sieve() -> None:
    # Companion to check 3: every shipped record row within sieving
    # range must fall out of a fresh sieve, not just the 10^4 prefix.
    limit = 1 << 27
    sieved = collect_records(limit)
    known = [r for r in known_max_gap_records() if r.lower_prime + r.gap < limit]
    assert len(known) == 26
    assert sieved == known


# Reference model columns per record index n:
# (log n)^2, (log p_n)^2, 2e^-gamma (log n)^2, 2e^-gamma (log p_n)^2.
_RECORD_MODEL_ROWS = {
    1: (0.0, 0.4805, 0.0, 0.5395),
    2: (0.4805, 1.2069, 0.5395, 1.3553),
    4: (1.9218, 3.7866, 2.1580, 4.2520),
    9: (4.8278, 9.8313, 5.4212, 11.0398),
    30: (11.5681, 22.3482, 12.9901, 25.0952),
    217: (28.9433, 51.7058, 32.5010, 58.0614),
    49749629143526: (994.6470, 1229.6, 1116.9, 1380.7),
}


def test_acceptance_04_record_model_columns(announce) -> None:
    def body() -> str:
        known = known_max_gap_records()
        rows = table2_rows(known)
        assert [row[0] for row in rows] == list(_RECORD_MODEL_ROWS)
        assert rows[-1][:3] == (49749629143526, 1132, 1693182318746371)
        for row in rows:
            for got, want in zip(row[3:], _RECORD_MODEL_ROWS[row[0]]):
                if want == 0.0:
                    assert got == 0.0
                else:
                    assert _rel(got, want) <= 1e-3
        above_pn = [
            row.n
            for row in compare_max_gaps(known)
            if row.observed > row.model_values["granville_pn"]
        ]
        assert above_pn == [1, 2]
        return "seven rows within 1e-3, p_n-scale excess only at n = 1, 2"

    _run(announce, 4, "record model columns on both scales", body)


def test_acceptance_05_sum_identity_and_merge(announce) -> None:
    def body() -> str:
        for x in (10**3, 10**4, 10**5, 10**6):
            acc = gap_statistics(x, BoundaryRule.INCLUSIVE, include_first=True)
            assert power_sum(acc, 1) == simple_sieve(x)[-1] - 2
        primes = simple_sieve(10**5)
        gaps, lowers = np.diff(primes), primes[:-1]
        one_pass = GapAccumulator.from_gap_arrays(1, gaps, lowers)
        assert one_pass == gap_statistics(10**5, BoundaryRule.INCLUSIVE, include_first=True)
        rng = random.Random(20260815)
        cuts = sorted(rng.sample(range(1, gaps.size), 3))
        bounds = [0, *cuts, gaps.size]
        parts = [
            GapAccumulator.from_gap_arrays(lo + 1, gaps[lo:hi], lowers[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        folded = parts[0]
        for part in parts[1:]:
            folded = merge(folded, part)
        pairwise = merge(merge(parts[0], parts[1]), merge(parts[2], parts[3]))
        nested = merge(parts[0], merge(parts[1], merge(parts[2], parts[3])))
        assert folded == one_pass
        assert pairwise == one_pass
        assert nested == one_pass
        return f"sum identity at 10^3..10^6; merge orders agree at cuts {cuts}"

    _run(announce, 5, "first-moment sum identity and merge consistency", body)


def test_acceptance_06_variance_mean_trend(announce) -> None:
    def body() -> str:
        limits = [1 << t for t in (15, 18, 21, 24, 27)]
        sweep = gap_statistics_at(limits, BoundaryRule.STRICT, include_first=False)
        ratios = [moments(acc, (1, 2)).taylor_ratio for acc in sweep]
        assert abs(ratios[0] - 0.5654) <= 1e-3
        assert abs(ratios[3] - 0.7038) <= 1e-3
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        return f"v/m^2 rises {ratios[0]:.4f} -> {ratios[-1]:.4f} over five limits"

    _run(announce, 6, "variance to squared-mean ratio trend", body)


def test_acceptance_07_order_statistics(announce) -> None:
    def body() -> str:
        rng = random.Random(7)
        for _ in range(50):
            params = ExpParams(
                n=rng.randrange(1, 10**9), rate=math.exp(rng.uniform(-3.0, 3.0))
            )
            q = math.exp(rng.uniform(math.log(1e-8), math.log(0.99)))
            y = max_order_quantile(q, params)
            assert abs(max_order_sf(y, params) - q) <= 1e-10
            assert abs(max_order_cdf(y, params) - (1.0 - q)) <= 1e-10
            y1 = min_order_quantile(q, params)
            assert abs(math.exp(-params.n * params.rate * y1) - q) <= 1e-10
        for _ in range(25):
            n = rng.randrange(1, 10**4 + 1)
            i = rng.randrange(1, n + 1)
            rate = math.exp(rng.uniform(-2.0, 2.0))
            terms = range(n - i + 1, n + 1)
            mean_brute = math.fsum(1.0 / j for j in terms) / rate
            var_brute = math.fsum(1.0 / (j * j) for j in terms) / rate**2
            assert _rel(order_stat_mean(i, n, rate), mean_brute) <= 1e-12
            assert _rel(order_stat_var(i, n, rate), var_brute) <= 1e-12
        n = 10**6
        log_n = math.log(n)
        exact_mean = order_stat_mean(n, n, 1.0 / log_n)
        assert abs(exact_mean - max_order_mean_asym(n)) / log_n**2 < 1e-6
        n_big = 10**8
        log_big = math.log(n_big)
        var_big = order_stat_var(n_big, n_big, 1.0 / log_big)
        assert _rel(var_big / log_big**2, ZETA2) <= 0.01
        mean_big = order_stat_mean(n_big, n_big, 1.0 / log_big)
        y_tail = max_order_quantile(1.0 / n, ExpParams(n=n, rate=1.0 / log_n))
        assert _rel(y_tail, 2.0 * log_n**2) <= 0.02
        return (
            f"round trips <= 1e-10; Var/(log n)^2 off pi^2/6 by "
            f"{_rel(var_big / log_big**2, ZETA2):.1e}; "
            f"exact Var/E = {var_big / mean_big:.4f} (info only)"
        )

    _run(announce, 7, "extreme order-statistic quantiles, mean and variance", body)


def test_acceptance_08_twin_product_constant(announce) -> None:
    def body() -> str:
        start = time.perf_counter()
        _, c = twin_constant(10**7)
        elapsed = time.perf_counter() - start
        assert abs(c - 0.2778769) <= 1e-6
        return f"c = {c:.7f}, {elapsed:.1f}s"

    _run(announce, 8, "truncated twin-product constant at 10^7", body)


def test_acceptance_09_spacings_and_tail(announce) -> None:
    def body() -> str:
        n = 10**4
        exp_sample = simulate_spacings(n, seed=2026)
        uni_sample = simulate_uniform_spacings(n, seed=4052)
        ks = stats.ks_2samp(exp_sample, uni_sample)
        critical = 1.6276 * math.sqrt(2.0 / n)
        assert ks.statistic < critical
        trials = 10**6
        means = np.random.default_rng(20260815).exponential(
            1.0, size=(trials, 10)
        ).mean(axis=1)
        mc = float(np.count_nonzero(means > 2.0)) / trials
        approx = large_dev_tail(2.0, 1.0, 10)
        log_ratio = math.log(approx) / math.log(mc)
        assert 0.5 <= log_ratio <= 2.0
        return (
            f"KS {ks.statistic:.4f} < {critical:.4f}; "
            f"tail estimate log-scale ratio {log_ratio:.3f} vs {trials} trials"
        )

    _run(announce, 9, "spacings distribution and mean-excess tail estimate", body)


def test_acceptance_10_format_suite(announce, tmp_path) -> None:
    def body() -> str:
        limit = 10**5
        hist = tau_histogram(limit)
        ref = tmp_path / "tau.dat"
        write_tau(ref, hist)
        first = ref.read_bytes()
        again = tmp_path / "tau_again.dat"
        write_tau(again, read_tau(ref))
        assert again.read_bytes() == first
        assert cli.main(["verify-tau", "--limit", str(limit), "--reference", str(ref)]) == 0
        lines = first.decode("ascii").splitlines()
        gap, count = lines[3].split()
        lines[3] = f"{gap} {int(count) + 1}"
        bad = tmp_path / "tau_bad.dat"
        bad.write_text("\n".join(lines) + "\n", encoding="ascii")
        assert cli.main(["verify-tau", "--limit", str(limit), "--reference", str(bad)]) == 1
        assert parse_limit("2^20") == 1 << 20
        assert parse_limit("1048576") == 1 << 20
        assert parse_limit(str(2**63 - 1)) == 2**63 - 1
        for text in ("2^64", "2^63", "2^0", "0", "-4", "12x", "1e6", ""):
            with pytest.raises(ValueError):
                parse_limit(text)
        return "byte-identical round trip; injected diff exits 1; grammar enforced"

    _run(announce, 10, "tau format, verification protocol, limit grammar", body)


# pi(2^t) for t = 20..27
_PI_POWERS_OF_TWO = (82025, 155611, 295947, 564163, 1077871, 2063689, 3957809, 7603553)


def test_acceptance_11_power_sums_against_the_moment_model(announce) -> None:
    def body() -> str:
        ks = (1, 2, 3, 4)
        limits = [1 << t for t in range(20, 28)]
        sweep = gap_statistics_at(limits, BoundaryRule.INCLUSIVE, include_first=True)
        model_ratios = []
        for x, pi_x, acc in zip(limits, _PI_POWERS_OF_TWO, sweep):
            # every gap up to x counts, so D_k(x) = S_k = n mu'_k with n = pi(x) - 1
            n = acc.n
            assert n == pi_x - 1
            rows = compare_moments(moments(acc, ks), list(ks))
            row_ratios = []
            for _, k, _, _, ratio in rows:
                model = n * math.log(n) ** k / (x * math.log(x) ** (k - 1))
                got = power_sum(acc, k) / oes_power_sum(x, k)
                assert _rel(got, ratio * model) <= 1e-14
                row_ratios.append(model)
            model_ratios.append(row_ratios)
        for k, column in zip(ks, zip(*model_ratios)):
            assert all(a < b < 1 for a, b in zip(column, column[1:])), k
        first, last = model_ratios[0], model_ratios[-1]
        assert abs(first[0] - 0.885) <= 1e-3 and abs(last[0] - 0.898) <= 1e-3
        assert abs(first[3] - 0.481) <= 1e-3 and abs(last[3] - 0.545) <= 1e-3
        return (
            f"D_k / k! x (log x)^(k-1) = moment ratio x model ratio; model ratio "
            f"rises {first[0]:.3f} -> {last[0]:.3f} at k = 1, {first[3]:.3f} -> {last[3]:.3f} at k = 4"
        )

    _run(announce, 11, "gap power sums against k! x (log x)^(k-1) at 2^20..2^27", body)


# The four squared-log curves of the record comparison, n and p_n scales
_SQUARED_LOG_CURVES = ("cramer_shanks_n", "granville_n", "cramer_shanks_pn", "granville_pn")


def test_acceptance_12_record_table_gaps_and_nearest_curve(announce) -> None:
    def body() -> str:
        known = [r for r in known_max_gap_records() if r.index >= 2]
        assert len(known) == 79
        for r in known:  # p_n is odd from n = 2 on
            upper = r.lower_prime + r.gap
            assert oracles.is_prime_mr(r.lower_prime) and oracles.is_prime_mr(upper), r
            assert not any(oracles.is_prime_mr(m) for m in range(r.lower_prime + 2, upper, 2)), r
        rows = compare_max_gaps(known)

        def nearest(keys) -> Counter:
            return Counter(
                min(keys, key=lambda key: abs(row.observed - row.model_values[key])) for row in rows
            )

        assert nearest(_SQUARED_LOG_CURVES) == {
            "cramer_shanks_n": 72, "granville_n": 5, "cramer_shanks_pn": 1, "granville_pn": 1
        }
        # against every model column Wolf's estimate is nearest, so the paper's
        # "nearest (log n)^2" holds among the squared-log curves only
        assert nearest(rows[0].model_values) == {
            "wolf": 55, "cramer_shanks_n": 18, "granville_n": 4, "cramer_shanks_pn": 1, "kourbatov": 1
        }
        return (
            "79 rows are prime gaps of exactly G_n; (log n)^2 nearest in 72 of 79 among the"
            " squared-log curves, wolf nearest in 55 of 79 among all six columns"
        )

    _run(announce, 12, "shipped record table by Miller-Rabin, nearest model curve", body)

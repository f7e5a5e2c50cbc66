"""Model curves, the twin-prime constant, and observed-vs-model joins."""

from __future__ import annotations

import math

import pytest

from primegaps import (
    EULER_GAMMA,
    BoundaryRule,
    MaxGapRecord,
    compare_max_gaps,
    compare_moments,
    cramer_shanks,
    exp_moment_model,
    gap_statistics,
    granville,
    known_max_gap_records,
    max_gap_records,
    moments,
    oes_power_sum,
    twin_constant,
    wolf_max_gap_at_index,
)
from primegaps.conjectures import GRANVILLE_COEFF, _kourbatov_raw

# Published first-moment column over the full power-of-two grid
# (t, gap count n, mu'_1); the n >= 2^36 counts are rounded to 5 digits.
MU1_GRID = [
    (15, 3510, 9.3293),
    (18, 22998, 11.3982),
    (21, 155609, 13.4770),
    (24, 1077869, 15.5652),
    (27, 7603551, 17.6520),
    (30, 54400026, 19.7379),
    (33, 393615804, 21.8231),
    (36, 2.8744e9, 23.9074),
    (39, 2.1152e10, 25.9908),
    (42, 1.5666e11, 28.0736),
    (45, 1.1667e12, 30.1560),
    (48, 8.7312e12, 32.2379),
]


def test_constants_match_their_expansions():
    assert GRANVILLE_COEFF == pytest.approx(1.1229, abs=1e-4)
    assert GRANVILLE_COEFF == pytest.approx(2 * math.exp(-EULER_GAMMA), rel=1e-15)
    assert granville(math.e) == GRANVILLE_COEFF
    twin_c2, wolf_c = twin_constant(10**6)
    assert wolf_c == pytest.approx(0.2778769, abs=1e-6)
    assert abs(wolf_c - math.log(twin_c2)) < 1e-9


def test_twin_constant_decreases_with_the_truncation_bound():
    values = [twin_constant(b)[1] for b in (10**5, 10**6, 10**7)]
    assert values[0] > values[1] > values[2]
    assert values[2] == pytest.approx(0.2778769, abs=1e-6)


def test_twin_constant_rejects_bounds_too_small_for_the_tolerance():
    with pytest.raises(ValueError):
        twin_constant(3)
    with pytest.raises(ValueError):
        twin_constant(99_999)


def test_exp_moment_model_values():
    assert exp_moment_model(3510, 1) == pytest.approx(math.log(3510), rel=1e-15)
    assert exp_moment_model(100, 0) == 1.0
    assert exp_moment_model(2, 3) == pytest.approx(6 * math.log(2) ** 3, rel=1e-15)
    with pytest.raises(ValueError):
        exp_moment_model(1, 1)
    with pytest.raises(ValueError):
        exp_moment_model(100, -1)


def test_oes_power_sum_values():
    assert oes_power_sum(12345.0, 1) == 12345.0
    assert oes_power_sum(math.e, 2) == pytest.approx(2 * math.e, rel=1e-14)
    assert oes_power_sum(1 << 20, 2) == pytest.approx(2.90727e7, rel=1e-5)
    with pytest.raises(ValueError):
        oes_power_sum(1.0, 1)
    with pytest.raises(ValueError):
        oes_power_sum(10.0, 0)


def test_square_log_curves_published_values():
    assert cramer_shanks(217) == pytest.approx(28.9433, abs=1e-4)
    assert granville(30) == pytest.approx(12.9901, abs=1e-4)
    assert granville(1327) == pytest.approx(58.0614, abs=1e-4)
    assert cramer_shanks(1) == 0.0
    assert granville(1) == 0.0
    with pytest.raises(ValueError):
        cramer_shanks(0.5)
    with pytest.raises(ValueError):
        granville(0.9)


def test_model_ordering():
    for z in (2, 10, 100, 10**6, 10**15):
        assert cramer_shanks(z) < granville(z)
        assert _kourbatov_raw(float(z)) < cramer_shanks(z)


def test_wolf_record_form_reduces_algebraically():
    # with p_n = e*n the record form collapses to e(log n - log log n + c)
    wolf_c = twin_constant(10**6)[1]
    n = 10**6
    p = int(round(math.e * n))
    expected = math.e * (math.log(n) - math.log(math.log(n)) + wolf_c)
    assert wolf_max_gap_at_index(p, n) == pytest.approx(expected, rel=1e-6)


def test_wolf_record_form_is_undefined_at_the_first_record():
    assert math.isnan(wolf_max_gap_at_index(2, 1))
    with pytest.raises(ValueError):
        wolf_max_gap_at_index(2, 0)


def test_moment_ratios_decrease_monotonically_in_t():
    ratios = [mu1 / math.log(n) for _, n, mu1 in MU1_GRID]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(1.1428, abs=1e-4)
    assert ratios[-1] == pytest.approx(1.0819, abs=1e-4)


def test_compare_moments_rows():
    acc = gap_statistics(1 << 15, BoundaryRule.STRICT, include_first=False)
    summary = moments(acc, [0, 1, 2, 3, 4])
    rows = compare_moments(summary, [0, 1, 2, 3, 4])
    assert [k for _, k, _, _, _ in rows] == [0, 1, 2, 3, 4]
    by_k = {k: (observed, model, ratio) for _, k, observed, model, ratio in rows}
    assert by_k[0][0] == 1.0
    assert by_k[0][1] == 1.0
    assert by_k[1][2] == pytest.approx(1.1428, abs=1e-3)
    for n, _, observed, model, ratio in rows:
        assert n == summary.n
        assert ratio == pytest.approx(observed / model, rel=1e-15)


def test_compare_moments_rejects_mismatched_inputs():
    acc = gap_statistics(1000, BoundaryRule.STRICT, include_first=False)
    summary = moments(acc, [1, 2])
    with pytest.raises(ValueError, match="lacks"):
        compare_moments(summary, [3])


def test_compare_max_gaps_columns_and_flags():
    acc = gap_statistics(10**4, BoundaryRule.INCLUSIVE, include_first=True)
    rows = compare_max_gaps(max_gap_records(acc))
    assert [row.n for row in rows] == [1, 2, 4, 9, 24, 30, 99, 154, 189, 217, 1183]
    flagged = [row.n for row in rows if row.exceeds_granville]
    assert flagged == [1, 2, 4, 9, 30, 217]
    keys = {
        "cramer_shanks_n",
        "cramer_shanks_pn",
        "granville_n",
        "granville_pn",
        "wolf",
        "kourbatov",
    }
    for row in rows:
        assert set(row.model_values) == keys
        assert row.exceeds_granville is (row.observed > row.model_values["granville_n"])
    first = rows[0]
    # n = 1: both log-squared models vanish on the n scale, wolf is undefined
    assert first.model_values["granville_n"] == 0.0
    assert math.isnan(first.model_values["wolf"])
    # kourbatov's polynomial is negative at p = 2
    assert first.model_values["kourbatov"] < 0
    row30 = next(row for row in rows if row.n == 30)
    assert row30.model_values["cramer_shanks_n"] == pytest.approx(11.5681, abs=1e-4)
    assert row30.model_values["cramer_shanks_pn"] == pytest.approx(22.3482, abs=1e-4)
    assert row30.model_values["granville_pn"] == pytest.approx(25.0952, abs=1e-4)


def test_fixture_rows_are_built_once_and_read_only():
    known = known_max_gap_records()
    rows = compare_max_gaps(known)
    assert all(a is b for a, b in zip(compare_max_gaps(known), rows, strict=True))
    with pytest.raises(TypeError):
        rows[0].model_values["wolf"] = 0.0
    summary = moments(gap_statistics(1000), [1])
    with pytest.raises(TypeError):
        compare_moments(summary, [1])[0][3] = 0.0
    # a record outside the table gets its own row
    (row,) = compare_max_gaps([MaxGapRecord(index=5, gap=4, lower_prime=11)])
    assert row.model_values["cramer_shanks_pn"] == math.log(11) ** 2
    assert row.observed / row.model_values["cramer_shanks_n"] == 4 / math.log(5) ** 2


def test_shipped_record_table_shape():
    records = known_max_gap_records()
    assert len(records) == 80
    assert records[0] == MaxGapRecord(index=1, gap=1, lower_prime=2)
    assert records[1] == MaxGapRecord(index=2, gap=2, lower_prime=3)
    big = next(r for r in records if r.index == 49749629143526)
    assert big.gap == 1132
    assert big.lower_prime == 1693182318746371
    for a, b in zip(records, records[1:]):
        assert a.index < b.index
        assert a.gap < b.gap
        assert a.lower_prime < b.lower_prime


def test_shipped_record_table_is_a_fresh_list_each_call():
    records = known_max_gap_records()
    records[0] = records.pop()
    assert known_max_gap_records()[:1] == [MaxGapRecord(index=1, gap=1, lower_prime=2)]
    assert len(known_max_gap_records()) == 80


def test_shipped_records_revalidated_by_sieving():
    limit = 5 * 10**6
    acc = gap_statistics(limit, BoundaryRule.INCLUSIVE, include_first=True)
    sieved = max_gap_records(acc)
    reachable = [r for r in known_max_gap_records() if r.lower_prime + r.gap <= limit]
    assert sieved[: len(reachable)] == reachable


def test_exceedance_counts_over_the_full_table():
    rows = compare_max_gaps(known_max_gap_records())
    over_n = [row.n for row in rows if row.observed > row.model_values["granville_n"]]
    assert over_n == [1, 2, 4, 9, 30, 217, 49749629143526]
    over_pn = [row.n for row in rows if row.observed > row.model_values["granville_pn"]]
    assert over_pn == [1, 2]

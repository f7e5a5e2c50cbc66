"""Limit grammar, runtime budget, and the CSV report writers."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import BoundaryRule, gapstats, known_max_gap_records, moments, parse_limit
from primegaps.conjectures import compare_max_gaps, compare_moments
from primegaps.reports import (
    _FIGURE_MAXGAP_HEADER,
    BudgetExceeded,
    DEFAULT_BUDGET_SECONDS,
    ESTIMATED_NUMBERS_PER_SECOND,
    _config,
    check_budget,
    collect_records,
    estimate_seconds,
    format_value,
    table1_limit,
    table1_rows,
    table2_rows,
    write_figure_maxgaps,
    write_figure_moments,
    write_records,
    write_table1,
    write_table2,
)


def test_parse_limit_accepts_both_grammars():
    assert parse_limit("2^20") == 1 << 20
    assert parse_limit("1000000") == 10**6
    assert parse_limit(" 2^15 ") == 1 << 15
    assert parse_limit("3") == 3


@given(t=st.integers(min_value=2, max_value=62))
@settings(max_examples=61, deadline=None)
def test_parse_limit_caret_form_round_trips(t):
    assert parse_limit(f"2^{t}") == 2**t


def test_parse_limit_decimal_reaches_the_caret_cap():
    # 2^63 - 1 is the largest decimal limit; 2^63 overflows in either form
    assert parse_limit(str(2**63 - 1)) == 2**63 - 1
    with pytest.raises(ValueError):
        parse_limit(str(2**63))
    with pytest.raises(ValueError):
        parse_limit("2^63")


@pytest.mark.parametrize(
    "text",
    ["2^64", "2^0", "2^-1", "2", "1", "0", "junk", "", "3.5", "0x10", "2 ^ 15", "2^^15",
     "\uff11\uff10\uff10\uff10", "2^\u0663"],
)
def test_parse_limit_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_limit(text)


def test_format_value_rules():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(49749629143526) == "49749629143526"
    assert format_value(3.14159265) == "3.14159"
    assert format_value(float("nan")) == "nan"
    assert format_value(1e30) == "1e+30"


def test_run_config_header_contents():
    # _write_csv writes it as the report's first line, after "# "
    assert _config(1 << 20, BoundaryRule.STRICT, False, (1, 2)) == (
        "limit=1048576 rule=strict include_first=false ks=1,2"
    )
    assert _config(100, BoundaryRule.INCLUSIVE, True) == "limit=100 rule=inclusive include_first=true"


def test_budget_guard():
    # a plan is priced by the numbers its ranges hold: 2 to 10^13 inclusive is 10^13 - 1
    assert estimate_seconds(int(ESTIMATED_NUMBERS_PER_SECOND)) == pytest.approx(1.0)
    plan = gapstats.plan_sweep([10**6], BoundaryRule.INCLUSIVE, start=2)
    check_budget(plan, DEFAULT_BUDGET_SECONDS, force=False)
    plan = gapstats.plan_sweep([10**13], BoundaryRule.INCLUSIVE, start=2)
    with pytest.raises(BudgetExceeded) as exc_info:
        check_budget(plan, 600.0, force=False)
    assert exc_info.value.estimate == estimate_seconds(10**13 - 1)
    assert exc_info.value.budget == 600.0
    assert "--force" in str(exc_info.value)
    check_budget(plan, 600.0, force=True)


def test_table1_first_row():
    rows = table1_rows([1 << 15])
    assert len(rows) == 1
    t, n, mu_1, _, _, mu_4, max_gap = rows[0]
    assert (t, n, max_gap) == (15, 3510, 72)
    assert mu_1 == pytest.approx(9.3293, abs=1e-4)
    assert mu_4 == pytest.approx(7.4292e4, rel=2e-4)


def test_table1_sieves_up_to_the_largest_limit_once(monkeypatch):
    sieved, walk = [], gapstats._windows

    def counting(lo, hi):
        for a, b in walk(lo, hi):
            sieved.append(b - a)
            yield a, b

    monkeypatch.setattr(gapstats, "_windows", counting)
    rows = table1_rows([1 << 10, 1 << 15, 1 << 20])
    assert [row[0] for row in rows] == [10, 15, 20]
    # each range [lo, hi) sieves [max(2, lo - W), hi): [2, 2^20) once, [2, 2^10)
    # again under the second range's look-back and W numbers under the third's
    assert sum(sieved) == (1 << 20) - 2 + (1 << 10) - 2 + gapstats._GAP_WINDOW


@pytest.mark.parametrize("kind", [int, np.int64, np.uint64])
def test_table1_rows_take_any_integer_type(kind):
    assert table1_rows([kind(1 << 10), kind(1 << 12)]) == table1_rows([1 << 10, 1 << 12])


def test_table1_rows_refuse_a_float_limit_by_name():
    with pytest.raises(TypeError, match=r"limit 1024\.0 is not an integer"):
        table1_rows([1024.0])


def test_table1_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        table1_rows([10**5])


@pytest.mark.parametrize("refuse", [table1_limit, lambda limit: table1_rows([limit])],
                         ids=["table1_limit", "table1_rows"])
@pytest.mark.parametrize("limit", [0, -5])
def test_table1_refuses_a_limit_below_1_as_no_power_of_two(refuse, limit):
    with pytest.raises(ValueError, match=rf"^limit {limit} is not a power of two$"):
        refuse(limit)


def write_to_string(writer, *args) -> list[str]:
    out = io.StringIO()
    writer(out, *args)
    return out.getvalue().splitlines()


def test_write_table1_layout():
    rows = [(15, 3510, 9.3293, 136.2017, 2781.8, 74291.9, 72)]
    lines = write_to_string(write_table1, rows)
    assert lines[0].startswith("# limit=32768 rule=strict include_first=false")
    assert lines[1] == "t,n,mu_1,mu_2,mu_3,mu_4,G_n"
    assert lines[2] == "15,3510,9.3293,136.202,2781.8,74291.9,72"


def test_table2_is_the_flagged_subset():
    rows = table2_rows(known_max_gap_records())
    assert [row[0] for row in rows] == [1, 2, 4, 9, 30, 217, 49749629143526]
    n, gap, p, log_n_sq, log_pn_sq, gran_n, gran_pn = rows[4]
    assert (n, gap, p) == (30, 14, 113)
    assert log_n_sq == pytest.approx(11.5681, abs=1e-4)
    assert log_pn_sq == pytest.approx(22.3482, abs=1e-4)
    assert gran_n == pytest.approx(12.9901, abs=1e-4)
    assert gran_pn == pytest.approx(25.0952, abs=1e-4)


def test_write_table2_layout():
    lines = write_to_string(write_table2, known_max_gap_records()[:11], 10**4)
    assert lines[1] == "n,G_n,p_n,log_n_sq,log_pn_sq,granville_n,granville_pn"
    assert lines[2] == "1,1,2,0,0.480453,0,0.53951"


def test_collect_records_prefix_and_fixture_join():
    assert [(r.index, r.gap) for r in collect_records(10**4)][-1] == (1183, 36)
    assert len(collect_records(10**4)) == 11
    assert collect_records(10**6, use_fixture=True) == known_max_gap_records()


def test_write_records_layout():
    lines = write_to_string(write_records, collect_records(10**4), 10**4)
    assert lines[0].startswith("# limit=10000 rule=strict include_first=true")
    assert lines[1] == "n,G_n,p_n"
    assert lines[2] == "1,1,2"
    assert lines[-1] == "1183,36,9551"
    assert len(lines) == 13


def test_write_figure_moments_layout():
    lines = write_to_string(write_figure_moments, 1 << 15, BoundaryRule.STRICT, False, (1, 2, 3, 4))
    assert lines[0].startswith("# limit=32768")
    assert lines[1].startswith("# mean=9.32934 variance=")
    assert "taylor_ratio=0.565038" in lines[1]
    assert lines[2] == "n,k,observed,model,ratio"
    data = [line.split(",") for line in lines[3:]]
    assert [row[1] for row in data] == ["1", "2", "3", "4"]
    assert all(row[0] == "3510" for row in data)
    k1 = data[0]
    assert float(k1[2]) == pytest.approx(9.3293, abs=1e-3)
    assert float(k1[3]) == pytest.approx(math.log(3510), rel=1e-5)
    assert float(k1[4]) == pytest.approx(1.1428, abs=1e-3)


def test_figure_moments_data_lines_are_the_compare_moments_rows():
    ks = (3, 1, 12)
    lines = write_to_string(write_figure_moments, 10**5, BoundaryRule.INCLUSIVE, True, ks)
    acc = gapstats.gap_statistics(10**5, BoundaryRule.INCLUSIVE, include_first=True)
    rows = compare_moments(moments(acc, ks), ks)
    assert [row[1] for row in rows] == [3, 1, 12]
    assert lines[3:] == [",".join(format_value(v) for v in row) for row in rows]


def test_write_figure_maxgaps_layout():
    lines = write_to_string(write_figure_maxgaps, collect_records(10**4), 10**4)
    assert lines[1] == (
        "n,G_n,p_n,log_n_sq,log_pn_sq,granville_n,granville_pn,"
        "wolf,kourbatov,exceeds_granville_flag"
    )
    first = lines[2].split(",")
    assert first[:3] == ["1", "1", "2"]
    assert first[7] == "nan"
    assert first[9] == "true"
    flags = [line.split(",")[9] for line in lines[2:]]
    assert flags == ["true", "true", "true", "true", "false", "true", "false", "false", "false", "true", "false"]


def test_max_gap_model_columns_are_the_models_in_header_order():
    # _maxgap_rows writes model_values in their own order, so that order is the column order
    expected = {
        "cramer_shanks_n": "log_n_sq",
        "cramer_shanks_pn": "log_pn_sq",
        "granville_n": "granville_n",
        "granville_pn": "granville_pn",
        "wolf": "wolf",
        "kourbatov": "kourbatov",
    }
    for row in compare_max_gaps(known_max_gap_records()):
        assert list(row.model_values) == list(expected)
        assert dict(zip(row.model_values, _FIGURE_MAXGAP_HEADER[3:9], strict=True)) == expected

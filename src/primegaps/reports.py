"""Report generation: limit parsing, CSV tables and the runtime budget.

Every report is row tuples in column order under one "#" line that names the
inputs that set its numbers, then a CSV header; the moment figure puts a
second "#" line (mean, variance, taylor_ratio) before its header.  Floats
print with six significant digits; integers print in full.
"""

from __future__ import annotations

import re
from typing import TextIO

from . import conjectures
from .conjectures import compare_max_gaps, compare_moments
from .gapstats import (
    MaxGapRecord,
    gap_statistics,
    gap_statistics_at,
    max_gap_records,
    moments,
)
from .sieve import BoundaryRule, _check_limit, _integer

__all__ = [
    "BudgetExceeded",
    "parse_limit",
    "format_value",
    "estimate_seconds",
    "check_budget",
    "table1_limit",
    "table1_rows",
    "write_table1",
    "table2_rows",
    "write_table2",
    "write_records",
    "write_figure_moments",
    "write_figure_maxgaps",
    "collect_records",
]

_LIMIT_RE = re.compile(r"^(?:(\d+)|2\^(\d+))$", re.ASCII)  # no fullwidth or Arabic-Indic digits


def parse_limit(text: str) -> int:
    """Parse a sieving limit: plain decimal or '2^t'.

    Decimal limits may reach 2^63 - 1; in caret form that caps the
    exponent at 62, since 2^63 itself already overflows the range.
    """
    m = _LIMIT_RE.match(text.strip())
    if not m:
        raise ValueError(f"limit {text!r}: expected a decimal integer or 2^t")
    if m.group(1) is not None:
        value = int(m.group(1))
    else:
        t = int(m.group(2))
        if not 1 <= t <= 62:
            raise ValueError(f"limit {text!r}: exponent must be between 1 and 62")
        value = 2**t
    if value < 3:
        raise ValueError(f"limit {value} too small; need at least 3")
    _check_limit(value)
    return value


def format_value(value: object) -> str:
    """Six significant digits for floats, full precision for integers."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _config(limit: int, rule: BoundaryRule, include_first: bool, ks: tuple[int, ...] = ()) -> str:
    """The inputs that set a report's numbers, and nothing else, for its first "#" line."""
    ks_part = " ks=" + ",".join(map(str, ks)) if ks else ""
    return f"limit={limit} rule={rule.value} include_first={format_value(include_first)}{ks_part}"


def _write_csv(out: TextIO, config: str, header: list[str], rows: list[tuple], *notes: str) -> None:
    for note in (config, *notes):
        out.write(f"# {note}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(format_value(v) for v in row) + "\n")


# Sieve throughput for refusal estimates; calibrated at roughly a
# quarter of the measured rate so slower hosts stay on the safe side.
ESTIMATED_NUMBERS_PER_SECOND = 1.0e8
DEFAULT_BUDGET_SECONDS = 600.0


class BudgetExceeded(RuntimeError):
    def __init__(self, estimate: float, budget: float):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"estimated runtime {estimate!r}s exceeds budget {budget!r}s; "
            "re-run with --force or raise --budget-seconds"
        )


def estimate_seconds(total_numbers: int) -> float:
    return total_numbers / ESTIMATED_NUMBERS_PER_SECOND


def check_budget(plan: tuple[list, list[list[tuple[int, int]]]], budget: float, force: bool) -> None:
    """Refuse a plan_sweep plan whose ranges hold too many numbers, unless forced."""
    estimate = estimate_seconds(sum(hi - lo for share in plan[1] for lo, hi in share))
    if estimate > budget and not force:
        raise BudgetExceeded(estimate, budget)


_TABLE1_KS = (1, 2, 3, 4)  # ascending, the order of MomentSummary.moments


def table1_limit(limit: int) -> int:
    """A table 1 limit is a power of two, 2^t with t its row's first column, as a Python int."""
    limit = _integer(limit, "limit")
    if limit < 1 or limit != 1 << (limit.bit_length() - 1):
        raise ValueError(f"limit {limit} is not a power of two")
    return limit


def table1_rows(limits: list[int]) -> list[tuple]:
    """(t, n, mu_1, mu_2, mu_3, mu_4, G_n) per power-of-two limit.

    One sweep up to the largest limit serves every row, in the caller's order.
    """
    limits = [table1_limit(limit) for limit in limits]
    sweep = gap_statistics_at(limits, BoundaryRule.STRICT, include_first=False)
    return [
        (limit.bit_length() - 1, acc.n, *moments(acc, _TABLE1_KS).moments.values(), acc.overall_max)
        for limit, acc in zip(limits, sweep)
    ]


def write_table1(out: TextIO, rows: list[tuple]) -> None:
    config = _config(1 << max(row[0] for row in rows), BoundaryRule.STRICT, False, _TABLE1_KS)
    _write_csv(out, config, ["t", "n", "mu_1", "mu_2", "mu_3", "mu_4", "G_n"], rows)


# The record reports sieve under the strict rule with d_1 = 1 included, so G_1 = 1.
_RECORDS = (BoundaryRule.STRICT, True)

_FIGURE_MAXGAP_HEADER = [
    "n",
    "G_n",
    "p_n",
    "log_n_sq",
    "log_pn_sq",
    "granville_n",
    "granville_pn",
    "wolf",
    "kourbatov",
    "exceeds_granville_flag",
]
_TABLE2_HEADER = _FIGURE_MAXGAP_HEADER[:7]


def _maxgap_rows(records: list[MaxGapRecord]) -> list[tuple]:
    """One row per record in _FIGURE_MAXGAP_HEADER order, the models as compare_max_gaps lists them."""
    return [
        (row.n, row.observed, row.p_n, *row.model_values.values(), row.exceeds_granville)
        for row in compare_max_gaps(records)
    ]


def table2_rows(records: list[MaxGapRecord]) -> list[tuple]:
    """The records exceeding Granville's scale, with both squared-log columns."""
    width = len(_TABLE2_HEADER)
    return [row[:width] for row in _maxgap_rows(records) if row[-1]]


def write_table2(out: TextIO, records: list[MaxGapRecord], limit: int) -> None:
    _write_csv(out, _config(limit, *_RECORDS), _TABLE2_HEADER, table2_rows(records))


def collect_records(limit: int, use_fixture: bool = False) -> list[MaxGapRecord]:
    """Sieved records up to the limit, optionally extended by the shipped
    table for records whose p_n lies beyond sieving range."""
    records = max_gap_records(gap_statistics(limit, *_RECORDS))
    if use_fixture:  # the fixture's gaps ascend, so this is merge's maxima filter
        known = conjectures.known_max_gap_records()
        best = records[-1].gap
        records += [r for r in known if r.lower_prime + r.gap >= limit and r.gap > best]
    return records


def write_records(out: TextIO, records: list[MaxGapRecord], limit: int) -> None:
    rows = [(r.index, r.gap, r.lower_prime) for r in records]
    _write_csv(out, _config(limit, *_RECORDS), ["n", "G_n", "p_n"], rows)


def write_figure_moments(
    out: TextIO, limit: int, rule: BoundaryRule, include_first: bool, ks: tuple[int, ...]
) -> None:
    """Observed moments against k! (log n)^k at one limit.

    Every row is computed before the first write, so a limit too small
    for the model raises with nothing written.
    """
    summary = moments(gap_statistics(limit, rule, include_first), ks)
    config = _config(limit, rule, include_first, ks)
    note = (
        f"mean={format_value(summary.mean)}"
        f" variance={format_value(summary.variance)}"
        f" taylor_ratio={format_value(summary.taylor_ratio)}"
    )
    _write_csv(out, config, ["n", "k", "observed", "model", "ratio"], compare_moments(summary, ks), note)


def write_figure_maxgaps(out: TextIO, records: list[MaxGapRecord], limit: int) -> None:
    _write_csv(out, _config(limit, *_RECORDS), _FIGURE_MAXGAP_HEADER, _maxgap_rows(records))

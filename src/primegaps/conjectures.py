"""Conjectured growth laws for gap moments and maximal gaps.

Model curves: the exponential-model moment k! (log n)^k, the power-sum
form k! x (log x)^(k-1), the Cramer-Shanks square (log z)^2, Granville's
2 e^-gamma (log z)^2, Wolf's pi(x)-based maximal-gap estimate, and the
Kourbatov lower bound (log p)^2 - log p - 1.  Both constants are fixed
by the models: Granville's coefficient is GRANVILLE_COEFF = 2 e^-gamma,
and Wolf's additive constant c = log C_2 is computed once from the
twin-prime product truncated at 10**6, never hard-coded.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from .expmodel import EULER_GAMMA, exp_moment
from .gapstats import MaxGapRecord, MomentSummary
from .sieve import simple_sieve

__all__ = [
    "GRANVILLE_COEFF",
    "ComparisonRow",
    "twin_constant",
    "exp_moment_model",
    "oes_power_sum",
    "cramer_shanks",
    "granville",
    "wolf_max_gap_at_index",
    "compare_moments",
    "compare_max_gaps",
    "known_max_gap_records",
]

# Truncation bounds below this leave more than ~1e-5 of the product tail.
_MIN_TWIN_BOUND = 100_000

GRANVILLE_COEFF = 2.0 * math.exp(-EULER_GAMMA)


def twin_constant(bound: int) -> tuple[float, float]:
    """(C_2, log C_2) from the twin-prime product truncated at bound.

    The dropped tail is about 1/(bound * log bound), so bound = 10**6
    already gives seven correct digits.  Bounds too small for useful
    accuracy are rejected rather than silently accepted.
    """
    if bound < _MIN_TWIN_BOUND:
        raise ValueError(
            f"product bound {bound} below {_MIN_TWIN_BOUND}; "
            "truncation error would exceed the advertised tolerance"
        )
    p = simple_sieve(bound)[1:].astype(np.float64)  # odd primes only
    log_total = math.log(2.0) + float(np.sum(np.log1p(-1.0 / ((p - 1.0) ** 2))))
    return math.exp(log_total), log_total


@cache
def _wolf_c() -> float:
    """Wolf's c = log C_2, from the product truncated at 10**6."""
    return twin_constant(10**6)[1]


def exp_moment_model(n: int, k: int) -> float:
    """Exponential-model moment: k! (log n)^k; exactly 1 at k = 0; ValueError past float range."""
    if n < 2:
        raise ValueError(f"model needs n >= 2, got {n}")
    if k < 0:
        raise ValueError(f"moment order {k} must be >= 0")
    try:
        return exp_moment(k, 1 / math.log(n))
    except ValueError:
        raise ValueError(f"model moment k! (log n)^k overflows a float at k={k}, n={n}") from None


def oes_power_sum(x: float, k: int) -> float:
    """Conjectured gap power sum D_k(x) ~ k! x (log x)^(k-1)."""
    if x <= 1:
        raise ValueError(f"power-sum model needs x > 1, got {x}")
    if k < 1:
        raise ValueError(f"power {k} must be >= 1")
    return math.factorial(k) * x * math.log(x) ** (k - 1)


def cramer_shanks(z: float) -> float:
    """Cramer-Shanks maximal-gap scale (log z)^2; log(1)^2 = 0 exactly."""
    if z < 1:
        raise ValueError(f"scale {z} must be >= 1")
    return math.log(z) ** 2


def granville(z: float) -> float:
    """Granville's corrected scale 2 e^-gamma (log z)^2 ~ 1.1229 (log z)^2."""
    return GRANVILLE_COEFF * cramer_shanks(z)


def wolf_max_gap_at_index(p_n: int, n: int) -> float:
    """Wolf's estimate in record coordinates, x = p_n and pi(x) = n.

    Substituting x ~ n log n for the inner log x gives
    (p_n / n) (2 log n - log(n log n) + c); undefined at n = 1 (nan).
    """
    if n < 1 or p_n < 2:
        raise ValueError("record coordinates need n >= 1 and p_n >= 2")
    if n == 1:
        return math.nan
    return (p_n / n) * (2.0 * math.log(n) - math.log(n * math.log(n)) + _wolf_c())


def _kourbatov_raw(p: float) -> float:
    """Kourbatov's conjectured record lower bound (log p)^2 - log p - 1; < 0 below p ~ 5.05."""
    lp = math.log(p)
    return lp * lp - lp - 1.0


@dataclass(frozen=True)
class ComparisonRow:
    """Observed value against one or more model curves.

    model_values is read-only, as rows may be shared; ratios derives observed/model
    per key (nan where the model vanishes or is undefined).  exceeds_granville is
    set on maximal-gap rows: G_n > 2 e^-gamma (log n)^2, trivially true at n = 1.
    """

    n: int
    x_or_pn: int
    observed: float
    model_values: Mapping[str, float]
    k: int | None = None
    exceeds_granville: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_values", MappingProxyType(dict(self.model_values)))

    @property
    def ratios(self) -> dict[str, float]:
        return {
            key: self.observed / model if math.isfinite(model) and model > 0 else math.nan
            for key, model in self.model_values.items()
        }


def compare_moments(summary: MomentSummary, ks: list[int]) -> list[ComparisonRow]:
    """One row per order k: observed mu'_k against k! (log n)^k, n = summary.n."""
    n = summary.n
    rows = []
    for k in ks:
        if k not in summary.moments:
            raise ValueError(f"summary lacks moment order {k}")
        observed = summary.moments[k]
        model = exp_moment_model(n, k)
        rows.append(
            ComparisonRow(
                n=n,
                x_or_pn=n,
                observed=observed,
                model_values={"exp_moment": model},
                k=k,
            )
        )
    return rows


def _max_gap_row(rec: MaxGapRecord) -> ComparisonRow:
    models = {
        "cramer_shanks_n": cramer_shanks(rec.index),
        "cramer_shanks_pn": cramer_shanks(rec.lower_prime),
        "granville_n": granville(rec.index),
        "granville_pn": granville(rec.lower_prime),
        "wolf": wolf_max_gap_at_index(rec.lower_prime, rec.index),
        "kourbatov": _kourbatov_raw(rec.lower_prime),
    }
    exceeds = rec.gap > models["granville_n"]
    return ComparisonRow(rec.index, rec.lower_prime, float(rec.gap), models, exceeds_granville=exceeds)


def compare_max_gaps(records: list[MaxGapRecord]) -> list[ComparisonRow]:
    """Record gaps against the conjectured curves on both scales.

    Every model column is emitted on the n scale and the p_n scale
    where it has two natural arguments; kourbatov is the raw polynomial
    (negative for tiny p), wolf is nan at n = 1; fixture rows are built once and shared.
    """
    known = _fixture_rows()
    return [known[rec] if rec in known else _max_gap_row(rec) for rec in records]


@cache
def _fixture_rows() -> dict[MaxGapRecord, ComparisonRow]:
    """The shipped record table, parsed and checked once per process, each
    record mapped to its comparison row in the table's order."""
    path = resources.files("primegaps").joinpath("data/max_gap_records.csv")
    with path.open("r", encoding="ascii") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        records = tuple(
            MaxGapRecord(index=int(row["n"]), gap=int(row["G_n"]), lower_prime=int(row["p_n"]))
            for row in reader
        )
    if any(a.index >= b.index or a.gap >= b.gap for a, b in zip(records, records[1:])):
        raise ValueError("record fixture: index and gap must strictly ascend")
    return {rec: _max_gap_row(rec) for rec in records}


def known_max_gap_records() -> list[MaxGapRecord]:
    """The shipped table of first-occurrence maximal gaps below 2^64; each call gets a fresh list."""
    return list(_fixture_rows())

"""Prime-gap statistics toolkit.

One pipeline: sieve primes in segments, turn each segment into arrays
of the gaps d_n = p_{n+1} - p_n, fold those into a mergeable
accumulator, and summarise it: gap-count histograms, exact power sums
and moments, record (maximal) gaps, and comparisons against the
iid-exponential model and the classical maximal-gap growth conjectures.
"""

from .conjectures import (
    ComparisonRow,
    compare_max_gaps,
    compare_moments,
    cramer_shanks,
    exp_moment_model,
    granville,
    known_max_gap_records,
    oes_power_sum,
    twin_constant,
    wolf_max_gap_at_index,
)
from .expmodel import (
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
from .gapstats import (
    GapAccumulator,
    MaxGapRecord,
    MomentSummary,
    gap_statistics,
    gap_statistics_at,
    interval_gap_bracket,
    max_gap_records,
    merge,
    moments,
    power_sum,
    tau_histogram,
)
from .reports import parse_limit
from .sieve import (
    BoundaryRule,
    PrimeSegment,
    nth_prime,
    prime_count,
    sieve_segment,
    simple_sieve,
)
from .tauio import TauVerification, read_tau, verify_tau, write_tau

__version__ = "0.1.0"

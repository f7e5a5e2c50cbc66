"""Closed forms for the exponential distribution and its order statistics.

The model treats values as iid Exp(rate) samples.  Means and variances
of order statistics come from the classical partial-harmonic-sum
formulas, each in O(1) time and memory: the terms below j = 64 one by
one, the rest as one Euler-Maclaurin difference, to within a few ulps
for every n up to 2**63 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "GENERATOR",
    "ZETA2",
    "ExpParams",
    "exp_moment",
    "order_stat_mean",
    "order_stat_var",
    "min_order_quantile",
    "max_order_quantile",
    "max_order_cdf",
    "max_order_sf",
    "max_order_mean_asym",
    "max_order_var_asym",
    "large_dev_tail",
    "simulate_spacings",
    "simulate_uniform_spacings",
]

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061
ZETA2 = math.pi**2 / 6

# Terms j below this are summed one by one, the rest in one closed form.
_HEAD = 64


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate {rate} must be finite and positive")


@dataclass(frozen=True)
class ExpParams:
    """Sample size and rate of an iid Exp(rate) model."""

    n: int
    rate: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sample size {self.n} must be >= 1")
        _check_rate(self.rate)


def exp_moment(r: float, rate: float) -> float:
    """E[X^r] = Gamma(r + 1) / rate^r for X ~ Exp(rate), r > -1; ValueError past float range."""
    if not r > -1:
        raise ValueError(f"moment order {r} must exceed -1")
    _check_rate(rate)
    try:
        whole = float(r).is_integer() and r >= 0
        value = (math.factorial(int(r)) if whole else math.gamma(r + 1)) / rate**r
    except (OverflowError, ZeroDivisionError):  # rate^r underflowing to 0 means a huge quotient
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"Gamma(r + 1) / rate^r is past float range at r={r}, rate={rate}")
    return value


def _recip_sum(lo: int, hi: int, power: int) -> float:
    """Sum of j^-power for j in [lo, hi], power 1 or 2, in O(1) time and memory.

    The tail a <= j < b is psi(b) - psi(a) or psi'(a) - psi'(b) by Euler-Maclaurin,
    truncated below 1e-18 relative for a >= 64; each leading difference is an exactly
    rounded integer ratio with d = b - a factored out, so close ends keep their digits.
    """
    terms = [1.0 / j**power for j in range(lo, min(hi + 1, _HEAD))]
    a, b = max(lo, _HEAD), hi + 1
    d, u, v = b - a, 1.0 / (a * a), 1.0 / (b * b)
    if d > 0 and power == 1:
        # log(b/a), then psi(x) - log x = -1/(2x) - 1/(12x^2) + 1/(120x^4) - ...
        terms += [math.log1p(d / a), d / (2 * a * b), d * (a + b) / (12 * a * a * b * b),
                  v * v * (1 / 120 - v / 252 + v * v / 240),
                  -u * u * (1 / 120 - u / 252 + u * u / 240)]
    elif d > 0:
        # psi'(x) = 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7) - 1/(30x^9) + ...
        terms += [d / (a * b), d * (a + b) / (2 * a * a * b * b),
                  d * (a * a + a * b + b * b) / (6 * a**3 * b**3),
                  v * v / b * (1 / 30 - v / 42 + v * v / 30),
                  -u * u / a * (1 / 30 - u / 42 + u * u / 30)]
    return math.fsum(terms)


def _check_order(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"order statistic index {i} outside 1..{n}")


def _finite(value: float, i: int, n: int, rate: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"order statistic {i} of {n} is past float range at rate={rate}")
    return value


def order_stat_mean(i: int, n: int, rate: float) -> float:
    """Mean of the i-th smallest of n iid Exp(rate) values.

    E[X_(i)] = (1/rate) * sum_{j=n-i+1}^{n} 1/j; in particular the
    minimum has mean 1/(n*rate) and the maximum H_n/rate.
    """
    _check_order(i, n)
    _check_rate(rate)
    return _finite(_recip_sum(n - i + 1, n, 1) / rate, i, n, rate)


def order_stat_var(i: int, n: int, rate: float) -> float:
    """Variance of the i-th smallest: (1/rate^2) * sum_{j=n-i+1}^{n} 1/j^2."""
    _check_order(i, n)
    _check_rate(rate)
    scale = rate * rate  # 0.0 below rate ~1.5e-162
    return _finite(_recip_sum(n - i + 1, n, 2) / scale if scale else math.inf, i, n, rate)


def _check_q(q: float) -> None:
    if not 0 < q < 1:
        raise ValueError(f"tail probability {q} outside (0, 1)")


def min_order_quantile(q: float, params: ExpParams) -> float:
    """y with P(X_(1) > y) = q; the minimum is Exp(n * rate)."""
    _check_q(q)
    return -math.log(q) / (params.n * params.rate)


def _max_order_log_cdf(y: float, params: ExpParams) -> float:
    """log P(X_(n) <= y) as n * log1p(-exp(-rate*y)): the direct power
    (1 - exp(-rate*y))^n magnifies the base's rounding n-fold, visible
    already at n ~ 10^7. A NaN y stays NaN."""
    if y <= 0:
        return -math.inf
    tail = math.exp(-params.rate * y)
    if tail >= 1.0:
        return -math.inf
    return params.n * math.log1p(-tail)


def max_order_cdf(y: float, params: ExpParams) -> float:
    """P(X_(n) <= y) = (1 - exp(-rate*y))^n."""
    return math.exp(_max_order_log_cdf(y, params))


def max_order_sf(y: float, params: ExpParams) -> float:
    """P(X_(n) > y), stable in the far upper tail where the cdf is ~1."""
    return -math.expm1(_max_order_log_cdf(y, params))


def max_order_quantile(q: float, params: ExpParams) -> float:
    """y with P(X_(n) > y) = q, i.e. the (1-q)-quantile of the maximum.

    Evaluated as -(1/rate) * log(-expm1(log1p(-q)/n)), which stays
    accurate when q is tiny or n is huge; plain 1-(1-q)**(1/n) loses
    every significant digit there.
    """
    _check_q(q)
    t = math.log1p(-q) / params.n
    return -math.log(-math.expm1(t)) / params.rate


def max_order_mean_asym(n: float) -> float:
    """E[X_(n)] with rate 1/log n: exactly log(n) * H_n ~ log(n)(gamma + log n)."""
    if n <= 1:
        raise ValueError(f"asymptote needs n > 1, got {n}")
    return math.log(n) * (EULER_GAMMA + math.log(n))


def max_order_var_asym(n: float) -> float:
    """Var[X_(n)] with rate 1/log n tends to (log n)^2 * pi^2/6."""
    if n <= 1:
        raise ValueError(f"asymptote needs n > 1, got {n}")
    return math.log(n) ** 2 * ZETA2


def large_dev_tail(a: float, rate: float, n: int) -> float:
    """Cramer estimate of P(mean of n iid Exp(rate) values > a).

    Returns exp(-n * (a*rate - 1 - log(rate) - log(a))) for a above the
    mean 1/rate.  This is a log-scale approximation: the exponent is
    right up to O(log n)/n terms, the value itself can be off by the
    usual sqrt(n) prefactor.
    """
    _check_rate(rate)
    if n < 1:
        raise ValueError(f"sample count {n} must be >= 1")
    if not a > 1 / rate:
        raise ValueError(f"threshold {a} must exceed the mean {1 / rate}")
    exponent = a * rate - 1 - math.log(rate) - math.log(a)
    return math.exp(-exponent * n)


# The bit generator behind np.random.default_rng, named in the expmodel report.
GENERATOR = "numpy-pcg64"


def simulate_spacings(n: int, seed: int) -> np.ndarray:
    """Draw n iid Exp(1) values and normalise by their sum; read-only.

    By the Sukhatme representation the result is distributed exactly
    like the n spacings of n - 1 iid uniform points on (0, 1).
    """
    if n < 1:
        raise ValueError(f"sample size {n} must be >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.standard_exponential(n)
    draws /= draws.sum()
    draws.setflags(write=False)
    return draws


def simulate_uniform_spacings(n: int, seed: int) -> np.ndarray:
    """The n spacings of n - 1 sorted uniforms on (0, 1); the direct route."""
    if n < 1:
        raise ValueError(f"sample size {n} must be >= 1")
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.random(n - 1))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))

"""Chi-square goodness-of-fit machinery.

The p-value comes from the regularized incomplete gamma function, computed
with the standard numerically stable split: power series for x < a + 1,
modified Lentz continued fraction otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

_EPS = 1e-15
_MAX_ITER = 10_000


def _gamma_p_series(a, x):
    """Lower regularized gamma P(a, x) by power series; converges for x < a+1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a, x):
    """Upper regularized gamma Q(a, x) by continued fraction (modified Lentz)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a, x):
    """Upper regularized incomplete gamma Q(a, x) = Γ(a, x) / Γ(a)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _gamma_p_series(a, x)))
    return min(1.0, max(0.0, _gamma_q_contfrac(a, x)))


def chi_square_p_value(statistic, df):
    """Upper-tail P(X >= statistic) for chi-square with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if statistic < 0:
        raise ValueError("statistic must be non-negative")
    return regularized_gamma_q(df / 2.0, statistic / 2.0)


@dataclass
class Histogram:
    """Binned counts."""

    bins: list

    @property
    def total(self):
        return int(sum(self.bins))

    @classmethod
    def categorical(cls, values, k):
        """Bin integer values 0..k-1 by identity."""
        counts = np.bincount(np.asarray(values), minlength=k)
        if len(counts) > k:
            raise ValueError("observed value outside the categorical range")
        return cls(bins=[int(c) for c in counts])

    @classmethod
    def range_partition(cls, values, lo, hi, k):
        """Bin values into k equal sub-ranges of [lo, hi)."""
        if k < 2:
            raise ValueError("k must be >= 2")
        raw = np.asarray(values)
        if raw.size and raw.min() < lo:
            raise ValueError(f"minimum {raw.min()} outside [{lo}, {hi})")
        if raw.size and raw.max() >= hi:
            raise ValueError(f"maximum {raw.max()} outside [{lo}, {hi})")
        arr = raw.astype(np.float64)
        idx = ((arr - lo) * k / (hi - lo)).astype(np.int64)
        counts = np.bincount(idx, minlength=k)
        return cls(bins=[int(c) for c in counts])


@dataclass
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float

    def to_dict(self):
        return asdict(self)


def chi_square_statistic(observed, expected):
    """Sum of (O_i - E_i)^2 / E_i over aligned bins."""
    obs = observed.bins if isinstance(observed, Histogram) else list(observed)
    exp = list(expected)
    if len(obs) != len(exp):
        raise ValueError(f"bin count mismatch: {len(obs)} observed, {len(exp)} expected")
    if any(e <= 0 for e in exp):
        raise ValueError("every expected count must be positive")
    return float(sum((o - e) ** 2 / e for o, e in zip(obs, exp)))


def chi_square_test(observed, expected):
    """Full test: statistic, df = bins - 1, upper-tail p-value."""
    statistic = chi_square_statistic(observed, expected)
    obs = observed.bins if isinstance(observed, Histogram) else list(observed)
    df = len(obs) - 1
    return ChiSquareResult(statistic, df, chi_square_p_value(statistic, df))


MIN_EVENTS_PER_BIN = 10


def interval_uniformity_test(events, base, k=16):
    """Chi-square uniformity of fuzzed rekey intervals over [base, 2*base).

    An interval outside [base, 2*base) is an engine invariant breach and
    raises, it is not a statistical failure.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    intervals = [getattr(e, "interval_chosen", e) for e in events]
    need = MIN_EVENTS_PER_BIN * k
    if len(intervals) < need:
        raise ValueError(f"need at least {need} events for {k} bins, got {len(intervals)}")
    hist = Histogram.range_partition(intervals, base, 2 * base, k)
    expected = [len(intervals) / k] * k
    return chi_square_test(hist, expected)

"""Chi-square goodness-of-fit machinery. For integer df the p-value is an
exact finite sum (Abramowitz & Stegun 26.4.4 and 26.4.5)."""

import math
from collections import namedtuple

from .chacha import checked_int


def chi_square_p_value(statistic, df):
    """Upper-tail P(X >= statistic) for chi-square with integer df >= 1.

    With y = statistic / 2, m = df // 2 and h = 1/2 for odd df, 0 for even:
    Q = [odd df: erfc(sqrt(y))] + sum over j < m of term(j), where
    term(j) = y^(j+h) e^-y / Gamma(j+h+1), and 1 - Q is the sum over j >= m.
    Every term is positive and formed in log space: none cancels or
    overflows, only negligible ones underflow.
    """
    df = checked_int(df, "df", 1)
    if not statistic >= 0:  # NaN fails this too
        raise ValueError(f"statistic must be non-negative, got {statistic!r}")
    if statistic == 0:
        return 1.0
    if statistic == math.inf:
        return 0.0
    y = statistic / 2.0
    m, h = df // 2, 0.5 * (df % 2)
    log_y = math.log(y)

    def term(j):
        return math.exp((j + h) * log_y - y - math.lgamma(j + h + 1))

    if statistic >= df:
        return sum(map(term, range(m)), math.erfc(math.sqrt(y)) if h else 0.0)
    # Below the mean Q is 1 - tail, which stays monotone up to 1 where the sum's
    # rounding noise does not. Tail terms fall from the first (y < j+h+1).
    tail, j = 0.0, m
    while (t := term(j)) > tail * 2**-54:
        tail += t
        j += 1
    return 1.0 - tail


def _integer_array(values, name):
    """values as a numpy integer (or bool) array. The dtype is checked once,
    not each element: float, string and object values raise ValueError."""
    import numpy as np  # here, not at import: scalar callers never load it

    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        if values.size:
            raise ValueError(f"{name} must be integers, got {values.dtype} values")
        values = values.astype(np.int64)  # an empty list reads as float64
    return values


class Histogram(namedtuple("Histogram", "bins")):
    """Binned counts."""

    __slots__ = ()

    @classmethod
    def categorical(cls, values, k):
        """Bin integer values 0..k-1 by identity."""
        import numpy as np

        k = checked_int(k, "k")
        values = _integer_array(values, "values")
        if values.size and values.max() >= k:
            raise ValueError("observed value outside the categorical range")
        return cls(bins=np.bincount(values, minlength=k).tolist())


ChiSquareResult = namedtuple("ChiSquareResult", "statistic df p_value")


def chi_square_statistic(observed, expected):
    """Sum of (O_i - E_i)^2 / E_i over aligned bins."""
    obs = observed.bins if isinstance(observed, Histogram) else list(observed)
    exp = list(expected)
    if len(obs) != len(exp):
        raise ValueError(f"bin count mismatch: {len(obs)} observed, {len(exp)} expected")
    if not all(0 <= o < math.inf for o in obs):  # NaN fails this too
        raise ValueError("every observed count must be finite and non-negative")
    if not all(0 < e < math.inf for e in exp):
        raise ValueError("every expected count must be finite and positive")
    return float(sum((o - e) ** 2 / e for o, e in zip(obs, exp)))


def chi_square_test(observed, expected):
    """Full test: statistic, df = bins - 1 (2 bins at least), upper-tail p-value."""
    statistic = chi_square_statistic(observed, expected)
    df = checked_int(len(expected), "bins", 2) - 1
    return ChiSquareResult(statistic, df, chi_square_p_value(statistic, df))


MIN_EVENTS_PER_BIN = 10


def interval_uniformity_test(events, base, k=16):
    """Chi-square uniformity of fuzzed rekey intervals over [base, 2*base).

    Offset x = interval - base falls in bin x * k // base (k <= base), and
    each bin expects a share of the events in proportion to its width. An
    interval outside [base, 2*base) is an engine invariant breach and
    raises, it is not a statistical failure.
    """
    base = checked_int(base, "base", 2)
    k = checked_int(k, "k", 2, base)
    intervals = _integer_array([getattr(e, "interval_chosen", e) for e in events], "events").astype("int64")
    need = MIN_EVENTS_PER_BIN * k
    if len(intervals) < need:
        raise ValueError(f"need at least {need} events for {k} bins, got {len(intervals)}")
    lo, hi = intervals.min(), intervals.max()
    if not base <= lo <= hi < 2 * base:
        raise ValueError(f"intervals {lo}..{hi} outside [{base}, {2 * base})")
    hist = Histogram.categorical((intervals - base) * k // base, k)
    firsts = [-(-j * base // k) for j in range(k + 1)]  # bin j's least offset, then base
    expected = [len(intervals) * (b - a) / base for a, b in zip(firsts, firsts[1:])]
    return chi_square_test(hist, expected)

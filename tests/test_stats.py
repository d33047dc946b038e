"""Chi-square machinery tests with independent numerical oracles."""

import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chi2

from arc4rng.engine import SEED_SIZE, Engine, RekeyPolicy
from arc4rng.stats import (
    ChiSquareResult,
    Histogram,
    chi_square_p_value,
    chi_square_statistic,
    chi_square_test,
    interval_uniformity_test,
)


def quadrature_p_value(statistic, df):
    """Independent oracle: adaptive quadrature of the chi-square density."""

    def pdf(x):
        return math.exp(
            (df / 2 - 1) * math.log(x)
            - x / 2
            - (df / 2) * math.log(2)
            - math.lgamma(df / 2)
        )

    value, _ = integrate.quad(pdf, statistic, np.inf, limit=200)
    return value


# --- statistic -------------------------------------------------------------

def test_statistic_perfect_fit_is_zero():
    assert chi_square_statistic([10, 10, 10], [10, 10, 10]) == 0.0


def test_statistic_hand_computed():
    assert chi_square_statistic([5, 15], [10, 10]) == pytest.approx(5.0)


def test_statistic_errors():
    with pytest.raises(ValueError):
        chi_square_statistic([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        chi_square_statistic([1, 2], [1, 0])
    with pytest.raises(ValueError):
        chi_square_statistic([1, 2], [1, -3])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="expected count"):
            chi_square_statistic([1, 2], [1.5, bad])
        with pytest.raises(ValueError, match="expected count"):
            chi_square_test([1, 2], [1.5, bad])
    # Observed counts are checked the same way: a negative one read as a
    # large statistic and a tiny p-value, a NaN one only as a bad statistic.
    for bad in (-5, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="observed count"):
            chi_square_statistic([bad, 15], [5, 5])
        with pytest.raises(ValueError, match="observed count"):
            chi_square_test(np.array([bad, 15.0]), [5, 5])
    assert chi_square_statistic([0, 10], [5, 5]) == 10.0


def test_statistic_permutation_invariant():
    obs = [3, 9, 27, 81]
    exp = [10, 20, 30, 40]
    base = chi_square_statistic(obs, exp)
    perm = [2, 0, 3, 1]
    assert chi_square_statistic(
        [obs[i] for i in perm], [exp[i] for i in perm]
    ) == pytest.approx(base)


# --- p-value ---------------------------------------------------------------

def test_p_value_at_zero_statistic():
    assert chi_square_p_value(0.0, 99) == 1.0


def test_p_value_df2_closed_form():
    for s in (0.5, 2.0, 10.0, 40.0):
        assert chi_square_p_value(s, 2) == pytest.approx(math.exp(-s / 2), abs=1e-12)
    assert chi_square_p_value(2.0, 2) == pytest.approx(0.367879, abs=1e-6)


def test_p_value_df99_matches_quadrature():
    assert chi_square_p_value(98.0, 99) == pytest.approx(
        quadrature_p_value(98.0, 99), abs=1e-6
    )


@pytest.mark.parametrize(
    "statistic,df",
    [(1.0, 1), (5.0, 3), (50.0, 50), (120.0, 99), (6.829, 99), (950.0, 1000)],
)
def test_p_value_against_quadrature_grid(statistic, df):
    assert chi_square_p_value(statistic, df) == pytest.approx(
        quadrature_p_value(statistic, df), abs=1e-8
    )


def test_p_value_monotone_in_statistic():
    values = [chi_square_p_value(s, 99) for s in np.linspace(0, 300, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("df", [1, 2, 3, 99, 182, 199, 255, 999, 1000])
def test_p_value_monotone_near_one(df):
    # Where 1 - Q is small, rounding noise in Q must not make it rise.
    values = [chi_square_p_value(s, df) for s in np.linspace(0.01, 3 * df + 30, 300)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_p_value_errors():
    with pytest.raises(ValueError):
        chi_square_p_value(1.0, 0)
    with pytest.raises(ValueError):
        chi_square_p_value(-1.0, 5)
    with pytest.raises(ValueError):
        chi_square_p_value(math.nan, 5)
    with pytest.raises(ValueError):
        chi_square_p_value(5.0, 2.5)
    with pytest.raises(ValueError, match="df must be"):
        chi_square_p_value(3.0, True)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 15, 16, 99, 100, 255, 256, 999, 1000])
def test_p_value_matches_scipy(df):
    # Independent oracle: scipy's chi2.sf, for odd and even df.
    for statistic in np.geomspace(1e-9, 50 * df, 80):
        assert chi_square_p_value(statistic, df) == pytest.approx(
            chi2.sf(statistic, df), abs=1e-10
        )
        if chi2.cdf(statistic, df) < 2**-56:  # the exact Q rounds to 1.0
            assert chi_square_p_value(statistic, df) == 1.0
    assert chi_square_p_value(math.inf, df) == 0.0
    assert chi_square_p_value(np.float64(df), np.int64(df)) == pytest.approx(
        chi2.sf(df, df), abs=1e-10
    )


def test_result_json_schema():
    res = ChiSquareResult(statistic=5.0, df=2, p_value=0.0821)
    payload = json.loads(json.dumps(res._asdict()))
    assert payload == {"statistic": 5.0, "df": 2, "p_value": 0.0821}
    assert repr(res) == "ChiSquareResult(statistic=5.0, df=2, p_value=0.0821)"
    with pytest.raises(AttributeError):
        res.df = 3


def test_chi_square_test_df():
    res = chi_square_test([5, 15], [10, 10])
    assert res.df == 1
    assert res.statistic == pytest.approx(5.0)
    # Fewer than two bins leave no degree of freedom; the error names the bins.
    for bins in ([], [7]):
        with pytest.raises(ValueError, match=f"^bins must be .* got {len(bins)}$"):
            chi_square_test(bins, bins)


# --- histograms ------------------------------------------------------------

def test_categorical_histogram():
    h = Histogram.categorical([0, 1, 1, 2, 2, 2], 4)
    assert h.bins == [1, 2, 3, 0]
    assert h == ([1, 2, 3, 0],) and repr(h) == "Histogram(bins=[1, 2, 3, 0])"
    with pytest.raises(ValueError):
        Histogram.categorical([0, 5], 3)
    # Refused before any bins are sized by it
    with pytest.raises(ValueError, match="outside the categorical range"):
        Histogram.categorical([2**40], 3)
    with pytest.raises(ValueError, match="k must be"):
        Histogram.categorical([0, 1], 2.5)
    assert Histogram.categorical([0, 1, 1], np.int64(4)).bins == [1, 2, 0, 0]
    # Integer and bool arrays are binned; the empty list is no values at all.
    assert Histogram.categorical(np.array([2, 0], dtype=np.uint8), 3).bins == [1, 0, 1]
    assert Histogram.categorical(np.array([True, False, True]), 2).bins == [1, 2]
    assert Histogram.categorical([], 3).bins == [0, 0, 0]
    # Fractions are refused, never truncated; so are strings and objects.
    for values in ([0.5, 1], [0.0, 1.0], ["0", "1"], np.array([0, 1], dtype=object)):
        with pytest.raises(ValueError, match="values must be integers"):
            Histogram.categorical(values, 3)


# --- interval uniformity ---------------------------------------------------

def test_interval_uniformity_cycling_midpoints():
    base, k = 1 << 10, 8
    width = base // k
    midpoints = [base + i * width + width // 2 for i in range(k)]
    events = midpoints * 10
    res = interval_uniformity_test(events, base, k)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_interval_uniformity_bin_edges():
    # base / k is not an integer: each bin's first and last integer still
    # land in that bin, 10 each, so every bin holds exactly 20.
    base, k = 1000, 16
    firsts = [base + -(-i * base // k) for i in range(k)]
    lasts = [base + -(-(i + 1) * base // k) - 1 for i in range(k)]
    events = (firsts + lasts) * 10
    res = interval_uniformity_test(events, base, k)
    expected = [len(events) * (last + 1 - first) / base for first, last in zip(firsts, lasts)]
    assert res.statistic == chi_square_statistic([20] * k, expected)


@pytest.mark.parametrize("base, k", [(1000, 16), (15, 8), (3, 2)])
def test_interval_uniformity_expects_counts_in_proportion_to_bin_width(base, k):
    # Every offset equally often: bins of unequal width fill unequally, and
    # exactly as expected.
    events = [base + x for x in range(base)] * -(-10 * k // base)
    assert interval_uniformity_test(events, base, k).statistic == 0.0


def test_interval_uniformity_same_for_narrow_integer_arrays():
    # Offsets times k are formed in 64 bits, so (intervals - base) * k cannot
    # wrap in a uint32 array's own dtype and call a uniform grid non-uniform.
    base, k = 1 << 31, 16
    grid = [base + x * (base // 160) for x in range(160)]
    res = interval_uniformity_test(grid, base, k)
    assert res.p_value > 0.999
    assert interval_uniformity_test(np.array(grid, dtype=np.uint32), base, k) == res


def test_interval_uniformity_degenerate_concentration():
    base, k = 1 << 10, 8
    events = [base + 3] * 80
    res = interval_uniformity_test(events, base, k)
    assert res.statistic == pytest.approx(80 * (k - 1))


def test_interval_uniformity_range_breach_is_error():
    base, k = 1 << 10, 8
    with pytest.raises(ValueError):
        interval_uniformity_test([base - 1] + [base] * 100, base, k)
    with pytest.raises(ValueError):
        interval_uniformity_test([2 * base] + [base] * 100, base, k)


def test_interval_uniformity_preconditions():
    with pytest.raises(ValueError):
        interval_uniformity_test([1000] * 50, 1000, 8)  # < 10k events
    with pytest.raises(ValueError):
        interval_uniformity_test([1000] * 100, 1000, 1)
    events = list(range(1000, 2000))
    for base in (1000.0, "1000", None, True):
        with pytest.raises(ValueError, match="base must be"):
            interval_uniformity_test(events, base, 16)
    for k in (2.5, "16", None, True, 1001):  # 1001: more bins than offsets
        with pytest.raises(ValueError, match="k must be"):
            interval_uniformity_test(events * 11, 1000, k)
    assert interval_uniformity_test(events, np.int64(1000), np.int64(16)) == (
        interval_uniformity_test(events, 1000, 16)
    )
    # A fractional interval is refused, not truncated to the integer below.
    for shifted in ([e + 0.9 for e in events], [1000.0] + events[1:]):
        with pytest.raises(ValueError, match="events must be integers"):
            interval_uniformity_test(shifted, 1000, 16)
    with pytest.raises(ValueError, match="events must be integers"):
        interval_uniformity_test([str(e) for e in events], 1000, 16)


def test_interval_uniformity_on_engine_events():
    base = 1 << 12
    e = Engine(bytes(range(SEED_SIZE)), RekeyPolicy.fuzzed(base=base))
    while len(e.events) < 1000:
        e.discard(e.count)
    res = interval_uniformity_test(e.events[:1000], base, 16)
    assert 0.001 < res.p_value < 0.999


def test_rejection_rate_calibration():
    # Truly uniform categorical data: at threshold p < 0.01 the test should
    # reject about 1% of the time.
    rng = np.random.default_rng(1234)
    k, n, trials = 16, 3200, 10_000
    counts = rng.multinomial(n, [1.0 / k] * k, size=trials)
    expected = n / k
    stats = ((counts - expected) ** 2 / expected).sum(axis=1)
    rejections = sum(
        1 for s in stats if chi_square_p_value(float(s), k - 1) < 0.01
    )
    assert 0.005 <= rejections / trials <= 0.02

"""Rejection-sampler tests, including exhaustive small-width enumeration."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arc4rng.engine import SEED_SIZE, Engine, RekeyPolicy
from arc4rng.sampler import uniform, uniform_batch, uniform_generic

SEED = bytes(range(SEED_SIZE))


def exhaust_cycle(upper_bound, width):
    """Feed every w-bit word once through uniform_generic; return the results.

    This is the enumeration oracle: each accepted word contributes exactly one
    result, rejected words are consumed silently.
    """
    words = iter(range(1 << width))
    results = []
    try:
        while True:
            results.append(uniform_generic(words.__next__, upper_bound, width))
    except StopIteration:
        pass
    return results


def test_min_accept_values():
    # The smallest accepted word, 2^w % bound, written out per width: the word
    # below it is rejected and the word at it is kept.
    for bound, width, threshold in [(3, 8, 1), (5, 4, 1), (100, 32, 96)]:
        feed = iter([threshold - 1, threshold, 0])
        assert uniform_generic(feed.__next__, bound, width) == threshold % bound
        assert list(feed) == [0]  # exactly two words drawn
    feed = iter([0, 1])
    assert uniform_generic(feed.__next__, 256, 8) == 0  # threshold 0: word 0 is kept
    assert list(feed) == [1]


def test_degenerate_bounds_consume_nothing():
    def explode():
        raise AssertionError("must not draw")

    assert uniform_generic(explode, 0) == 0
    assert uniform_generic(explode, 1) == 0

    e = Engine(SEED, RekeyPolicy.fixed())
    assert uniform(e, 0) == 0
    assert uniform(e, 1) == 0
    # bools are no bounds: refused by the checked path before any draw
    for bound in (False, True):
        with pytest.raises(ValueError, match="upper_bound"):
            uniform(e, bound)
    assert e.total_out == 0


@pytest.mark.parametrize("bound", [np.uint32(100), np.int64(2**31 + 1), np.uint64(2**32)])
def test_numpy_integer_bound_matches_int(bound):
    a = Engine(SEED, RekeyPolicy.fuzzed(base=600))
    b = Engine(SEED, RekeyPolicy.fuzzed(base=600))
    got = [uniform(a, bound) for _ in range(300)]
    want = [uniform(b, int(bound)) for _ in range(300)]
    assert got == want
    assert all(type(v) is int for v in got)
    assert _state(a) == _state(b)


@pytest.mark.parametrize(
    "bound", [-1, -(2**40), 2**32 + 1, 2**32 + 5, 2**33, 100.5, "5", None, 2.0]
)
def test_out_of_range_bounds_rejected_before_drawing(bound):
    e = Engine(SEED, RekeyPolicy.fixed())
    with pytest.raises(ValueError):
        uniform(e, bound)
    with pytest.raises(ValueError):
        uniform_batch(e, bound, 10)
    assert e.total_out == 0


def test_full_word_bound_returns_words():
    a = Engine(SEED, RekeyPolicy.fixed())
    b = Engine(SEED, RekeyPolicy.fixed())
    c = Engine(SEED, RekeyPolicy.fixed())
    values, drawn = uniform_batch(a, 2**32, 50)
    assert drawn == 50
    assert list(values) == list(b.random_u32_batch(50))
    assert list(values) == [uniform(c, 2**32) for _ in range(50)]


class _FedWords:
    """Stand-in engine whose random_u32_batch serves the given words in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint32)

    def random_u32_batch(self, n):
        out, self.words = self.words[:n], self.words[n:]
        return out


def test_rejection_edge():
    # Random words almost never land in the rejection band, so only fed words
    # at the threshold show a wrong one. The thresholds, 2^w % bound, are
    # written out rather than recomputed by the formula under test.
    for bound, threshold in [(3, 1), (6, 4), (100, 96), (1000, 296), (2**31 + 1, 2**31 - 1), (2**32 - 1, 1)]:
        feed = iter([threshold - 1, threshold])
        assert uniform_generic(feed.__next__, bound, 32) == threshold % bound
        words = iter([threshold - 1, threshold, 0])
        assert uniform(SimpleNamespace(random_u32=words.__next__), bound) == threshold % bound
        assert list(words) == [0]  # exactly two words drawn
        # The batch asks again for the values still missing after a rejection.
        engine = _FedWords([threshold - 1, threshold, threshold - 1, threshold - 1, threshold + 1])
        values, drawn = uniform_batch(engine, bound, 2)
        assert values.tolist() == [threshold % bound, (threshold + 1) % bound]
        assert drawn == 5 and len(engine.words) == 0


def test_w8_bound3_exhaustive():
    results = exhaust_cycle(3, 8)
    # value 0 rejected; 255 accepted words, 85 per residue
    assert len(results) == 255
    counts = np.bincount(results, minlength=3)
    assert list(counts) == [85, 85, 85]


def test_w4_bound5_exhaustive():
    results = exhaust_cycle(5, 4)
    assert len(results) == 15
    assert list(np.bincount(results, minlength=5)) == [3] * 5


def test_w8_full_range_identity():
    assert exhaust_cycle(256, 8) == list(range(256))


@pytest.mark.parametrize("width", [4, 6, 8])
def test_exact_uniformity_all_bounds(width):
    for bound in range(2, (1 << width) + 1):
        counts = np.bincount(exhaust_cycle(bound, width), minlength=bound)
        per_residue = (1 << width) // bound
        assert counts.min() == counts.max() == per_residue


def test_exhaustion_order_independent():
    # Feeding the full cycle in a shuffled order yields the same counts.
    rng = np.random.default_rng(5)
    words = rng.permutation(1 << 8)
    feed = iter(int(w) for w in words)
    results = []
    try:
        while True:
            results.append(uniform_generic(feed.__next__, 7, 8))
    except (StopIteration, RuntimeError):
        pass
    counts = np.bincount(results, minlength=7)
    assert counts.min() == counts.max() == 256 // 7


@given(st.integers(min_value=2, max_value=(1 << 32) - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_result_below_bound_w32(bound, data):
    words = data.draw(
        st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=20)
    )
    words.append((1 << 32) - 1)  # guarantee an accepted word
    feed = iter(words)
    assert 0 <= uniform_generic(feed.__next__, bound, 32) < bound


def test_uniform_bound_100_range():
    e = Engine(SEED, RekeyPolicy.fixed())
    draws = [uniform(e, 100) for _ in range(1000)]
    assert all(0 <= v <= 99 for v in draws)


def test_uniform_batch_equals_sequential():
    a = Engine(SEED, RekeyPolicy.fuzzed(base=900))
    b = Engine(SEED, RekeyPolicy.fuzzed(base=900))
    batch, drawn = uniform_batch(a, 100, 3000)
    singles = [uniform(b, 100) for _ in range(3000)]
    assert list(batch) == singles
    assert a.total_out == b.total_out == 4 * drawn
    assert a.events == b.events


def test_uniform_batch_degenerate():
    e = Engine(SEED, RekeyPolicy.fixed())
    values, drawn = uniform_batch(e, 1, 5)
    assert list(values) == [0] * 5
    assert drawn == 0
    with pytest.raises(ValueError):
        uniform_batch(e, 100, -1)


_BOUNDS = st.one_of(
    st.sampled_from(
        [2, 3, 6, 100, 1000, 2**16, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32]
    ),
    st.integers(2, 2**32),
)
_POLICIES = st.one_of(
    st.integers(5, 2000).map(RekeyPolicy.fixed),
    st.integers(8, 900).map(RekeyPolicy.fuzzed),
)


def _state(e):
    return e.snapshot(), e.total_out, list(e.events)


@given(bound=_BOUNDS, n=st.integers(0, 3000), policy=_POLICIES, skip=st.integers(0, 7))
@example(bound=2**31 + 1, n=3000, policy=RekeyPolicy.fuzzed(900), skip=0)
@example(bound=100, n=3000, policy=RekeyPolicy.fixed(2000), skip=3)
@settings(max_examples=150, deadline=None)
def test_uniform_batch_equals_uniform_loop(bound, n, policy, skip):
    # Requests cross rekeys; bounds such as 2^31 + 1 reject about half of all
    # words, bounds such as 100 almost never, and 2^k and 2^32 never.
    a = Engine(SEED, policy)
    b = Engine(SEED, policy)
    a.random_buf(skip)
    b.random_buf(skip)
    values, drawn = uniform_batch(a, bound, n)
    singles = [uniform(b, bound) for _ in range(n)]
    assert values.dtype == np.uint32
    assert values.tolist() == singles
    assert drawn == (b.total_out - skip) // 4
    assert _state(a) == _state(b)


def test_uniform_batch_temporaries_bounded():
    # tracemalloc sees numpy's buffers. The request's words draw no rejection
    # (drawn == n), so the values and one word array are all it needs to hold.
    n = 1_000_000
    e = Engine(SEED, RekeyPolicy.fixed())
    tracemalloc.start()
    try:
        _, drawn = uniform_batch(e, 100, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn == n
    assert peak < 3 * 4 * n

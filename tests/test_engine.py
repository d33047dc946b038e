"""Engine tests: determinism, rekey mechanics, key erasure, accounting."""

import json
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arc4rng import chacha
from arc4rng.chacha import (
    BLOCK_SIZE,
    MAX_BLOCKS,
    PIECE_SIZE,
    ChaCha20Stream,
    CounterExhaustedError,
    chacha_block,
)
from arc4rng.engine import (
    BUF_SIZE,
    FUZZ_SIZE,
    MAX_BUDGET,
    SEED_SIZE,
    Engine,
    EntropyError,
    OsEntropy,
    RekeyPolicy,
    StaticEntropy,
    events_to_csv,
    parse_seed_hex,
)
from arc4rng.sampler import uniform, uniform_batch, uniform_generic

ZERO_SEED = bytes(SEED_SIZE)
SEED_A = bytes(range(SEED_SIZE))


class FailingEntropy:
    """Seed source that always fails; exercises the reseed error path."""

    def read(self):
        raise EntropyError("entropy source unavailable")


def test_policy_validation():
    with pytest.raises(ValueError):
        RekeyPolicy("weird")
    with pytest.raises(ValueError):
        RekeyPolicy.fixed(0)
    with pytest.raises(ValueError):
        RekeyPolicy.fuzzed(-1)
    # A fractional budget is refused up front, not by a later slice.
    with pytest.raises(ValueError):
        RekeyPolicy.fixed(1500.5)
    with pytest.raises(ValueError):
        RekeyPolicy.fuzzed(600.5)
    # numpy integers are accepted and stored as ints.
    assert RekeyPolicy.fixed(np.int64(1500)) == RekeyPolicy.fixed(1500)
    assert type(RekeyPolicy.fuzzed(np.uint32(600)).rekey_base) is int


def _key_stream_bytes(budget):
    """Keystream one key yields while serving `budget` output bytes: the fuzz
    word, whole refills past the bytes buffered at the rekey, the next rekey's
    block."""
    refills = -(-(budget - (BUF_SIZE - SEED_SIZE)) // BUF_SIZE)
    return FUZZ_SIZE + refills * BUF_SIZE + BUF_SIZE


def test_policy_budget_bounded_by_counter_space():
    key_space = MAX_BLOCKS * BLOCK_SIZE  # 2^38 bytes
    assert _key_stream_bytes(MAX_BUDGET) <= key_space
    assert _key_stream_bytes(MAX_BUDGET + 1) > key_space
    assert RekeyPolicy.fixed(MAX_BUDGET).fixed_interval == MAX_BUDGET
    assert RekeyPolicy.fuzzed(MAX_BUDGET // 2).rekey_base == MAX_BUDGET // 2
    for bad in (MAX_BUDGET + 1, 2**40):
        with pytest.raises(ValueError):
            RekeyPolicy.fixed(bad)
        with pytest.raises(ValueError):
            RekeyPolicy.fuzzed(-(-bad // 2))


@pytest.mark.parametrize("extra", [0, 1])
def test_budget_limit_by_counter_seek(extra):
    # Seek the key to one refill before the end of the budget instead of
    # generating ~2^38 bytes. Losing the fuzz word's partial block changes no
    # block count: every refill and rekey block still needs 16 blocks.
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=1000))
    budget = MAX_BUDGET + extra
    refills = -(-(budget - (BUF_SIZE - SEED_SIZE)) // BUF_SIZE)
    c = e._cipher
    skip = (refills - 1) * (BUF_SIZE // BLOCK_SIZE)
    e._cipher = ChaCha20Stream(c.key, c.nonce, c.block_counter + skip)
    e._pos = BUF_SIZE
    e.count = budget - (BUF_SIZE - SEED_SIZE) - (refills - 1) * BUF_SIZE
    if extra:
        with pytest.raises(CounterExhaustedError):
            e.discard(e.count)
    else:
        e.discard(e.count)
        assert len(e.events) == 2


def test_seed_validation():
    with pytest.raises(ValueError):
        Engine(b"short")
    assert parse_seed_hex("00" * SEED_SIZE) == ZERO_SEED
    with pytest.raises(ValueError):
        parse_seed_hex("zz" * SEED_SIZE)
    with pytest.raises(ValueError):
        parse_seed_hex("00" * (SEED_SIZE - 1))


def test_same_seed_same_policy_same_output():
    a = Engine(SEED_A, RekeyPolicy.fuzzed())
    b = Engine(SEED_A, RekeyPolicy.fuzzed())
    assert a.random_buf(5000) == b.random_buf(5000)
    assert a.events == b.events


def test_initial_stir_logged_once_at_offset_zero():
    e = Engine(SEED_A, RekeyPolicy.fixed())
    assert len(e.events) == 1
    assert e.events[0].ordinal == 0
    assert e.events[0].output_offset == 0
    assert e.events[0].interval_chosen == 1_600_000


def test_fixed_policy_interval_constant():
    e = Engine(SEED_A, RekeyPolicy.fixed())
    assert e.count == 1_600_000
    e.random_buf(1_600_000)  # exhausts the budget, rekeys
    assert len(e.events) == 2
    assert e.count == 1_600_000


def test_fuzz_interval_formula_edges():
    # Drive _next_interval with a stubbed cipher emitting chosen fuzz words.
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=1000))

    class StubCipher:
        def __init__(self, word):
            self.word = word

        def xor(self, data):
            return struct.pack("<I", self.word)

    for fuzz, expected in [(0, 1000), (1000, 1000), (999, 1999), (1500, 1500)]:
        e._cipher = StubCipher(fuzz)
        assert e._next_interval() == expected


def test_fuzzed_intervals_within_bounds():
    base = 4096
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=base))
    while len(e.events) < 500:
        e.discard(e.count)
    assert all(base <= ev.interval_chosen < 2 * base for ev in e.events)


def test_key_erasure_after_rekey():
    e = Engine(ZERO_SEED, RekeyPolicy.fixed())
    assert bytes(e._buf[:SEED_SIZE]) == bytes(SEED_SIZE)
    old_key = e._cipher.key
    e.random_buf(1_600_000)
    assert bytes(e._buf[:SEED_SIZE]) == bytes(SEED_SIZE)
    snap = e.snapshot()
    for i in range(len(old_key) - 15):
        assert old_key[i : i + 16] not in snap


def test_first_output_pinned_regression_vector():
    # Independently derived: the buffer after the initial stir holds bytes
    # 44..1024 of the seed cipher's keystream, so the first word is ks[44:48].
    ks = b"".join(chacha_block(bytes(32), c, bytes(12)) for c in range(1))
    expected = struct.unpack("<I", ks[44:48])[0]
    assert expected == 0x374AD8B8
    e = Engine(ZERO_SEED, RekeyPolicy.fixed())
    assert e.random_u32() == 0x374AD8B8


def test_fixed_vs_fuzzed_diverge_at_first_refill():
    # The fuzz word consumes 4 bytes of the freshly installed key's stream at
    # the initial stir, so the streams split at the first buffer refill
    # (output byte 980), well before any boundary rekey.
    fixed = Engine(SEED_A, RekeyPolicy.fixed()).random_buf(2000)
    fuzzed = Engine(SEED_A, RekeyPolicy.fuzzed()).random_buf(2000)
    boundary = BUF_SIZE - SEED_SIZE
    assert fixed[:boundary] == fuzzed[:boundary]
    assert fixed[boundary:] != fuzzed[boundary:]


def test_random_u32_budget_accounting():
    e = Engine(SEED_A, RekeyPolicy.fixed())
    start = e.count
    e.random_u32()
    e.random_u32()
    assert start - e.count == 8
    assert e.total_out == 8


def test_random_buf_edge_cases():
    e = Engine(SEED_A, RekeyPolicy.fixed())
    before = (e.count, e.total_out, len(e.events))
    assert e.random_buf(0) == b""
    assert (e.count, e.total_out, len(e.events)) == before
    with pytest.raises(ValueError):
        e.random_buf(-1)


def _accounting(e):
    return e.count, e.total_out, e._pos, e._cipher.position


def _state(e):
    return e.snapshot(), e.count, e.total_out, list(e.events)


@pytest.mark.parametrize("n", [2.5, 3000.5, 1e3, np.float64(4.0), "8", None])
def test_non_integer_n_rejected_before_state_moves(n):
    # 2.5 would take random_buf's fast path, 3000.5 its fill path.
    e = Engine(SEED_A, RekeyPolicy.fixed())
    e.random_buf(5)
    before = _state(e)
    for call in (e.random_buf, e.random_u32_batch, e.discard):
        with pytest.raises(ValueError, match="integer"):
            call(n)
        assert _state(e) == before
    with pytest.raises(ValueError, match="integer"):
        uniform_batch(e, 100, n)
    assert _state(e) == before


def test_numpy_integer_n_accepted():
    a = Engine(SEED_A, RekeyPolicy.fixed(3000))
    b = Engine(SEED_A, RekeyPolicy.fixed(3000))
    assert a.random_buf(np.int64(5)) == b.random_buf(5)
    assert a.random_buf(np.uint16(2000)) == b.random_buf(2000)
    assert list(a.random_u32_batch(np.int32(7))) == list(b.random_u32_batch(7))
    a.discard(np.int64(4000))
    b.discard(4000)
    assert _state(a) == _state(b)
    assert a.random_buf(100) == b.random_buf(100)

    # The fast path keeps the engine's numbers Python ints.
    e = Engine(bytes(SEED_SIZE), RekeyPolicy.fixed(64))
    e.random_buf(np.int64(5))
    e.random_buf(100)
    numbers = [e._pos, e.count, e.total_out]
    numbers += [x for ev in e.events for x in (ev.ordinal, ev.output_offset, ev.interval_chosen)]
    assert all(type(x) is int for x in numbers)
    json.dumps(numbers)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 1 << 20])
def test_random_u32_batch_is_a_fresh_u32_array(n):
    a = Engine(SEED_A, RekeyPolicy.fuzzed(base=600))
    b = Engine(SEED_A, RekeyPolicy.fuzzed(base=600))
    a.random_buf(3)  # words straddle the buffer's 4-byte grid
    b.random_buf(3)
    words = a.random_u32_batch(n)
    assert words.dtype == np.dtype("<u4") and words.shape == (n,)
    assert words.flags.writeable and words.flags.c_contiguous
    assert words.tolist() == [b.random_u32() for _ in range(n)]
    assert _state(a) == _state(b)


_DISCARD_POLICIES = [
    RekeyPolicy.fixed(BUF_SIZE - SEED_SIZE + 2 * BUF_SIZE),
    RekeyPolicy.fuzzed(1 << 20),
    RekeyPolicy.fixed(),
    RekeyPolicy.fuzzed(base=700),
]


@given(
    policy=st.sampled_from(_DISCARD_POLICIES),
    skip=st.integers(0, 2 * BUF_SIZE),
    n=st.integers(0, 3 * (1 << 20) + 5),
)
@example(policy=_DISCARD_POLICIES[0], skip=0, n=_DISCARD_POLICIES[0].fixed_interval)
@example(policy=_DISCARD_POLICIES[1], skip=1, n=3 * (1 << 20) + 5)
@settings(max_examples=40, deadline=None)
def test_discard_equals_random_buf(policy, skip, n):
    a = Engine(SEED_A, policy)
    b = Engine(SEED_A, policy)
    a.random_buf(skip)
    b.random_buf(skip)
    a.discard(n)
    b.random_buf(n)
    for _ in range(2):  # right after the call, then after 5,000 more bytes
        assert _state(a) == _state(b)
        assert a._cipher.position == b._cipher.position
        assert a.random_buf(5000) == b.random_buf(5000)


def test_large_request_keeps_the_zero_block_fixed():
    # 12 MB in one request: filled in PIECE_SIZE pieces, with the same output
    # as 1 MiB requests, and the shared zero plaintext stays one piece long.
    n, step = 3_000_000, 1 << 18
    big = Engine(SEED_A, RekeyPolicy.fixed(MAX_BUDGET)).random_u32_batch(n)
    assert len(chacha._ZEROS) == PIECE_SIZE == 1 << 20
    twin = Engine(SEED_A, RekeyPolicy.fixed(MAX_BUDGET))
    pieces = [twin.random_u32_batch(min(step, n - i)) for i in range(0, n, step)]
    assert np.array_equal(big, np.concatenate(pieces))


def test_chunking_invariance_random_partitions():
    # Budgets above BUF_SIZE + (BUF_SIZE - SEED_SIZE) and chunks of BUF_SIZE
    # or more take the direct keystream path on both sides of a rekey. After
    # every chunk the accounting equals that of an engine fed the same prefix
    # one byte at a time.
    rng = random.Random(42)
    for policy in (
        RekeyPolicy.fuzzed(base=700),
        RekeyPolicy.fixed(3000),
        RekeyPolicy.fuzzed(base=2500),
    ):
        ref = Engine(SEED_A, policy)
        reference = ref.random_buf(20_000)
        bytewise = Engine(SEED_A, policy)
        states = [_accounting(bytewise)]
        for _ in range(20_000):
            bytewise.random_buf(1)
            states.append(_accounting(bytewise))
        for _ in range(20):
            e = Engine(SEED_A, policy)
            got = []
            remaining = 20_000
            while remaining:
                k = rng.choice((rng.randint(1, 300), rng.randint(1024, 4096)))
                k = min(k, remaining)
                got.append(e.random_buf(k))
                remaining -= k
                assert _accounting(e) == states[20_000 - remaining]
            assert b"".join(got) == reference
            assert e.events == ref.events


def test_one_request_equals_small_chunks_past_rekey():
    exact = BUF_SIZE - SEED_SIZE + 2 * BUF_SIZE
    for budget, total, chunk in (
        (3000, 20_000, 300),
        # The request ends where a direct keystream segment spends the
        # budget: the rekey fires inside it, not at the start of the next.
        (exact, exact, 1),
    ):
        policy = RekeyPolicy.fixed(budget)
        e = Engine(SEED_A, policy)
        one = e.random_buf(total)
        chunked = Engine(SEED_A, policy)
        parts = [chunked.random_buf(chunk) for _ in range(total // chunk)]
        parts.append(chunked.random_buf(total % chunk))
        assert one == b"".join(parts)
        assert e.events == chunked.events
        assert _accounting(e) == _accounting(chunked)
        assert e.snapshot() == chunked.snapshot()


def test_boundary_accounting():
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=2048))
    for _ in range(30_000):
        e.random_buf(32)
    ev = e.events
    assert len(ev) > 100
    for prev, nxt in zip(ev, ev[1:]):
        assert nxt.ordinal == prev.ordinal + 1
        # Eager rekey at exhaustion: offsets differ by exactly the interval.
        assert nxt.output_offset - prev.output_offset == prev.interval_chosen


def test_batch_equals_individual_draws():
    a = Engine(SEED_A, RekeyPolicy.fuzzed(base=600))
    b = Engine(SEED_A, RekeyPolicy.fuzzed(base=600))
    batch = a.random_u32_batch(2000)
    singles = [b.random_u32() for _ in range(2000)]
    assert list(batch) == singles
    assert a.events == b.events


def test_reseed_forces_rekey_even_with_zero_entropy():
    a = Engine(SEED_A, RekeyPolicy.fixed())
    b = Engine(SEED_A, RekeyPolicy.fixed())
    a.reseed(StaticEntropy(bytes(SEED_SIZE)))
    assert a.random_buf(64) != b.random_buf(64)
    assert len(a.events) == 2


@given(
    entropy=st.binary(min_size=SEED_SIZE, max_size=SEED_SIZE),
    before=st.integers(0, 3000),
    policy=st.sampled_from([RekeyPolicy.fixed(), RekeyPolicy.fuzzed(base=1500)]),
)
@example(entropy=bytes(SEED_SIZE), before=0, policy=RekeyPolicy.fixed())
@example(entropy=bytes(SEED_SIZE), before=0, policy=RekeyPolicy.fuzzed(base=1500))
@settings(max_examples=50, deadline=None)
def test_reseed_never_replays_output(entropy, before, policy):
    e = Engine(SEED_A, policy)
    head = e.random_buf(before + 4096)
    e.reseed(StaticEntropy(entropy))
    tail = e.random_buf(2048)
    for i in range(len(tail) - 63):
        assert tail[i : i + 64] not in head, i


def test_reseed_with_fresh_entropy_diverges():
    a = Engine(SEED_A, RekeyPolicy.fixed())
    b = Engine(SEED_A, RekeyPolicy.fixed())
    a.reseed(OsEntropy())
    assert a.random_buf(64) != b.random_buf(64)


def test_reseed_failure_leaves_engine_usable():
    a = Engine(SEED_A, RekeyPolicy.fixed())
    b = Engine(SEED_A, RekeyPolicy.fixed())
    with pytest.raises(EntropyError):
        a.reseed(FailingEntropy())
    assert a.snapshot() == b.snapshot()
    assert a.random_buf(64) == b.random_buf(64)  # old key still in service

    class ShortSource:
        def read(self):
            return b"tiny"

    for short in (ShortSource(), StaticEntropy(b"tiny")):
        with pytest.raises(EntropyError):
            a.reseed(short)
        assert a.snapshot() == b.snapshot()
    a.random_u32()  # still works


def test_reseed_with_non_bytes_source_moves_no_state():
    # A 44-character str passes the length check; it must fail before the
    # rekey overwrites the buffer and advances the cipher.
    class StrSource:
        def read(self):
            return "k" * SEED_SIZE

    a = Engine(SEED_A, RekeyPolicy.fixed())
    b = Engine(SEED_A, RekeyPolicy.fixed())
    a.random_buf(100)
    b.random_buf(100)
    before = _state(a)
    with pytest.raises(TypeError):
        a.reseed(StrSource())
    assert _state(a) == before
    assert a.random_buf(2000) == b.random_buf(2000)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_rekeys_and_parent_does_not():
    a = Engine(SEED_A, RekeyPolicy.fixed())
    twin = Engine(SEED_A, RekeyPolicy.fixed())
    a.random_buf(10)
    twin.random_buf(10)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child sends its next 64 bytes and leaves at once
        try:
            os.write(write_end, a.random_buf(64))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        child = pipe.read()
    os.waitpid(pid, 0)
    parent = a.random_buf(64)
    assert parent == twin.random_buf(64)
    assert len(child) == 64 and child != parent


def test_from_source_and_from_hex():
    e1 = Engine(parse_seed_hex(SEED_A.hex()), RekeyPolicy.fixed())
    e2 = Engine.from_source(StaticEntropy(SEED_A), RekeyPolicy.fixed())
    assert e1.random_buf(100) == e2.random_buf(100)

    class ShortSource:
        def read(self):
            return b"tiny"

    for short in (ShortSource(), StaticEntropy(b"tiny")):
        with pytest.raises(EntropyError):
            Engine.from_source(short)


def test_events_csv_schema():
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=512))
    e.random_buf(3000)
    lines = events_to_csv(e.events).strip().split("\n")
    assert lines[0] == "ordinal,output_offset,interval_chosen"
    assert lines[1].startswith("0,0,")
    assert len(lines) == len(e.events) + 1


def test_have_bounded_after_rekey():
    e = Engine(SEED_A, RekeyPolicy.fixed())
    assert e._pos == SEED_SIZE


_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("u32"), st.just(0)),
        st.tuples(st.just("buf"), st.integers(0, 64)),
        st.tuples(
            st.just("uniform"),
            st.sampled_from([0, 1, 6, 100, 2**31 + 1, 2**32 - 1, 2**32]),
        ),
    ),
    max_size=150,
)
_TINY_POLICIES = st.one_of(
    st.integers(5, 40).map(RekeyPolicy.fixed),
    st.integers(960, 1100).map(RekeyPolicy.fixed),
    st.sampled_from([RekeyPolicy.fuzzed(base=8), RekeyPolicy.fuzzed(base=600)]),
)


@given(policy=_TINY_POLICIES, skip=st.integers(0, 1000), calls=_CALLS)
@example(policy=RekeyPolicy.fixed(8), skip=0, calls=[("u32", 0), ("u32", 0), ("buf", 8)])
@example(policy=RekeyPolicy.fixed(1000), skip=BUF_SIZE - SEED_SIZE - 4, calls=[("u32", 0), ("u32", 0)])
@example(policy=RekeyPolicy.fixed(1000), skip=BUF_SIZE - SEED_SIZE - 3, calls=[("u32", 0), ("buf", 9)])
@settings(max_examples=200, deadline=None)
def test_fast_path_matches_bytewise_replay(policy, skip, calls):
    # Budget-exact requests (count == n) and words ending at or straddling the
    # buffer's last byte sit on the fast path's edges.
    e = Engine(SEED_A, policy)
    e.random_buf(skip)
    got = []
    for kind, arg in calls:
        if kind == "u32":
            got.append(e.random_u32())
        elif kind == "buf":
            got.append(e.random_buf(arg))
        else:
            got.append(uniform(e, arg))

    r = Engine(SEED_A, policy)

    def read(n):
        return b"".join(r.random_buf(1) for _ in range(n))

    def word():
        return int.from_bytes(read(4), "little")

    read(skip)
    want = []
    for kind, arg in calls:
        if kind == "u32":
            want.append(word())
        elif kind == "buf":
            want.append(read(arg))
        else:
            want.append(uniform_generic(word, arg))
    assert got == want
    assert e.events == r.events
    assert e.total_out == r.total_out
    assert e.snapshot() == r.snapshot()


class _CountedWords:
    """Hands sampler.uniform an engine's random_u32 and counts the words drawn."""

    def __init__(self, engine):
        self.engine = engine
        self.words = 0

    def random_u32(self):
        self.words += 1
        return self.engine.random_u32()


_ACCOUNTED_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("buf"), st.integers(0, 3000)),
        st.tuples(st.just("u32"), st.just(None)),
        st.tuples(st.just("batch"), st.integers(0, 700)),
        st.tuples(st.just("discard"), st.integers(0, 3000)),
        st.tuples(st.just("uniform"), st.sampled_from([0, 6, 100, 2**31 + 1, 2**32 - 1])),
        st.tuples(st.just("reseed"), st.binary(min_size=SEED_SIZE, max_size=SEED_SIZE)),
    ),
    max_size=40,
)


@given(
    policy=st.one_of(
        st.integers(5, 40).map(RekeyPolicy.fixed),
        st.sampled_from([RekeyPolicy.fuzzed(base=8), RekeyPolicy.fuzzed(base=600)]),
    ),
    calls=_ACCOUNTED_CALLS,
)
@example(
    policy=RekeyPolicy.fixed(40), calls=[("buf", 30), ("reseed", bytes(SEED_SIZE)), ("buf", 50)]
)
@settings(max_examples=150, deadline=None)
def test_output_accounting_across_calls_and_reseeds(policy, calls):
    # total_out counts bytes handed out; a reseed event sits at the output
    # offset of its call, and every budget event one interval after the
    # event before it.
    e = Engine(SEED_A, policy)
    served = 0
    reseed_offsets = {}  # event ordinal -> total_out when reseed was called
    for kind, arg in calls:
        if kind == "buf":
            served += len(e.random_buf(arg))
        elif kind == "u32":
            e.random_u32()
            served += 4
        elif kind == "batch":
            served += 4 * len(e.random_u32_batch(arg))
        elif kind == "discard":
            e.discard(arg)
            served += arg
        elif kind == "uniform":
            counted = _CountedWords(e)
            uniform(counted, arg)
            served += 4 * counted.words
        else:
            reseed_offsets[len(e.events)] = e.total_out
            e.reseed(StaticEntropy(arg))
        assert e.total_out == served
    assert e.events[0].output_offset == 0
    for prev, ev in zip(e.events, e.events[1:]):
        if ev.ordinal in reseed_offsets:
            assert ev.output_offset == reseed_offsets[ev.ordinal]
        else:
            assert ev.output_offset == prev.output_offset + prev.interval_chosen

"""Engine tests: determinism, rekey mechanics, key erasure, accounting."""

import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arc4rng import chacha
from arc4rng.bench import run_generation_bench
from arc4rng.chacha import (
    BLOCK_SIZE,
    KEY_SIZE,
    MAX_BLOCKS,
    NONCE_SIZE,
    PIECE_SIZE,
    ChaCha20Stream,
    CounterExhaustedError,
    chacha_block,
    initial_state,
)
from arc4rng.engine import (
    BUF_SIZE,
    FUZZ_SIZE,
    MAX_BUDGET,
    SEED_SIZE,
    Engine,
    OsEntropy,
    RekeyEvent,
    RekeyPolicy,
    StaticEntropy,
    events_to_csv,
)
from arc4rng.sampler import uniform, uniform_batch
from arc4rng.stats import Histogram, chi_square_p_value, interval_uniformity_test

ZERO_SEED = bytes(SEED_SIZE)
SEED_A = bytes(range(SEED_SIZE))


class FailingEntropy:
    """Seed source that always fails; stands in for a forked child's OsEntropy."""

    def read(self):
        raise OSError("entropy source unavailable")


def test_policy_and_event_are_immutable_named_tuples():
    policy = RekeyPolicy.fixed(1500)
    # Every way to build a policy from fields goes through the same checks.
    with pytest.raises(ValueError, match="fixed_interval"):
        policy._replace(fixed_interval=2.5)
    with pytest.raises(ValueError, match="mode"):
        policy._replace(mode="weird")
    with pytest.raises(ValueError, match="fixed_interval"):
        RekeyPolicy._make(("fixed", 0, 1))
    assert policy._replace(fixed_interval=np.int64(7)) == RekeyPolicy.fixed(7)
    event = RekeyEvent(0, 0, 5)
    for obj, field in ((policy, "fixed_interval"), (policy, "mode"), (event, "interval_chosen")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
    assert repr(policy) == "RekeyPolicy(mode='fixed', fixed_interval=1500, rekey_base=1048576)"
    assert repr(event) == "RekeyEvent(ordinal=0, output_offset=0, interval_chosen=5)"
    assert event == (0, 0, 5) and hash(event) == hash((0, 0, 5))
    assert hash(policy) == hash(RekeyPolicy.fixed(np.int64(1500)))


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
    # A fuzz word is 32 bits, so a base above 2^32 could not be spread uniformly.
    assert RekeyPolicy.fuzzed(2**32).rekey_base == 2**32
    # Base 1 would draw no fuzz word: a fuzzed policy that never fuzzes.
    assert RekeyPolicy.fuzzed(2).rekey_base == 2


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


@pytest.mark.parametrize("policy", ["fixed", 4096, RekeyPolicy])
def test_policy_type_rejected_before_cipher_is_built(policy, monkeypatch):
    def no_cipher(*args):
        raise AssertionError("cipher built before the policy was checked")

    monkeypatch.setattr("arc4rng.engine.ChaCha20Stream", no_cipher)
    with pytest.raises(TypeError, match="policy"):
        Engine(SEED_A, policy)


def test_fuzz_interval_formula_edges():
    # Drive _next_interval with a stubbed cipher emitting chosen fuzz words.
    # Base 1000 rejects words below 2^32 mod 1000 = 296 and draws the next.
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=1000))

    class StubCipher:
        def __init__(self, *words):
            self.words = iter(words)

        def xor(self, data):
            return struct.pack("<I", next(self.words))

    for words, expected in [
        ((0, 1500), 1500),
        ((295, 296), 1296),
        ((1000,), 1000),
        ((999,), 1999),
        ((2**32 - 1,), 1295),
    ]:
        assert e._next_interval(StubCipher(*words)) == expected


def test_fuzzed_intervals_uniform_for_a_large_base():
    # Base 3 * 2^30: fuzz % base took words below 2^30 twice as often as the
    # rest, and 3,000 intervals read p = 4e-65 before rejected words were redrawn.
    base = 3 << 30
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=base))
    for _ in range(3000):
        e._rekey()
    assert interval_uniformity_test(e.events, base).p_value > 1e-3


@pytest.mark.parametrize("policy", [RekeyPolicy.fixed(), RekeyPolicy.fuzzed()])
def test_backtracking_window_is_the_rekey_budget(policy):
    # Keys are erased only at a rekey: the key and nonce in a mid-budget
    # snapshot recompute every byte served under them. That is all the output
    # but the BUF_SIZE - SEED_SIZE bytes left buffered by the seed key, which
    # the snapshot does not hold.
    e = Engine(SEED_A, policy)
    out = e.random_buf(min(1_500_000, e.count - 1))
    assert e.rekey_count == 1
    snap = e.snapshot()
    lead = BUF_SIZE - SEED_SIZE
    seed_stream = ChaCha20Stream(SEED_A[:KEY_SIZE], SEED_A[KEY_SIZE:])
    assert seed_stream.keystream(BUF_SIZE)[SEED_SIZE:] == out[:lead]
    assert SEED_A[:KEY_SIZE] not in snap
    stream = ChaCha20Stream(snap[:KEY_SIZE], snap[KEY_SIZE:SEED_SIZE])
    if policy.mode == "fuzzed":  # base 2^20 accepts every fuzz word
        stream.keystream(FUZZ_SIZE)
    assert stream.keystream(len(out) - lead) == out[lead:]


_WINDOW = 16  # bytes; a shared 16-byte run is no coincidence


def _windows(data):
    return {bytes(data[i : i + _WINDOW]) for i in range(len(data) - _WINDOW + 1)}


@given(
    policy=st.sampled_from(
        [RekeyPolicy.fixed(1100), RekeyPolicy.fixed(2500), RekeyPolicy.fuzzed(512), RekeyPolicy.fuzzed(2048)]
    ),
    calls=st.lists(
        st.one_of(
            st.tuples(st.just("buf"), st.integers(0, 2500)),
            st.tuples(st.just("u32"), st.just(None)),
            st.tuples(st.just("discard"), st.integers(0, 2500)),
            st.tuples(st.just("reseed"), st.binary(min_size=SEED_SIZE, max_size=SEED_SIZE)),
        ),
        max_size=12,
    ),
)
@example(policy=RekeyPolicy.fixed(1100), calls=[("discard", 2500), ("buf", 2000), ("reseed", bytes(SEED_SIZE))])
@settings(max_examples=100, deadline=None)
def test_snapshot_recomputes_only_output_since_the_last_rekey(policy, calls):
    # The backtracking window from both sides. A snapshot holds no earlier key,
    # and neither it nor the keystream its key and nonce recompute holds
    # output from before the last rekey; every byte after the BUF_SIZE -
    # SEED_SIZE that the previous key's buffer supplied is recomputable.
    e = Engine(SEED_A, policy)
    twin = Engine(SEED_A, policy)  # serves the bytes that e discards
    keys = [SEED_A[:KEY_SIZE], e._cipher.key]
    rekey = e._rekey

    def recorded_rekey(entropy=None):
        rekey(entropy)
        keys.append(e._cipher.key)

    e._rekey = recorded_rekey
    out = bytearray()
    for kind, arg in calls:
        if kind == "buf":
            out += e.random_buf(arg)
            assert twin.random_buf(arg) == out[len(out) - arg :]
        elif kind == "u32":
            out += struct.pack("<I", e.random_u32())
            assert twin.random_buf(4) == out[-4:]
        elif kind == "discard":
            e.discard(arg)
            out += twin.random_buf(arg)
        else:
            e.reseed(StaticEntropy(arg))
            twin.reseed(StaticEntropy(arg))
    assert e.total_out == len(out) and e.events == twin.events

    snap = e.snapshot()
    key, nonce = snap[:KEY_SIZE], snap[KEY_SIZE:SEED_SIZE]
    assert key == keys[-1]
    position = struct.unpack_from("<Q", snap, SEED_SIZE)[0]
    recomputed = ChaCha20Stream(key, nonce).keystream(position)
    for old_key in keys[:-1]:
        assert not _windows(old_key) & _windows(snap)
    since = e.events[-1].output_offset
    assert not _windows(out[:since]) & (_windows(snap) | _windows(recomputed))
    tail = out[since + BUF_SIZE - SEED_SIZE :]
    skip = FUZZ_SIZE if policy.mode == "fuzzed" else 0  # a power-of-two base takes one word
    assert recomputed[skip : skip + len(tail)] == tail


def test_first_output_pinned_regression_vector():
    # Independently derived: the buffer after the initial stir holds bytes
    # 44..1024 of the seed cipher's keystream, so the first word is ks[44:48].
    ks = b"".join(chacha_block(bytes(32), c, bytes(12)) for c in range(1))
    expected = struct.unpack("<I", ks[44:48])[0]
    assert expected == 0x374AD8B8
    e = Engine(ZERO_SEED, RekeyPolicy.fixed())
    assert e.random_u32() == 0x374AD8B8


def _mixed_call_digest(policy, size, steps):
    """sha256 over the output of a seeded mix of every drawing call, reseeds
    included, then the event log and the final snapshot. size caps each
    request in bytes."""
    rng = random.Random(2024)
    e = Engine(SEED_A, policy)
    h = hashlib.sha256()
    for _ in range(steps):
        kind = rng.randrange(7)
        if kind == 0:
            h.update(struct.pack("<I", e.random_u32()))
        elif kind == 1:
            h.update(e.random_buf(rng.randrange(size)))
        elif kind == 2:
            h.update(struct.pack("<Q", uniform(e, rng.choice([2, 6, 100, 1000, 2**31 + 1, 2**32 - 1, 2**32]))))
        elif kind == 3:
            h.update(e.random_u32_batch(rng.randrange(size // 4)).tobytes())
        elif kind == 4:
            e.discard(rng.randrange(size))
        elif kind == 5:
            h.update(e.random_buf(rng.randrange(8)))
        elif rng.randrange(4) == 0:
            e.reseed(StaticEntropy(rng.randbytes(SEED_SIZE)))
    h.update(events_to_csv(e.events).encode())
    h.update(e.snapshot())
    return e.rekey_count, h.hexdigest()


# Digests recorded before the rekey paths were merged into one; any change to
# the output stream, the event log or the snapshot layout changes them.
@pytest.mark.parametrize(
    "policy, size, steps, rekeys, digest",
    [
        (RekeyPolicy.fixed(), 800_000, 60, 7, "cf788c5513d91d84760d1b54aaeb691616c2b8bdf241b79bdf8782a900583821"),
        (RekeyPolicy.fixed(5000), 3000, 400, 63, "594ac461b1987ea4b62a521e8108790ea9f86cb9c56582829af316d42a637b61"),
        (RekeyPolicy.fuzzed(1 << 20), 600_000, 60, 6, "845f34931e9a28c07753a9c80d4189742f99bf365835f575ddf58d18e28ffa6b"),
        (RekeyPolicy.fuzzed(4096), 3000, 400, 55, "1a16cac98b9461b100d0598264066f67af7a23993f4c639c30fa8dce821c21bb"),
        (RekeyPolicy.fuzzed(600), 500, 400, 61, "234cea6f4f640ccda6811327de88feeb5bd2d0d502d856b886453b527ea0c979"),
        (RekeyPolicy.fuzzed(2), 8, 120, 144, "b86b1f5fca7a83f1e1fecc4dde2efff343dbada141e626eb66f177f96f7b81dc"),
    ],
    ids=["fixed", "fixed5000", "fuzzed2^20", "fuzzed4096", "fuzzed600", "fuzzed2"],
)
def test_stream_pinned_past_many_rekeys(policy, size, steps, rekeys, digest):
    assert _mixed_call_digest(policy, size, steps) == (rekeys, digest)


def test_fixed_vs_fuzzed_diverge_at_first_refill():
    # The fuzz word consumes 4 bytes of the freshly installed key's stream at
    # the initial stir, so the streams split at the first buffer refill
    # (output byte 980), well before any boundary rekey.
    fixed = Engine(SEED_A, RekeyPolicy.fixed()).random_buf(2000)
    fuzzed = Engine(SEED_A, RekeyPolicy.fuzzed()).random_buf(2000)
    boundary = BUF_SIZE - SEED_SIZE
    assert fixed[:boundary] == fuzzed[:boundary]
    assert fixed[boundary:] != fuzzed[boundary:]


def test_random_buf_edge_cases():
    e = Engine(SEED_A, RekeyPolicy.fixed())
    before = (e.count, e.total_out, len(e.events))
    assert e.random_buf(0) == b""
    assert (e.count, e.total_out, len(e.events)) == before


def _accounting(e):
    return e.count, e.total_out, e._pos, e._cipher.position


def _state(e):
    return e.snapshot(), e.count, e.total_out, list(e.events)


@pytest.mark.parametrize("n", [2.5, 3000.5, 1e3, np.float64(4.0), "8", None, True, False])
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
    # The fast path keeps the engine's numbers Python ints.
    e = Engine(bytes(SEED_SIZE), RekeyPolicy.fixed(64))
    e.random_buf(np.int64(5))
    e.random_buf(100)
    numbers = [e._pos, e.count, e.total_out]
    numbers += [x for ev in e.events for x in (ev.ordinal, ev.output_offset, ev.interval_chosen)]
    assert all(type(x) is int for x in numbers)
    json.dumps(numbers)


@pytest.mark.parametrize(
    "n, skip",
    [(0, 3), (1, 3), (255, 3), (256, 3), (1 << 20, 3), (2000, 0)],  # at 3, words straddle the buffer's 4-byte grid
    ids=["0", "1", "255", "256", "1048576", "2000-aligned"],
)
def test_random_u32_batch_is_a_fresh_u32_array(n, skip):
    a = Engine(SEED_A, RekeyPolicy.fuzzed(base=600))
    b = Engine(SEED_A, RekeyPolicy.fuzzed(base=600))
    a.random_buf(skip)
    b.random_buf(skip)
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


def test_discard_allocates_no_scratch():
    # Discarded keystream goes into one sink made on the first discard, so a
    # later multi-MiB discard allocates next to nothing.
    e = Engine(SEED_A, RekeyPolicy.fuzzed(1 << 20))
    e.discard(3 << 20)
    tracemalloc.start()
    try:
        e.discard(3 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_engine_keystream_calls_are_at_most_one_piece(monkeypatch):
    # Views and discards alike reach the cipher PIECE_SIZE at most at a time,
    # and the cipher ends where a twin fed in small requests ends.
    sizes = []
    keystream_into = ChaCha20Stream.keystream_into

    def spy(self, view):
        sizes.append(memoryview(view).nbytes)
        keystream_into(self, view)

    twin = Engine(SEED_A, RekeyPolicy.fixed(MAX_BUDGET))
    left = 12_000_000 + (3 << 20)
    while left:
        left -= len(twin.random_buf(min(4096, left)))
    monkeypatch.setattr(ChaCha20Stream, "keystream_into", spy)
    e = Engine(SEED_A, RekeyPolicy.fixed(MAX_BUDGET))
    e.random_u32_batch(3_000_000)
    e.discard(3 << 20)
    assert sizes and max(sizes) <= PIECE_SIZE
    assert e.snapshot() == twin.snapshot()


@pytest.mark.parametrize("policy", [RekeyPolicy.fixed(4096), RekeyPolicy.fuzzed(4096)])
def test_one_cipher_context_per_key(policy, monkeypatch):
    # The seed's context, then one for each key installed: a budget rekey,
    # a discard across rekeys or a reseed builds no second one.
    built = []
    init = ChaCha20Stream.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChaCha20Stream, "__init__", spy)
    e = Engine(SEED_A, policy)
    for i in range(5):
        e.discard(e.count)
        e.random_buf(3000)
        e.reseed(StaticEntropy(bytes([i]) * SEED_SIZE))
        e.discard(e.count + 9000)
        e.random_buf(5000)
    assert e.rekey_count > 15
    assert len(built) == 1 + e.rekey_count


def test_large_request_keeps_the_zero_block_fixed():
    # 12 MB in one request: filled in PIECE_SIZE pieces, with the same output
    # as 1 MiB requests, and the shared zero plaintext stays one piece long.
    n, step = 3_000_000, 1 << 18
    big = Engine(SEED_A, RekeyPolicy.fixed(MAX_BUDGET)).random_u32_batch(n)
    assert len(chacha._ZEROS) == PIECE_SIZE == 1 << 20
    twin = Engine(SEED_A, RekeyPolicy.fixed(MAX_BUDGET))
    pieces = [twin.random_u32_batch(min(step, n - i)) for i in range(0, n, step)]
    assert np.array_equal(big, np.concatenate(pieces))


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


# (bytes taken, call returning what it served): rekeys fall inside requests on both paths
_FAULT_SEQUENCE = [
    (2000, lambda e: e.random_buf(2000)),
    (4, lambda e: struct.pack("<I", e.random_u32())),
    (1200, lambda e: e.random_u32_batch(300).tobytes()),
    (0, lambda e: e.reseed(StaticEntropy(bytes(SEED_SIZE))) or b""),
    (5000, lambda e: e.discard(5000) or b""),
    (4000, lambda e: e.random_buf(4000)),
]


@pytest.mark.parametrize("policy", [RekeyPolicy.fixed(3000), RekeyPolicy.fuzzed(2048)], ids=["fixed", "fuzzed"])
def test_every_failure_serves_nothing_twice(policy, monkeypatch):
    # For every k, the k-th call into the cipher or the reseed's source raises. The call takes
    # at most its size from the output stream, a failed read moves nothing, a failed rekey keeps
    # the key and log of its draw, and the engine serves on, never a drawn byte nor a window twice.
    for k in itertools.count(1):
        e, calls, began, drawn, out = Engine(SEED_A, policy), [], [], [], bytearray()

        def spy(name, original):  # keyed on the name: while patched, the class attribute is the spy
            def call(*args):
                calls.append(name)
                if name == "keystream_into":  # a rekey begins with a draw
                    began[:] = e._cipher, list(e.events)
                if len(calls) == k:
                    raise MemoryError("injected")
                result = original(*args)
                if name == "keystream_into":
                    drawn.append(bytes(args[1]))
                return result
            return call

        with monkeypatch.context() as m, contextlib.suppress(MemoryError):
            for cls, name in [(ChaCha20Stream, "__init__"), (ChaCha20Stream, "keystream_into"), (ChaCha20Stream, "xor"), (StaticEntropy, "read")]:
                m.setattr(cls, name, spy(name, getattr(cls, name)))
            for n, request in _FAULT_SEQUENCE:
                before, total_out, drawn = (_state(e), e._pos), e.total_out, []
                out += request(e)
        if len(calls) < k:  # the sequence ran through: every call has failed once
            break
        assert 0 <= e.total_out - total_out <= n
        assert calls[-1] != "read" or (_state(e), e._pos) == before
        assert calls[-1] == "read" or [e._cipher, e.events] == began
        taken, later = e.total_out, e.random_buf(3000)
        e.reseed(StaticEntropy(bytes(SEED_SIZE)))
        assert e.events[-1].output_offset == e.total_out == taken + 3000
        later += e.random_buf(3000)
        assert not set().union(*map(_windows, drawn)) & _windows(later), (k, calls[-1])
        assert len(_windows(out + later)) == len(out + later) - _WINDOW + 1, (k, calls[-1])


def test_static_entropy_takes_bytes_like_data_only():
    # The bytes table checks its refusals: an int, a bool, a str and None.
    data = bytearray(range(SEED_SIZE))
    source = StaticEntropy(data)
    data[0] = 99  # the source keeps its own copy
    assert source.read() == SEED_A


class _Source:
    """Seed source whose read() returns the object it was given."""

    def __init__(self, value):
        self.value = value

    def read(self):
        return self.value


def _reseeded(e, source):
    e.reseed(source)
    return e.random_buf(64)


_NONCE = bytes(range(100, 100 + NONCE_SIZE))
_KEY = SEED_A[:KEY_SIZE]
# Each bytes parameter: its size (None: any), the error for a wrong size, and
# a call that passes the value on and returns what was made of it.
_BYTES_PARAMETERS = [
    pytest.param(KEY_SIZE, ValueError, lambda e, s, v: ChaCha20Stream(v, _NONCE).keystream(64), id="ChaCha20Stream key"),
    pytest.param(NONCE_SIZE, ValueError, lambda e, s, v: ChaCha20Stream(_KEY, v).keystream(64), id="ChaCha20Stream nonce"),
    pytest.param(KEY_SIZE, ValueError, lambda e, s, v: initial_state(v, 1, _NONCE), id="initial_state key"),
    pytest.param(NONCE_SIZE, ValueError, lambda e, s, v: initial_state(_KEY, 1, v), id="initial_state nonce"),
    pytest.param(SEED_SIZE, ValueError, lambda e, s, v: Engine(v, RekeyPolicy.fixed()).random_buf(64), id="Engine seed"),
    pytest.param(SEED_SIZE, ValueError, lambda e, s, v: _reseeded(e, StaticEntropy(v)), id="StaticEntropy data"),
    pytest.param(SEED_SIZE, ValueError, lambda e, s, v: _reseeded(e, _Source(v)), id="reseed source read()"),
    pytest.param(None, None, lambda e, s, v: s.xor(v), id="xor data"),
    pytest.param(SEED_SIZE, ValueError, lambda e, s, v: run_generation_bench(10, RekeyPolicy.fixed(), v).seed_hex, id="bench seed"),
]


def _engine_and_stream():
    """An engine past its first budget rekey and a stream part way in."""
    e = Engine(SEED_A, RekeyPolicy.fixed(300))
    e.random_buf(500)
    s = ChaCha20Stream(_KEY, _NONCE)
    s.keystream(100)
    return e, s


def _next_output(e, s):
    """What the engine and the stream serve next; _state omits the buffer
    position, which this shows."""
    return e.random_buf(64), s.keystream(16)


@pytest.mark.parametrize("size, size_error, call", _BYTES_PARAMETERS)
def test_every_bytes_parameter_takes_a_contiguous_buffer_counted_in_bytes(size, size_error, call):
    # One rule for every bytes input: any C-contiguous buffer, counted in
    # bytes, not items; anything else raises TypeError before state moves.
    data = bytes(range(7, 7 + (size or 16)))
    want = call(*_engine_and_stream(), data)
    u8 = np.frombuffer(data, np.uint8)
    for same in (bytearray(data), memoryview(data), u8, u8.view(np.uint32), u8.reshape(2, -1)):
        assert call(*_engine_and_stream(), same) == want, type(same)

    strided = np.frombuffer(data * 2, np.uint8)[::2]
    refused = [(bad, TypeError, None) for bad in (list(data), data.decode("latin-1"), len(data), True, None, strided)]
    if size is not None:
        # One byte short, and one u32 item too many: the message counts bytes, not items.
        refused.append((data[:-1], size_error, rf"must be {size} bytes, got {size - 1}$"))
        refused.append((np.zeros(size // 4 + 1, np.uint32), size_error, rf"\b{size + 4}\b"))
    for bad, error, match in refused:
        e, s = _engine_and_stream()
        before = _state(e), s.position
        with pytest.raises(error, match=match):
            call(e, s, bad)
        assert (_state(e), s.position) == before, repr(bad)
        assert _next_output(e, s) == _next_output(*_engine_and_stream()), repr(bad)


_INTERVALS = list(range(64, 128))  # one event per offset of base 64
# Each integer parameter, named as in the README: the name its error gives,
# its range (hi None: no upper limit), a value in range, and a call that
# passes the value on and returns what was made of it.
_INTEGER_PARAMETERS = [
    pytest.param("fixed_interval", 1, MAX_BUDGET, 4096, lambda e, s, v: RekeyPolicy.fixed(v), id="RekeyPolicy.fixed(interval)"),
    pytest.param("rekey_base", 2, 1 << 32, 4096, lambda e, s, v: RekeyPolicy.fuzzed(v), id="RekeyPolicy.fuzzed(base)"),
    pytest.param("upper_bound", 0, 1 << 32, 100, lambda e, s, v: uniform(e, v), id="uniform(upper_bound)"),
    pytest.param("upper_bound", 0, 1 << 32, 100, lambda e, s, v: uniform_batch(e, v, 9)[0].tolist(), id="uniform_batch(upper_bound)"),
    pytest.param("n", 0, None, 1000, lambda e, s, v: uniform_batch(e, 100, v)[0].tolist(), id="uniform_batch(n)"),
    pytest.param("n", 0, None, 1000, lambda e, s, v: e.random_buf(v), id="random_buf(n)"),
    pytest.param("n", 0, None, 1000, lambda e, s, v: e.random_u32_batch(v).tolist(), id="random_u32_batch(n)"),
    pytest.param("n", 0, None, 1000, lambda e, s, v: e.discard(v), id="discard(n)"),
    pytest.param("n", 0, None, 1000, lambda e, s, v: s.keystream(v), id="ChaCha20Stream.keystream(n)"),
    pytest.param("counter", 0, MAX_BLOCKS - 1, 7, lambda e, s, v: ChaCha20Stream(_KEY, _NONCE, v).keystream(64), id="ChaCha20Stream(counter)"),
    pytest.param("counter", 0, MAX_BLOCKS - 1, 7, lambda e, s, v: initial_state(_KEY, v, _NONCE), id="initial_state(counter)"),
    pytest.param("df", 1, None, 7, lambda e, s, v: chi_square_p_value(3.0, v), id="chi_square_p_value(df)"),
    pytest.param("base", 2, 1 << 32, 64, lambda e, s, v: interval_uniformity_test(_INTERVALS, v, 2), id="interval_uniformity_test(base)"),
    pytest.param("k", 2, 64, 4, lambda e, s, v: interval_uniformity_test(_INTERVALS, 64, v), id="interval_uniformity_test(k)"),
    pytest.param("k", 0, None, 4, lambda e, s, v: Histogram.categorical([0, 1, 1], v), id="Histogram.categorical(k)"),
    pytest.param("n_integers", 1, None, 10, lambda e, s, v: run_generation_bench(v, RekeyPolicy.fixed(), SEED_A)[2:], id="run_generation_bench(n_integers)"),
]


@pytest.mark.parametrize("name, lo, hi, value, call", _INTEGER_PARAMETERS)
def test_every_integer_parameter_takes_integers_in_its_range_only(name, lo, hi, value, call):
    # One rule for every integer input: numpy integers and 0-d integer arrays
    # act as their int and are kept as one (the reprs of np.int64(7) and 7
    # differ); bools, floats, NaN, strings, None and values past either end
    # raise a ValueError naming the parameter before state moves.
    def outcome(v):
        e, s = _engine_and_stream()
        return call(e, s, v), _state(e), _next_output(e, s)

    want = outcome(value)
    for same in (np.int64(value), np.uint16(value), np.array(value)):
        assert repr(outcome(same)) == repr(want), repr(same)

    refused = [True, False, 2.5, 1e3, np.float64(4.0), math.nan, "8", None, lo - 1] + ([] if hi is None else [hi + 1])
    for bad in refused:
        e, s = _engine_and_stream()
        before = _state(e), s.position
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in {lo}\.\."):
            call(e, s, bad)
        assert (_state(e), s.position) == before, repr(bad)
        assert _next_output(e, s) == _next_output(*_engine_and_stream()), repr(bad)


def test_integer_table_matches_the_readme():
    # The README's list of integer parameters names a row's call or
    # parameter with each of its code spans, and every row's call.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Rekey budgets .*? must\s+be integers", readme, re.DOTALL).group()
    named = set(re.findall(r"`([^`]+)`", listed))
    rows = {p.id for p in _INTEGER_PARAMETERS}
    calls = {row.partition("(")[0] for row in rows}
    parameters = {row.partition("(")[2].rstrip(")") for row in rows}
    assert named <= rows | calls | parameters, f"no row for {named - rows - calls - parameters}"
    assert calls <= {span.partition("(")[0] for span in named}, "a row's call is not in the README"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_rekeys_and_parent_does_not():
    a = Engine(SEED_A, RekeyPolicy.fixed())
    twin = Engine(SEED_A, RekeyPolicy.fixed())
    a.random_buf(10)
    twin.random_buf(10)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child sends its next 64 bytes and last event, and leaves at once
        try:
            out = a.random_buf(64)
            last = a.events[-1]
            os.write(write_end, out + struct.pack("<QQ", last.ordinal, last.output_offset))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        child = pipe.read()
    os.waitpid(pid, 0)
    parent = a.random_buf(64)
    assert parent == twin.random_buf(64)
    assert len(child) == 64 + 16 and child[:64] != parent
    # One rekey in the child, logged at its total_out when it forked
    assert struct.unpack("<QQ", child[64:]) == (len(twin.events), 10)


def _in_forked_child(call):
    """The bytes call() returns in a forked child (none if it raised)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, call())
        finally:
            os._exit(0)
    os.close(write_end)
    os.waitpid(pid, 0)  # what the child writes fits the pipe
    with os.fdopen(read_end, "rb") as pipe:
        return pipe.read()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_never_serves_the_parents_stream(monkeypatch):
    # A child's first rekey mixes in OsEntropy, whichever call makes it, and
    # skips the block the parent serves next: after a plain call, or the same
    # static reseed in both, parent and child share no 16-byte window.
    a = Engine(SEED_A, RekeyPolicy.fixed())
    a.random_buf(10)
    static = StaticEntropy(bytes(SEED_SIZE))
    for serve in (lambda: a.random_buf(2000), lambda: _reseeded(a, static) + a.random_buf(2000)):
        child = _in_forked_child(serve)
        parent = serve()
        assert len(child) == len(parent) and not _windows(child) & _windows(parent)

    # With that read failing, each call that would serve raises, and so does
    # the next, a reseed included: the child serves nothing and logs no rekey.
    monkeypatch.setattr(OsEntropy, "read", FailingEntropy.read)

    def every_call_raises():
        for call in (lambda: a.random_buf(16), a.random_u32, lambda: a.discard(1), lambda: a.reseed(static)):
            with pytest.raises(OSError):
                call()
        return struct.pack("<QQ", a.total_out, a.rekey_count)

    assert _in_forked_child(every_call_raises) == struct.pack("<QQ", a.total_out, a.rekey_count)


def test_fork_registry_holds_engines_weakly():
    engine = weakref.ref(Engine(SEED_A))
    gc.collect()
    assert engine() is None


def test_events_csv_schema():
    e = Engine(SEED_A, RekeyPolicy.fuzzed(base=512))
    e.random_buf(3000)
    lines = events_to_csv(e.events).strip().split("\n")
    assert lines[0] == "ordinal,output_offset,interval_chosen"
    assert lines[1].startswith("0,0,")
    assert len(lines) == len(e.events) + 1

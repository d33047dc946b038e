"""The engine against the reference model in model.py, past many rekeys.

After every call the property compares what the engine served and its books
with the model's: the budget left, `total_out` and the rekey log, the key,
nonce and keystream position in `snapshot()`, and the unserved tail of the
buffer. So it catches a fault that every chunking shares, such as a key taken
from the wrong offset, a misplaced fuzz word or an off-by-one erasure, and one
on a fast path's edge, such as a word read across the buffer's end.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st
from model import Model

from arc4rng import Engine, RekeyPolicy, StaticEntropy, uniform
from arc4rng.engine import SEED_SIZE

SEED = bytes(range(SEED_SIZE))
MAX_REKEYS = 20  # each costs the model 16 or more chacha_block calls
MAX_OUT = 16_384  # output bytes per example that the model computes; discards step over refills

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("buf"), st.integers(0, 64) | st.integers(0, 3000)),  # small ones take the fast path
        st.tuples(st.just("u32"), st.just(None)),
        st.tuples(st.just("batch"), st.integers(0, 700)),
        st.tuples(st.just("discard"), st.integers(0, 3000)),
        st.tuples(st.just("budget"), st.integers(0, 3000)),  # discard the budget left, then arg more
        st.tuples(st.just("uniform"), st.sampled_from([0, 1, 6, 100, 2**31 + 1, 2**32 - 1, 2**32])),
        st.tuples(st.just("reseed"), st.binary(min_size=SEED_SIZE, max_size=SEED_SIZE)),
    ),
    max_size=30,
)
_POLICIES = st.one_of(
    st.integers(5, 1100).map(RekeyPolicy.fixed),
    st.sampled_from([RekeyPolicy.fuzzed(8), RekeyPolicy.fuzzed(600), RekeyPolicy.fuzzed(4096)]),
    st.sampled_from([RekeyPolicy.fixed(), RekeyPolicy.fuzzed(1 << 20)]),  # the default budgets
)


def _check_books(e, m):
    assert (e.count, e.total_out, e.events) == (m.count, m.total_out, m.events)
    assert e.snapshot()[: SEED_SIZE + 8] == m.key + m.nonce + struct.pack("<Q", m.pos)
    assert e._buf[e._pos :].tobytes() == m.buf


@given(policy=_POLICIES, ops=_OPS)
@example(policy=RekeyPolicy.fixed(1100), ops=[("buf", 3000), ("reseed", bytes(SEED_SIZE)), ("batch", 700)])
@example(policy=RekeyPolicy.fuzzed(600), ops=[("discard", 3000), ("u32", None), ("buf", 2048)])
@example(policy=RekeyPolicy.fixed(), ops=[("budget", 0), ("reseed", bytes(SEED_SIZE)), ("budget", 3000), ("buf", 99)])
@example(policy=RekeyPolicy.fuzzed(1 << 20), ops=[("budget", 2048), ("u32", None), ("budget", 0), ("budget", 1)])
# Fast-path edges: budget-exact requests, words ending at or straddling the
# buffer's last byte and a 1-byte request; then a reseed between two requests
@example(policy=RekeyPolicy.fixed(8), ops=[("u32", None), ("u32", None), ("buf", 8)])
@example(policy=RekeyPolicy.fixed(1000), ops=[("buf", 976), ("u32", None), ("u32", None)])
@example(policy=RekeyPolicy.fixed(1000), ops=[("buf", 977), ("u32", None), ("buf", 9)])
@example(policy=RekeyPolicy.fixed(40), ops=[("buf", 1), ("u32", None), ("buf", 1)])
@example(policy=RekeyPolicy.fixed(40), ops=[("buf", 30), ("reseed", bytes(SEED_SIZE)), ("buf", 50)])
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_model(policy, ops):
    e, m = Engine(SEED, policy), Model(SEED, policy)
    _check_books(e, m)
    least = policy.fixed_interval if policy.mode == "fixed" else policy.rekey_base
    skipped = 0  # discarded bytes, which the model mostly steps over
    for kind, arg in ops:
        # Sizes are cut so that an example stays within about MAX_REKEYS
        # rekeys and MAX_OUT computed bytes: every interval is at least `least`.
        rekey_room = (MAX_REKEYS - len(m.events)) * least
        room = min(rekey_room, MAX_OUT - (m.total_out - skipped))
        if room <= 0:
            break
        if kind == "buf":
            n = min(arg, room)
            assert e.random_buf(n) == m.read(n)
        elif kind == "u32":
            assert e.random_u32() == struct.unpack("<I", m.read(4))[0]
        elif kind == "batch":
            n = min(arg, room // 4)
            assert e.random_u32_batch(n).tobytes() == m.read(4 * n)
        elif kind in ("discard", "budget"):
            n = min(arg if kind == "discard" else m.count + arg, rekey_room)
            e.discard(n)
            m.skip(n)
            skipped += n
        elif kind == "uniform":
            assert uniform(e, arg) == m.uniform(arg)
        else:
            e.reseed(StaticEntropy(arg))
            m.stir(arg)
        _check_books(e, m)
    assert e.random_buf(64) == m.read(64)
    _check_books(e, m)

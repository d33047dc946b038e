"""The engine against the reference model in model.py, past many rekeys.

The chunking and replay tests compare the engine with itself; this property
catches a fault that every chunking shares, such as a key taken from the
wrong offset, a misplaced fuzz word or an off-by-one erasure.
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
        st.tuples(st.just("buf"), st.integers(0, 3000)),
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


@given(policy=_POLICIES, ops=_OPS)
@example(policy=RekeyPolicy.fixed(1100), ops=[("buf", 3000), ("reseed", bytes(SEED_SIZE)), ("batch", 700)])
@example(policy=RekeyPolicy.fuzzed(600), ops=[("discard", 3000), ("u32", None), ("buf", 2048)])
@example(policy=RekeyPolicy.fixed(), ops=[("budget", 0), ("reseed", bytes(SEED_SIZE)), ("budget", 3000), ("buf", 99)])
@example(policy=RekeyPolicy.fuzzed(1 << 20), ops=[("budget", 2048), ("u32", None), ("budget", 0), ("budget", 1)])
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_model(policy, ops):
    e, m = Engine(SEED, policy), Model(SEED, policy)
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
        assert e.total_out == m.total_out
    assert e.events == m.events
    assert e.snapshot()[: SEED_SIZE + 8] == m.key + m.nonce + struct.pack("<Q", m.pos)
    assert e.random_buf(64) == m.read(64)

"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full-scale workloads (39.6M integers, 10k+ rekeys) make this the
slow part of the suite: about 13 s on a 2-core Xeon.
"""

import hashlib
import random

import numpy as np

from arc4rng import bench, sampler, stats
from arc4rng.chacha import chacha_block, quarter_round
from arc4rng.engine import BUF_SIZE, SEED_SIZE, Engine, RekeyPolicy

N_INTEGERS = 39_600_000
TOTAL_BYTES = 4 * N_INTEGERS  # 158,400,000
FIXED_INTERVAL = 1_600_000
REKEY_BASE = 1 << 20


def _seed(tag, i=0):
    return hashlib.blake2b(
        f"{tag}:{i}".encode(), digest_size=SEED_SIZE
    ).digest()


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def test_criterion_1_cipher_known_answers():
    assert quarter_round(0x11111111, 0x01020304, 0x9B8D6F43, 0x01234567) == (
        0xEA2A92F4, 0xCB1CF8CE, 0x4581472E, 0x5881C4BB,
    )
    block = chacha_block(
        bytes(range(32)), 1, bytes.fromhex("000000090000004a00000000")
    )
    assert block == bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4"
        "c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2"
        "b5129cd1de164eb9cbd083e8a2503c4e"
    )
    _ok(1, "RFC 8439 quarter-round and block vectors reproduced byte-exactly")


def test_criterion_2_fixed_policy_rekey_count():
    engine = Engine(_seed("c2"), RekeyPolicy.fixed(FIXED_INTERVAL))
    engine.random_u32_batch(N_INTEGERS)
    assert engine.total_out == TOTAL_BYTES
    assert engine.rekey_count == 100
    _ok(2, f"{N_INTEGERS} u32 under Fixed({FIXED_INTERVAL}): exactly "
           f"{engine.rekey_count} rekeys including the initial stir")


def test_criterion_3_fuzzed_policy_rekey_count():
    expected = 1 + TOTAL_BYTES / (1.5 * REKEY_BASE)  # ~101.7
    lo, hi = 0.92 * expected, 1.08 * expected
    counts = []
    for i in range(10):
        engine = Engine(_seed("c3", i), RekeyPolicy.fuzzed(REKEY_BASE))
        engine.random_u32_batch(N_INTEGERS)
        counts.append(engine.rekey_count)
    assert all(lo <= c <= hi for c in counts), counts
    assert all(77 <= c <= 153 for c in counts), counts
    _ok(3, f"fuzzed rekey counts {sorted(counts)} within +/-8% of "
           f"{expected:.1f} and hard bounds [77, 153]")


def test_criterion_4_interval_randomization():
    n_rekeys = 10_050
    engine = Engine(_seed("c4"), RekeyPolicy.fuzzed(REKEY_BASE))
    while engine.rekey_count < n_rekeys:
        engine.discard(engine.count)
    events = engine.events[:n_rekeys]
    assert all(
        REKEY_BASE <= e.interval_chosen <= 2 * REKEY_BASE - 1 for e in events
    )
    result = stats.interval_uniformity_test(events, REKEY_BASE, 16)
    assert 0.001 < result.p_value < 0.999, result
    _ok(4, f"{n_rekeys} fuzzed intervals all in [2^20, 2^21 - 1]; 16-bin "
           f"uniformity p = {result.p_value:.4f}")


def test_criterion_5_chi_square_quality():
    p_values = {}
    for policy in (RekeyPolicy.fixed(FIXED_INTERVAL), RekeyPolicy.fuzzed(REKEY_BASE)):
        engine = Engine(_seed("c5"), policy)
        values, _ = sampler.uniform_batch(engine, 100, N_INTEGERS)
        hist = stats.Histogram.categorical(values, 100)
        result = stats.chi_square_test(hist, [N_INTEGERS / 100] * 100)
        assert result.df == 99
        assert 0.001 < result.p_value < 0.999, (policy.describe(), result)
        p_values[policy.describe()] = result.p_value
    _ok(5, f"{N_INTEGERS} uniform(100) draws, df=99, p-values {p_values}")


def test_criterion_6_performance_parity():
    # Table arithmetic: 1.000 s vs 0.909 s must round to 9.1% / 10%.
    ref = bench.BenchReport(runs=[], mean_wall_s=1.000, mean_cpu_s=1.000)
    cand = bench.BenchReport(runs=[], mean_wall_s=0.909, mean_cpu_s=0.909)
    row = bench.compare(ref, cand)[0]
    assert round(row.reduction_pct, 1) == 9.1
    assert round(row.increase_pct) == 10

    # Mean wall-time parity over 10 runs per policy, interleaved so machine
    # drift hits both policies alike.
    reports = bench.compare_policies(
        N_INTEGERS,
        [_seed("c6", i) for i in range(10)],
        RekeyPolicy.fixed(FIXED_INTERVAL),
        RekeyPolicy.fuzzed(REKEY_BASE),
    )
    rows = bench.compare(*reports)
    wall = rows[0]
    assert abs(wall.reduction_pct) < 5.0, rows
    _ok(6, f"comparison arithmetic 9.1%/10% reproduced; mean wall diff "
           f"{wall.reduction_pct:+.2f}% (fixed {wall.reference_s:.3f}s vs "
           f"fuzzed {wall.candidate_s:.3f}s) within +/-5%")


def test_criterion_7_sampler_exactness():
    for width in (4, 8, 12):
        size = 1 << width
        for bound in range(2, size + 1):
            words = iter(range(size))
            results = []
            try:
                while True:
                    results.append(
                        sampler.uniform_generic(words.__next__, bound, width)
                    )
            except StopIteration:
                pass
            counts = np.bincount(results, minlength=bound)
            per_residue = size // bound
            assert len(results) == per_residue * bound, (width, bound)
            assert counts.min() == counts.max() == per_residue, (width, bound)
    _ok(7, "exhaustive enumeration at w in {4, 8, 12}: every upper bound has "
           "exactly equal residue counts over the accepted set")


class _SpyEngine(Engine):
    """Records the outgoing key at every rekey for erasure checks."""

    def __init__(self, *a, **kw):
        self.old_keys = []
        super().__init__(*a, **kw)

    def _rekey(self, entropy=None):
        self.old_keys.append(self._cipher.key)
        super()._rekey(entropy)


def test_criterion_8_key_erasure_and_chunking():
    engine = _SpyEngine(_seed("c8"), RekeyPolicy.fuzzed(base=2048))
    checked = 0
    while engine.rekey_count < 60:
        engine.random_buf(64)
        if engine.rekey_count > checked:
            checked = engine.rekey_count
            assert bytes(engine._buf[:SEED_SIZE]) == bytes(SEED_SIZE)
            snap = engine.snapshot()
            old_key = engine.old_keys[-1]
            for i in range(len(old_key) - 15):
                assert old_key[i : i + 16] not in snap
    assert checked >= 60

    rng = random.Random(0xC8)
    total = 4096
    policy = RekeyPolicy.fuzzed(base=512)
    reference = Engine(_seed("c8-chunk"), policy).random_buf(total)
    for _ in range(1000):
        e = Engine(_seed("c8-chunk"), policy)
        parts = []
        remaining = total
        while remaining:
            k = min(rng.randint(1, 300), remaining)
            parts.append(e.random_buf(k))
            remaining -= k
        assert b"".join(parts) == reference
        assert e.total_out == total
    _ok(8, f"key erasure verified at {checked} rekeys; chunking invariance "
           f"held for 1000 random partitions of {total} bytes")

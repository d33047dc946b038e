"""Self-test of the benchmark's gates: python3 perfbench/run.py --selftest

Runs two rounds of every workload at a tiny size and requires that they pass
every check. Then, for each workload, corrupts one output in every round and
requires that the checks reject it. Exits 0 only if both hold everywhere.
"""

from __future__ import annotations

import numpy as np

from arc4rng import RekeyPolicy

import workloads
from workloads import BoundedChisq, BulkU32, RekeyIntervals, Run, ScalarCalls

SEED = 1

TINY = {
    "bulk_u32": lambda: BulkU32(SEED, values=10 * 4096, request=4096, policy=RekeyPolicy.fixed(6000)),
    "bounded_chisq": lambda: BoundedChisq(SEED, draws=400, requests=10, policy=RekeyPolicy.fuzzed(4096)),
    "rekey_intervals": lambda: RekeyIntervals(SEED, rekeys=200, base=1024),
    "scalar_calls": lambda: ScalarCalls(SEED, requests=16, reseed_every=4, policy=RekeyPolicy.fuzzed(2048)),
}


def flip_byte(values):
    """One byte flipped in the middle of the last bulk request, outside the model windows."""
    values.view(np.uint8)[2 * len(values)] ^= 1


def bump_bin(running):
    running[len(running) // 2] += 1


def drop_event(events):
    del events[len(events) // 2]


def swap_results(results):
    i = next(i for i in range(len(results) - 1) if results[i] != results[i + 1])
    results[i], results[i + 1] = results[i + 1], results[i]


CORRUPTIONS = {
    "bulk_u32": ("one byte flipped in a bulk request", flip_byte),
    "bounded_chisq": ("one chi-square bin incremented", bump_bin),
    "rekey_intervals": ("one event dropped", drop_event),
    "scalar_calls": ("two scalar results swapped", swap_results),
}


def failures(wl):
    run = Run()
    run.round(wl)
    run.round(wl)
    wl.verify(run.gate)
    return run.gate.failures


def main():
    ok = True
    for name, make in TINY.items():
        clean = failures(make())
        ok &= not clean
        print(f"{name}: tiny run {'passes' if not clean else 'FAILS'}")
        for _, message in clean:
            print(f"  {message}")
        what, corrupt = CORRUPTIONS[name]
        wl = make()
        wl.tamper = corrupt
        caught = failures(wl)
        ok &= bool(caught)
        print(f"{name}: {what}: {'caught' if caught else 'NOT CAUGHT'}")
        for _, message in caught[:3]:
            print(f"  {message}")
        print(f"{name}: chunking mismatch at tiny size: {workloads.chunking_mismatch(make())}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1

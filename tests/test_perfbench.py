"""The benchmark's contract with the library: its self-test passes and its
tracer finds every entry point it wraps."""

import importlib
import os
import subprocess
import sys

from arc4rng import sampler
from arc4rng.engine import SEED_SIZE, Engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_tracer_wraps_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.ENTRY_POINTS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        e = Engine(bytes(SEED_SIZE))
        e.random_buf(5000)
        # uniform must look random_u32 up on the engine at call time, or the
        # words it draws escape the engine layer's numbers
        sampler.uniform(e, 2**31 + 1)
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.ENTRY_POINTS] == originals
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"engine.init", "engine.random_buf", "chacha.keystream_into"} <= recorded
    assert {"sampler.uniform", "engine.random_u32"} <= recorded

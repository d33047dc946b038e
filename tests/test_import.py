"""Import cost: scalar use of arc4rng, and the CLI up to a usage error,
load neither numpy nor dataclasses nor inspect."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter and prints one JSON object.
CHILD = """
import json, sys
import arc4rng
from arc4rng import Engine, RekeyPolicy, StaticEntropy, chi_square_p_value, uniform

seed = bytes(range(arc4rng.SEED_SIZE))
e = Engine(seed, RekeyPolicy.fixed(4096))
words = [e.random_u32() for _ in range(3)]
e.random_buf(5000)  # crosses a buffer refill and a rekey
uniform(e, 100)
rekeys = e.rekey_count
e.discard(5000)  # crosses a buffer refill and a rekey, through the sink
e.reseed(StaticEntropy(bytes(arc4rng.SEED_SIZE)))
chi_square_p_value(3.0, 2)
unresolved = [name for name in arc4rng.__all__ if not hasattr(arc4rng, name)]
scalar_loaded_numpy = "numpy" in sys.modules
scalar_loaded_dataclasses = "dataclasses" in sys.modules
scalar_loaded_inspect = "inspect" in sys.modules

batch = Engine(seed, RekeyPolicy.fixed(4096)).random_u32_batch(3)
print(json.dumps({
    "rekeys": rekeys,
    "unresolved": unresolved,
    "scalar_loaded_numpy": scalar_loaded_numpy,
    "scalar_loaded_dataclasses": scalar_loaded_dataclasses,
    "scalar_loaded_inspect": scalar_loaded_inspect,
    "batch_loaded_numpy": "numpy" in sys.modules,
    "words": words,
    "batch": batch.tolist(),
}))
"""


# The CLI parses its arguments and reports a usage error without numpy,
# dataclasses or inspect.
CLI_CHILD = """
import json, sys
from arc4rng import cli

cli.build_parser()
try:
    code = cli.main(["gen", "--count", "0", "--seed", "00" * 44])
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "loaded_numpy": "numpy" in sys.modules,
    "loaded_dataclasses": "dataclasses" in sys.modules,
    "loaded_inspect": "inspect" in sys.modules,
}))
"""


def _run_child(code):
    """The JSON object a fresh interpreter running code prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scalar_use_leaves_numpy_unloaded():
    result = _run_child(CHILD)
    assert result["rekeys"] == 2  # the initial stir and one at byte 4096
    assert result["unresolved"] == []
    assert not result["scalar_loaded_numpy"]
    assert not result["scalar_loaded_dataclasses"]
    assert not result["scalar_loaded_inspect"]
    assert result["batch_loaded_numpy"]
    assert result["batch"] == result["words"]


def test_cli_usage_error_leaves_numpy_unloaded():
    result = _run_child(CLI_CHILD)
    assert result["code"] == 2
    assert not result["loaded_numpy"]
    assert not result["loaded_dataclasses"]
    assert not result["loaded_inspect"]

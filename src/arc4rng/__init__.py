"""Userspace ChaCha20 CSPRNG with fast key erasure and a randomized rekey
interval, plus the benchmark and chi-square tooling used to evaluate it."""

from .chacha import (
    ChaCha20Stream,
    CounterExhaustedError,
    chacha_block,
    quarter_round,
)
from .engine import (
    BUF_SIZE,
    SEED_SIZE,
    Engine,
    OsEntropy,
    RekeyEvent,
    RekeyPolicy,
    StaticEntropy,
)
from .sampler import uniform, uniform_batch, uniform_generic
from .stats import (
    ChiSquareResult,
    Histogram,
    chi_square_p_value,
    chi_square_statistic,
    chi_square_test,
    interval_uniformity_test,
)

__version__ = "0.1.0"

__all__ = [
    "BUF_SIZE",
    "ChaCha20Stream",
    "ChiSquareResult",
    "CounterExhaustedError",
    "Engine",
    "Histogram",
    "OsEntropy",
    "RekeyEvent",
    "RekeyPolicy",
    "SEED_SIZE",
    "StaticEntropy",
    "chacha_block",
    "chi_square_p_value",
    "chi_square_statistic",
    "chi_square_test",
    "interval_uniformity_test",
    "quarter_round",
    "uniform",
    "uniform_batch",
    "uniform_generic",
]

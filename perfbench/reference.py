"""Independent references for the benchmark's output checks.

Nothing here goes through `ChaCha20Stream` or `Engine`: the engine's output
before its first rekey comes from the pure-Python ChaCha20 block function,
which the test suite pins to the RFC 8439 vectors, and the chi-square
statistics are recomputed with numpy and compared with scipy.
"""

from __future__ import annotations

import numpy as np

from arc4rng.chacha import BLOCK_SIZE, KEY_SIZE, chacha_block

SEED_SIZE = 44
STIR_SIZE = 1024  # the engine's buffer: one stir consumes this much keystream
P_VALUE_TOLERANCE = 1e-9


def keystream(key, nonce, start, n):
    """Bytes [start, start + n) of the ChaCha20 stream, one block at a time."""
    first = start // BLOCK_SIZE
    last = -(-(start + n) // BLOCK_SIZE)
    data = b"".join(chacha_block(key, c, nonce) for c in range(first, last))
    skip = start - first * BLOCK_SIZE
    return data[skip : skip + n]


def _first_key(seed):
    """Key and nonce the initial stir installs: bytes 0..43 of the seed's stream."""
    stir = keystream(seed[:KEY_SIZE], seed[KEY_SIZE:SEED_SIZE], 0, STIR_SIZE)
    return stir, stir[:KEY_SIZE], stir[KEY_SIZE:SEED_SIZE]


def engine_prefix(seed, policy, start, n):
    """Output bytes [start, start + n) of Engine(seed, policy).

    Valid only before the first rekey. The output starts with bytes 44..1023
    of the seed's stream (the stir buffer after key erasure), then continues
    with the first installed key's stream from block 0, past the 4-byte fuzz
    word when the policy is fuzzed.
    """
    stir, key, nonce = _first_key(seed)
    lead = stir[SEED_SIZE:]
    out = lead[start : start + n]
    rest = n - len(out)
    if rest:
        skip = 4 if policy.mode == "fuzzed" else 0
        out += keystream(key, nonce, skip + max(start - len(lead), 0), rest)
    return out


def first_interval(seed, policy):
    """Byte budget the initial stir installs."""
    if policy.mode == "fixed":
        return policy.fixed_interval
    _, key, nonce = _first_key(seed)
    fuzz = int.from_bytes(keystream(key, nonce, 0, 4), "little")
    return policy.rekey_base + fuzz % policy.rekey_base


def chi_square(counts, expected):
    """Sum of (O - E)^2 / E over the bins, summed left to right.

    The terms come from numpy; the builtin sum adds them in the library's
    order. With E a dyadic rational (every shape the benchmark uses) each
    term is computed exactly, so the result must equal the library's bit
    for bit.
    """
    obs = np.asarray(counts, dtype=np.float64)
    return sum(((obs - expected) ** 2 / expected).tolist())


def p_value_differs(statistic, df, p_value):
    """True when p_value is further than the tolerance from scipy's chi2.sf."""
    from scipy.stats import chi2

    return not abs(p_value - float(chi2.sf(statistic, df))) <= P_VALUE_TOLERANCE

"""arc4random-style RNG engine: buffered keystream with fast key erasure.

The engine keeps a 1024-byte keystream buffer. Every `count` output bytes it
rekeys: the buffer is refilled from the current cipher, its first 44 bytes
become the next key+nonce and are immediately zeroed, so no copy of the new
key exists outside the cipher context and earlier output cannot be recomputed
from later state.

The rekey interval is set by a pluggable policy: a fixed byte budget
(1,600,000 by default), or a randomized one drawn from the freshly installed
key as REKEY_BASE + (fuzz % REKEY_BASE), making the interval unpredictable.
"""

from __future__ import annotations

import operator
import os
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .chacha import BLOCK_SIZE, KEY_SIZE, MAX_BLOCKS, NONCE_SIZE, PIECE_SIZE, ChaCha20Stream

SEED_SIZE = KEY_SIZE + NONCE_SIZE  # 44
BUF_SIZE = 1024
FUZZ_SIZE = 4  # the fuzzed policy's word, drawn from each new key's stream

DEFAULT_FIXED_INTERVAL = 1_600_000
DEFAULT_REKEY_BASE = 1 << 20

# The largest byte budget one key can serve without exhausting its block
# counter. Under a key the cipher yields the fuzz word, whole BUF_SIZE refills
# for the output beyond the BUF_SIZE - SEED_SIZE bytes already buffered at the
# rekey, and the next rekey's BUF_SIZE block.
MAX_BUDGET = (BUF_SIZE - SEED_SIZE) + (
    (MAX_BLOCKS * BLOCK_SIZE - FUZZ_SIZE - BUF_SIZE) // BUF_SIZE * BUF_SIZE
)

_unpack_u32 = struct.Struct("<I").unpack_from


def checked_int(value, name, lo=0, hi=None):
    """value as an int in lo..hi (numpy integers too; no upper limit for
    hi=None), else ValueError naming the parameter and its range."""
    try:
        number = operator.index(value)
    except TypeError:
        number = lo - 1  # not an integer: fails the range check
    if lo <= number and (hi is None or number <= hi):
        return number
    raise ValueError(f"{name} must be an integer in {lo}..{'' if hi is None else hi}, got {value!r}")


class EntropyError(Exception):
    """A seed source failed to deliver SEED_SIZE bytes."""


@dataclass(frozen=True)
class RekeyPolicy:
    """Chooses the byte budget installed at each rekey."""

    mode: str  # "fixed" | "fuzzed"
    fixed_interval: int = DEFAULT_FIXED_INTERVAL
    rekey_base: int = DEFAULT_REKEY_BASE

    def __post_init__(self):
        if self.mode not in ("fixed", "fuzzed"):
            raise ValueError(f"unknown policy mode: {self.mode!r}")
        # numpy integers are stored as ints
        for name, hi in (("fixed_interval", MAX_BUDGET), ("rekey_base", MAX_BUDGET // 2)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, 1, hi))

    @classmethod
    def fixed(cls, interval=DEFAULT_FIXED_INTERVAL):
        return cls("fixed", fixed_interval=interval)

    @classmethod
    def fuzzed(cls, base=DEFAULT_REKEY_BASE):
        return cls("fuzzed", rekey_base=base)

    def describe(self):
        if self.mode == "fixed":
            return f"fixed({self.fixed_interval})"
        return f"fuzzed(base={self.rekey_base})"


@dataclass(frozen=True)
class RekeyEvent:
    """One rekey: which output byte it happened at and the interval chosen."""

    ordinal: int
    output_offset: int
    interval_chosen: int


EVENTS_CSV_HEADER = "ordinal,output_offset,interval_chosen"


def events_to_csv(events):
    lines = [EVENTS_CSV_HEADER]
    lines.extend(
        f"{e.ordinal},{e.output_offset},{e.interval_chosen}" for e in events
    )
    return "\n".join(lines) + "\n"


class OsEntropy:
    """Seed source backed by the platform CSPRNG."""

    def read(self):
        return os.urandom(SEED_SIZE)


class StaticEntropy:
    """Deterministic seed source for tests; yields the same bytes every time."""

    def __init__(self, data):
        self._data = bytes(data)

    def read(self):
        return self._data


def _read_seed(source):
    """SEED_SIZE bytes from a seed source, or EntropyError."""
    seed = source.read()
    if len(seed) != SEED_SIZE:
        raise EntropyError(f"seed source yielded {len(seed)} bytes, need {SEED_SIZE}")
    return bytes(seed)  # a str raises TypeError here, before any state moves


def parse_seed_hex(seed_hex):
    """Parse an 88-hex-character string into a 44-byte seed."""
    try:
        seed = bytes.fromhex(seed_hex)
    except ValueError as exc:
        raise ValueError(f"seed is not valid hex: {exc}") from None
    if len(seed) != SEED_SIZE:
        raise ValueError(
            f"seed must be {2 * SEED_SIZE} hex characters ({SEED_SIZE} bytes), "
            f"got {len(seed)} bytes"
        )
    return seed


class Engine:
    """The RNG state machine (arc4random semantics, explicit seeding).

    The output stream and the rekey-event log are deterministic functions of
    (seed, policy); request chunking changes neither. This holds because the
    cipher only ever advances by whole BUF_SIZE refills (plus the fuzz word
    after a rekey), whichever path serves a request, so each rekey takes its
    key from the same stream position.

    `events` always holds one RekeyEvent per rekey, the initial stir
    included; `rekey_count` is its length. `count` is the budget left and
    `total_out` the output bytes served so far.

    An engine is not thread-safe and has one owner at a time. A forked child
    rekeys every engine it inherits from OS entropy, as reseed() does, so a
    seeded engine is not reproducible across a fork.
    """

    _live = weakref.WeakSet()  # every live engine, rekeyed in a forked child

    def __init__(self, seed, policy=None):
        if len(seed) != SEED_SIZE:
            raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
        self.policy = policy if policy is not None else RekeyPolicy.fuzzed()
        self._cipher = ChaCha20Stream(seed[:KEY_SIZE], seed[KEY_SIZE:])
        self._buf = memoryview(bytearray(BUF_SIZE))  # slices without copying
        self._pos = BUF_SIZE  # buffer starts empty
        self.count = 0
        self._budget_end = 0  # output offset where the current budget runs out
        self.events = []
        self._rekey()  # initial stir: the seed never keys output directly
        Engine._live.add(self)

    @classmethod
    def from_source(cls, source, policy=None):
        return cls(_read_seed(source), policy)

    @property
    def rekey_count(self):
        return len(self.events)

    @property
    def total_out(self):
        return self._budget_end - self.count

    def _rekey(self, entropy=None):
        """Install the next key from a fresh BUF_SIZE keystream block, with
        entropy (SEED_SIZE bytes) XORed into its first SEED_SIZE bytes."""
        self._cipher.keystream_into(self._buf)
        if entropy is not None:
            self._buf[:SEED_SIZE] = bytes(a ^ b for a, b in zip(self._buf, entropy))
        self._cipher = ChaCha20Stream(
            bytes(self._buf[:KEY_SIZE]),
            bytes(self._buf[KEY_SIZE:SEED_SIZE]),
        )
        self._buf[:SEED_SIZE] = bytes(SEED_SIZE)  # key erasure
        self._pos = SEED_SIZE
        offset = self.total_out
        self.count = self._next_interval()
        self._budget_end = offset + self.count
        self.events.append(RekeyEvent(len(self.events), offset, self.count))

    def _next_interval(self):
        if self.policy.mode == "fixed":
            return self.policy.fixed_interval
        # Fuzz word drawn from the freshly installed key's stream.
        fuzz = _unpack_u32(self._cipher.xor(bytes(FUZZ_SIZE)))[0]
        return self.policy.rekey_base + fuzz % self.policy.rekey_base

    def _fill(self, view):
        """Fill view with output, rekeying at every budget exhaustion.

        Bytes come from the buffer first. Once it is drained, whole multiples
        of BUF_SIZE go straight from the keystream and the remainder through a
        buffer refill, so the cipher advances exactly as if every byte had
        been staged through the buffer. The rekey fires at the exact output
        byte where the budget hits zero, even mid-request, so the output
        stream and the event log depend only on (seed, policy), never on how
        requests are chunked.
        """
        pos = 0
        n = len(view)
        while pos < n:
            take = min(n - pos, self.count)
            if self._pos < BUF_SIZE:
                take = min(take, BUF_SIZE - self._pos)
                view[pos : pos + take] = self._buf[self._pos : self._pos + take]
                self._pos += take
            elif take >= BUF_SIZE:
                take -= take % BUF_SIZE
                self._cipher.keystream_into(view[pos : pos + take])
            else:
                self._cipher.keystream_into(self._buf)
                self._pos = 0
                continue
            pos += take
            self.count -= take
            if self.count == 0:
                self._rekey()

    def random_buf(self, n):
        """Return n random bytes, rekeying whenever the byte budget is spent."""
        pos = self._pos
        try:
            end = pos + n
            if end <= BUF_SIZE and 0 < n < self.count:
                # Fast path: the request fits the buffer and leaves budget over.
                out = self._buf[pos:end].tobytes()
                n = len(out)  # an int even when the n given is a numpy integer
                self._pos = pos + n
                self.count -= n
                return out
        except TypeError:  # a non-integer n: checked_int below says so
            pass
        n = checked_int(n, "n")
        out = bytearray(n)
        self._fill(memoryview(out))
        return bytes(out)

    def random_u32(self):
        """One uniformly distributed 32-bit value; never fails."""
        pos = self._pos
        if pos <= BUF_SIZE - 4 and 4 < self.count:
            # Fast path: same bytes, same order as random_buf(4).
            self._pos = pos + 4
            self.count -= 4
            return _unpack_u32(self._buf, pos)[0]
        return _unpack_u32(self.random_buf(4))[0]

    def random_u32_batch(self, n):
        """A new array of n little-endian u32s; identical to n random_u32() calls."""
        out = np.empty(checked_int(n, "n"), dtype="<u4")
        self._fill(memoryview(out).cast("B"))
        return out

    def discard(self, n):
        """Consume n output bytes without materializing them all at once
        (same accounting as one random_buf(n) call)."""
        n = checked_int(n, "n")
        view = memoryview(np.empty(min(n, PIECE_SIZE), dtype=np.uint8))
        while n:
            take = min(n, len(view))
            self._fill(view[:take])
            n -= take

    def reseed(self, source):
        """Force a rekey with fresh entropy mixed in (OpenBSD's _rs_rekey).

        The next key is a fresh keystream block XOR the entropy, so the
        current cipher's counter keeps moving forward and no output repeats,
        whatever the entropy. On source failure the error propagates and the
        engine keeps working with its current key.
        """
        self._rekey(_read_seed(source))

    def snapshot(self):
        """Serialize the secret-bearing state (for key-erasure checks): the
        cipher's key, nonce and keystream position, then the buffer."""
        return (
            self._cipher.key
            + self._cipher.nonce
            + struct.pack("<Q", self._cipher.position)
            + self._buf.tobytes()
        )

    @classmethod
    def _rekey_all_after_fork(cls):
        for engine in cls._live:
            engine._rekey(os.urandom(SEED_SIZE))


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere there is no fork
    os.register_at_fork(after_in_child=Engine._rekey_all_after_fork)

"""arc4random-style RNG engine: buffered keystream with fast key erasure.

The engine keeps a 1024-byte keystream buffer. Every `count` output bytes it
rekeys: the buffer is refilled from the current cipher, its first 44 bytes
become the next key+nonce and are immediately zeroed, so the engine's state
holds no copy of the new key outside the cipher context and output served
before a rekey cannot be recomputed from the state after it.

That is as far as erasure goes in CPython. Copies of each key live on in
immutable objects that are freed without being zeroed, until their memory is
reused: ChaCha20Stream.key and .nonce, _rekey's seed int and bytes and their
slices, and the ChaCha20 algorithm object that `cryptography` builds.

Keys are erased only at a rekey, so the backtracking window is the rekey
budget: the current key and nonce (held by the cipher, and in snapshot())
recompute every byte served since the last rekey except the first
BUF_SIZE - SEED_SIZE, which the previous key's buffer supplied. OpenBSD's
arc4random rekeys at every buffer refill instead, a window under 1 KiB.

The rekey interval is set by a pluggable policy: a fixed byte budget
(1,600,000 by default), or a randomized one drawn from the freshly installed
key as REKEY_BASE + (fuzz % REKEY_BASE), making the interval unpredictable.
Fuzz words below 2^32 mod REKEY_BASE are redrawn, as arc4random_uniform does,
so the interval is uniform over [REKEY_BASE, 2 * REKEY_BASE).
"""

import functools
import os
import struct
import weakref
from collections import namedtuple

from .chacha import BLOCK_SIZE, KEY_SIZE, MAX_BLOCKS, NONCE_SIZE, PIECE_SIZE, ChaCha20Stream, checked_bytes, checked_int
from .sampler import uniform_generic

SEED_SIZE = KEY_SIZE + NONCE_SIZE  # 44
BUF_SIZE = 1024
FUZZ_SIZE = 4  # the fuzzed policy's words, drawn from each new key's stream

DEFAULT_FIXED_INTERVAL = 1_600_000
DEFAULT_REKEY_BASE = 1 << 20

# The largest byte budget one key can serve without exhausting its block
# counter. Under a key the cipher yields one fuzz word, whole BUF_SIZE refills
# for the output beyond the BUF_SIZE - SEED_SIZE bytes already buffered at the
# rekey, and the next rekey's BUF_SIZE block. A fuzzed key may yield more fuzz
# words, but its budget is below 2^33, far under this limit.
MAX_BUDGET = (BUF_SIZE - SEED_SIZE) + (
    (MAX_BLOCKS * BLOCK_SIZE - FUZZ_SIZE - BUF_SIZE) // BUF_SIZE * BUF_SIZE
)

_unpack_u32 = struct.Struct("<I").unpack_from
_LAST_U32 = BUF_SIZE - 4  # the last buffer offset random_u32's fast path reads
# Write-only scratch for discarded keystream, private, made on the first discard
_sink = functools.cache(lambda: memoryview(bytearray(PIECE_SIZE)))


class RekeyPolicy(namedtuple("RekeyPolicy", "mode fixed_interval rekey_base")):
    """Chooses the byte budget installed at each rekey."""

    __slots__ = ()

    def __new__(cls, mode, fixed_interval=DEFAULT_FIXED_INTERVAL, rekey_base=DEFAULT_REKEY_BASE):
        if mode not in ("fixed", "fuzzed"):
            raise ValueError(f"unknown policy mode: {mode!r}")
        # numpy integers are stored as ints
        fixed_interval = checked_int(fixed_interval, "fixed_interval", 1, MAX_BUDGET)
        # 32-bit fuzz words spread uniformly over 2..2^32 values (1 draws none)
        rekey_base = checked_int(rekey_base, "rekey_base", 2, 1 << 32)
        return super().__new__(cls, mode, fixed_interval, rekey_base)

    @classmethod
    def _make(cls, iterable):
        """Validated like the constructor; _replace goes through here too."""
        return cls(*iterable)

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


RekeyEvent = namedtuple("RekeyEvent", "ordinal output_offset interval_chosen")
RekeyEvent.__doc__ = "One rekey: which output byte it happened at and the interval chosen."


EVENTS_CSV_HEADER = ",".join(RekeyEvent._fields)


def events_to_csv(events):
    lines = [EVENTS_CSV_HEADER]
    lines.extend(",".join(map(str, e)) for e in events)
    return "\n".join(lines) + "\n"


class OsEntropy:
    """Seed source backed by the platform CSPRNG."""

    def read(self):
        return os.urandom(SEED_SIZE)


class StaticEntropy:
    """Deterministic seed source for tests; yields the same bytes every time."""

    def __init__(self, data):
        self._data = memoryview(data).cast("B").tobytes()  # a buffer of any size: 44 raises, not bytes(44)

    def read(self):
        return self._data


class Engine:
    """The RNG state machine (arc4random semantics, explicit seeding).

    The output stream and the rekey-event log are deterministic functions of
    (seed, policy); request chunking changes neither. This holds because the
    cipher only ever advances by whole BUF_SIZE refills (plus the fuzz words
    after a rekey), whichever path serves a request, so each rekey takes its
    key from the same stream position.

    `events` always holds one RekeyEvent per rekey, the initial stir
    included; `rekey_count` is its length. `count` is the budget left and
    `total_out` the bytes taken from the output stream: what calls returned,
    plus what a call that raised had taken, which is never served. That count
    is not rolled back, because bytes taken before a rekey inside the raising
    call are under a key already erased, and serving them again would replay
    them.

    The seed is SEED_SIZE bytes, OsEntropy().read() for an unpredictable one.
    An engine is not thread-safe and has one owner at a time. In a forked
    child every engine it inherits has spent its budget, as OpenBSD's
    _rs_forkdetect leaves it: the child's first rekey, whichever call makes
    it, mixes OsEntropy in as well as any reseed entropy, and serves nothing
    of the block the parent serves next. If that read fails, the call raises,
    and so does every call that would serve output until a rekey succeeds. So
    a seeded engine is not reproducible across a fork.
    """

    _live = weakref.WeakSet()  # every live engine, spent in a forked child
    _forked = False  # set in a forked child until its first rekey succeeds

    def __init__(self, seed, policy=None):
        seed = checked_bytes(seed, "seed", SEED_SIZE)
        if policy is None:
            policy = RekeyPolicy.fuzzed()
        elif not isinstance(policy, RekeyPolicy):
            raise TypeError(f"policy must be a RekeyPolicy or None, got {policy!r}")
        self.policy = policy
        self._cipher = ChaCha20Stream(seed[:KEY_SIZE], seed[KEY_SIZE:])
        self._buf = memoryview(bytearray(BUF_SIZE))  # slices without copying
        self.count = 0
        self._budget_end = 0  # output offset where the current budget runs out
        self.events = []
        self._rekey()  # initial stir: the seed never keys output directly
        Engine._live.add(self)

    @property
    def rekey_count(self):
        return len(self.events)

    @property
    def total_out(self):
        return self._budget_end - self.count

    def _rekey(self, entropy=None):
        """Install the next key, as OpenBSD's _rs_rekey does: the first SEED_SIZE
        bytes of a fresh BUF_SIZE keystream block, XOR entropy (None: zeros).
        Every key comes this way: the initial stir, budget rekeys and
        reseed(). A forked child's first rekey mixes in OsEntropy too, and
        serves from the new key only.

        The buffer counts as empty until the new key and its budget are in
        place, so if anything raises on the way the engine serves nothing it
        drew here: it keeps its current key, at most BUF_SIZE bytes further on."""
        self._pos = BUF_SIZE
        mix = int.from_bytes(entropy or b"", "little")
        forked = self._forked
        if forked:
            mix ^= int.from_bytes(OsEntropy().read(), "little")
        self._cipher.keystream_into(self._buf)
        seed = int.from_bytes(self._buf[:SEED_SIZE], "little") ^ mix
        seed = seed.to_bytes(SEED_SIZE, "little")
        self._buf[:SEED_SIZE] = bytes(SEED_SIZE)  # key erasure
        cipher = ChaCha20Stream(seed[:KEY_SIZE], seed[KEY_SIZE:])
        count = self._next_interval(cipher)
        offset = self.total_out
        self._cipher = cipher
        # The parent serves the rest of this block at its next refill, so a
        # forked child leaves it unserved, as OpenBSD's _rs_stir drops its buffer.
        self._pos = BUF_SIZE if forked else SEED_SIZE
        self.count = count
        self._budget_end = offset + count
        self._forked = False
        self.events.append(RekeyEvent(len(self.events), offset, count))

    def _next_interval(self, cipher):
        if self.policy.mode == "fixed":
            return self.policy.fixed_interval
        # Fuzz words from the new key's stream, drawn as arc4random_uniform does
        base = self.policy.rekey_base
        return base + uniform_generic(lambda: _unpack_u32(cipher.xor(bytes(FUZZ_SIZE)))[0], base)

    def _fill(self, view, n=None):
        """Fill view with output (or, view None, discard n bytes), rekeying at
        every budget exhaustion.

        Bytes come from the buffer first. Once it is drained, whole multiples
        of BUF_SIZE go straight from the keystream into the view (or the sink,
        when discarding), PIECE_SIZE at most per pass, and the remainder
        through a buffer refill, so the cipher advances exactly as if every
        byte had been staged through the buffer. The rekey fires at the exact
        output byte where the budget hits zero, even mid-request, so the
        output stream and the event log depend only on (seed, policy), never
        on request chunking.
        """
        n = n if view is None else len(view)
        pos = 0
        while pos < n:
            take = min(n - pos, self.count)
            if self._pos < BUF_SIZE:
                take = min(take, BUF_SIZE - self._pos)
                if view is not None:
                    view[pos : pos + take] = self._buf[self._pos : self._pos + take]
                self._pos += take
            elif take >= BUF_SIZE:
                take = min(take - take % BUF_SIZE, PIECE_SIZE)
                self._cipher.keystream_into(_sink()[:take] if view is None else view[pos : pos + take])
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
        if type(n) is int and 0 < n < self.count and pos + n <= BUF_SIZE:
            # Fast path: the request fits the buffer and leaves budget over.
            self._pos = pos + n
            self.count -= n
            return self._buf[pos : pos + n].tobytes()
        out = bytearray(checked_int(n, "n"))
        self._fill(memoryview(out))
        return bytes(out)

    def random_u32(self):
        """One uniformly distributed 32-bit value. It raises only what a buffer
        refill or a rekey raises: OSError in a forked child whose OsEntropy
        read fails, and any error inside a refill or a budget rekey, such as
        MemoryError."""
        pos = self._pos
        if pos <= _LAST_U32 and 4 < self.count:
            # Fast path: same bytes, same order as random_buf(4).
            self._pos = pos + 4
            self.count -= 4
            return _unpack_u32(self._buf, pos)[0]
        return _unpack_u32(self.random_buf(4))[0]

    def random_u32_batch(self, n):
        """A new array of n little-endian u32s; identical to n random_u32() calls."""
        import numpy as np  # here, not at import: scalar callers never load it

        out = np.empty(checked_int(n, "n"), dtype="<u4")
        self._fill(memoryview(out).cast("B"))
        return out

    def discard(self, n):
        """Consume n output bytes without keeping them: same stream, events
        and accounting as random_buf(n), in at most PIECE_SIZE of memory."""
        self._fill(None, checked_int(n, "n"))

    def reseed(self, source):
        """Force a rekey with fresh entropy mixed in (OpenBSD's _rs_rekey).

        The next key is a fresh keystream block XOR the entropy, so the
        current cipher's counter keeps moving forward and no output repeats,
        whatever the entropy. The source's bytes are sized as a seed is: a
        wrong size raises ValueError. On that, the source's own error or a
        failure inside the rekey the engine keeps working with its current key.
        """
        self._rekey(checked_bytes(source.read(), "seed", SEED_SIZE))

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
    def _spend_all_after_fork(cls):
        """End every budget at its current output offset, so each engine's
        next call rekeys through _fill, with fresh entropy. Nothing here can
        fail, so nothing is lost to the at-fork hook's "Exception ignored"."""
        for engine in cls._live:
            engine._budget_end, engine.count = engine.total_out, 0
            engine._forked = True


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere there is no fork
    os.register_at_fork(after_in_child=Engine._spend_all_after_fork)

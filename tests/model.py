"""A reference model of the engine's output, written from the spec alone.

Nothing here goes through `Engine` or `ChaCha20Stream`. Keystream bytes come
from the pure-Python `chacha_block`, which the suite pins to the RFC 8439
vectors, one cached block at a time, read at byte offsets:

- a stir takes the next 1,024 bytes of the current key's stream; its first
  44 bytes, XORed with the entropy on a reseed, are the next key and nonce,
  and output continues with its other 980 bytes;
- under the fuzzed policy the new key's stream first yields 4-byte words until
  one is at least 2^32 mod base (arc4random_uniform's rule), and the budget
  is base + word % base; under the fixed policy it is the fixed interval;
- once the stir's bytes are served, output comes from the key's stream in
  1,024-byte refills (`skip` steps over whole refills that a discard drops,
  so the model follows the default budgets of a million bytes and more);
- the next stir fires at the exact output byte where the budget runs out.
"""

import functools

from arc4rng.chacha import BLOCK_SIZE, chacha_block

STIR_SIZE = 1024
KEY_SIZE, SEED_SIZE = 32, 44

block = functools.lru_cache(maxsize=1 << 16)(chacha_block)  # shared across examples


def u32(data):
    return int.from_bytes(data, "little")


class Model:
    def __init__(self, seed, policy):
        self.policy = policy
        self.key, self.nonce, self.pos = seed[:KEY_SIZE], seed[KEY_SIZE:], 0
        self.total_out = 0
        self.events = []
        self.stir()

    def keystream(self, n):
        """The next n bytes of the current key's stream."""
        first, end = self.pos // BLOCK_SIZE, -(-(self.pos + n) // BLOCK_SIZE)
        data = b"".join(block(self.key, c, self.nonce) for c in range(first, end))
        skip = self.pos - first * BLOCK_SIZE
        self.pos += n
        return data[skip : skip + n]

    def stir(self, entropy=bytes(SEED_SIZE)):
        stir = self.keystream(STIR_SIZE)
        seed = bytes(a ^ b for a, b in zip(stir, entropy))
        self.key, self.nonce, self.pos = seed[:KEY_SIZE], seed[KEY_SIZE:], 0
        self.buf = stir[SEED_SIZE:]
        if self.policy.mode == "fixed":
            self.count = self.policy.fixed_interval
        else:
            base = self.policy.rekey_base
            fuzz = -1
            while fuzz < (1 << 32) % base:
                fuzz = u32(self.keystream(4))
            self.count = base + fuzz % base
        self.events.append((len(self.events), self.total_out, self.count))

    def read(self, n):
        out = b""
        while len(out) < n:
            if not self.buf:
                self.buf = self.keystream(STIR_SIZE)
            take = min(n - len(out), self.count, len(self.buf))
            out, self.buf = out + self.buf[:take], self.buf[take:]
            self.count -= take
            self.total_out += take
            if self.count == 0:
                self.stir()
        return out

    def skip(self, n):
        """Consume n output bytes as read(n) does, stepping over the whole
        1,024-byte refills that read would compute only to throw away."""
        while n:
            take = min(n, self.count)
            if self.buf or take < STIR_SIZE:
                take = min(take, len(self.buf) or take)
                self.read(take)
            else:
                take -= take % STIR_SIZE
                self.pos += take
                self.count -= take
                self.total_out += take
                if self.count == 0:
                    self.stir()
            n -= take

    def uniform(self, bound):
        while bound > 1:
            r = u32(self.read(4))
            if r >= (1 << 32) % bound:
                return r % bound
        return 0

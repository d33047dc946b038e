"""ChaCha20 stream cipher, IETF variant (RFC 8439: 32-bit counter, 96-bit nonce).

`quarter_round` and `chacha_block` are a plain-Python reference of the block
function. `ChaCha20Stream` is the keystream context used by the RNG engine: a
byte-position count over one encryptor from the `cryptography` package
(OpenSSL), which uses the same state layout and keeps the partial block
itself. It is cross-checked against the reference block function in the test
suite.
"""

import operator
import struct

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20  # bound once; module lookups are slow

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64
MAX_BLOCKS = 1 << 32  # 32-bit block counter

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def checked_int(value, name, lo=0, hi=None):
    """value as an int in lo..hi (numpy integers too, bools not; no upper
    limit for hi=None), else ValueError naming the parameter and its range."""
    try:
        number = lo - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = lo - 1  # a bool or a non-integer fails the range check
    if lo <= number and (hi is None or number <= hi):
        return number
    raise ValueError(f"{name} must be an integer in {lo}..{'' if hi is None else hi}, got {value!r}")


def checked_bytes(value, name, size):
    """value's bytes if it is a C-contiguous buffer of size bytes (bytes, not
    items): ValueError naming the parameter for another size, TypeError for a
    non-buffer or a strided one."""
    data = memoryview(value).cast("B")
    if len(data) != size:
        raise ValueError(f"{name} must be {size} bytes, got {len(data)}")
    return data.tobytes()


class CounterExhaustedError(Exception):
    """The 32-bit block counter would wrap; the caller must rekey instead."""


PIECE_SIZE = 1 << 20  # the most keystream bytes one update_into call makes
_ZEROS = memoryview(bytes(PIECE_SIZE))  # shared all-zero plaintext


def _rotl32(v, n):
    return ((v << n) & _MASK32) | (v >> (32 - n))


def quarter_round(a, b, c, d):
    """One ChaCha quarter round on four 32-bit words; returns the new words."""
    a = (a + b) & _MASK32
    d = _rotl32(d ^ a, 16)
    c = (c + d) & _MASK32
    b = _rotl32(b ^ c, 12)
    a = (a + b) & _MASK32
    d = _rotl32(d ^ a, 8)
    c = (c + d) & _MASK32
    b = _rotl32(b ^ c, 7)
    return a, b, c, d


def words_to_bytes(words):
    """Serialize sixteen 32-bit words as 64 little-endian bytes."""
    return struct.pack("<16I", *words)


def initial_state(key, counter, nonce):
    """The 16-word ChaCha state matrix: constants, key, counter, nonce."""
    key = checked_bytes(key, "key", KEY_SIZE)
    nonce = checked_bytes(nonce, "nonce", NONCE_SIZE)
    counter = checked_int(counter, "counter", 0, MAX_BLOCKS - 1)
    return list(_CONSTANTS) + list(struct.unpack("<8I", key)) + [counter] + list(struct.unpack("<3I", nonce))


def chacha_block(key, counter, nonce):
    """The ChaCha20 block function: 64 keystream bytes for one counter value."""
    init = initial_state(key, counter, nonce)
    s = list(init)
    for _ in range(10):
        # column round
        s[0], s[4], s[8], s[12] = quarter_round(s[0], s[4], s[8], s[12])
        s[1], s[5], s[9], s[13] = quarter_round(s[1], s[5], s[9], s[13])
        s[2], s[6], s[10], s[14] = quarter_round(s[2], s[6], s[10], s[14])
        s[3], s[7], s[11], s[15] = quarter_round(s[3], s[7], s[11], s[15])
        # diagonal round
        s[0], s[5], s[10], s[15] = quarter_round(s[0], s[5], s[10], s[15])
        s[1], s[6], s[11], s[12] = quarter_round(s[1], s[6], s[11], s[12])
        s[2], s[7], s[8], s[13] = quarter_round(s[2], s[7], s[8], s[13])
        s[3], s[4], s[9], s[14] = quarter_round(s[3], s[4], s[9], s[14])
    return words_to_bytes((a + b) & _MASK32 for a, b in zip(s, init))


class ChaCha20Stream:
    """A keystream context owned by a single caller.

    One OpenSSL encryptor holds the cipher state, including the unused tail
    of the current block: its output is byte-granular, so any sequence of
    request sizes consumes the keystream without gaps or repeats. `position`
    counts the keystream bytes consumed under the key, starting at
    counter * BLOCK_SIZE. Going past 2^32 blocks under one key raises
    CounterExhaustedError rather than wrapping.

    Every bytes parameter (key, nonce, xor's data, keystream_into's view) is
    any C-contiguous buffer, counted in bytes; anything else raises TypeError
    before position moves.
    """

    def __init__(self, key, nonce, counter=0):
        self.key = checked_bytes(key, "key", KEY_SIZE)
        self.nonce = checked_bytes(nonce, "nonce", NONCE_SIZE)
        counter = checked_int(counter, "counter", 0, MAX_BLOCKS - 1)
        self.position = counter * BLOCK_SIZE
        iv = struct.pack("<I", counter) + self.nonce
        self._encryptor = Cipher(ChaCha20(self.key, iv), mode=None).encryptor()

    @property
    def block_counter(self):
        """Blocks the keystream has entered, a partly consumed one included."""
        return -(-self.position // BLOCK_SIZE)

    def _check(self, n):
        """Raise unless n more keystream bytes fit under the key."""
        if self.position + n > MAX_BLOCKS * BLOCK_SIZE:
            raise CounterExhaustedError(
                "32-bit ChaCha block counter exhausted; rekey required"
            )

    def keystream(self, n):
        """Return the next n keystream bytes, advancing the context."""
        return self.xor(bytes(checked_int(n, "n")))

    def keystream_into(self, view):
        """Fill every byte of a writable C-contiguous buffer with keystream.

        Same stream position semantics as keystream(); avoids intermediate
        copies for large requests. Written in pieces of at most PIECE_SIZE, so
        the zero plaintext stays one piece long.
        """
        view = memoryview(view).cast("B")  # bytes, not items; no bytearray copy
        n = len(view)
        self._check(n)
        for start in range(0, n, PIECE_SIZE):
            piece = view[start : start + PIECE_SIZE]
            self._encryptor.update_into(_ZEROS[: len(piece)], piece)
        self.position += n  # only once OpenSSL has accepted the buffer

    def xor(self, data):
        """XOR a C-contiguous buffer with as many keystream bytes as it holds."""
        data = memoryview(data).cast("B")
        n = len(data)
        self._check(n)
        out = self._encryptor.update(data)
        self.position += n
        return out

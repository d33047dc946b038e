"""Cipher core tests: RFC 8439 known answers, an independently written
naive-matrix oracle, and keystream context behavior."""

import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arc4rng import chacha
from arc4rng.chacha import (
    BLOCK_SIZE,
    MAX_BLOCKS,
    ChaCha20Stream,
    PIECE_SIZE,
    CounterExhaustedError,
    chacha_block,
    initial_state,
    quarter_round,
    words_to_bytes,
)

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4"
    "c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2"
    "b5129cd1de164eb9cbd083e8a2503c4e"
)


# --- independent oracles ---------------------------------------------------

_QR_INDICES = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)


def _rotl(v, n):
    return ((v << n) | (v >> (32 - n))) & 0xFFFFFFFF


def _oracle_block(key, counter, nonce):
    """Second, independently structured 20-round matrix evaluation."""
    init = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
    init += list(struct.unpack("<8I", key))
    init.append(counter)
    init += list(struct.unpack("<3I", nonce))
    s = list(init)
    for _ in range(10):
        for a, b, c, d in _QR_INDICES:
            s[a] = (s[a] + s[b]) & 0xFFFFFFFF
            s[d] = _rotl(s[d] ^ s[a], 16)
            s[c] = (s[c] + s[d]) & 0xFFFFFFFF
            s[b] = _rotl(s[b] ^ s[c], 12)
            s[a] = (s[a] + s[b]) & 0xFFFFFFFF
            s[d] = _rotl(s[d] ^ s[a], 8)
            s[c] = (s[c] + s[d]) & 0xFFFFFFFF
            s[b] = _rotl(s[b] ^ s[c], 7)
    return struct.pack(
        "<16I", *((x + y) & 0xFFFFFFFF for x, y in zip(s, init))
    )


def _inverse_quarter_round(a, b, c, d):
    def rotr(v, n):
        return ((v >> n) | (v << (32 - n))) & 0xFFFFFFFF

    b = rotr(b, 7) ^ c
    c = (c - d) & 0xFFFFFFFF
    d = rotr(d, 8) ^ a
    a = (a - b) & 0xFFFFFFFF
    b = rotr(b, 12) ^ c
    c = (c - d) & 0xFFFFFFFF
    d = rotr(d, 16) ^ a
    a = (a - b) & 0xFFFFFFFF
    return a, b, c, d


# --- quarter round ---------------------------------------------------------

def test_quarter_round_rfc_vector():
    assert quarter_round(0x11111111, 0x01020304, 0x9B8D6F43, 0x01234567) == (
        0xEA2A92F4,
        0xCB1CF8CE,
        0x4581472E,
        0x5881C4BB,
    )


def test_quarter_round_all_zero_matches_brute_force():
    # Evaluate the four add/xor/rotl lines directly.
    a = b = c = d = 0
    a = (a + b) & 0xFFFFFFFF; d = _rotl(d ^ a, 16)
    c = (c + d) & 0xFFFFFFFF; b = _rotl(b ^ c, 12)
    a = (a + b) & 0xFFFFFFFF; d = _rotl(d ^ a, 8)
    c = (c + d) & 0xFFFFFFFF; b = _rotl(b ^ c, 7)
    assert quarter_round(0, 0, 0, 0) == (a, b, c, d) == (0, 0, 0, 0)


def test_quarter_round_is_bijective():
    rng = random.Random(0x5EED)
    for _ in range(1000):
        t = tuple(rng.getrandbits(32) for _ in range(4))
        assert _inverse_quarter_round(*quarter_round(*t)) == t


# --- block function --------------------------------------------------------

def test_chacha_block_rfc_8439_known_answer():
    assert chacha_block(RFC_KEY, 1, RFC_NONCE) == RFC_BLOCK


def test_chacha_block_distinct_counters():
    assert chacha_block(RFC_KEY, 1, RFC_NONCE) != chacha_block(RFC_KEY, 2, RFC_NONCE)


def test_chacha_block_matches_naive_oracle():
    rng = random.Random(0xB10C)
    for _ in range(100):
        key = rng.randbytes(32)
        nonce = rng.randbytes(12)
        counter = rng.getrandbits(32)
        assert chacha_block(key, counter, nonce) == _oracle_block(key, counter, nonce)


def test_block_serialization_round_trips():
    rng = random.Random(3)
    words = [rng.getrandbits(32) for _ in range(16)]
    block = words_to_bytes(words)
    assert [int.from_bytes(block[i : i + 4], "little") for i in range(0, 64, 4)] == words


def test_initial_state_validation():
    with pytest.raises(ValueError):
        initial_state(b"short", 0, RFC_NONCE)
    with pytest.raises(ValueError):
        initial_state(RFC_KEY, 0, b"short")


# --- keystream context -----------------------------------------------------

def test_stream_matches_reference_blocks():
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE, counter=1)
    expected = b"".join(chacha_block(RFC_KEY, c, RFC_NONCE) for c in (1, 2, 3))
    assert ctx.keystream(192) == expected


def _read(ctx, method, k):
    if method == "keystream":
        return ctx.keystream(k)
    if method == "keystream_into":
        out = bytearray(k)
        ctx.keystream_into(memoryview(out))
        return bytes(out)
    return ctx.xor(bytes(k))


@given(
    counter=st.integers(0, MAX_BLOCKS - 200),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["keystream", "keystream_into", "xor"]),
            st.integers(0, 200),
        ),
        max_size=30,
    ),
)
@example(counter=0, calls=[("keystream", 3), ("keystream", 64), ("keystream", 83)])
@settings(max_examples=100, deadline=None)
def test_stream_chunking_invariance(counter, calls):
    # Any interleaving of the three methods, at any byte offset, reads the
    # reference block function's output in order.
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE, counter)
    got = b"".join(_read(ctx, method, k) for method, k in calls)
    nblocks = -(-len(got) // BLOCK_SIZE)
    want = b"".join(
        chacha_block(RFC_KEY, counter + i, RFC_NONCE) for i in range(nblocks)
    )
    assert got == want[: len(got)]
    assert ctx.position == counter * BLOCK_SIZE + len(got)


def test_views_longer_than_a_piece():
    # Filled piece by piece, a view still reads the reference stream: at its
    # first block, on both sides of the piece boundary and at the block of its
    # last byte; the context then goes on from that byte.
    n = 2 * PIECE_SIZE + 100
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE, counter=7)
    out = bytearray(n)
    ctx.keystream_into(out)
    assert ctx.position == 7 * BLOCK_SIZE + n
    last = (n - 1) // BLOCK_SIZE
    for block in (0, PIECE_SIZE // BLOCK_SIZE - 1, PIECE_SIZE // BLOCK_SIZE, last):
        got = out[block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE]
        assert got == chacha_block(RFC_KEY, 7 + block, RFC_NONCE)[: len(got)]
    following = chacha_block(RFC_KEY, 7 + last, RFC_NONCE) + chacha_block(RFC_KEY, 8 + last, RFC_NONCE)
    assert ctx.keystream(64) == following[n % BLOCK_SIZE :][:64]


def test_xor_identity_and_round_trip():
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE)
    raw = ChaCha20Stream(RFC_KEY, RFC_NONCE).keystream(100)
    assert ctx.xor(bytes(100)) == raw

    data = random.Random(9).randbytes(333)
    enc = ChaCha20Stream(RFC_KEY, RFC_NONCE).xor(data)
    dec = ChaCha20Stream(RFC_KEY, RFC_NONCE).xor(enc)
    assert dec == data


def test_counter_accounting():
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE)
    served = 0
    for n in (1, 63, 64, 65, 7, 200):
        ctx.keystream(n)
        served += n
        assert ctx.position == served
        assert ctx.block_counter == -(-served // BLOCK_SIZE)


def test_integer_inputs_checked_before_state_moves(monkeypatch):
    built = []
    monkeypatch.setattr(chacha, "Cipher", lambda *a, **kw: built.append(a))
    for counter in (1.5, "8", None, True):
        with pytest.raises(ValueError, match="counter"):
            ChaCha20Stream(RFC_KEY, RFC_NONCE, counter)
    assert built == []  # no encryptor was built
    monkeypatch.undo()

    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE, np.int64(3))
    ctx.keystream(10)
    assert type(ctx.position) is int and ctx.position == 3 * BLOCK_SIZE + 10
    assert ctx.keystream(54) == chacha_block(RFC_KEY, 3, RFC_NONCE)[10:]


def test_rejected_buffer_leaves_position():
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE)
    with pytest.raises(TypeError):
        ctx.keystream_into(memoryview(bytes(8)))  # read-only
    assert ctx.position == 0
    assert ctx.keystream(64) == chacha_block(RFC_KEY, 0, RFC_NONCE)


def test_buffers_of_wide_or_many_dimensional_items_count_bytes():
    # len() of a 2-D or u32 buffer counts rows or items, not the bytes the
    # cipher reads and writes; position must advance by the bytes.
    ref = ChaCha20Stream(RFC_KEY, RFC_NONCE).keystream(1_000_000 + 4 + 16 + 16 + 8)
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE)
    square = np.zeros((1000, 1000), np.uint8)
    ctx.keystream_into(square)
    assert square.tobytes() == ref[:1_000_000] and ctx.position == 1_000_000
    assert ctx.xor(np.zeros((2, 2), np.uint8)) == ref[1_000_000:1_000_004]
    assert ctx.position == 1_000_004
    words = np.zeros(4, np.uint32)
    ctx.keystream_into(words)
    assert words.tobytes() == ref[1_000_004:1_000_020] and ctx.position == 1_000_020
    # A strided buffer is refused before position moves.
    with pytest.raises(TypeError):
        ctx.keystream_into(np.zeros((4, 4), np.uint8)[:, ::2])
    assert ctx.position == 1_000_020
    # u32 data to xor counts its bytes, as keystream_into does.
    want = bytes(a ^ b for a, b in zip(words.tobytes(), ref[1_000_020:1_000_036]))
    assert ctx.xor(words) == want and ctx.position == 1_000_036
    assert ctx.keystream(8) == ref[-8:]


def test_counter_exhaustion_is_an_error():
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE, counter=MAX_BLOCKS - 1)
    ctx.keystream(64)  # last block is fine
    with pytest.raises(CounterExhaustedError):
        ctx.keystream(1)

    # The same limit reached at unaligned offsets.
    ctx = ChaCha20Stream(RFC_KEY, RFC_NONCE, counter=MAX_BLOCKS - 1)
    ctx.xor(bytes(5))
    ctx.keystream_into(memoryview(bytearray(59)))
    with pytest.raises(CounterExhaustedError):
        ctx.xor(bytes(1))

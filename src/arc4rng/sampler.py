"""Unbiased bounded integers by rejection sampling (arc4random_uniform).

Raw words below the threshold 2^w % bound (OpenBSD's -bound % bound) are
discarded, so the final modulo reduction is exactly uniform. `uniform` is the
32-bit production loop. `uniform_generic` is its reference, parameterized by
word width so small widths can be tested by exhaustive enumeration, and
`uniform` falls back to it for other bounds.
"""

from .chacha import checked_int


def uniform_generic(draw, upper_bound, width=32):
    """Uniform integer in [0, upper_bound) from a w-bit word source.

    Bounds 0 and 1 return 0 without consuming a word. A bound that is not an
    integer in 0..2^w raises ValueError before any word is drawn.
    """
    # Above 2^w no word would be accepted: the loop would never end.
    upper_bound = checked_int(upper_bound, "upper_bound", 0, 1 << width)
    if upper_bound < 2:
        return 0
    threshold = (1 << width) % upper_bound
    while True:
        r = draw()
        if r >= threshold:
            return r % upper_bound


def uniform(engine, upper_bound):
    """arc4random_uniform: uniform 32-bit bounded draw from an engine.

    A plain int bound in 2..2^32 is drawn in this frame, as OpenBSD does; any
    other bound goes to uniform_generic, which checks it, with equal results.
    """
    if type(upper_bound) is int and 1 < upper_bound <= 1 << 32:
        threshold = (1 << 32) % upper_bound
        draw = engine.random_u32
        r = draw()
        while r < threshold:
            r = draw()
        return r % upper_bound
    return uniform_generic(engine.random_u32, upper_bound, 32)


def uniform_batch(engine, upper_bound, n):
    """n bounded draws, byte-for-byte equivalent to n uniform() calls.

    Words are consumed in stream order and rejected ones skipped, which is
    exactly what the one-at-a-time loop does, so results and engine state
    match. Returns (values, words_drawn). Bounds are validated as in uniform().
    """
    import numpy as np  # here, not at import: scalar callers never load it

    upper_bound = checked_int(upper_bound, "upper_bound", 0, 1 << 32)
    n = checked_int(n, "n")
    if upper_bound < 2:
        return np.zeros(n, dtype=np.uint32), 0
    if upper_bound == 1 << 32:  # every word is accepted as it is
        return engine.random_u32_batch(n), n
    threshold = (1 << 32) % upper_bound
    b = np.uint32(upper_bound)
    out = np.empty(n, dtype=np.uint32)
    filled = 0
    drawn = 0
    while filled < n:
        words = engine.random_u32_batch(n - filled)
        drawn += len(words)
        if threshold and words.min() < threshold:  # compress only if one is rejected
            words = words[words >= threshold]
        # words % b as w - (w // b) * b: exact for unsigned words, and numpy
        # divides by a scalar without a hardware divide per word.
        dst = out[filled : filled + len(words)]
        np.floor_divide(words, b, out=dst)
        dst *= b
        np.subtract(words, dst, out=dst)
        filled += len(words)
    return out, drawn

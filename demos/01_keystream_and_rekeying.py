"""Tour of the RNG engine: deterministic seeding, buffered output, and
fast-key-erasure rekeying.

Run: python3 demos/01_keystream_and_rekeying.py
"""

from arc4rng import BUF_SIZE, SEED_SIZE, ChaCha20Stream, Engine, RekeyPolicy
from arc4rng.chacha import KEY_SIZE

seed = bytes(range(SEED_SIZE))  # 44 bytes: 32-byte key + 12-byte nonce

print("== determinism ==")
a = Engine(seed, RekeyPolicy.fixed())
b = Engine(seed, RekeyPolicy.fixed())
print("two engines, same seed:", [a.random_u32() for _ in range(4)])
print("                       ", [b.random_u32() for _ in range(4)])

print()
print("== the rekey event log ==")
e = Engine(seed, RekeyPolicy.fixed(interval=100_000))
first_key = e.snapshot()[:KEY_SIZE]
out = e.random_buf(350_000)
for ev in e.events:
    print(f"  rekey #{ev.ordinal} at output byte {ev.output_offset:>7,}, "
          f"next budget {ev.interval_chosen:,} bytes")

print()
print("== key erasure and the backtracking window ==")
print("a key is erased only at a rekey: output from before the last rekey cannot")
print("be recomputed from a captured state, but output since then can, after")
print("its first 980 bytes (left buffered by the previous key), from the key")
print("and nonce that snapshot() holds.")
snap = e.snapshot()
key, nonce = snap[:KEY_SIZE], snap[KEY_SIZE:SEED_SIZE]
since = e.events[-1].output_offset
lead = BUF_SIZE - SEED_SIZE  # 980
recomputed = ChaCha20Stream(key, nonce).keystream(len(out) - since - lead)
print(f"output {since + lead:,}..{len(out):,} recomputed from the snapshot:",
      recomputed == out[since + lead:])
print(f"last 16 bytes before the rekey at {since:,} in the snapshot or its stream:",
      out[since - 16 : since] in snap + recomputed)
print("first key visible in the snapshot:", first_key in snap)

print()
print("== explicit reseeding ==")
from arc4rng import OsEntropy

e.reseed(OsEntropy())
print("after reseed, next value:", e.random_u32())

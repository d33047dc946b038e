"""Fixed vs randomized rekey interval.

The fixed policy rekeys every 1,600,000 output bytes, so an observer knows
exactly when the next rekey lands. The fuzzed policy draws a fresh 32-bit
word from the newly installed key and sets the budget to
REKEY_BASE + (fuzz % REKEY_BASE), uniformly spread over [base, 2*base).

Run: python3 demos/02_randomized_rekey_interval.py
"""

from arc4rng import Engine, RekeyPolicy, SEED_SIZE, interval_uniformity_test

seed = bytes(range(SEED_SIZE))
BASE = 1 << 20

fixed = Engine(seed, RekeyPolicy.fixed())
fuzzed = Engine(seed, RekeyPolicy.fuzzed(base=BASE))
for e in (fixed, fuzzed):
    e.random_u32_batch(5_000_000)  # 20 MB

print("fixed intervals: ", [ev.interval_chosen for ev in fixed.events[:6]])
print("fuzzed intervals:", [ev.interval_chosen for ev in fuzzed.events[:6]])

# Collect a large interval sample and test uniformity over [base, 2*base).
e = Engine(seed, RekeyPolicy.fuzzed(base=BASE))
while e.rekey_count < 2000:
    e.discard(e.count)

intervals = [ev.interval_chosen for ev in e.events]
print()
print(f"{len(intervals)} fuzzed rekeys:")
print(f"  min interval {min(intervals):,}, max {max(intervals):,} "
      f"(bounds [{BASE:,}, {2 * BASE - 1:,}])")
result = interval_uniformity_test(e.events, BASE, k=16)
print(f"  16-bin uniformity: chi2 = {result.statistic:.2f}, "
      f"df = {result.df}, p = {result.p_value:.4f}")

# A crude console histogram of the 16 sub-ranges.
from arc4rng import Histogram

h = Histogram.categorical([(i - BASE) * 16 // BASE for i in intervals], 16)
top = max(h.bins)
print()
for i, count in enumerate(h.bins):
    lo = BASE + i * (BASE // 16)
    print(f"  [{lo:>9,}+) {'#' * (40 * count // top):<40} {count}")

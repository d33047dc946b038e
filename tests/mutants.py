"""Hand-written mutants of arc4rng, and the first test that kills each one.

A row is (file, old text, new text, aim): the old text occurs once in the
file, and the aim is the ROADMAP aim the row guards. Rows come from the
engine's invariants and from the bugs CHANGES.md names as FOUND or MENDED.
`python tests/mutants.py` runs every row, `python tests/mutants.py 3 11` rows 3
and 11, each with tier-1 and -x in a fresh copy of the repository. A survivor
shows a hole in the suite, which needs a test. Two tests are deselected:
criterion 6 times fixed against fuzzed runs, so a flake there would count as a
kill, and test_mutants.py finds each mutant's old text gone, as it should.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AIMS = {1: "measured performance", 2: "quality of design", 3: "correctness and robustness", 4: "observability"}

CHACHA, ENGINE, SAMPLER, STATS, CLI, BENCH = (f"src/arc4rng/{m}.py" for m in ("chacha", "engine", "sampler", "stats", "cli", "bench"))

MUTANTS = [
    # Key erasure, the rekey and the fork hook
    (ENGINE, "self._buf[:SEED_SIZE] = bytes(SEED_SIZE)  # key erasure", "pass", 3),
    (ENGINE, "engine._budget_end, engine.count = engine.total_out, 0", "pass", 3),  # a forked child serves on
    (ENGINE, "self._pos = BUF_SIZE\n", "pass\n", 3),  # a failed rekey serves the block it drew
    (ENGINE, 'mix = int.from_bytes(entropy or b"", "little")', "mix = 0", 3),  # reseed ignores its entropy
    (ENGINE, 'mix ^= int.from_bytes(OsEntropy().read(), "little")', "pass", 3),  # a forked child's rekey ignores fresh entropy
    (ENGINE, "BUF_SIZE if forked else SEED_SIZE", "SEED_SIZE", 3),  # a forked child serves the block its parent serves next
    (ENGINE, "weakref.WeakSet()", "set()", 3),  # the fork registry keeps every engine alive
    (ENGINE, "uniform_generic(lambda: _unpack_u32(cipher.xor(bytes(FUZZ_SIZE)))[0], base)", "_unpack_u32(cipher.xor(bytes(FUZZ_SIZE)))[0] % base", 3),
    (ENGINE, "RekeyEvent(len(self.events), offset, count)", "RekeyEvent(len(self.events), self._budget_end, count)", 4),
    (ENGINE, "count = self._next_interval(cipher)\n        offset = self.total_out\n        self._cipher = cipher",
     "self._cipher = cipher\n        count = self._next_interval(cipher)\n        offset = self.total_out", 3),  # a failed fuzz word leaves the new key in service
    # Budgets, fast paths and chunking invariance
    (ENGINE, "pos <= _LAST_U32 and 4 < self.count", "pos <= _LAST_U32 and 4 <= self.count", 3),
    (ENGINE, "0 < n < self.count", "0 < n <= self.count", 3),
    (ENGINE, "type(n) is int and 0 < n", "0 < n", 4),  # numpy integers reach the event log
    (ENGINE, "_LAST_U32 = BUF_SIZE - 4", "_LAST_U32 = BUF_SIZE - 3", 3),  # a word straddles the buffer's end
    (ENGINE, "self.count -= 4", "self.count -= 3", 3),  # a word spends 3 bytes of budget
    (ENGINE, "self.count -= n", "self.count -= n - (n == 1)", 3),  # a 1-byte request spends no budget
    (ENGINE, 'bytearray(checked_int(n, "n"))', "bytearray(n)", 3),
    (ENGINE, "if self.count == 0:", "if self.count == 0 and pos < n:", 2),  # a request-end rekey waits for the next request
    (ENGINE, "            if not self.count:\n                self._rekey()\n", "", 3),  # a spent budget draws a block it cannot serve
    (ENGINE, "take = min(take - take % BUF_SIZE, PIECE_SIZE)", "take = min(take, PIECE_SIZE)", 2),
    (ENGINE, "_sink()[:take]", "memoryview(bytearray(take))", 1),
    (ENGINE, "MAX_BLOCKS * BLOCK_SIZE - FUZZ_SIZE - BUF_SIZE", "MAX_BLOCKS * BLOCK_SIZE - BUF_SIZE", 3),
    # The cipher and the boundary rules
    (CHACHA, "self.position + n > MAX_BLOCKS * BLOCK_SIZE", "self.position + n >= MAX_BLOCKS * BLOCK_SIZE", 3),
    (CHACHA, 'data = memoryview(data).cast("B")', "data = memoryview(data)", 3),
    (CHACHA, "lo - 1 if isinstance(value, bool) else operator.index(value)", "operator.index(value)", 3),
    (CLI, "binascii.unhexlify(text)", "bytes.fromhex(text)", 3),
    # The sampler
    (SAMPLER, "threshold = (1 << width) % upper_bound", "threshold = (1 << width) % upper_bound + 1", 3),
    (SAMPLER, "while r < threshold:", "while r <= threshold:", 3),
    (SAMPLER, "words[words >= threshold]", "words[words > threshold]", 3),
    (SAMPLER, "np.floor_divide(words, b, out=dst)\n        dst *= b\n        np.subtract(words, dst, out=dst)", "dst[:] = words % b", 1),
    # The statistics
    (STATS, "if statistic >= df:", "if True:", 3),
    (STATS, 'kind not in "biu"', 'kind not in "biuf"', 3),
    (STATS, "values.size and (values.max() >= k or", "(np.bincount(values).size > k or", 3),
    (STATS, ' or values.dtype.kind == "i" and values.min() < 0', "", 3),
    (STATS, '"base", 2, 1 << 32)', '"base", 1, 1 << 32)', 3),
    (STATS, '"base", 2, 1 << 32)', '"base", 2)', 3),
    (STATS, '"events").astype("int64")', '"events")', 3),
    (STATS, "len(intervals) * (b - a) / base for a, b in zip(firsts, firsts[1:])", "len(intervals) / k for a in firsts[1:]", 3),
    # The percent table
    (BENCH, "reduction_pct=100.0 * (ref - cand) / ref", "reduction_pct=100.0 * (ref - cand) / cand", 3),
    (BENCH, "increase_pct=100.0 * (ref - cand) / cand", "increase_pct=100.0 * (ref - cand) / ref", 3),
    (BENCH, '("cpu", reference.mean_cpu_s, candidate.mean_cpu_s)', '("cpu", reference.mean_wall_s, candidate.mean_wall_s)', 3),
    (BENCH, "if cand == 0:", "if False:", 3),
    # The reference cipher, which every stream check trusts
    (CHACHA, "d = _rotl32(d ^ a, 16)", "d = _rotl32(d ^ a, 15)", 3),
    (CHACHA, "for _ in range(10):", "for _ in range(9):", 3),
    (CHACHA, "s[0], s[5], s[10], s[15] = quarter_round(s[0], s[5], s[10], s[15])", "s[0], s[4], s[8], s[12] = quarter_round(s[0], s[4], s[8], s[12])", 3),
    (CHACHA, "[counter]", "[counter & 0xFF]", 3),  # passes both RFC vectors
    (CHACHA, "(a + b) & _MASK32 for a, b in zip(s, init)", "a for a in s", 3),
    (CHACHA, '"<16I"', '">16I"', 3),
]

# The acceptance criteria run last: criteria 4 and 7 alone take about 13 s,
# and a unit test kills most mutants well before that.
TEST_FILES = sorted((p.relative_to(ROOT).as_posix() for p in (ROOT / "tests").glob("test_*.py")),
                    key=lambda f: (f == "tests/test_acceptance.py", f))
PYTEST = [sys.executable, "-m", "pytest", "-q", "-rfE", "-x", "--continue-on-collection-errors", "--hypothesis-seed=0",
          "-p", "no:cacheprovider", "--deselect", "tests/test_acceptance.py::test_criterion_6_performance_parity",
          "--deselect", "tests/test_mutants.py::test_every_mutant_applies_to_exactly_one_place", *TEST_FILES]


def first_failure(file, old, new):
    """Run tier-1 on a copy with one mutant applied: the first failing test
    (or how the run failed), or None if the suite passed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        path = copy / file
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
        try:
            run = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            return "timeout"
    if run.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"exit {run.returncode}"


def main(argv):
    rows = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    survived = 0
    for i in rows:
        file, old, new, aim = MUTANTS[i - 1]
        line = (ROOT / file).read_text().partition(old)[0].count("\n") + 1
        start = time.monotonic()
        killer = first_failure(file, old, new)
        survived += killer is None
        status = "survived" if killer is None else f"killed by {killer}"
        print(f"{i:2} {file}:{line} (aim {aim}) {status} [{time.monotonic() - start:.0f} s]", flush=True)
    print(f"{len(rows) - survived} of {len(rows)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

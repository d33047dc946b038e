"""Generation-time benchmarks and two-column percent comparison tables.

A run times the production of n raw 32-bit values in `gen`'s CHUNK-value
requests and records the engine's rekey count. Runs aggregate to means, and
two reports compare as "reduction in time" (relative to the reference) and
"increase in performance" (relative to the candidate), the pair satisfying
(1 - r/100) * (1 + i/100) = 1.
"""

import time
from collections import namedtuple

from .chacha import checked_int
from .engine import Engine

RunMeasurement = namedtuple("RunMeasurement", "wall_s cpu_s rekeys bytes policy seed_hex")
BenchReport = namedtuple("BenchReport", "runs mean_wall_s mean_cpu_s")
CHUNK = 1 << 20  # values per engine call in runs and in arc4rng gen and chisq


def run_generation_bench(n_integers, policy, seed):
    """Time one run generating n_integers raw 32-bit values, at most CHUNK
    per request as gen draws them, so memory does not grow with n_integers.
    Engine construction is excluded from the timing.
    """
    n_integers = checked_int(n_integers, "n_integers", 1)
    engine = Engine(seed, policy)
    t0_wall = time.perf_counter()
    t0_cpu = time.process_time()
    for start in range(0, n_integers, CHUNK):
        engine.random_u32_batch(min(CHUNK, n_integers - start))
    wall = time.perf_counter() - t0_wall
    cpu = time.process_time() - t0_cpu
    return RunMeasurement(
        wall_s=wall,
        cpu_s=cpu,
        rekeys=engine.rekey_count,
        bytes=engine.total_out,
        policy=policy.describe(),
        seed_hex=memoryview(seed).hex(),
    )


def aggregate(runs):
    """Arithmetic means per metric over one or more runs."""
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one run")
    return BenchReport(
        runs=runs,
        mean_wall_s=sum(r.wall_s for r in runs) / len(runs),
        mean_cpu_s=sum(r.cpu_s for r in runs) / len(runs),
    )


def compare_policies(n_integers, seeds, reference, candidate):
    """The paper's comparison: (reference report, candidate report).

    One untimed warm-up run (reference policy, first seed) absorbs the lazy
    numpy import and OpenSSL set-up. Then each seed runs under both policies
    back to back, the reference first for even-indexed seeds and the
    candidate first for odd-indexed ones (ABBA), so neither host drift nor run
    order favours one policy. Both reports keep their runs in seed order,
    matched by seed.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    run_generation_bench(n_integers, reference, seeds[0])
    ref_runs, cand_runs = [], []
    for i, seed in enumerate(seeds):
        pair = [(reference, ref_runs), (candidate, cand_runs)]
        if i % 2:
            pair.reverse()
        for policy, runs in pair:
            runs.append(run_generation_bench(n_integers, policy, seed))
    return aggregate(ref_runs), aggregate(cand_runs)


ComparisonRow = namedtuple("ComparisonRow", "metric reference_s candidate_s reduction_pct increase_pct")
COMPARISON_CSV_HEADER = ",".join(ComparisonRow._fields)


def compare(reference, candidate):
    """Per-metric percent table between two reports (reference vs candidate)."""
    rows = []
    for metric, ref, cand in (
        ("wall", reference.mean_wall_s, candidate.mean_wall_s),
        ("cpu", reference.mean_cpu_s, candidate.mean_cpu_s),
    ):
        if ref == 0:
            raise ValueError(f"reference {metric} time is zero")
        if cand == 0:
            raise ValueError(f"candidate {metric} time is zero")
        rows.append(
            ComparisonRow(
                metric=metric,
                reference_s=ref,
                candidate_s=cand,
                reduction_pct=100.0 * (ref - cand) / ref,
                increase_pct=100.0 * (ref - cand) / cand,
            )
        )
    return rows


def comparison_csv(rows):
    lines = [COMPARISON_CSV_HEADER]
    lines.extend(",".join(map(str, r)) for r in rows)  # str of a float is its repr
    return "\n".join(lines) + "\n"

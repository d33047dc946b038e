"""Generation-time benchmarks and two-column percent comparison tables.

A run times the production of n 32-bit values (raw, or bounded via rejection
sampling) and records the engine's rekey count. Runs aggregate to means, and
two reports compare as "reduction in time" (relative to the reference) and
"increase in performance" (relative to the candidate), the pair satisfying
(1 - r/100) * (1 + i/100) = 1.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from . import sampler
from .engine import Engine, RekeyPolicy


@dataclass
class RunMeasurement:
    wall_s: float
    cpu_s: float
    rekeys: int
    bytes: int
    policy: str
    seed_hex: str

    def to_dict(self):
        return asdict(self)


@dataclass
class BenchReport:
    runs: list
    mean_wall_s: float
    mean_cpu_s: float

    def to_dict(self):
        return asdict(self)

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


def run_generation_bench(n_integers, policy, seed, bound=None):
    """Time one generation run; bound=None means raw 32-bit values.

    Engine construction is excluded from the timing; it is O(1) next to the
    workload.
    """
    if n_integers <= 0:
        raise ValueError("n_integers must be positive")
    engine = Engine(seed, policy)
    t0_wall = time.perf_counter()
    t0_cpu = time.process_time()
    if bound is None:
        engine.random_u32_batch(n_integers)
    else:
        sampler.uniform_batch(engine, bound, n_integers)
    wall = time.perf_counter() - t0_wall
    cpu = time.process_time() - t0_cpu
    return RunMeasurement(
        wall_s=wall,
        cpu_s=cpu,
        rekeys=engine.rekey_count,
        bytes=engine.total_out,
        policy=policy.describe(),
        seed_hex=seed.hex(),
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


@dataclass
class ComparisonRow:
    metric: str
    reference_s: float
    candidate_s: float
    reduction_pct: float
    increase_pct: float


COMPARISON_CSV_HEADER = "metric,reference_s,candidate_s,reduction_pct,increase_pct"


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
    lines.extend(
        f"{r.metric},{r.reference_s!r},{r.candidate_s!r},"
        f"{r.reduction_pct!r},{r.increase_pct!r}"
        for r in rows
    )
    return "\n".join(lines) + "\n"


def comparison_dicts(rows):
    return [asdict(r) for r in rows]

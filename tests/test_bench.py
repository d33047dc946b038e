"""Benchmark harness tests: run accounting, aggregation, percent tables."""

import json
import tracemalloc

import pytest

from arc4rng.bench import (
    COMPARISON_CSV_HEADER,
    BenchReport,
    RunMeasurement,
    aggregate,
    compare,
    compare_policies,
    comparison_csv,
    run_generation_bench,
)
from arc4rng.engine import SEED_SIZE, RekeyPolicy

SEED = bytes(range(SEED_SIZE))


def _report(wall, cpu):
    run = RunMeasurement(wall, cpu, 1, 400, "fixed(1600000)", SEED.hex())
    return BenchReport(runs=[run], mean_wall_s=wall, mean_cpu_s=cpu)


def test_tiny_run_rekeys_once():
    m = run_generation_bench(400, RekeyPolicy.fixed(), SEED)
    assert m.rekeys == 1
    assert m.bytes == 1600


def test_run_rekey_count_formula():
    # Eager rekey at exhaustion: 1 + floor(4n / interval).
    interval = 10_000
    for n in (2400, 2500, 2600, 7500):
        m = run_generation_bench(n, RekeyPolicy.fixed(interval), SEED)
        assert m.rekeys == 1 + (4 * n) // interval


def test_run_is_seed_deterministic_in_rekeys():
    a = run_generation_bench(5000, RekeyPolicy.fuzzed(base=2048), SEED)
    b = run_generation_bench(5000, RekeyPolicy.fuzzed(base=2048), SEED)
    assert a.rekeys == b.rekeys
    assert a.bytes == b.bytes
    assert a.policy == "fuzzed(base=2048)"


def test_aggregate():
    r1 = RunMeasurement(1.0, 0.9, 2, 100, "fixed(1600000)", "00")
    r2 = RunMeasurement(3.0, 2.1, 2, 100, "fixed(1600000)", "00")
    rep = aggregate([r1, r2])
    assert rep.mean_wall_s == pytest.approx(2.0)
    assert rep.mean_cpu_s == pytest.approx(1.5)
    single = aggregate([r1])
    assert single.mean_wall_s == r1.wall_s
    # pure function: repeating the aggregation gives the same means
    again = aggregate([r1, r2])
    assert again.mean_wall_s == rep.mean_wall_s
    with pytest.raises(ValueError):
        aggregate([])


def test_compare_policies_reports_matched_seeds():
    seeds = [SEED, bytes(SEED_SIZE)]
    ref, cand = compare_policies(
        400, seeds, RekeyPolicy.fixed(), RekeyPolicy.fuzzed(base=2048)
    )
    assert [r.seed_hex for r in ref.runs] == [s.hex() for s in seeds]
    assert [r.seed_hex for r in cand.runs] == [s.hex() for s in seeds]
    assert {r.policy for r in ref.runs} == {"fixed(1600000)"}
    assert {r.policy for r in cand.runs} == {"fuzzed(base=2048)"}
    with pytest.raises(ValueError):
        compare_policies(400, [], RekeyPolicy.fixed(), RekeyPolicy.fuzzed())


# (reference wall, cpu), (candidate wall, cpu), then the expected (reduction_pct,
# increase_pct) of the wall row and of the cpu row. Each side's wall and CPU means
# differ, so a cpu row built from the wall means shows.
_COMPARE_TABLE = [
    pytest.param((1.0, 0.5), (1.0, 0.5), (0.0, 0.0), (0.0, 0.0), id="identical"),
    pytest.param((1.0, 0.5), (0.909, 0.4), (9.1, 10.011), (20.0, 25.0), id="nine-percent"),
    pytest.param((1.0, 0.5), (0.9984, 0.5008), (0.16, 0.16026), (-0.16, -0.15974), id="generation-bench"),
    pytest.param((1.7, 0.4), (1.3, 0.55), (23.529, 30.769), (-37.5, -27.273), id="wall-down-cpu-up"),
    pytest.param((1.0, 0.6), (0.8, 0.75), (20.0, 25.0), (-25.0, -20.0), id="fifth-faster"),
]


@pytest.mark.parametrize("ref, cand, wall, cpu", _COMPARE_TABLE)
def test_compare_table(ref, cand, wall, cpu):
    rows = compare(_report(*ref), _report(*cand))
    assert [(r.metric, r.reference_s, r.candidate_s) for r in rows] == [
        ("wall", ref[0], cand[0]),
        ("cpu", ref[1], cand[1]),
    ]
    swapped = compare(_report(*cand), _report(*ref))
    for row, back, expected in zip(rows, swapped, (wall, cpu)):
        assert (row.reduction_pct, row.increase_pct) == pytest.approx(expected, rel=1e-4)
        assert (1 - row.reduction_pct / 100) * (1 + row.increase_pct / 100) == pytest.approx(1.0)
        # Swapping the sides flips both signs: each percent becomes the other's negative.
        assert (back.reduction_pct, back.increase_pct) == pytest.approx((-row.increase_pct, -row.reduction_pct))


def test_compare_zero_reference_is_error():
    with pytest.raises(ValueError, match="reference"):
        compare(_report(0.0, 1.0), _report(1.0, 1.0))
    with pytest.raises(ValueError, match="candidate"):
        compare(_report(1.0, 1.0), _report(1.0, 0.0))


def test_comparison_csv_schema():
    rows = compare(_report(1.0, 1.0), _report(0.909, 0.909))
    text = comparison_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == COMPARISON_CSV_HEADER == (
        "metric,reference_s,candidate_s,reduction_pct,increase_pct"
    )
    assert lines[1].split(",")[0] == "wall"
    assert lines[2].split(",")[0] == "cpu"
    dicts = [r._asdict() for r in rows]
    assert set(dicts[0]) == {
        "metric", "reference_s", "candidate_s", "reduction_pct", "increase_pct",
    }


def test_run_memory_does_not_grow_with_the_count():
    # Drawn in CHUNK-value requests: 10M values (40 MB) never live at once.
    run_generation_bench(400, RekeyPolicy.fixed(), SEED)  # imports numpy
    tracemalloc.start()
    try:
        run_generation_bench(10_000_000, RekeyPolicy.fixed(), SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_report_json_schema():
    m = run_generation_bench(400, RekeyPolicy.fixed(), SEED)
    rep = aggregate([m])
    payload = json.loads(json.dumps(dict(rep._asdict(), runs=[r._asdict() for r in rep.runs])))
    assert set(payload) == {"runs", "mean_wall_s", "mean_cpu_s"}
    assert set(payload["runs"][0]) == {
        "wall_s", "cpu_s", "rekeys", "bytes", "policy", "seed_hex",
    }
    assert payload["runs"][0]["seed_hex"] == SEED.hex()


def test_run_measurement_is_an_immutable_named_tuple():
    m = RunMeasurement(1.5, 0.25, 2, 400, "fixed(1600000)", "00")
    with pytest.raises(AttributeError):
        m.wall_s = 2.0
    assert repr(m) == (
        "RunMeasurement(wall_s=1.5, cpu_s=0.25, rekeys=2, bytes=400, "
        "policy='fixed(1600000)', seed_hex='00')"
    )

"""CLI surface tests: determinism, schemas, exit codes."""

import argparse
import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from arc4rng import bench, stats
from arc4rng.cli import EXIT_RUNTIME, EXIT_USAGE, _derive_run_seed, build_parser, main
from arc4rng.engine import MAX_BUDGET, SEED_SIZE, Engine, RekeyPolicy, parse_seed_hex
from arc4rng.sampler import uniform_batch

HEX_SEED = bytes(range(SEED_SIZE)).hex()
ZERO_SEED = "00" * SEED_SIZE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "gen", "--count", "10", "--seed", ZERO_SEED, "--policy", "fixed"
    )
    code2, out2, _ = run_cli(
        capsys, "gen", "--count", "10", "--seed", ZERO_SEED, "--policy", "fixed"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    values = [int(line) for line in out1.strip().split("\n")]
    assert len(values) == 10
    assert values[0] == 0x374AD8B8  # pinned regression vector


def test_gen_count_zero_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--count", "0", "--seed", ZERO_SEED)
    assert code == EXIT_USAGE
    assert "count" in err


def test_gen_bad_seed_hex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--count", "5", "--seed", "nothex")
    assert code == EXIT_USAGE
    assert "seed" in err


def test_gen_events_csv(tmp_path, capsys):
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(
        capsys,
        "gen", "--count", "500", "--seed", HEX_SEED, "--policy", "fuzzed",
        "--rekey-base", "512", "--events", str(events),
    )
    assert code == 0
    lines = events.read_text().strip().split("\n")
    assert lines[0] == "ordinal,output_offset,interval_chosen"
    assert len(lines) > 2

    engine = Engine(parse_seed_hex(HEX_SEED), RekeyPolicy.fuzzed(base=512))
    engine.random_u32_batch(500)
    assert len(lines) == engine.rekey_count + 1


def test_gen_raw_output(tmp_path, capsys):
    out_file = tmp_path / "raw.bin"
    code, _, _ = run_cli(
        capsys,
        "gen", "--count", "100", "--seed", HEX_SEED, "--policy", "fixed",
        "--raw", "-o", str(out_file),
    )
    assert code == 0
    data = out_file.read_bytes()
    engine = Engine(parse_seed_hex(HEX_SEED), RekeyPolicy.fixed())
    assert data == engine.random_buf(400)


def test_gen_to_file_matches_stdout(tmp_path, capsys):
    out_file = tmp_path / "vals.txt"
    run_cli(
        capsys, "gen", "--count", "7", "--seed", ZERO_SEED, "-o", str(out_file)
    )
    code, out, _ = run_cli(capsys, "gen", "--count", "7", "--seed", ZERO_SEED)
    assert code == 0
    assert out_file.read_text() == out


def test_chisq_json_deterministic(capsys):
    args = (
        "chisq", "--count", "1000", "--bins", "10",
        "--seed", HEX_SEED, "--policy", "fixed",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"statistic", "df", "p_value", "rekeys"}
    assert payload["df"] == 9
    assert payload["rekeys"] == 1
    assert 0.0 <= payload["p_value"] <= 1.0


def test_chisq_in_chunks_equals_one_batch(capsys):
    count, bins = (1 << 20) + 4321, 7
    code, out, _ = run_cli(
        capsys, "chisq", "--count", str(count), "--bins", str(bins),
        "--seed", HEX_SEED, "--policy", "fuzzed", "--rekey-base", "100000",
    )
    assert code == 0
    engine = Engine(bytes.fromhex(HEX_SEED), RekeyPolicy.fuzzed(100_000))
    values, _ = uniform_batch(engine, bins, count)
    result = stats.chi_square_test(stats.Histogram.categorical(values, bins), [count / bins] * bins)
    assert out == json.dumps({**asdict(result), "rekeys": engine.rekey_count}) + "\n"


def test_chisq_bins_one_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "chisq", "--count", "100", "--bins", "1", "--seed", ZERO_SEED
    )
    assert code == EXIT_USAGE


def test_compare_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--count", "20000", "--runs", "2", "--seed", HEX_SEED,
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "metric,reference_s,candidate_s,reduction_pct,increase_pct"
    assert len(lines) == 3


def test_compare_json_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--count", "20000", "--runs", "1", "--seed", HEX_SEED,
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"reference", "candidate", "comparison"}
    ref_runs = payload["reference"]["runs"]
    cand_runs = payload["candidate"]["runs"]
    # matched seeds across the two policies
    assert [r["seed_hex"] for r in ref_runs] == [r["seed_hex"] for r in cand_runs]
    assert ref_runs[0]["policy"].startswith("fixed")
    assert cand_runs[0]["policy"].startswith("fuzzed")


def test_compare_warms_up_then_alternates_with_matched_seeds(capsys, monkeypatch):
    calls = []

    def record(n_integers, policy, seed):
        calls.append((policy.mode, seed))
        return bench.RunMeasurement(1.0, 1.0, 1, 4 * n_integers, policy.describe(), seed.hex())

    monkeypatch.setattr(bench, "run_generation_bench", record)
    code, _, _ = run_cli(
        capsys, "compare", "--count", "100", "--runs", "3", "--seed", HEX_SEED
    )
    assert code == 0
    seeds = [_derive_run_seed(bytes.fromhex(HEX_SEED), i) for i in range(3)]
    assert calls == [("fixed", seeds[0])] + [
        (mode, seed) for seed in seeds for mode in ("fixed", "fuzzed")
    ]


def test_compare_bad_runs_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "compare", "--count", "100", "--runs", "0", "--seed", ZERO_SEED
    )
    assert code == EXIT_USAGE


def test_intervals_fixed_policy_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["intervals", "--policy", "fixed", "--seed", ZERO_SEED])
    assert exc.value.code == EXIT_USAGE
    assert "--policy" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--policy", "fixed"],
        ["intervals", "--fixed-interval", "7"],
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", ZERO_SEED])
    assert exc.value.code == EXIT_USAGE
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "5", "--fixed-interval", "0"],
        ["gen", "--count", "5", "--policy", "fixed", "--fixed-interval", "0"],
        ["chisq", "--count", "100", "--rekey-base", "0"],
        ["compare", "--count", "100", "--fixed-interval", str(MAX_BUDGET + 1)],
        ["compare", "--count", "100", "--rekey-base", str(MAX_BUDGET)],
        ["intervals", "--rekey-base", "-1"],
        ["intervals", "--rekeys", "100", "--bins", "16"],
        ["gen", "--count", "5", "--policy", "fuzzed", "--fixed-interval", "5"],
        ["chisq", "--count", "100", "--policy", "fixed", "--rekey-base", "4096"],
        ["intervals", "--bins", "1"],
    ],
)
def test_bad_option_values_are_usage_errors_before_any_work(argv, capsys, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built before the options were checked")

    monkeypatch.setattr(Engine, "__init__", no_engine)
    code, _, err = run_cli(capsys, *argv, "--seed", ZERO_SEED)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "5", "--policy", "fixed", "--fixed-interval", "64"],
        ["gen", "--count", "5", "--policy", "fuzzed", "--rekey-base", "64"],
        ["chisq", "--count", "100", "--policy", "fixed", "--fixed-interval", "64"],
        ["chisq", "--count", "100", "--policy", "fuzzed", "--rekey-base", "64"],
        ["compare", "--count", "100", "--runs", "1", "--fixed-interval", "64", "--rekey-base", "64"],
    ],
)
def test_budget_options_the_policy_reads_are_accepted(argv, capsys):
    code, _, _ = run_cli(capsys, *argv, "--seed", ZERO_SEED)
    assert code == 0


def test_intervals_outputs(tmp_path, capsys):
    csv_path = tmp_path / "intervals.csv"
    args = (
        "intervals", "--rekeys", "200", "--bins", "16",
        "--rekey-base", "4096", "--seed", HEX_SEED, "-o", str(csv_path),
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"statistic", "df", "p_value"}
    assert payload["df"] == 15

    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "ordinal,output_offset,interval_chosen"
    assert len(lines) == 201
    intervals = [int(line.split(",")[2]) for line in lines[1:]]
    assert all(4096 <= iv < 8192 for iv in intervals)

    # determinism: same seed gives the identical interval sequence
    csv2 = tmp_path / "intervals2.csv"
    run_cli(capsys, *args[:-1], str(csv2))
    assert csv2.read_text() == csv_path.read_text()


def test_intervals_stdout_csv_stderr_json(capsys):
    code, out, err = run_cli(
        capsys,
        "intervals", "--rekeys", "170", "--bins", "16",
        "--rekey-base", "2048", "--seed", HEX_SEED,
    )
    assert code == 0
    assert out.startswith("ordinal,output_offset,interval_chosen\n")
    payload = json.loads(err)
    assert 0.0 <= payload["p_value"] <= 1.0


def test_os_seed_runs(capsys):
    code, out, _ = run_cli(capsys, "gen", "--count", "3", "--seed", "os")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_readme_option_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE)
    documented = {name: set(re.findall(r"`(-[-\w]*)`", opts)) for name, opts in rows}
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    registered = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert documented == registered

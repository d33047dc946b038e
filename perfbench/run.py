"""Run one workload of the arc4rng benchmark and print its result.

    python3 perfbench/run.py --workload bulk_u32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout: it imports arc4rng from ./src and
from nowhere else. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1. The line before it is the full
record (environment, rounds, workload results), also written to
.perfbench_out/, where a traced run also writes its spans. BENCHMARK.json at
the root names every metric and its unit; perfbench/README.md describes them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 31  # fresh interpreters per run, spread between the rounds
CONSTRUCT_REPEATS = 201
MIN_TRACED_ROUNDS = 3  # the traced run alternates this many traced and untraced rounds at least
MAX_SPANS = 1_500_000  # and stops alternating once the traced rounds pass this
clock = time.perf_counter

# Imports arc4rng and builds the workload's engine in a fresh interpreter;
# prints the seconds that took.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import arc4rng
mode, value = sys.argv[3], int(sys.argv[4])
if mode == "fixed":
    policy = arc4rng.RekeyPolicy.fixed(value)
else:
    policy = arc4rng.RekeyPolicy.fuzzed(value)
arc4rng.Engine(bytes.fromhex(sys.argv[2]), policy)
print(time.perf_counter() - t0)
"""


def import_program():
    """Put the checkout's src/ first on the path; refuse any other arc4rng."""
    package = os.path.join(SRC, "arc4rng")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no arc4rng sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import arc4rng

    if os.path.dirname(os.path.abspath(arc4rng.__file__)) != package:
        sys.exit(f"perfbench: imported arc4rng from {arc4rng.__file__}, not from {package}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("bulk_u32", "bounded_chisq", "rekey_intervals", "scalar_calls"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="check that the gates reject corrupted output")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class SetupTimer:
    """Seconds, in fresh interpreters, to import arc4rng and build the engine."""

    def __init__(self, wl):
        value = wl.policy.fixed_interval if wl.policy.mode == "fixed" else wl.policy.rekey_base
        self.argv = [sys.executable, "-c", SETUP_CHILD, SRC, wl.engine_seed.hex(), wl.policy.mode, str(value)]
        self.times = []

    def keep_pace(self, share):
        """Run children until `share` (0 to 1) of SETUP_REPEATS have run."""
        while len(self.times) < SETUP_REPEATS * min(share, 1.0):
            child = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
            self.times.append(float(child.stdout))

    def median(self):
        self.keep_pace(1.0)
        return statistics.median(self.times)


def latency_percentiles(rounds):
    """p50 and p90 request latency in us, over every request, and the sample count."""
    import numpy as np

    lat = np.array([x for r in rounds for x in r.latencies]) * 1e6
    if not len(lat):
        return 0.0, 0.0, 0
    p50, p90 = np.percentile(lat, [50, 90])
    return float(p50), float(p90), len(lat)


def median_wall(rounds):
    return statistics.median(r.wall for r in rounds)


def end_to_end(wl, run, seconds):
    """Rounds for `seconds`, with the set-up children run between them, so
    that both sample the same stretch of the host's behaviour."""
    import workloads

    setup = SetupTimer(wl)
    rounds = []
    t0 = clock()
    while True:
        rounds.append(run.round(wl))
        elapsed = clock() - t0
        setup.keep_pace(elapsed / seconds)
        if rounds[-1].aborted or clock() - t0 >= seconds:
            break
    setup_s = setup.median()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.verify(run.gate)
    wall = median_wall(rounds)
    p50, p90, samples = latency_percentiles(rounds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": wl.ops / wall,
        "req_us_p50": p50,
        "req_us_p90": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "setup_runs_s": setup.times,
        "latency_samples": samples,
        "engine.chunking_mismatch": workloads.chunking_mismatch(wl),
    }
    return metrics, info


def raw_gb_per_s(seed, size, reps=7, rep_seconds=0.05):
    """Median rate of ChaCha20Stream.keystream_into into one reused np.empty(size)."""
    import numpy as np

    from arc4rng import ChaCha20Stream

    stream = ChaCha20Stream(seed[:32], seed[32:44])
    view = memoryview(np.empty(size, np.uint8))
    rates = []
    for _ in range(reps):
        done, t0 = 0, clock()
        while True:
            stream.keystream_into(view)
            done += size
            dt = clock() - t0
            if dt >= rep_seconds:
                break
        rates.append(done / dt / 1e9)
    return statistics.median(rates)


def construct_us(wl):
    from arc4rng import Engine

    times = []
    for _ in range(CONSTRUCT_REPEATS):
        t = clock()
        Engine(wl.engine_seed, wl.policy)
        times.append(clock() - t)
    return statistics.median(times) * 1e6


def fuzzed_over_fixed(run, fixed, fuzzed, pairs=9):
    """Median round wall under fuzzed(2^20) over fixed(1.6M), with the
    quartile spread of the per-pair ratios; pairs alternate which runs first."""
    fx, fz = [], []
    for k in range(pairs):
        order = ((fixed, fx), (fuzzed, fz)) if k % 2 == 0 else ((fuzzed, fz), (fixed, fx))
        for wl, walls in order:
            walls.append(run.round(wl).wall)
    fixed.verify(run.gate)
    fuzzed.verify(run.gate)
    ratios = [b / a for a, b in zip(fx, fz)]
    q1, mid, q3 = statistics.quantiles(ratios, n=4)
    return statistics.median(fz) / statistics.median(fx), (q3 - q1) / mid, statistics.median(fx)


def per_layer(wl, run, seconds, seed, spans_path):
    import tracing
    import workloads
    from arc4rng import RekeyPolicy

    # Untraced and traced rounds alternate, so that trace.overhead_frac
    # compares rounds that met the same host conditions.
    tracer = tracing.Tracer()
    untraced, traced = [], []
    t_end = clock() + seconds
    while True:
        untraced.append(run.round(wl))
        tracer.install()
        try:
            traced.append(run.round(wl, tracer))
        finally:
            tracer.uninstall()
        tracing.calibrate(tracer.calibration)
        if untraced[-1].aborted or traced[-1].aborted:
            break
        if len(traced) >= MIN_TRACED_ROUNDS and (clock() >= t_end or tracer.spans() >= MAX_SPANS):
            break
    wl.verify(run.gate)
    metrics = tracer.layers(len(traced))
    tracer.write(spans_path)

    request_bytes = max(64, -(-untraced[0].served // wl.n_requests // 64) * 64)
    raw = raw_gb_per_s(wl.engine_seed, request_bytes)
    fixed = workloads.BulkU32(seed)
    ratio, spread, fixed_wall = fuzzed_over_fixed(run, fixed, workloads.BulkU32(seed, policy=RekeyPolicy.fuzzed()))
    if hasattr(wl, "run_cli"):
        cli_wl, lib_wall = wl, median_wall(untraced)
    else:  # the CLI has no scalar-call command; gen --raw stands in
        cli_wl, lib_wall = fixed, fixed_wall
    cli_wall = cli_wl.run_cli(run, OUT)
    metrics.update(
        {
            "chacha.raw_gb_per_s": raw,
            "engine.over_raw": metrics["engine.busy_s"] / (metrics["engine.bytes_out"] / (raw * 1e9))
            if metrics["engine.bytes_out"]
            else 0.0,
            "engine.construct_us": construct_us(wl),
            "engine.fuzzed_over_fixed": ratio,
            "engine.fuzzed_over_fixed_spread": spread,
            "engine.chunking_mismatch": workloads.chunking_mismatch(wl),
            "cli.wall_s": cli_wall,
            "cli.over_lib": cli_wall / lib_wall,
            "trace.overhead_frac": statistics.median(t.wall / u.wall for u, t in zip(untraced, traced)) - 1,
        }
    )
    info = {
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "spans": tracer.spans(),
        "span_cost_us": {k: v * 1e6 for k, v in tracer.cost.items()},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "raw_request_bytes": request_bytes,
        "cli_command": cli_wl.cli_command,
    }
    return metrics, info


def _cache_sizes():
    sizes = {"l2_bytes": None, "l3_bytes": None}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(e for e in os.listdir(base) if e.startswith("index")):
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
            if level in ("2", "3") and size.endswith("K"):
                sizes[f"l{level}_bytes"] = int(size[:-1]) * 1024
    except OSError:
        pass
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import cryptography
    import numpy
    from cryptography.hazmat.backends.openssl.backend import backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
    }


def main(argv=None):
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.selftest:
        import selftest

        return selftest.main()
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run = workloads.Run()
    if args.trace:
        metrics, info = per_layer(wl, run, args.seconds, args.seed, os.path.join(OUT, f"spans_{stem}.csv.gz"))
    else:
        metrics, info = end_to_end(wl, run, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = len(run.gate.failed_requests())
    result = {
        "correct": not run.gate.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_per_round": wl.ops,
        "failed_frac": failed / max(run.attempted, 1),
        "failures": [message for _, message in run.gate.failures[:20]],
        **info,
        **wl.report(),
        "result": result,
    }
    with open(os.path.join(OUT, f"BENCH_{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for message in record["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

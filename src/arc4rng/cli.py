"""Command-line surface: generation, chi-square runs, benchmark comparisons,
and rekey-interval dumps.

Exit status: 0 on success, 2 for usage errors, 1 for runtime errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bench, sampler, stats
from .engine import (
    DEFAULT_FIXED_INTERVAL,
    DEFAULT_REKEY_BASE,
    SEED_SIZE,
    Engine,
    EntropyError,
    OsEntropy,
    RekeyPolicy,
    events_to_csv,
    parse_seed_hex,
)

EXIT_USAGE = 2
EXIT_RUNTIME = 1
CHUNK = 1 << 20  # values per engine call in gen and chisq


class UsageError(Exception):
    pass


def _resolve_seed(seed_arg):
    if seed_arg == "os":
        return OsEntropy().read()
    try:
        return parse_seed_hex(seed_arg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


_BUDGET_OF = {"fixed": "fixed_interval", "fuzzed": "rekey_base"}


def _policies(args, *modes):
    """One RekeyPolicy per mode, from the budget options given. A budget
    option none of the modes reads, or a budget out of range, is a usage
    error."""
    budgets = {k: v for k, v in vars(args).items() if k in _BUDGET_OF.values()}
    unread = sorted(budgets.keys() - {_BUDGET_OF[m] for m in modes})
    if unread:
        raise UsageError(f"--{unread[0].replace('_', '-')} is not read by the {modes[0]} policy")
    try:
        return [RekeyPolicy(mode, **budgets) for mode in modes]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _derive_run_seed(seed, run_index):
    # Per-run seeds derived deterministically so Fixed and Fuzzed benches can
    # use matched seeds.
    return hashlib.blake2b(
        seed, digest_size=SEED_SIZE, salt=run_index.to_bytes(8, "little")
    ).digest()


_OPTIONS = {
    "--seed": dict(
        default="os",
        help=f'{2 * SEED_SIZE} hex chars, or "os" for platform entropy (default)',
    ),
    "--policy": dict(choices=("fixed", "fuzzed"), default="fuzzed"),
    # Absent from args unless given, so that a budget the policy does not read is refused.
    "--fixed-interval": dict(
        type=int,
        default=argparse.SUPPRESS,
        metavar="BYTES",
        help=f"rekey budget for the fixed policy (default {DEFAULT_FIXED_INTERVAL})",
    ),
    "--rekey-base": dict(
        type=int,
        default=argparse.SUPPRESS,
        metavar="BYTES",
        help=f"REKEY_BASE for the fuzzed policy (default {DEFAULT_REKEY_BASE})",
    ),
}


def _add_options(parser, *names):
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


@contextlib.contextmanager
def _output(path, binary=False):
    """The file at path, opened for writing and closed on exit; stdout for
    None or "-"."""
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
    else:
        with open(path, "wb" if binary else "w") as f:
            yield f


def cmd_gen(args):
    engine = Engine(_resolve_seed(args.seed), *_policies(args, args.policy))
    with _output(args.output, args.raw) as out:
        for start in range(0, args.count, CHUNK):
            values = engine.random_u32_batch(min(CHUNK, args.count - start))
            out.write(values.tobytes() if args.raw else "\n".join(map(str, values)) + "\n")
    if args.events:
        with open(args.events, "w") as f:
            f.write(events_to_csv(engine.events))
    return 0


def cmd_chisq(args):
    engine = Engine(_resolve_seed(args.seed), *_policies(args, args.policy))
    # Drawn and binned in chunks, so memory does not grow with --count; the
    # draws equal one uniform_batch(count) call's.
    counts = np.zeros(args.bins, dtype=np.int64)
    for start in range(0, args.count, CHUNK):
        values, _ = sampler.uniform_batch(engine, args.bins, min(CHUNK, args.count - start))
        counts += stats.Histogram.categorical(values, args.bins).bins
    expected = [args.count / args.bins] * args.bins
    result = stats.chi_square_test(counts.tolist(), expected)
    payload = asdict(result)
    payload["rekeys"] = engine.rekey_count
    with _output(args.output) as out:
        json.dump(payload, out)
        out.write("\n")
    return 0


def cmd_compare(args):
    fixed, fuzzed = _policies(args, "fixed", "fuzzed")
    seed = _resolve_seed(args.seed)
    seeds = [_derive_run_seed(seed, i) for i in range(args.runs)]
    reference, candidate = bench.compare_policies(args.count, seeds, fixed, fuzzed)
    rows = bench.compare(reference, candidate)
    with _output(args.output) as out:
        if args.format == "csv":
            out.write(bench.comparison_csv(rows))
        else:
            json.dump(
                {
                    "reference": asdict(reference),
                    "candidate": asdict(candidate),
                    "comparison": [asdict(r) for r in rows],
                },
                out,
            )
            out.write("\n")
    return 0


def cmd_intervals(args):
    need = stats.MIN_EVENTS_PER_BIN * args.bins
    if args.rekeys < need:
        raise UsageError(f"--rekeys must be at least {need} for {args.bins} bins")
    (policy,) = _policies(args, "fuzzed")
    engine = Engine(_resolve_seed(args.seed), policy)
    # Each discard drains exactly the current budget, which ends in one rekey.
    while engine.rekey_count < args.rekeys:
        engine.discard(engine.count)
    events = engine.events
    result = stats.interval_uniformity_test(events, policy.rekey_base, args.bins)
    with _output(args.output) as out:
        out.write(events_to_csv(events))
    # The JSON result goes to whichever stream the CSV did not take.
    report = sys.stderr if out is sys.stdout else sys.stdout
    json.dump(asdict(result), report)
    report.write("\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arc4rng",
        description="ChaCha20 CSPRNG with randomized rekey interval: "
        "generation, benchmarks, and randomness statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit random 32-bit values")
    _add_options(p, "--seed", "--policy", "--fixed-interval", "--rekey-base")
    p.add_argument("--count", type=int, required=True, metavar="N")
    p.add_argument("--raw", action="store_true", help="binary output instead of decimal lines")
    p.add_argument("--events", metavar="CSV", help="also write the rekey-event log")
    p.add_argument("--output", "-o", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("chisq", help="chi-square goodness of fit on bounded draws")
    _add_options(p, "--seed", "--policy", "--fixed-interval", "--rekey-base")
    p.add_argument("--count", type=int, required=True, metavar="N")
    p.add_argument("--bins", type=int, default=100, metavar="K")
    p.add_argument("--output", "-o", metavar="FILE")
    p.set_defaults(func=cmd_chisq)

    p = sub.add_parser("compare", help="fixed-vs-fuzzed generation benchmark table")
    _add_options(p, "--seed", "--fixed-interval", "--rekey-base")
    p.add_argument("--count", type=int, default=39_600_000, metavar="N")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", "-o", metavar="FILE")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("intervals", help="dump fuzzed rekey intervals + uniformity test")
    _add_options(p, "--seed", "--rekey-base")
    p.add_argument("--rekeys", type=int, default=10_000, metavar="N")
    p.add_argument("--bins", type=int, default=16, metavar="K")
    p.add_argument("--output", "-o", metavar="FILE", help="interval CSV destination")
    p.set_defaults(func=cmd_intervals)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The least value of each count option, in whichever commands take it.
        for name, floor in (("count", 1), ("runs", 1), ("bins", 2)):
            if getattr(args, name, floor) < floor:
                raise UsageError(f"--{name} must be at least {floor}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EntropyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

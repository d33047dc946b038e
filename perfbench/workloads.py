"""The benchmark's four workloads and the exact checks on their output.

A workload issues requests to a fresh Engine. Its fixed list of requests and
a closing step form one round; `wall_s` is the median wall time of a round.
Every round of a run uses the same engine seed, so every round must produce
the same output: the first round is checked against independent references
(reference.py), each later round against the first. No check is
statistical; p-values are reported and never gate a run.

Each workload calls the library through module and class attributes looked
up when a round begins, so the traced run sees its wrapped entry points.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from arc4rng import Engine, RekeyEvent, RekeyPolicy, StaticEntropy, cli, sampler, stats
from arc4rng import engine as engine_mod

import reference

clock = time.perf_counter
CHUNK = 256  # random_buf size of the chunking replay
WINDOW = 4096  # bytes checked against the model at each end of the first key's output


def derive(seed, label, size=reference.SEED_SIZE):
    """Bytes for `label`, derived from the workload seed with blake2b."""
    return hashlib.blake2b(f"perfbench/{seed}/{label}".encode(), digest_size=size).digest()


def checksum(values):
    """Wrapping sum of an output array's 64-bit words, plus its tail bytes.

    Any single changed byte changes it, at a fraction of the request's cost.
    """
    raw = values.view(np.uint8)
    cut = len(raw) // 8 * 8
    return int(raw[:cut].view("<u8").sum(dtype=np.uint64)), raw[cut:].tobytes()


def policy_args(policy):
    """The `arc4rng` CLI options that select policy."""
    if policy.mode == "fixed":
        return ["--policy", "fixed", "--fixed-interval", str(policy.fixed_interval)]
    return ["--policy", "fuzzed", "--rekey-base", str(policy.rekey_base)]


def event_log_error(events, total, policy, first):
    """Why a rekey log is wrong, or None.

    The log must start with the initial stir at offset 0 with the modelled
    budget, number its events contiguously, advance each offset by the
    interval chosen before it, keep every interval inside the policy's range,
    and rekey at every budget exhaustion up to `total` output bytes.
    """
    if not events:
        return "no rekey events"
    if events[0].output_offset != 0 or events[0].interval_chosen != first:
        return f"initial stir {events[0]} disagrees with the chacha_block model ({first})"
    if policy.mode == "fixed":
        lo, hi = policy.fixed_interval, policy.fixed_interval + 1
    else:
        lo, hi = policy.rekey_base, 2 * policy.rekey_base
    for i, e in enumerate(events):
        if e.ordinal != i:
            return f"ordinal {e.ordinal} at position {i}"
        if not lo <= e.interval_chosen < hi:
            return f"interval {e.interval_chosen} outside [{lo}, {hi})"
    for a, b in zip(events, events[1:]):
        if b.output_offset - a.output_offset != a.interval_chosen:
            return f"event {b.ordinal} is not {a.interval_chosen} bytes after event {a.ordinal}"
    last = events[-1]
    if not last.output_offset <= total < last.output_offset + last.interval_chosen:
        return f"last rekey at {last.output_offset} does not cover {total} output bytes"
    return None


def parse_events_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != engine_mod.EVENTS_CSV_HEADER.split(","):
        raise ValueError("missing event CSV header")
    return [tuple(int(x) for x in row) for row in rows[1:]]


def event_rows(events):
    return [(e.ordinal, e.output_offset, e.interval_chosen) for e in events]


class Gate:
    """Failed checks, each charged to the run-wide index of a request."""

    def __init__(self):
        self.failures = []

    def check(self, ok, request, message):
        if not ok:
            self.failures.append((request, message))
        return ok

    def failed_requests(self):
        return {request for request, _ in self.failures}


@dataclass
class Round:
    base: int  # run-wide index of the round's first request
    attempted: int
    wall: float  # engine construction + requests + closing step, in s
    latencies: list  # one per completed request, in s
    served: int  # output bytes of the round
    aborted: bool


class Run:
    """Every request of one benchmark run, over all rounds and workloads."""

    def __init__(self):
        self.gate = Gate()
        self.attempted = 0

    def charge(self, message):
        """Record a failure that belongs to no single request."""
        self.gate.check(False, max(self.attempted - 1, 0), message)

    def round(self, wl, tracer=None):
        """One round of wl; with a tracer, each request and closing step is a span."""
        issue, close = wl.issue, wl.close
        if tracer is not None:
            issue, close = tracer.span("request", issue), tracer.span("close", close)
        return self._round(wl, issue, close)

    def _round(self, wl, issue, close):
        gate, base = self.gate, self.attempted
        t = clock()
        engine = wl.new_engine()
        wall = clock() - t
        state = wl.begin(engine)
        latencies = []
        for i in range(wl.n_requests):
            t = clock()
            try:
                out = issue(engine, state, i)
            except Exception as exc:
                gate.check(False, base + i, f"{wl.name}: request {i} raised {exc!r}")
                return self._end(Round(base, i + 1, wall, latencies, engine.total_out, True))
            dt = clock() - t
            latencies.append(dt)
            wall += dt
            self._guard(base + i, wl.check_request, gate, base + i, engine, state, i, out)
        last = base + wl.n_requests - 1
        t = clock()
        try:
            closing = close(engine, state)
        except Exception as exc:
            gate.check(False, last, f"{wl.name}: closing step raised {exc!r}")
            return self._end(Round(base, wl.n_requests, wall, latencies, engine.total_out, True))
        wall += clock() - t
        self._guard(last, wl.check_round, gate, base, engine, state, closing)
        return self._end(Round(base, wl.n_requests, wall, latencies, engine.total_out, False))

    def _guard(self, request, check, *args):
        """Run a check; one that raises counts as failed."""
        try:
            check(*args)
        except Exception as exc:
            self.gate.check(False, request, f"{check.__qualname__} raised {exc!r}")

    def _end(self, r):
        self.attempted += r.attempted
        return r


class Workload:
    """One request shape. Subclasses set name, engine_seed, policy, n_requests and ops."""

    name = ""
    tamper = None  # self-test hook: corrupts one output before it is checked

    def __init__(self):
        self.first = None  # what the first round produced
        self.matching = []  # bases of the rounds that produced the same

    def new_engine(self):
        return Engine(self.engine_seed, self.policy)

    def begin(self, engine):
        return None

    def check_request(self, gate, request, engine, state, i, out):
        pass

    def close(self, engine, state):
        return None

    def verify(self, gate):
        """Checks against references that cost too much to repeat every round."""

    def report(self):
        """Workload results for the run record."""
        return {"policy": self.policy.describe(), "requests_per_round": self.n_requests}

    def same_as_first(self, gate, base, request, produced):
        if self.first is None:
            self.first = produced
        if gate.check(
            produced == self.first, request, f"{self.name}: round output differs from the first round's"
        ):
            self.matching.append(base)

    def charge(self, gate, offset, message):
        """Charge a fault in the first round's output to every round that reproduced it."""
        for base in self.matching:
            gate.check(False, base + offset, message)


class BulkU32(Workload):
    """39.6M u32 as repeated random_u32_batch(1_048_576), the request `arc4rng gen` makes."""

    name = "bulk_u32"
    cli_command = "gen --raw"

    def __init__(self, seed, values=39_600_000, request=1 << 20, policy=None):
        super().__init__()
        self.engine_seed = derive(seed, "bulk_u32")
        self.policy = policy or RekeyPolicy.fixed(1_600_000)
        full, rest = divmod(values, request)
        self.sizes = [request] * full + ([rest] if rest else [])
        self.n_requests = len(self.sizes)
        self.ops = values
        self.rekey_at = reference.first_interval(self.engine_seed, self.policy)
        if self.rekey_at > 4 * self.sizes[0]:
            raise ValueError("the first rekey must fall inside the first request")
        w = min(WINDOW, self.rekey_at)
        self.windows = [
            (start, reference.engine_prefix(self.engine_seed, self.policy, start, w))
            for start in (0, self.rekey_at - w)
        ]

    def begin(self, engine):
        return []  # checksum of each request

    def issue(self, engine, sums, i):
        return engine.random_u32_batch(self.sizes[i])

    def check_request(self, gate, request, engine, sums, i, out):
        if self.tamper is not None and i == self.n_requests - 1:
            self.tamper(out)
        gate.check(
            out.dtype == np.dtype("<u4") and len(out) == self.sizes[i],
            request,
            f"{self.name}: request {i} returned {len(out)} values of {out.dtype}",
        )
        if i == 0:
            raw = out.view(np.uint8)
            for start, want in self.windows:
                gate.check(
                    raw[start : start + len(want)].tobytes() == want,
                    request,
                    f"{self.name}: bytes [{start}, {start + len(want)}) differ from the chacha_block model",
                )
        sums.append(checksum(out))

    def check_round(self, gate, base, engine, sums, closing):
        last = base + self.n_requests - 1
        total = 4 * self.ops
        gate.check(engine.total_out == total, last, f"{self.name}: total_out {engine.total_out} != {total}")
        error = event_log_error(engine.events, total, self.policy, self.rekey_at)
        gate.check(error is None, last, f"{self.name}: {error}")
        self.same_as_first(gate, base, last, sums)

    def verify(self, gate):
        """Replay the requests on a fresh engine; each checksum must match the first round's."""
        if self.first is None:
            return
        engine = self.new_engine()
        for i, n in enumerate(self.sizes):
            if checksum(engine.random_u32_batch(n)) != self.first[i]:
                self.charge(gate, i, f"{self.name}: request {i} differs from a replay of the same requests")

    def run_cli(self, run, outdir):
        """`arc4rng gen --raw` with this seed and shape, checked like a round
        once the timer has stopped; returns its wall time."""
        events_path = os.path.join(outdir, "gen_events.csv")
        sink = _GenSink()
        argv = ["gen", "--raw", "--count", str(self.ops), "--seed", self.engine_seed.hex()]
        argv += policy_args(self.policy) + ["--events", events_path]
        with redirect_stdout(sink):
            t = clock()
            code = cli.main(argv)
            wall = clock() - t
        total = 4 * self.ops
        with open(events_path) as f:
            events = [RekeyEvent(*row) for row in parse_events_csv(f.read())]
        error = event_log_error(events, total, self.policy, self.rekey_at)
        for ok, message in (
            (code == 0, f"exit status {code}"),
            (sink.total() == total, f"wrote {sink.total()} bytes, not {total}"),
            (all(sink.read(start, len(want)) == want for start, want in self.windows), "model windows differ"),
            (self.first is None or sink.sums() == self.first, "output differs from the library run"),
            (error is None, str(error)),
        ):
            if not ok:
                run.charge(f"cli gen: {message}")
        return wall


class _GenSink:
    """Stands in for sys.stdout under `gen --raw`: keeps each write as it is,
    so that the checks cost nothing while gen is timed."""

    def __init__(self):
        self.buffer = self
        self.chunks = []

    def write(self, data):
        self.chunks.append(data)
        return len(data)

    def total(self):
        return sum(len(c) for c in self.chunks)

    def sums(self):
        return [checksum(np.frombuffer(c, dtype="<u4")) for c in self.chunks]

    def read(self, start, size):
        """Bytes [start, start + size) of everything written."""
        got, pos = bytearray(), 0
        for c in self.chunks:
            lo, hi = max(start, pos), min(start + size, pos + len(c))
            if lo < hi:
                got += c[lo - pos : hi - pos]
            pos += len(c)
        return bytes(got)


class _ChiSquareClosed(Workload):
    """A workload whose round closes with a chi-square test over `bins` bins;
    its first round is stored as (data, statistic, p_value)."""

    def verify(self, gate):
        if self.first is not None and reference.p_value_differs(self.first[1], self.bins - 1, self.first[2]):
            self.charge(gate, self.n_requests - 1, f"{self.name}: p-value differs from scipy.stats.chi2.sf")

    def report(self):
        out = super().report()
        if self.first is not None:
            out.update(statistic=self.first[1], df=self.bins - 1, p_value=self.first[2])
        return out


class BoundedChisq(_ChiSquareClosed):
    """39.6M uniform(100) draws as 1,000 uniform_batch(engine, 100, 39_600)
    requests, each binned into a running histogram, closed by chi_square_test."""

    name = "bounded_chisq"
    cli_command = "chisq"

    def __init__(self, seed, bins=100, draws=39_600, requests=1_000, policy=None):
        super().__init__()
        self.engine_seed = derive(seed, "bounded_chisq")
        self.policy = policy or RekeyPolicy.fuzzed()
        self.bins, self.draws, self.n_requests = bins, draws, requests
        self.ops = draws * requests
        self.expected = self.ops / bins
        engine = self.new_engine()
        self.head = np.array(
            [sampler.uniform(engine, bins) for _ in range(min(WINDOW, draws))], dtype=np.uint32
        )

    def begin(self, engine):
        return SimpleNamespace(
            batch=sampler.uniform_batch,
            categorical=stats.Histogram.categorical,
            test=stats.chi_square_test,
            running=np.zeros(self.bins, np.int64),
            independent=np.zeros(self.bins, np.int64),
        )

    def issue(self, engine, st, i):
        values, _ = st.batch(engine, self.bins, self.draws)
        hist = st.categorical(values, self.bins)
        st.running += hist.bins
        return values, hist

    def check_request(self, gate, request, engine, st, i, out):
        values, hist = out
        where = f"{self.name}: request {i}"
        if not gate.check(
            len(values) == self.draws and int(values.max()) < self.bins,
            request,
            f"{where} returned a value >= {self.bins} or {len(values)} values",
        ):
            return
        counts = np.bincount(values, minlength=self.bins)
        gate.check(hist.bins == counts.tolist(), request, f"{where}: Histogram.categorical != np.bincount")
        st.independent += counts
        if i == 0:
            gate.check(
                np.array_equal(values[: len(self.head)], self.head),
                request,
                f"{where}: first values differ from one-at-a-time uniform()",
            )

    def close(self, engine, st):
        if self.tamper is not None:
            self.tamper(st.running)
        return st.test(st.running.tolist(), [self.expected] * self.bins)

    def check_round(self, gate, base, engine, st, result):
        last = base + self.n_requests - 1
        gate.check(int(st.running.sum()) == self.ops, last, f"{self.name}: bin counts do not sum to the draws")
        gate.check(
            np.array_equal(st.running, st.independent),
            last,
            f"{self.name}: running histogram differs from the independent bincount",
        )
        gate.check(
            result.df == self.bins - 1
            and result.statistic == reference.chi_square(st.independent, self.expected),
            last,
            f"{self.name}: chi-square statistic differs from the numpy recomputation",
        )
        self.same_as_first(gate, base, last, (st.running.tolist(), result.statistic, result.p_value))

    def one_shot(self):
        """Bin counts and rekey count of one uniform_batch(engine, bins, ops) call,
        recomputed from the engine's words with the rejection rule."""
        engine = self.new_engine()
        threshold = (2**32 - self.bins) % self.bins
        counts = np.zeros(self.bins, np.int64)
        need = self.ops
        while need:
            words = engine.random_u32_batch(need)
            for j in range(0, len(words), 1 << 22):
                part = words[j : j + (1 << 22)]
                part = part[part >= threshold]
                counts += np.bincount(part % self.bins, minlength=self.bins)
                need -= len(part)
        return counts, engine.rekey_count

    def run_cli(self, run, outdir):
        """`arc4rng chisq` with this seed and draw count; returns its wall time."""
        path = os.path.join(outdir, "chisq.json")
        argv = ["chisq", "--count", str(self.ops), "--bins", str(self.bins)]
        argv += ["--seed", self.engine_seed.hex(), *policy_args(self.policy), "-o", path]
        t = clock()
        code = cli.main(argv)
        wall = clock() - t
        with open(path) as f:
            got = json.load(f)
        counts, rekeys = self.one_shot()
        statistic = reference.chi_square(counts, self.expected)
        for ok, message in (
            (code == 0, f"exit status {code}"),
            (got["df"] == self.bins - 1 and got["statistic"] == statistic, "statistic differs from the recomputation"),
            (got["rekeys"] == rekeys, f"{got['rekeys']} rekeys, the recomputation made {rekeys}"),
            (not reference.p_value_differs(got["statistic"], self.bins - 1, got["p_value"]), "p-value differs from scipy"),
        ):
            if not ok:
                run.charge(f"cli chisq: {message}")
        return wall


class RekeyIntervals(_ChiSquareClosed):
    """Repeated discard(engine.count) under fuzzed(2^20): one rekey per request,
    10,050 rekeys a round, closed by interval_uniformity_test and events_to_csv."""

    name = "rekey_intervals"
    cli_command = "intervals"

    def __init__(self, seed, rekeys=10_050, base=1 << 20, bins=16):
        super().__init__()
        self.engine_seed = derive(seed, "rekey_intervals")
        self.policy = RekeyPolicy.fuzzed(base)
        self.rekeys, self.bins = rekeys, bins
        self.n_requests = rekeys - 1  # the initial stir is the first of the events
        self.ops = self.n_requests
        self.first_interval = reference.first_interval(self.engine_seed, self.policy)

    def begin(self, engine):
        return stats.interval_uniformity_test, engine_mod.events_to_csv

    def issue(self, engine, st, i):
        engine.discard(engine.count)

    def check_request(self, gate, request, engine, st, i, out):
        gate.check(len(engine.events) == i + 2, request, f"{self.name}: request {i} did not end in exactly one rekey")

    def close(self, engine, st):
        test, to_csv = st
        events = list(engine.events)
        if self.tamper is not None:
            self.tamper(events)
        return events, test(events, self.policy.rekey_base, self.bins), to_csv(events)

    def check_round(self, gate, base, engine, st, closing):
        events, result, text = closing
        last = base + self.n_requests - 1
        gate.check(len(events) == self.rekeys, last, f"{self.name}: {len(events)} events, not {self.rekeys}")
        error = event_log_error(events, engine.total_out, self.policy, self.first_interval)
        if gate.check(error is None, last, f"{self.name}: {error}"):
            rekey_base = self.policy.rekey_base
            intervals = np.array([e.interval_chosen for e in events], dtype=np.int64)
            counts = np.bincount((intervals - rekey_base) * self.bins // rekey_base, minlength=self.bins)
            gate.check(
                result.df == self.bins - 1
                and result.statistic == reference.chi_square(counts, len(events) / self.bins),
                last,
                f"{self.name}: interval statistic differs from the numpy recomputation",
            )
        rows = event_rows(events)
        gate.check(parse_events_csv(text) == rows, last, f"{self.name}: the CSV does not parse back to the events")
        self.same_as_first(gate, base, last, (rows, result.statistic, result.p_value))

    def run_cli(self, run, outdir):
        """`arc4rng intervals` with this seed and shape; returns its wall time."""
        path = os.path.join(outdir, "intervals.csv")
        argv = ["intervals", "--rekeys", str(self.rekeys), "--rekey-base", str(self.policy.rekey_base)]
        argv += ["--bins", str(self.bins), "--seed", self.engine_seed.hex(), "-o", path]
        captured = io.StringIO()
        with redirect_stdout(captured):
            t = clock()
            code = cli.main(argv)
            wall = clock() - t
        got = json.loads(captured.getvalue())
        with open(path) as f:
            rows = parse_events_csv(f.read())
        for ok, message in (
            (code == 0, f"exit status {code}"),
            (self.first is None or rows == self.first[0], "events differ from the library run"),
            (
                self.first is None or (got["statistic"], got["p_value"]) == self.first[1:],
                "statistic or p-value differs from the library run",
            ),
        ):
            if not ok:
                run.charge(f"cli intervals: {message}")
        return wall


U32, UNIFORM, BUF = 0, 1, 2
BOUNDS = (6, 100, 1000, 2**31 + 1, 2**32 - 1)  # 2^31+1 rejects about half its words


class ScalarCalls(Workload):
    """arc4random-style traffic: groups of 64 random_u32 / uniform / random_buf
    calls, with a reseed after every 1,024th group."""

    name = "scalar_calls"

    def __init__(self, seed, requests=2048, calls=64, reseed_every=1024, policy=None):
        super().__init__()
        self.engine_seed = derive(seed, "scalar_calls")
        self.policy = policy or RekeyPolicy.fuzzed()
        self.n_requests, self.calls = requests, calls
        self.ops = requests * calls
        rng = np.random.default_rng(int.from_bytes(derive(seed, "scalar_calls/plan", 32), "little"))
        kinds = rng.choice(3, size=(requests, calls), p=[0.50, 0.35, 0.15])
        bounds = np.array(BOUNDS, dtype=np.int64)[rng.integers(0, len(BOUNDS), size=kinds.shape)]
        sizes = rng.integers(1, 65, size=kinds.shape)
        args = np.where(kinds == UNIFORM, bounds, np.where(kinds == BUF, sizes, 0))
        self.plan = [(k.tolist(), a.tolist()) for k, a in zip(kinds, args)]
        self.reseeds = {
            i: derive(seed, f"scalar_calls/reseed/{i}") for i in range(reseed_every - 1, requests, reseed_every)
        }

    def begin(self, engine):
        return SimpleNamespace(
            u32=engine.random_u32, buf=engine.random_buf, uniform=sampler.uniform, results=[]
        )

    def issue(self, engine, st, i):
        u32, buf, uniform = st.u32, st.buf, st.uniform
        out = []
        append = out.append
        kinds, args = self.plan[i]
        for kind, arg in zip(kinds, args):
            if kind == U32:
                append(u32())
            elif kind == UNIFORM:
                append(uniform(engine, arg))
            else:
                append(buf(arg))
        entropy = self.reseeds.get(i)
        if entropy is not None:
            engine.reseed(StaticEntropy(entropy))
        return out

    def check_request(self, gate, request, engine, st, i, out):
        gate.check(len(out) == self.calls, request, f"{self.name}: request {i} made {len(out)} calls")
        st.results.extend(out)

    def check_round(self, gate, base, engine, st, closing):
        if self.tamper is not None:
            self.tamper(st.results)
        self.same_as_first(gate, base, base + self.n_requests - 1, (st.results, list(engine.events)))

    def replay(self):
        """The call plan served by random_buf calls of at most 64 bytes on a fresh
        engine, applying arc4random_uniform here: reject words below
        (2^32 - b) mod b, then reduce mod b. Reseeds follow the same requests."""
        engine = self.new_engine()
        read = engine.random_buf
        out = []
        for i, (kinds, args) in enumerate(self.plan):
            for kind, arg in zip(kinds, args):
                if kind == BUF:
                    out.append(read(arg))
                    continue
                word = int.from_bytes(read(4), "little")
                if kind == UNIFORM:
                    threshold = (2**32 - arg) % arg
                    while word < threshold:
                        word = int.from_bytes(read(4), "little")
                    word %= arg
                out.append(word)
            entropy = self.reseeds.get(i)
            if entropy is not None:
                engine.reseed(StaticEntropy(entropy))
        return out, list(engine.events)

    def verify(self, gate):
        if self.first is None:
            return
        results, events = self.first
        want, want_events = self.replay()
        bad = sorted({c // self.calls for c, (a, b) in enumerate(zip(results, want)) if a != b})
        for r in bad:
            self.charge(gate, r, f"{self.name}: request {r} differs from the random_buf replay")
        if len(results) != len(want) or events != want_events:
            self.charge(gate, self.n_requests - 1, f"{self.name}: event log differs from the random_buf replay")

    def report(self):
        return {**super().report(), "calls_per_request": self.calls, "reseeds_per_round": len(self.reseeds)}


WORKLOADS = {cls.name: cls for cls in (BulkU32, BoundedChisq, RekeyIntervals, ScalarCalls)}


class _Recorder:
    """Installed on one engine instance: records its output bytes and reseeds."""

    def __init__(self, engine):
        self.data = bytearray()
        self.reseeds = []
        self._depth = 0
        for name, to_bytes in (
            ("random_buf", bytes),
            ("random_u32", lambda v: v.to_bytes(4, "little")),
            ("random_u32_batch", lambda a: a.tobytes()),
        ):
            setattr(engine, name, self._recording(getattr(engine, name), to_bytes))
        reseed = engine.reseed

        def recorded_reseed(source):
            self.reseeds.append((engine.total_out, source))
            return reseed(source)

        engine.reseed = recorded_reseed

    def _recording(self, method, to_bytes):
        def call(*args):
            self._depth += 1
            try:
                result = method(*args)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.data += to_bytes(result)
            return result

        return call


def chunking_mismatch(wl):
    """1 if the workload's stream up to its second rekey differs from reading
    the same engine in 256-byte random_buf calls, with any reseed at the same
    output offset; else 0.

    The output bytes are compared where the requests return them, and the
    first three events always: a rekey takes its key from the cipher's
    position, which the engine's buffered and direct paths advance
    differently.
    """
    engine = wl.new_engine()
    recorder = _Recorder(engine)
    state = wl.begin(engine)
    for i in range(wl.n_requests):
        if len(engine.events) >= 3:
            break
        wl.issue(engine, state, i)
    if len(engine.events) < 3:
        return 0
    limit = engine.events[2].output_offset
    replay = wl.new_engine()
    got = bytearray()
    for offset, source in [*recorder.reseeds, (limit, None)]:
        if offset > limit:
            break
        while len(got) < offset:
            got += replay.random_buf(min(CHUNK, offset - len(got)))
        if source is not None:
            replay.reseed(source)
    differs = replay.events[:3] != engine.events[:3]
    if recorder.data:
        differs = differs or bytes(recorder.data[:limit]) != bytes(got)
    return int(differs)

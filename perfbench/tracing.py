"""Spans around the public entry points of each arc4rng layer, for the traced run.

`install` replaces each entry point on its class or module with a wrapper
that records a span (name, parent, start, end) and the work the call did;
`uninstall` puts the originals back, so untraced runs execute the library
unchanged. Spans are kept in flat arrays and written out when the run ends.
The wrappers' own cost, measured on an empty function, is taken out of the
busy and self times.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from array import array
from types import SimpleNamespace

import numpy as np

from arc4rng import chacha, engine, sampler, stats

clock = time.perf_counter
LAYERS = ("chacha", "engine", "sampler", "stats")


def _keystream_work(args):
    """Keystream bytes computed, from the block counter: whole 64-byte blocks."""
    stream = args[0]
    before = stream.block_counter
    return lambda result: ((stream.block_counter - before) * chacha.BLOCK_SIZE, 0)


def _engine_work(args):
    """Output bytes served and rekeys made."""
    e = args[0]
    out, rekeys = e.total_out, len(e.events or ())
    return lambda result: (e.total_out - out, len(e.events or ()) - rekeys)


def _sampler_work(args):
    """Words drawn from the engine and values returned."""
    e = args[0]
    out = e.total_out
    return lambda result: ((e.total_out - out) // 4, len(result[0]) if isinstance(result, tuple) else 1)


ENTRY_POINTS = [
    (chacha.ChaCha20Stream, "__init__", "chacha.init", None),
    *[(chacha.ChaCha20Stream, m, f"chacha.{m}", _keystream_work) for m in ("keystream", "keystream_into", "xor")],
    (engine.Engine, "__init__", "engine.init", None),
    *[
        (engine.Engine, m, f"engine.{m}", _engine_work)
        for m in ("random_buf", "random_u32", "random_u32_batch", "discard", "reseed")
    ],
    (sampler, "uniform", "sampler.uniform", _sampler_work),
    (sampler, "uniform_batch", "sampler.uniform_batch", _sampler_work),
    (stats.Histogram, "categorical", "stats.categorical", None),
    (stats, "chi_square_test", "stats.chi_square_test", None),
    (stats, "interval_uniformity_test", "stats.interval_uniformity_test", None),
]


WORK_KINDS = {None: "plain", _keystream_work: "keystream", _engine_work: "engine", _sampler_work: "sampler"}


def calibrate(samples, calls=4_000, reps=3):
    """Add to `samples` the seconds a wrapper adds to each span, timed on an
    empty function: `inside` the span's own start and end, and, per work
    kind, in all to the caller's time.
    """
    probe = Tracer()
    stub = SimpleNamespace(block_counter=0, total_out=0, events=[])

    def empty(*args):
        return None

    def per_call(fn):
        t = clock()
        for _ in range(calls):
            fn(stub)
        return (clock() - t) / calls

    def bare():
        t = clock()
        for _ in range(calls):
            pass
        return (clock() - t) / calls

    for _ in range(reps):
        for work, kind in WORK_KINDS.items():
            plain = per_call(empty)
            first = probe.spans()
            wrapped = per_call(probe.span("calibrate", empty, work))
            recorded = np.median(np.array(probe.end[first:]) - np.array(probe.start[first:]))
            samples.setdefault(kind, []).append(wrapped - plain)
            samples.setdefault("inside", []).append(recorded - (plain - bare()))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")  # bytes for chacha and engine, words for sampler
        self.work2 = array("q")  # rekeys for engine, values for sampler
        self._stack = [-1]
        self._saved = []
        self.calibration = {}  # calibrate() samples, taken between the traced rounds
        self.cost = {}  # their medians, set by layers()

    def spans(self):
        return len(self.start)

    def span(self, name, fn, work=None):
        """fn wrapped so that each call records a span; work(args) returns a
        function of the result that gives the call's (work, work2)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        works, works2, stack = self.work, self.work2, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            works.append(0)
            works2.append(0)
            done = work(args) if work is not None else None
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if done is not None:
                works[sid], works2[sid] = done(result)
            return result

        return traced

    def install(self):
        for owner, attr, name, work in ENTRY_POINTS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self.span(name, original.__func__, work))
            else:
                patched = self.span(name, original, work)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layers(self, rounds):
        """Per-layer metrics of the traced spans, per traced round.

        A layer's busy time sums its outermost spans (those whose parent is
        in another layer); its self time sums, over all its spans, the span
        minus its direct children. Both leave out the wrappers' cost: each
        span's own `inside` share, and each wrapped call made within it.
        """
        if not self.calibration:
            calibrate(self.calibration)
        cost = self.cost = {k: max(statistics.median(v), 0.0) for k, v in self.calibration.items()}
        kinds = {name: WORK_KINDS[work] for _, _, name, work in ENTRY_POINTS}
        call_cost = np.array([cost[kinds[s]] if s in kinds else 0.0 for s in self.names])
        n = self.spans()
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        span_cost = call_cost[name] if n else np.zeros(0)
        # Wrapper cost of all descendants; a span's children follow it.
        nested = [0.0] * n
        for i, p, c in zip(range(n - 1, -1, -1), reversed(self.parent), reversed(span_cost.tolist())):
            if p >= 0:
                nested[p] += nested[i] + c
        raw = np.array(self.end) - np.array(self.start)
        dur = raw - cost["inside"] - np.array(nested)
        work = np.array(self.work, dtype=np.int64)
        work2 = np.array(self.work2, dtype=np.int64)
        layer = np.array([LAYERS.index(s.split(".")[0]) if s.split(".")[0] in LAYERS else -1 for s in self.names])
        layer = layer[name] if n else np.zeros(0, np.int64)
        has_parent = parent >= 0
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -2)
        top = layer != parent_layer
        children = np.zeros(n)
        np.add.at(children, parent[has_parent], raw[has_parent] + span_cost[has_parent] - cost["inside"])
        own = raw - children - cost["inside"]

        def named(label):
            return name == self._ids.get(label, -1)

        def of(label):
            return layer == LAYERS.index(label)

        ch = of("chacha") & top
        eng = of("engine") & ~named("engine.init")
        eng_top = eng & top
        smp = of("sampler")
        smp_top = smp & top
        sts_top = of("stats") & top
        chacha_bytes = work[ch].sum()
        chacha_busy = dur[ch].sum()
        bytes_out = work[eng_top].sum()
        sampler_calls = smp_top.sum()
        words = work[smp_top].sum()
        per_round = {
            "chacha.calls": (ch & ~named("chacha.init")).sum(),
            "chacha.contexts": named("chacha.init").sum(),
            "chacha.bytes": chacha_bytes,
            "chacha.busy_s": chacha_busy,
            "engine.requests": eng_top.sum(),
            "engine.busy_s": dur[eng_top].sum(),
            "engine.self_s": own[eng].sum(),
            "engine.bytes_out": bytes_out,
            "engine.rekeys": work2[eng_top].sum(),
            "sampler.calls": sampler_calls,
            "sampler.busy_s": dur[smp_top].sum(),
            "sampler.self_s": own[smp].sum(),
            "sampler.words_drawn": words,
            "stats.calls": sts_top.sum(),
            "stats.busy_s": dur[sts_top].sum(),
        }
        out = {k: float(v) / rounds for k, v in per_round.items()}
        out["chacha.gb_per_s"] = _ratio(chacha_bytes / 1e9, chacha_busy)
        out["engine.served_per_keystream_byte"] = _ratio(bytes_out, chacha_bytes)
        out["sampler.accept_frac"] = _ratio(work2[smp_top].sum(), words)
        out["sampler.engine_calls_per_call"] = _ratio((of("engine") & (parent_layer == LAYERS.index("sampler"))).sum(), sampler_calls)
        return out

    def write(self, path):
        """Write the spans as gzipped CSV; `request` is the id of the enclosing request span."""
        request_id = self._ids.get("request", -1)
        name, parent = self.name, self.parent
        t0 = self.start[0] if self.spans() else 0.0
        request = []
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,parent,request,name,start_s,end_s,work,work2\n")
            for i in range(self.spans()):
                p = parent[i]
                request.append(i if name[i] == request_id else request[p] if p >= 0 else -1)
                f.write(
                    f"{i},{p},{request[i]},{self.names[name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.work[i]},{self.work2[i]}\n"
                )


def _ratio(a, b):
    """a / b, or 0 where the layer did no work."""
    return float(a) / float(b) if b else 0.0

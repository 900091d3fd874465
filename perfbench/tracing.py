"""Spans around evprof's module boundaries, recorded from outside.

``Tracer`` replaces public functions and methods at the name where their
callers look them up (``evprof.cli.parse_trace``, ``evprof.catalog.
match_event``, ``MemoryTracker.is_red``, ...) with wrappers that time each
call. Nothing inside ``src/`` changes, and the originals are put back when
the tracer is closed.

Per-file spans (parse, validate, run_sample, batch, aggregate, ...) are kept
whole: name, start, end, parent and sample. Per-event spans (profiler
dispatch, catalog, memory, clock, injection) run hundreds of thousands of
times per trace, so they are folded as they close into per-sample,
per-name totals: calls, duration, and self time, which is the duration
minus the time covered by child spans. Counts are taken in the same
wrappers. Everything stays in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import json
import math
import time
import weakref
from collections import Counter

import evprof.aggregate as agg_mod
import evprof.catalog as catalog_mod
import evprof.cli as cli_mod
import evprof.generate as generate_mod
import evprof.trace as trace_mod
from evprof.aggregate import CorpusAccumulator
from evprof.clock import VirtualClock
from evprof.injection import InjectionRouter
from evprof.memory import MemoryTracker
from evprof.profiler import SampleProfiler, SampleReport

# profiler dispatch spans are named by event-kind group
KIND_GROUP = {
    "api": "api", "insn": "insn",
    "mem_read": "mem", "mem_write": "mem",
    "image_load": "region", "region_alloc": "region", "region_free": "region",
    "meta": "control", "process_start": "control", "thread_start": "control",
}
KIND_GROUPS = ("api", "insn", "mem", "region", "control")

MEMORY_SPANS = ("memory.is_red", "memory.register_region",
                "memory.free_region", "memory.install_watchpoints",
                "memory.resolve_access", "memory.pe_header_write")


class Tracer:
    def __init__(self):
        self.sample = "-"
        self.totals: dict[tuple[str, str], list[int]] = {}
        self.spans: list[tuple] = []       # per-file spans, kept whole
        self.counts: Counter = Counter()
        self._open: list[list[int]] = []   # child ns of each open span
        self._file_stack: list[int] = []   # ids of open per-file spans
        self._patches: list[tuple] = []
        self._live = weakref.WeakKeyDictionary()   # tracker -> [regions, wps]

    # -- span recording -----------------------------------------------------

    def _close(self, name: str, start: int, end: int, child: int) -> None:
        duration = end - start
        if self._open:
            self._open[-1][0] += duration
        key = (self.sample, name)
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child

    def wrap(self, owner, attr: str, name, *, whole: bool = False,
             after=None, before=None) -> None:
        """Time every call of ``owner.attr`` under span ``name``.

        ``name`` may be a function of the call's arguments. ``whole`` spans
        are also kept individually. ``after(args, result, token)`` runs
        outside the timed interval, with ``token = before(args)``.
        """
        original = vars(owner)[attr]
        clock = time.perf_counter_ns
        open_spans = self._open
        close = self._close
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            token = before(args) if before else None
            if whole:
                parent = tracer._file_stack[-1] if tracer._file_stack else None
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                tracer._file_stack.append(span_id)
            frame = [0]
            open_spans.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                close(span, start, end, frame[0])
                if whole:
                    tracer._file_stack.pop()
                    tracer.spans[span_id] = (span_id, parent, span,
                                             tracer.sample, start, end)
            if after:
                after(args, result, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()

    # -- the wrapped boundaries ---------------------------------------------

    def _state(self, tracker) -> list[int]:
        state = self._live.get(tracker)
        if state is None:
            state = self._live[tracker] = [0, 0]
        return state

    def _peak(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def install(self) -> None:
        counts = self.counts

        def new_sample(args):
            counts["samples"] += 1
            self.sample = f"trace{counts['samples']}"

        def count(key, size):
            def after(args, result, token):
                counts[key] += size(args, result)
            return after

        # trace codec and generator
        self.wrap(cli_mod, "parse_trace", "trace.parse", whole=True,
                  before=new_sample,
                  after=count("trace.parse.events", lambda a, r: len(r)))
        self.wrap(cli_mod, "validate_trace", "trace.validate", whole=True,
                  after=count("trace.validate.events",
                              lambda a, r: len(a[0])))
        serialized = count("trace.serialize.events", lambda a, r: len(a[0]))
        self.wrap(trace_mod, "serialize_trace", "trace.serialize",
                  whole=True, after=serialized)
        self.wrap(generate_mod, "serialize_trace", "trace.serialize",
                  whole=True, after=serialized)
        self.wrap(generate_mod, "build_sample", "generate.build", whole=True,
                  after=count("generate.build.events",
                              lambda a, r: len(r.events)))

        # profiler
        self.wrap(cli_mod, "run_sample", "profiler.run", whole=True)
        self.wrap(SampleProfiler, "__init__", "profiler.init")
        self.wrap(SampleProfiler, "process",
                  lambda a: "profiler.process." + KIND_GROUP[a[1].kind])
        self.wrap(SampleProfiler, "finish", "profiler.finish")
        self.wrap(SampleReport, "to_json", "profiler.to_json")

        # catalog
        self.wrap(catalog_mod, "match_event", "catalog.match_event",
                  after=count("catalog.detections", lambda a, r: len(r[0])))
        self.wrap(catalog_mod, "apply_mitigation", "catalog.apply_mitigation")

        # memory
        self.wrap(MemoryTracker, "is_red", "memory.is_red",
                  after=count("memory.is_red.red", lambda a, r: bool(r)))

        def registered(args, result, token):
            state = self._state(args[0])
            state[0] += 1
            self._peak("memory.live_regions.peak", state[0])
        self.wrap(MemoryTracker, "register_region", "memory.register_region",
                  after=registered)

        def freed(args, result, diagnostics_before):
            # an unknown base leaves the table as it was, with a diagnostic
            if len(args[0].diagnostics) == diagnostics_before:
                self._state(args[0])[0] -= 1
        self.wrap(MemoryTracker, "free_region", "memory.free_region",
                  before=lambda a: len(a[0].diagnostics), after=freed)

        def installed(args, result, token):
            state = self._state(args[0])
            state[1] += len(result)
            self._peak("memory.watchpoints.peak", state[1])
        for attr in ("install_watchpoints", "install_field_watchpoints"):
            self.wrap(MemoryTracker, attr, "memory.install_watchpoints",
                      after=installed)

        def resolved(args, result, token):
            if args[1].kind == "mem_read":
                counts["memory.reads"] += 1
                counts["memory.read_hits"] += bool(result)
        self.wrap(MemoryTracker, "resolve_access", "memory.resolve_access",
                  after=resolved)
        self.wrap(MemoryTracker, "pe_header_write", "memory.pe_header_write")

        # clock and injection
        for attr in ("on_stall_api", "on_time_query", "is_time_query",
                     "on_rdtsc"):
            self.wrap(VirtualClock, attr, "clock")
        self.wrap(InjectionRouter, "route", "injection.route",
                  after=count("injection.rerouted",
                              lambda a, r: bool(r.rerouted)))

        # aggregate and cli
        self.wrap(cli_mod, "_load_reports", "aggregate.load", whole=True,
                  after=count("aggregate.load.reports", lambda a, r: len(r)))
        self.wrap(CorpusAccumulator, "add", "aggregate.add")
        self.wrap(CorpusAccumulator, "finalize", "aggregate.finalize_render")
        for attr in ("render_summary_json", "render_core_table",
                     "render_packer_table"):
            self.wrap(agg_mod, attr, "aggregate.finalize_render", whole=True)
        self.wrap(cli_mod, "cmd_batch", "cli.batch", whole=True)
        self.wrap(cli_mod, "cmd_aggregate", "cli.aggregate", whole=True)

    # -- results --------------------------------------------------------------

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, duration s, self s) of span ``name`` over all samples."""
        calls = duration = self_ns = 0
        for (_sample, span), (c, d, s) in self.totals.items():
            if span == name:
                calls += c
                duration += d
                self_ns += s
        return calls, duration / 1e9, self_ns / 1e9

    def self_by_name(self) -> dict[str, float]:
        out: Counter = Counter()
        for (_sample, span), (_c, _d, s) in self.totals.items():
            out[span] += s / 1e9
        return dict(out)

    def memory_self(self, sample: str | None = None) -> float:
        return sum(s for (smp, span), (_c, _d, s) in self.totals.items()
                   if span in MEMORY_SPANS and sample in (None, smp)) / 1e9

    def write(self, fh, fields: dict) -> None:
        """Write every span and per-sample total as one JSON line each,
        with ``fields`` added."""
        for span_id, parent, name, sample, start, end in self.spans:
            fh.write(json.dumps({
                **fields, "id": span_id, "parent": parent, "name": name,
                "sample": sample, "start_ns": start, "end_ns": end}) + "\n")
        for (sample, name), (calls, duration, self_ns) in \
                sorted(self.totals.items()):
            fh.write(json.dumps({
                **fields, "sample": sample, "name": name, "calls": calls,
                "duration_ns": duration, "self_ns": self_ns}) + "\n")


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))

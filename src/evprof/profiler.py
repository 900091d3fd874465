"""Per-sample profiling: streams events through tracker, clock, catalog,
and the injection router, and produces the sample's report.

Classification thresholds: a sample started if it invoked at least one
native API and is active at 50 or more. It is evasive if it used at least
one technique outside the FP-prone four. Detection positions are
normalized to [0, 100] over the event sequence, which stands in for
execution progress: replayed traces carry no authoritative wall clock.
A detection's position is ``100 * (seq - first) / max(last - first, 1)``,
where ``first`` is the seq of the meta record and ``last`` that of the
last record, so a trace whose seqs start anywhere, below zero too, gets
positions in [0, 100].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from . import catalog
from .catalog import HONEYPOT_PID, DetectionRecord, Effect, RunConfig
from .clock import VirtualClock
from .injection import InjectionRouter
from .memory import MemoryRegion, MemoryTracker
from .trace import Diagnostic, TraceEvent

TIMELINE_SLOTS = ("[0-10]", "[11-89]", "[90-100]")


def timeline_slot(pos: float) -> str:
    """Map a normalized position to its execution-range slot."""
    if not 0 <= pos <= 100:
        raise ValueError(f"position {pos} outside [0, 100]")
    ipos = int(pos)  # inclusive integer boundaries
    if ipos <= 10:
        return TIMELINE_SLOTS[0]
    if ipos <= 89:
        return TIMELINE_SLOTS[1]
    return TIMELINE_SLOTS[2]


def counted_detections(detections: list[DetectionRecord],
                       technique_set: list[str]) -> list[DetectionRecord]:
    """The detections a report's statistics count: those of a technique in
    its technique_set, which leaves out the FP-prone four when they are
    excluded."""
    counted = set(technique_set)
    return [d for d in detections if d.technique in counted]


def derived_fields(native_api_count: int, technique_set: list[str],
                   counted: list[DetectionRecord]) -> dict:
    """The report fields its native API count, technique set and counted
    detections decide."""
    return {"started": native_api_count >= 1,
            "active": native_api_count >= 50,
            "evasive": bool(technique_set),
            "techniques_count": len(technique_set),
            "first_pos": counted[0].normalized_pos if counted else None,
            "last_pos": counted[-1].normalized_pos if counted else None,
            "categories_in_order": list(dict.fromkeys(
                _CATEGORY[d.technique] for d in counted))}


@dataclass
class SampleReport:
    """One sample's verdict; the field order is the report's key order."""

    sample_id: str
    labels: dict[str, str] = field(default_factory=dict)
    started: bool = False
    active: bool = False
    native_api_count: int = 0
    total_event_count: int = 0
    evasive: bool = False
    techniques_count: int = 0
    technique_set: list[str] = field(default_factory=list)
    first_pos: float | None = None
    last_pos: float | None = None
    categories_in_order: list[str] = field(default_factory=list)
    externally_visible_split: dict = field(default_factory=dict)
    internet: bool = False
    child_process: bool = False
    visible_api_counts: dict[str, int] = field(default_factory=dict)
    detections: list[DetectionRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = dict(vars(self), detections=[vars(d) for d in self.detections])
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "SampleReport":
        """Decode a report; a missing required key raises KeyError.

        Raises ValueError on: a value whose JSON type does not match its
        field; a detection whose technique the catalog does not know, whose
        category is not that technique's, or whose normalized_pos is
        outside [0, 100] or below the previous detection's (the profiler
        emits detections in event order); a technique_set other than the
        techniques of the detections, sorted, with or without the FP-prone
        four; and any of the fields ``derived_fields`` derives from the
        counted detections other than it derives. So an evasive report must
        carry its detections: a missing ``detections`` key decodes as none.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("report is not a JSON object")
        kwargs = {}
        for name in _REPORT_KEYS:
            if name in doc:
                kwargs[name] = doc[name]
            elif name not in _OPTIONAL_REPORT_KEYS:
                raise KeyError(name)
        for name, value in kwargs.items():
            types, items = _REPORT_TYPES[name]
            if type(value) not in types or items and not all(
                    type(v) in items for v in
                    (value.values() if type(value) is dict else value)):
                raise ValueError(f"{name} {value!r} does not match its type")
        detections = []
        previous_pos = 0
        for d in kwargs.get("detections", ()):
            record = DetectionRecord(*[d[name] for name in _DETECTION_KEYS])
            # only the values the corpus fold reads: a report can hold
            # thousands of detections
            technique, pos = record.technique, record.normalized_pos
            if not (type(technique) is str
                    and technique in _CATEGORY
                    and record.category == _CATEGORY[technique]
                    and type(pos) in (int, float)
                    and previous_pos <= pos <= 100):
                raise ValueError(f"detection {d!r}: technique must be a "
                                 f"catalog id, category its category and "
                                 f"normalized_pos a number in [0, 100], "
                                 f"not below the previous detection's")
            previous_pos = pos
            detections.append(record)
        kwargs["detections"] = detections
        techniques = kwargs["technique_set"]
        detected = {d.technique for d in detections}
        if techniques not in (sorted(detected), sorted(
                detected - catalog.FP_PRONE_TECHNIQUES)):
            raise ValueError(f"technique_set {techniques!r} disagrees with "
                             f"the techniques of the detections")
        derived = derived_fields(kwargs["native_api_count"], techniques,
                                 counted_detections(detections, techniques))
        for name, value in derived.items():
            if kwargs[name] != value:
                raise ValueError(f"{name} {kwargs[name]!r} disagrees with "
                                 f"native_api_count, technique_set and the "
                                 f"counted detections")
        return SampleReport(**kwargs)


# JSON value types per type name in a field annotation; a float also takes
# a JSON integer, and a detection is a JSON object
_JSON_TYPES = {"str": (str,), "bool": (bool,), "int": (int,),
               "float": (float, int), "None": (type(None),), "dict": (dict,),
               "list": (list,), "DetectionRecord": (dict,)}


def _json_types(annotation: str):
    """(value types, item types) of ``float | None``, ``list[str]``,
    ``dict[str, int]`` and the like. The item types are those of a list's
    elements or a dict's values, and empty for an unparameterized type."""
    types, items = (), ()
    for part in annotation.split(" | "):
        base, _, inner = part.partition("[")
        types += _JSON_TYPES[base]
        if inner:
            items = _JSON_TYPES[inner[:-1].split(", ")[-1]]
    return types, items


_REPORT_KEYS = tuple(f.name for f in fields(SampleReport))
_REPORT_TYPES = {f.name: _json_types(f.type) for f in fields(SampleReport)}
_DETECTION_KEYS = tuple(f.name for f in fields(DetectionRecord))
# each technique's catalog category, a dict read per detection
_CATEGORY = {r.id: r.category for r in catalog.RULES}
# keys a report may omit; they take the field's default
_OPTIONAL_REPORT_KEYS = frozenset({"labels", "visible_api_counts",
                                   "warnings", "detections"})


class SampleProfiler:
    """Single-sample pipeline; feed events in seq order, then finish().

    Fills ``report`` as events arrive; ``finish`` derives the rest of it.
    Keeps the per-event effect log (rewritten waits, adjusted time reads,
    rdtsc substitutions, reroutes) for inspection.
    """

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self.tracker = MemoryTracker()
        self.clock = VirtualClock()
        self.router = InjectionRouter(
            self.tracker,
            active=self.config.mitigation_enabled("Shellcode_injected"))
        self.effects: list[Effect] = []
        self.report = SampleReport(sample_id="")
        self._first_seq = 0
        self._max_seq = 0
        self._visible_seqs: list[int] = []

    # -- event handling ------------------------------------------------------

    def process(self, event: TraceEvent) -> None:
        self.report.total_event_count += 1
        self._max_seq = event.seq
        self._HANDLERS.get(event.kind, SampleProfiler._match)(self, event)

    def _on_meta(self, event: TraceEvent) -> None:
        p = event.payload
        self._first_seq = event.seq
        self.report.sample_id = p.sample_id
        self.report.labels = dict(p.labels)
        for layout in p.structs:
            self.tracker.install_watchpoints(event.pid, layout, event.seq)

    def _on_image_load(self, event: TraceEvent) -> None:
        p = event.payload
        if p.header:
            # split the image so the header gets its own shadow-tracked
            # region; code above the header keeps the image's red kind.
            # A header longer than its image (a validation diagnostic) is
            # cut to the image, and an empty one (also a diagnostic) is no
            # header.
            header_size = min(len(p.header), p.size)
            if self._register(event, MemoryRegion(
                    event.pid, p.base, header_size, "pe_header",
                    name=p.name + "/header")):
                self.tracker.register_pe_header(
                    event.pid, p.base, p.header[:header_size],
                    p.size_of_image_addr)
            if p.size > header_size:
                self._register(event, MemoryRegion(
                    event.pid, p.base + header_size, p.size - header_size,
                    p.region_kind, name=p.name))
        else:
            self._register(event, MemoryRegion(
                event.pid, p.base, p.size, p.region_kind, name=p.name))
        for layout in p.structs:
            self.tracker.install_watchpoints(event.pid, layout, event.seq)

    def _on_region_alloc(self, event: TraceEvent) -> None:
        p = event.payload
        if self._register(event, MemoryRegion(
                event.pid, p.base, p.size, p.region_kind, name=p.name)) \
                and p.region_kind == "pe_header":
            # a fresh allocation holds zeros
            self.tracker.register_pe_header(event.pid, p.base, b"")

    def _on_region_free(self, event: TraceEvent) -> None:
        self.tracker.free_region(event.pid, event.payload.base, event.seq)

    def _ignore(self, event: TraceEvent) -> None:
        pass

    def _on_api(self, event: TraceEvent) -> None:
        p = event.payload
        report = self.report
        if p.native:
            report.native_api_count += 1
        if p.name in catalog.INTERNET_APIS:
            report.internet = True
        if p.name in catalog.CHILD_PROCESS_APIS:
            report.child_process = True
        if p.name in catalog.VISIBLE_APIS:
            counts = report.visible_api_counts
            counts[p.name] = counts.get(p.name, 0) + 1
            self._visible_seqs.append(event.seq)

        # routing changes no event: the Shellcode_injected rule matches
        # the target the sample named
        if self.router.route(event).rerouted:
            self.effects.append(Effect(event.seq, "reroute", HONEYPOT_PID))
        self._match(event)

    def _match(self, event: TraceEvent) -> None:
        records, effects = catalog.match_event(
            event, self.tracker, self.clock, self.config)
        self.effects.extend(effects)
        self.report.detections.extend(records)

    def _register(self, event: TraceEvent, region: MemoryRegion) -> bool:
        """Map ``region``; a refused one becomes a warning and False."""
        try:
            self.tracker.register_region(region)
        except Exception as exc:
            self.report.warnings.append(f"seq {event.seq}: {exc}")
            return False
        return True

    # kind -> handler; plain functions, so no profiler refers to itself.
    # Kinds without an entry (insn, mem_read, mem_write) go to _match.
    _HANDLERS = {
        "meta": _on_meta,
        "image_load": _on_image_load,
        "region_alloc": _on_region_alloc,
        "region_free": _on_region_free,
        "process_start": _ignore,
        "thread_start": _ignore,
        "api": _on_api,
    }

    # -- reporting -------------------------------------------------------------

    def finish(self) -> SampleReport:
        report = self.report
        report.visible_api_counts = dict(
            sorted(report.visible_api_counts.items()))

        first = self._first_seq
        span = max(self._max_seq - first, 1)
        for record in report.detections:
            record.normalized_pos = 100.0 * (record.seq - first) / span

        report.technique_set = sorted({
            d.technique for d in report.detections
            if not (self.config.exclude_fp_prone
                    and d.technique in catalog.FP_PRONE_TECHNIQUES)})
        counted = counted_detections(report.detections, report.technique_set)
        vars(report).update(derived_fields(
            report.native_api_count, report.technique_set, counted))
        report.externally_visible_split = self._visible_split(counted)

        for diag in (self.tracker.diagnostics + self.clock.diagnostics
                     + self.router.diagnostics):
            report.warnings.append(str(diag))
        return report

    def _visible_split(self, counted: list[DetectionRecord]) -> dict:
        total = len(self._visible_seqs)
        if not counted or total == 0:
            return {"before_first_pct": 0.0, "after_last_pct": 0.0,
                    "defined": False}
        first = counted[0].seq
        last = counted[-1].seq
        before = sum(1 for s in self._visible_seqs if s < first)
        after = sum(1 for s in self._visible_seqs if s > last)
        return {"before_first_pct": 100.0 * before / total,
                "after_last_pct": 100.0 * after / total,
                "defined": True}


def run_sample(events: list[TraceEvent], config: RunConfig | None = None,
               diagnostics: list[Diagnostic] | None = None) -> SampleReport:
    """Profile one parsed trace and return its report.

    Validation diagnostics, when supplied, are carried into the report's
    warnings; an empty trace yields a not-started report.
    """
    profiler = SampleProfiler(config)
    if diagnostics:
        profiler.report.warnings.extend(str(d) for d in diagnostics)
    for event in events:
        profiler.process(event)
    return profiler.finish()

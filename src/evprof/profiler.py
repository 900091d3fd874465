"""Per-sample profiling: streams events through tracker, clock, catalog,
and the injection router, and produces the sample's report.

Classification thresholds: a sample started if it invoked at least one
native API and is active at 50 or more. It is evasive if it used at least
one technique outside the FP-prone four. Detection positions are
normalized to [0, 100] over the event sequence, which stands in for
execution progress: replayed traces carry no authoritative wall clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from . import catalog
from .catalog import DetectionRecord, Effect
from .clock import VirtualClock
from .config import RunConfig
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

        A value whose JSON type does not match its field, a technique id
        the catalog does not know, an evasive report without positions, or
        a detection position outside [0, 100] raises ValueError.
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
        techniques = kwargs["technique_set"]
        if not catalog.KNOWN_TECHNIQUES.issuperset(techniques):
            raise ValueError(f"unknown technique in technique_set "
                             f"{techniques!r}")
        if kwargs["evasive"] and not (_is_pos(kwargs["first_pos"])
                                      and _is_pos(kwargs["last_pos"])):
            raise ValueError("evasive report without first_pos and last_pos "
                             "in [0, 100]")
        detections = []
        for d in kwargs.get("detections", ()):
            record = DetectionRecord(*[d[name] for name in _DETECTION_KEYS])
            # only the values the corpus fold reads: a report can hold
            # thousands of detections
            if not (type(record.technique) is str
                    and type(record.category) is str
                    and _is_pos(record.normalized_pos)):
                raise ValueError(f"detection {d!r}: technique and category "
                                 f"must be strings and normalized_pos a "
                                 f"number in [0, 100]")
            detections.append(record)
        kwargs["detections"] = detections
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


def _is_pos(value) -> bool:
    return type(value) in (int, float) and 0 <= value <= 100


_REPORT_KEYS = tuple(f.name for f in fields(SampleReport))
_REPORT_TYPES = {f.name: _json_types(f.type) for f in fields(SampleReport)}
_DETECTION_KEYS = tuple(f.name for f in fields(DetectionRecord))
# keys a report may omit; they take the field's default
_OPTIONAL_REPORT_KEYS = frozenset({"labels", "visible_api_counts",
                                   "warnings", "detections"})


class SampleProfiler:
    """Single-sample pipeline; feed events in seq order, then finish().

    Keeps the per-event effect log (rewritten waits, adjusted time reads,
    rdtsc substitutions, reroutes) for inspection.
    """

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self.config.validate_overrides(catalog.KNOWN_TECHNIQUES)
        self.tracker = MemoryTracker(catalog.WATCH_FIELD_TECHNIQUES)
        self.clock = VirtualClock(self.config.clock)
        self.router = InjectionRouter(
            self.tracker, honeypot_pid=self.config.honeypot_pid,
            active=self.config.mitigation_enabled("Shellcode_injected"))
        self.effects: list[Effect] = []
        self.detections: list[DetectionRecord] = []
        self.routed_events: list[TraceEvent] = []
        self._sample_id = ""
        self._labels: dict[str, str] = {}
        self._native_api_count = 0
        self._event_count = 0
        self._max_seq = 0
        self._internet = False
        self._child_process = False
        self._visible_counts: dict[str, int] = {}
        self._visible_seqs: list[int] = []
        self._warnings: list[str] = []
        # kinds without an entry (insn, mem_read, mem_write) go to _match
        self._handlers = {
            "meta": self._on_meta,
            "image_load": self._on_image_load,
            "region_alloc": self._on_region_alloc,
            "region_free": self._on_region_free,
            "process_start": self._ignore,
            "thread_start": self._ignore,
            "api": self._on_api,
        }

    # -- event handling ------------------------------------------------------

    def process(self, event: TraceEvent) -> None:
        self._event_count += 1
        self._max_seq = event.seq
        self._handlers.get(event.kind, self._match)(event)

    def _on_meta(self, event: TraceEvent) -> None:
        p = event.payload
        self._sample_id = p.sample_id
        self._labels = dict(p.labels)
        for layout in p.structs:
            self.tracker.install_watchpoints(event.pid, layout, event.seq)

    def _on_image_load(self, event: TraceEvent) -> None:
        p = event.payload
        if p.header is not None:
            # split the image so the header gets its own shadow-tracked
            # region; code above the header keeps the image's red kind
            header_size = len(p.header)
            if self._register(event, MemoryRegion(
                    event.pid, p.base, header_size, "pe_header",
                    name=p.name + "/header")):
                self.tracker.register_pe_header(
                    event.pid, p.base, p.header, p.size_of_image_addr)
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
            self.tracker.register_pe_header(event.pid, p.base, b"",
                                            size=p.size)

    def _on_region_free(self, event: TraceEvent) -> None:
        self.tracker.free_region(event.pid, event.payload.base, event.seq)

    def _ignore(self, event: TraceEvent) -> None:
        pass

    def _on_api(self, event: TraceEvent) -> None:
        p = event.payload
        if p.native:
            self._native_api_count += 1
        traits = catalog.api_traits(p.name)
        if traits.internet:
            self._internet = True
        if traits.child_process:
            self._child_process = True
        if traits.externally_visible:
            self._visible_counts[p.name] = self._visible_counts.get(p.name, 0) + 1
            self._visible_seqs.append(event.seq)

        # matching reads the original event: the Shellcode_injected rule
        # checks the target that routing rewrites
        route = self.router.route(event)
        if route.rerouted:
            self.routed_events.append(route.event)
            self.effects.append(Effect(
                event.seq, "reroute",
                f"{p.name} target rerouted to honeypot pid "
                f"{self.router.honeypot_pid}", self.router.honeypot_pid))
        self._match(event)

    def _match(self, event: TraceEvent) -> None:
        records, effects = catalog.match_event(
            event, self.tracker, self.clock, self.config)
        self.effects.extend(effects)
        self.detections.extend(records)

    def _register(self, event: TraceEvent, region: MemoryRegion) -> bool:
        """Map ``region``; a refused one becomes a warning and False."""
        try:
            self.tracker.register_region(region)
        except Exception as exc:
            self._warnings.append(f"seq {event.seq}: {exc}")
            return False
        return True

    # -- reporting -------------------------------------------------------------

    def finish(self) -> SampleReport:
        report = SampleReport(sample_id=self._sample_id,
                              labels=dict(self._labels))
        report.native_api_count = self._native_api_count
        report.total_event_count = self._event_count
        report.started = self._native_api_count >= 1
        report.active = self._native_api_count >= 50
        report.internet = self._internet
        report.child_process = self._child_process
        report.visible_api_counts = dict(sorted(self._visible_counts.items()))

        max_seq = max(self._max_seq, 1)
        for record in self.detections:
            record.normalized_pos = 100.0 * record.seq / max_seq
        report.detections = list(self.detections)

        counted = [d for d in self.detections
                   if not (self.config.exclude_fp_prone
                           and d.technique in catalog.FP_PRONE_TECHNIQUES)]
        report.technique_set = sorted({d.technique for d in counted})
        report.techniques_count = len(report.technique_set)
        report.evasive = bool(report.technique_set)
        if counted:
            report.first_pos = counted[0].normalized_pos
            report.last_pos = counted[-1].normalized_pos
            seen: list[str] = []
            for d in counted:
                if d.category not in seen:
                    seen.append(d.category)
            report.categories_in_order = seen
        report.externally_visible_split = self._visible_split(counted)

        for diag in (self.tracker.diagnostics + self.clock.diagnostics
                     + self.router.diagnostics):
            self._warnings.append(str(diag))
        report.warnings = list(self._warnings)
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
        profiler._warnings.extend(str(d) for d in diagnostics)
    for event in events:
        profiler.process(event)
    return profiler.finish()

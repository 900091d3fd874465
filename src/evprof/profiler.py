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
from dataclasses import dataclass, field

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
    sample_id: str
    labels: dict[str, str] = field(default_factory=dict)
    started: bool = False
    active: bool = False
    native_api_count: int = 0
    total_event_count: int = 0
    evasive: bool = False
    detections: list[DetectionRecord] = field(default_factory=list)
    technique_set: list[str] = field(default_factory=list)
    techniques_count: int = 0
    first_pos: float | None = None
    last_pos: float | None = None
    categories_in_order: list[str] = field(default_factory=list)
    externally_visible_split: dict = field(default_factory=dict)
    internet: bool = False
    child_process: bool = False
    visible_api_counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "sample_id": self.sample_id,
            "labels": self.labels,
            "started": self.started,
            "active": self.active,
            "native_api_count": self.native_api_count,
            "total_event_count": self.total_event_count,
            "evasive": self.evasive,
            "techniques_count": self.techniques_count,
            "technique_set": self.technique_set,
            "first_pos": self.first_pos,
            "last_pos": self.last_pos,
            "categories_in_order": self.categories_in_order,
            "externally_visible_split": self.externally_visible_split,
            "internet": self.internet,
            "child_process": self.child_process,
            "visible_api_counts": self.visible_api_counts,
            "detections": [
                {
                    "technique": d.technique,
                    "category": d.category,
                    "seq": d.seq,
                    "pid": d.pid,
                    "tid": d.tid,
                    "mitigated": d.mitigated,
                    "substituted_value": d.substituted_value,
                    "normalized_pos": d.normalized_pos,
                }
                for d in self.detections
            ],
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "SampleReport":
        doc = json.loads(text)
        report = SampleReport(
            sample_id=doc["sample_id"],
            labels=dict(doc.get("labels", {})),
            started=doc["started"],
            active=doc["active"],
            native_api_count=doc["native_api_count"],
            total_event_count=doc["total_event_count"],
            evasive=doc["evasive"],
            techniques_count=doc["techniques_count"],
            technique_set=list(doc["technique_set"]),
            first_pos=doc["first_pos"],
            last_pos=doc["last_pos"],
            categories_in_order=list(doc["categories_in_order"]),
            externally_visible_split=dict(doc["externally_visible_split"]),
            internet=doc["internet"],
            child_process=doc["child_process"],
            visible_api_counts=dict(doc.get("visible_api_counts", {})),
            warnings=list(doc.get("warnings", [])),
        )
        report.detections = [
            DetectionRecord(
                technique=d["technique"], category=d["category"],
                seq=d["seq"], pid=d["pid"], tid=d["tid"],
                mitigated=d["mitigated"],
                substituted_value=d["substituted_value"],
                normalized_pos=d["normalized_pos"],
            )
            for d in doc.get("detections", [])
        ]
        return report


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

        route = self.router.route(event)
        event = route.event
        if route.rerouted:
            self.routed_events.append(event)
            self.effects.append(Effect(
                event.seq, "reroute",
                f"{p.name} target rerouted to honeypot pid "
                f"{self.router.honeypot_pid}", self.router.honeypot_pid))
        if route.candidate and self.tracker.is_red(event.pid, p.return_address):
            record = DetectionRecord(
                technique="Shellcode_injected",
                category=catalog.rule("Shellcode_injected").category,
                seq=event.seq, pid=event.pid, tid=event.tid,
                substituted_value=route.substituted_value)
            self._finish_record(record, event)
        self._match(event)

    def _match(self, event: TraceEvent) -> None:
        records, effects = catalog.match_event(
            event, self.tracker, self.clock, self.config)
        self.effects.extend(effects)
        for record in records:
            self._finish_record(record, event)

    def _finish_record(self, record: DetectionRecord, event: TraceEvent) -> None:
        rule = catalog.rule(record.technique)
        if rule.mitigated and self.config.mitigation_enabled(record.technique):
            catalog.apply_mitigation(record, event, self.clock, self.config)
        else:
            record.mitigated = False
            record.substituted_value = None
        self.detections.append(record)

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

"""Trace-driven evasion profiler.

Detects and mitigates anti-dynamic-analysis techniques over replayed
process-execution traces, and aggregates per-sample reports into
corpus-level statistics.
"""

from .catalog import (
    DetectionRecord,
    FP_PRONE_TECHNIQUES,
    RULES,
    RunConfig,
    TechniqueRule,
    apply_mitigation,
    match_event,
)
from .clock import VirtualClock
from .injection import InjectionRouter
from .memory import MemoryRegion, MemoryTracker, WatchPoint
from .profiler import SampleProfiler, SampleReport, run_sample, timeline_slot
from .trace import (
    Diagnostic,
    TraceError,
    TraceEvent,
    parse_trace,
    serialize_event,
    serialize_trace,
    validate_trace,
)

__version__ = "0.1.0"

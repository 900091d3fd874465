"""Honeypot rerouting of cross-process injection.

Every write, thread-create, resume, or APC queued into another process is
rerouted to a single decoy process created at analysis start, so the
injected code stays under the same instrumentation as the sample itself.
Memory the sample writes into the honeypot immediately joins the red area,
which means detections triggered from injected code are attributed to the
originating sample like any other red-area activity. The detection itself
is the catalog's ``Shellcode_injected`` rule; this module only reroutes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from .catalog import INJECTION_APIS
from .memory import MemoryRegion, MemoryTracker
from .trace import ApiPayload, Diagnostic, TraceEvent

HONEYPOT_IMAGE_BASE = 0x71000000
HONEYPOT_IMAGE_SIZE = 0x10000


@dataclass
class RouteResult:
    event: TraceEvent        # with target_pid rewritten when rerouted
    rerouted: bool


class InjectionRouter:
    """Reroutes injection APIs to the honeypot process.

    With ``active`` false (mitigation disabled) the router leaves targets
    untouched and registers no honeypot memory, so injected code escapes
    the red area.
    """

    def __init__(self, tracker: MemoryTracker, honeypot_pid: int = 99999,
                 active: bool = True):
        self.tracker = tracker
        self.honeypot_pid = honeypot_pid
        self.active = active
        self.diagnostics: list[Diagnostic] = []
        if active:
            tracker.register_region(MemoryRegion(
                pid=honeypot_pid, base=HONEYPOT_IMAGE_BASE,
                size=HONEYPOT_IMAGE_SIZE, kind="honeypot_image",
                name="honeypot"))

    def route(self, event: TraceEvent) -> RouteResult:
        p = event.payload
        if (not self.active or event.kind != "api"
                or p.name not in INJECTION_APIS
                or p.target_pid is None or p.target_pid == event.pid):
            return RouteResult(event, rerouted=False)

        routed = dc_replace(event, payload=dc_replace(
            p, target_pid=self.honeypot_pid))
        if p.name == "NtWriteVirtualMemory":
            self._register_injection(event)
        elif p.name == "NtCreateThreadEx":
            start = next((a.v for a in p.args if a.t == "a"), None)
            if start is not None and self.tracker.region_at(
                    self.honeypot_pid, start) is None:
                self.diagnostics.append(Diagnostic(
                    event.seq,
                    f"thread start 0x{start:x} targets memory never "
                    f"written into the honeypot"))
        return RouteResult(routed, rerouted=True)

    def _register_injection(self, event: TraceEvent) -> None:
        p: ApiPayload = event.payload
        address = next((a.v for a in p.args if a.t == "a"), None)
        length = next((a.v for a in p.args if a.t == "l"), None)
        if address is None or length is None or length <= 0:
            self.diagnostics.append(Diagnostic(
                event.seq, "injection write without address/length arguments"))
            return
        self._add_red_range(address, length, event.seq)

    def _add_red_range(self, base: int, size: int, seq: int) -> None:
        # coalesce with existing injected ranges: repeated writes into the
        # same target memory must not trip the region overlap invariant.
        # Other honeypot regions (its image) stay as they are, and only the
        # part of the range they do not cover joins the red area.
        pid = self.honeypot_pid
        lo, hi = base, base + size
        blocked = []
        for region in self.tracker.regions_overlapping(pid, base, size):
            if region.kind == "injected":
                lo = min(lo, region.base)
                hi = max(hi, region.end)
                self.tracker.free_region(pid, region.base, seq)
            else:
                blocked.append(region)
                self.diagnostics.append(Diagnostic(
                    seq, f"injected range [0x{base:x},+0x{size:x}) overlaps "
                         f"{region}; only the uncovered part is registered"))
        gaps = []
        for region in blocked:
            gaps.append((lo, region.base))
            lo = max(lo, region.base, region.end)
        gaps.append((lo, hi))
        for start, stop in gaps:
            if start < stop:
                self.tracker.register_region(MemoryRegion(
                    pid=pid, base=start, size=stop - start, kind="injected"))

"""Per-process region tables, the red area, and field watchpoints.

The red area is the set of regions under the analyzed sample's control:
its own image, runtime code allocations, non-standard libraries it loads,
injected ranges, and the honeypot image. Only accesses whose code address
falls inside the red area count as evasion; everything else is treated as
legitimate library activity. Unmapped addresses are never red.

Watchpoints cover individual structure fields published by layout
declarations. A watchpoint dies permanently the first time its address
range is written: the same stack or heap slot may hold unrelated data
afterwards, so later reads must not be attributed to the original field.

PE header bytes are shadow-stored per offset so that header writes can be
classified as real changes versus rewrites of identical values. A shadow
keeps only its non-zero bytes, so a header region of any declared size
costs memory in proportion to the bytes given or written, not its size.

Regions and watchpoints are indexed per pid, so that a lookup costs
O(log n) in the number n of entries of that pid plus the entries its
window holds, and each table write is a bisection plus a list insert or
delete:

* Regions have a positive size (registering any other is refused) and
  never overlap. Their bases form one sorted array beside a parallel list
  of the regions, so the predecessor of an address decides ``region_at``
  and ``is_red``. Registering checks only the predecessor and the
  successor for overlap and inserts at the bisection point; freeing finds
  its base by bisection.
* At most one watchpoint per address is live, because a new declaration
  at an address replaces the live one there. Live watchpoints are keyed
  by address, beside a sorted array of their addresses and the widest
  width ever installed for the pid, so an access [a, a+size) inspects
  only live addresses in [a - widest + 1, a + size). A write drops the
  watchpoints it kills from the index. Hits are returned in install
  order.
* PE shadows stay a per-pid list in registration order, scanned on each
  write: a pid holds one or two of them, and the oldest one holding an
  address wins.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .trace import (
    MEM_ACCESS_SIZES, Diagnostic, MemPayload, StructLayout, TraceEvent,
)

RED_REGION_KINDS = frozenset({
    "main_image", "custom_library", "exec_alloc", "injected", "honeypot_image",
})

SIZE_OF_IMAGE_FIELD = "SIZE_OF_IMAGE"
SIZE_OF_IMAGE_WIDTH = 4


class RegionOverlapError(Exception):
    """Attempt to register a region overlapping an existing one."""

    def __init__(self, new, old):
        self.new = new
        self.old = old
        super().__init__(f"region {new} overlaps existing region {old}")


@dataclass(frozen=True)
class MemoryRegion:
    pid: int
    base: int
    size: int
    kind: str
    name: str | None = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, base: int, size: int) -> bool:
        return base < self.end and self.base < base + size

    def __str__(self):
        label = f" ({self.name})" if self.name else ""
        return f"{self.kind}[0x{self.base:x},+0x{self.size:x}) pid {self.pid}{label}"


@dataclass
class WatchPoint:
    pid: int
    address: int
    width: int
    field: str                 # qualified name, e.g. "PEB.BeingDebugged"
    technique: str | None      # owning technique id, if any
    live: bool = True

    def overlaps(self, address: int, size: int) -> bool:
        return address < self.address + self.width and self.address < address + size


@dataclass
class PeWriteResult:
    changed: bool
    field: str | None  # SIZE_OF_IMAGE when the write touches that field


@dataclass
class _PeShadow:
    base: int
    size: int
    data: dict[int, int]       # offset -> byte, non-zero bytes only
    size_of_image_addr: int | None = None


class _RegionTable:
    """One pid's regions; see the module docstring for the invariants."""

    __slots__ = ("bases", "regions")

    def __init__(self):
        self.bases: list[int] = []                # sorted, one per region
        self.regions: list[MemoryRegion] = []     # disjoint, by base

    def overlapping(self, base: int, size: int) -> list[MemoryRegion]:
        """Regions overlapping [base, base+size), by base."""
        bases, regions = self.bases, self.regions
        i = bisect_right(bases, base) - 1
        if i < 0 or not regions[i].overlaps(base, size):
            i += 1
        j = i
        while j < len(regions) and regions[j].overlaps(base, size):
            j += 1
        return regions[i:j]


class _WatchTable:
    """One pid's watchpoints; see the module docstring for the invariants."""

    __slots__ = ("installed", "live", "starts", "widest")

    def __init__(self):
        self.installed: list[WatchPoint] = []    # all, dead ones too, in order
        self.live: dict[int, tuple[int, WatchPoint]] = {}  # addr -> (n, wp)
        self.starts: list[int] = []              # sorted keys of ``live``
        self.widest = 0


class MemoryTracker:
    """Region table, red-area membership, watchpoints, and PE shadows.

    One tracker per analyzed sample; mutated single-threaded in event
    order. Diagnostics accumulate in ``self.diagnostics``.
    """

    def __init__(self, watch_techniques: dict[str, str] | None = None):
        self._regions: dict[int, _RegionTable] = {}
        self._watchpoints: dict[int, _WatchTable] = {}
        self._pe_shadows: dict[int, list[_PeShadow]] = {}
        self._watch_techniques = dict(watch_techniques or {})
        self.diagnostics: list[Diagnostic] = []

    # -- regions ------------------------------------------------------------

    def register_region(self, region: MemoryRegion) -> None:
        if region.size <= 0:
            raise ValueError(f"region {region} has no extent")
        table = self._regions.get(region.pid)
        if table is None:
            table = self._regions[region.pid] = _RegionTable()
        clash = table.overlapping(region.base, region.size)
        if clash:
            raise RegionOverlapError(region, clash[0])
        i = bisect_right(table.bases, region.base)
        table.bases.insert(i, region.base)
        table.regions.insert(i, region)

    def free_region(self, pid: int, base: int, seq: int = 0) -> None:
        table = self._regions.get(pid)
        i = bisect_left(table.bases, base) if table is not None else 0
        if table is None or i == len(table.bases) or table.bases[i] != base:
            self.diagnostics.append(Diagnostic(
                seq, f"region_free of unknown base 0x{base:x} pid {pid}"))
            return
        del table.bases[i]
        region = table.regions.pop(i)
        if region.kind == "pe_header":
            self._pe_shadows[pid] = [
                s for s in self._pe_shadows.get(pid, []) if s.base != base]

    def region_at(self, pid: int, address: int) -> MemoryRegion | None:
        table = self._regions.get(pid)
        if table is not None:
            i = bisect_right(table.bases, address) - 1
            if i >= 0:
                region = table.regions[i]
                if address < region.base + region.size:
                    return region
        return None

    def regions(self, pid: int) -> list[MemoryRegion]:
        table = self._regions.get(pid)
        return list(table.regions) if table is not None else []

    def regions_overlapping(self, pid: int, base: int,
                            size: int) -> list[MemoryRegion]:
        """Regions of ``pid`` overlapping [base, base+size), by base."""
        table = self._regions.get(pid)
        return table.overlapping(base, size) if table is not None else []

    def is_red(self, pid: int, address: int) -> bool:
        region = self.region_at(pid, address)
        return region is not None and region.kind in RED_REGION_KINDS

    # -- PE header shadow ---------------------------------------------------

    def register_pe_header(self, pid: int, base: int, data: bytes,
                           size_of_image_addr: int | None = None,
                           size: int | None = None) -> None:
        """Track a pe_header region's bytes; region must be registered too.

        ``size`` is the header's extent, ``len(data)`` by default; bytes
        past ``data`` start as zero.
        """
        self._pe_shadows.setdefault(pid, []).append(_PeShadow(
            base, len(data) if size is None else size,
            {off: b for off, b in enumerate(data) if b}, size_of_image_addr))

    def _shadow_for(self, pid: int, address: int) -> _PeShadow | None:
        for shadow in self._pe_shadows.get(pid, ()):
            if shadow.base <= address < shadow.base + shadow.size:
                return shadow
        return None

    def pe_header_write(self, event: TraceEvent) -> PeWriteResult | None:
        """Record a write into a tracked PE header.

        Returns None when the write does not touch any tracked header, and
        for an access size outside {1,2,4,8}, which ``validate_trace``
        diagnoses. ``changed`` is true only if at least one stored byte
        actually differs from what the write deposits; stored bytes are
        updated in either case.
        """
        p: MemPayload = event.payload
        if p.size not in MEM_ACCESS_SIZES:
            return None
        shadow = self._shadow_for(event.pid, p.address)
        if shadow is None:
            return None
        # stores truncate to their access width
        masked = p.value & ((1 << (8 * p.size)) - 1)
        new_bytes = masked.to_bytes(p.size, "little", signed=False)
        changed = False
        data = shadow.data
        for i, b in enumerate(new_bytes):
            off = p.address + i - shadow.base
            if 0 <= off < shadow.size and data.get(off, 0) != b:
                changed = True
                if b:
                    data[off] = b
                else:
                    del data[off]
        fld = None
        if shadow.size_of_image_addr is not None:
            soi = shadow.size_of_image_addr
            if p.address < soi + SIZE_OF_IMAGE_WIDTH and soi < p.address + p.size:
                fld = SIZE_OF_IMAGE_FIELD
        return PeWriteResult(changed, fld)

    def pe_shadow_bytes(self, pid: int, base: int) -> bytes | None:
        for shadow in self._pe_shadows.get(pid, ()):
            if shadow.base == base:
                out = bytearray(shadow.size)
                for off, b in shadow.data.items():
                    out[off] = b
                return bytes(out)
        return None

    # -- watchpoints ----------------------------------------------------------

    def install_watchpoints(self, pid: int, layout: StructLayout,
                            seq: int = 0) -> list[WatchPoint]:
        """Install one live watchpoint per declared field.

        A new declaration at an address that already has a live watchpoint
        replaces it (with a diagnostic): out-parameter structs may be
        re-published by later calls.
        """
        refs = [(name, addr, width) for name, addr, width
                in layout.field_addresses()]
        return self._install(pid, refs, seq)

    def install_field_watchpoints(self, pid: int, refs, seq: int = 0) -> list[WatchPoint]:
        """Install watchpoints from published FieldRef records."""
        return self._install(
            pid, [(r.qualified, r.address, r.width) for r in refs], seq)

    def _install(self, pid: int, refs, seq: int) -> list[WatchPoint]:
        table = self._watchpoints.get(pid)
        if table is None:
            table = self._watchpoints[pid] = _WatchTable()
        installed = []
        for name, addr, width in refs:
            replaced = table.live.get(addr)
            if replaced is None:
                insort(table.starts, addr)
            else:
                old = replaced[1]
                old.live = False
                self.diagnostics.append(Diagnostic(
                    seq, f"watchpoint at 0x{addr:x} ({old.field}) replaced "
                         f"by new declaration of {name}"))
            wp = WatchPoint(pid, addr, width, name,
                            self._watch_techniques.get(name))
            table.live[addr] = (len(table.installed), wp)
            table.installed.append(wp)
            table.widest = max(table.widest, width)
            installed.append(wp)
        return installed

    def watchpoints(self, pid: int) -> list[WatchPoint]:
        table = self._watchpoints.get(pid)
        return list(table.installed) if table is not None else []

    def resolve_access(self, event: TraceEvent) -> list[WatchPoint]:
        """Apply a memory access to the watchpoint table.

        A read overlapping live watchpoints returns them as hits. A write
        overlapping any watchpoint permanently kills it and never counts
        as a hit.
        """
        table = self._watchpoints.get(event.pid)
        if table is None:
            return []
        p: MemPayload = event.payload
        address, size = p.address, p.size
        starts, live = table.starts, table.live
        lo = bisect_left(starts, address - table.widest + 1)
        hi = bisect_left(starts, address + size, lo)
        if lo >= hi:
            return []
        touched = [live[a] for a in starts[lo:hi]
                   if live[a][1].overlaps(address, size)]
        if event.kind == "mem_write":
            if touched:
                for _, wp in touched:
                    wp.live = False
                    del live[wp.address]
                starts[lo:hi] = [a for a in starts[lo:hi] if a in live]
            return []
        if len(touched) > 1:
            touched.sort(key=lambda hit: hit[0])
        return [wp for _, wp in touched]

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
is a plain ``(bytes by offset, SizeOfImage address)`` pair that keeps only
its non-zero bytes, so a header region of any declared size costs memory
in proportion to the bytes given or written, not its size. A header write
answers ``(changed, touches SizeOfImage)``.

Regions and watchpoints are indexed per pid. A region lookup costs
O(log n) in the number n of regions of that pid, and each region table
write is a bisection plus a list insert or delete; a watchpoint lookup
costs a bounded number of dict probes, whatever the number of fields:

* Regions have a positive size (registering any other is refused) and
  never overlap. Their bases form one sorted array beside a parallel list
  of the regions, so the predecessor of an address decides ``region_at``
  and ``is_red``. Registering checks only the predecessor and the
  successor for overlap and inserts at the bisection point; freeing finds
  its base by bisection.
* At most one watchpoint per address is live, because a new declaration
  at an address replaces the live one there. Live watchpoints are keyed
  by address, beside a count of live fields per width and the widest
  live width of the pid, so an access [a, a+size) probes each address of
  [a - widest + 1, a + size) once. The window is bounded: a field is at
  most ``MAX_FIELD_WIDTH`` bytes wide (installing a wider one is
  refused), and an access whose size is outside ``MEM_ACCESS_SIZES``,
  which ``validate_trace`` diagnoses, touches no table, as for PE
  shadows. A killing write or a replacement drops the dead watchpoint
  from the dict, and the window shrinks back when the last live field of
  the widest width dies. Hits are returned in install order.
* A PE shadow is keyed by its region, ``(pid, base)``: a write finds the
  shadow of every header it overlaps through ``regions_overlapping`` and
  one dict lookup each, a shadow's extent is its region's, and freeing the
  region drops it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .trace import (
    MAX_FIELD_WIDTH, MEM_ACCESS_SIZES, Diagnostic, MemPayload, StructLayout,
    TraceEvent,
)

RED_REGION_KINDS = frozenset({
    "main_image", "custom_library", "exec_alloc", "injected", "honeypot_image",
})

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

    def overlaps(self, base: int, size: int) -> bool:
        return base < self.end and self.base < base + size

    def __str__(self):
        label = f" ({self.name})" if self.name else ""
        return f"{self.kind}[0x{self.base:x},+0x{self.size:x}) pid {self.pid}{label}"


@dataclass
class WatchPoint:
    address: int
    width: int
    field: str                 # qualified name, e.g. "PEB.BeingDebugged"
    live: bool = True


class _RegionTable:
    """One pid's regions; see the module docstring for the invariants."""

    __slots__ = ("bases", "regions")

    def __init__(self):
        self.bases: list[int] = []                # sorted, one per region
        self.regions: list[MemoryRegion] = []     # disjoint, by base


class _WatchTable:
    """One pid's watchpoints; see the module docstring for the invariants."""

    __slots__ = ("installed", "live", "widths", "widest")

    def __init__(self):
        self.installed: list[WatchPoint] = []    # all, dead ones too, in order
        self.live: dict[int, tuple[int, WatchPoint]] = {}  # addr -> (n, wp)
        self.widths: dict[int, int] = {}         # width -> live fields
        self.widest = 0                          # widest live width

    def kill(self, wp: WatchPoint) -> None:
        """Mark the live ``wp`` dead and drop it from the live fields."""
        wp.live = False
        del self.live[wp.address]
        left = self.widths[wp.width] - 1
        if left:
            self.widths[wp.width] = left
        else:
            del self.widths[wp.width]
            if wp.width == self.widest:
                self.widest = max(self.widths, default=0)


class MemoryTracker:
    """Region table, red-area membership, watchpoints, and PE shadows.

    One tracker per analyzed sample; mutated single-threaded in event
    order. Diagnostics accumulate in ``self.diagnostics``.
    """

    def __init__(self):
        self._regions: dict[int, _RegionTable] = {}
        self._watchpoints: dict[int, _WatchTable] = {}
        # (pid, base) -> (non-zero bytes by offset, SizeOfImage address)
        self._pe_shadows: dict[tuple[int, int],
                               tuple[dict[int, int], int | None]] = {}
        self.diagnostics: list[Diagnostic] = []

    # -- regions ------------------------------------------------------------

    def register_region(self, region: MemoryRegion) -> None:
        if region.size <= 0:
            raise ValueError(f"region {region} has no extent")
        clash = self.regions_overlapping(region.pid, region.base, region.size)
        if clash:
            raise RegionOverlapError(region, clash[0])
        table = self._regions.get(region.pid)
        if table is None:
            table = self._regions[region.pid] = _RegionTable()
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
        del table.regions[i]
        self._pe_shadows.pop((pid, base), None)

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
        if table is None:
            return []
        regions = table.regions
        i = bisect_right(table.bases, base) - 1
        if i < 0 or not regions[i].overlaps(base, size):
            i += 1
        j = i
        while j < len(regions) and regions[j].overlaps(base, size):
            j += 1
        return regions[i:j]

    def is_red(self, pid: int, address: int) -> bool:
        region = self.region_at(pid, address)
        return region is not None and region.kind in RED_REGION_KINDS

    # -- PE header shadow ---------------------------------------------------

    def register_pe_header(self, pid: int, base: int, data: bytes,
                           size_of_image_addr: int | None = None) -> None:
        """Track the bytes of the pe_header region that starts at ``base``;
        that region must be registered first. Bytes past ``data`` start as
        zero."""
        region = self.region_at(pid, base)
        if (region is None or region.base != base
                or region.kind != "pe_header"):
            raise ValueError(
                f"no pe_header region starts at 0x{base:x} pid {pid}")
        self._pe_shadows[pid, base] = (
            {off: b for off, b in enumerate(data) if b}, size_of_image_addr)

    def pe_header_write(self, event: TraceEvent) -> tuple[bool, bool]:
        """Record a write into every tracked PE header it overlaps.

        Returns ``(changed, touches SizeOfImage)``. ``changed`` is true only
        if at least one stored byte of those headers actually differs from
        what the write deposits; stored bytes are updated in either case.
        The second item is true when the write touches a header's
        SizeOfImage field. A write that touches no tracked header, or whose
        access size is outside {1,2,4,8} (a ``validate_trace`` diagnosis),
        returns ``(False, False)``.
        """
        p: MemPayload = event.payload
        if p.size not in MEM_ACCESS_SIZES:
            return False, False
        pid, address, size = event.pid, p.address, p.size
        shadows = [(region, self._pe_shadows[pid, region.base])
                   for region in self.regions_overlapping(pid, address, size)
                   if (pid, region.base) in self._pe_shadows]
        if not shadows:
            return False, False
        # stores truncate to their access width
        masked = p.value & ((1 << (8 * size)) - 1)
        new_bytes = masked.to_bytes(size, "little", signed=False)
        changed = touches_soi = False
        for region, (data, soi) in shadows:
            start = address - region.base
            for off in range(max(start, 0), min(start + size, region.size)):
                b = new_bytes[off - start]
                if data.get(off, 0) != b:
                    changed = True
                    if b:
                        data[off] = b
                    else:
                        del data[off]
            if (soi is not None and address < soi + SIZE_OF_IMAGE_WIDTH
                    and soi < address + size):
                touches_soi = True
        return changed, touches_soi

    def pe_shadow_bytes(self, pid: int, base: int) -> bytes | None:
        shadow = self._pe_shadows.get((pid, base))
        if shadow is None:
            return None
        out = bytearray(self.region_at(pid, base).size)
        for off, b in shadow[0].items():
            out[off] = b
        return bytes(out)

    # -- watchpoints ----------------------------------------------------------

    def install_watchpoints(self, pid: int, layout: StructLayout,
                            seq: int = 0) -> list[WatchPoint]:
        """Install one live watchpoint per declared field.

        A new declaration at an address that already has a live watchpoint
        replaces it (with a diagnostic): out-parameter structs may be
        re-published by later calls. A width outside 0..MAX_FIELD_WIDTH
        raises ValueError before any field of the call is installed.
        """
        refs = [(name, addr, width) for name, addr, width
                in layout.field_addresses()]
        return self._install(pid, refs, seq)

    def install_field_watchpoints(self, pid: int, refs, seq: int = 0) -> list[WatchPoint]:
        """Install watchpoints from published FieldRef records."""
        return self._install(
            pid, [(r.qualified, r.address, r.width) for r in refs], seq)

    def _install(self, pid: int, refs, seq: int) -> list[WatchPoint]:
        for name, _, width in refs:
            if not 0 <= width <= MAX_FIELD_WIDTH:
                raise ValueError(f"watchpoint {name} width {width} outside "
                                 f"0..{MAX_FIELD_WIDTH}")
        table = self._watchpoints.get(pid)
        if table is None:
            table = self._watchpoints[pid] = _WatchTable()
        installed = []
        for name, addr, width in refs:
            replaced = table.live.get(addr)
            if replaced is not None:
                old = replaced[1]
                table.kill(old)
                self.diagnostics.append(Diagnostic(
                    seq, f"watchpoint at 0x{addr:x} ({old.field}) replaced "
                         f"by new declaration of {name}"))
            wp = WatchPoint(addr, width, name)
            table.live[addr] = (len(table.installed), wp)
            table.installed.append(wp)
            table.widths[width] = table.widths.get(width, 0) + 1
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
        as a hit. An access size outside {1,2,4,8}, which
        ``validate_trace`` diagnoses, neither hits nor kills.
        """
        table = self._watchpoints.get(event.pid)
        p: MemPayload = event.payload
        if table is None or p.size not in MEM_ACCESS_SIZES:
            return []
        address, size = p.address, p.size
        live = table.live
        touched = []
        for a in range(address - table.widest + 1, address + size):
            hit = live.get(a)
            if hit is not None and address < a + hit[1].width:
                touched.append(hit)
        if event.kind == "mem_write":
            for _, wp in touched:
                table.kill(wp)
            return []
        if len(touched) > 1:
            touched.sort(key=lambda hit: hit[0])
        return [wp for _, wp in touched]

"""Region table, red area, watchpoints, and PE header shadow."""

import pytest
from hypothesis import example, given, settings, strategies as st

from evprof.memory import (
    MemoryRegion, MemoryTracker, RegionOverlapError,
)
from evprof.catalog import TRIGGERS
from evprof.trace import (
    MAX_FIELD_WIDTH, FieldRef, MemPayload, StructLayout, TraceEvent,
)

from helpers import best_time, header_bytes
from oracles import ListMemoryTracker


def read_event(pid, addr, size=1, value=0, accessor=0x401000, seq=1):
    return TraceEvent(seq, pid, 1, 0, "mem_read",
                      MemPayload(addr, size, value, accessor))


def write_event(pid, addr, size=1, value=0, accessor=0x401000, seq=1):
    return TraceEvent(seq, pid, 1, 0, "mem_write",
                      MemPayload(addr, size, value, accessor))


# -- regions / red area -------------------------------------------------------

def test_main_image_is_red():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x400000, 0x1000, "main_image"))
    assert tr.is_red(1, 0x400500)


def test_standard_library_is_not_red():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x7FF00000, 0x10000,
                                    "standard_library"))
    assert not tr.is_red(1, 0x7FF00100)


def test_unmapped_address_is_not_red():
    tr = MemoryTracker()
    assert not tr.is_red(1, 0x12345)


def test_injected_region_is_red():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(7, 0x9000, 0x200, "injected"))
    assert tr.is_red(7, 0x9010)


def test_overlapping_regions_rejected_naming_both():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x1000, 0x1000, "exec_alloc",
                                    name="first"))
    with pytest.raises(RegionOverlapError) as exc:
        tr.register_region(MemoryRegion(1, 0x1800, 0x1000, "exec_alloc",
                                        name="second"))
    message = str(exc.value)
    assert "first" in message and "second" in message


def test_same_range_different_pids_allowed():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x1000, 0x1000, "exec_alloc"))
    tr.register_region(MemoryRegion(2, 0x1000, 0x1000, "data_alloc"))
    assert tr.is_red(1, 0x1400)
    assert not tr.is_red(2, 0x1400)


def test_freed_region_no_longer_red():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x1000, 0x1000, "exec_alloc"))
    assert tr.is_red(1, 0x1400)
    tr.free_region(1, 0x1000)
    assert not tr.is_red(1, 0x1400)


def test_free_unknown_region_diagnosed():
    tr = MemoryTracker()
    tr.free_region(1, 0xDEAD, seq=9)
    assert any("0xdead" in str(d) for d in tr.diagnostics)


def test_is_red_stable_between_region_events():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x1000, 0x1000, "exec_alloc"))
    answers = {tr.is_red(1, 0x1000 + off) for _ in range(5)
               for off in (0, 0xFFF)}
    assert answers == {True}


# -- watchpoints --------------------------------------------------------------

def test_install_watchpoints_one_per_field():
    tr = MemoryTracker()
    layout = StructLayout("PEB", 0x7000, (
        ("BeingDebugged", 0x2, 1),
        ("NtGlobalFlag", 0x68, 4),
        ("NumberOfProcessors", 0x64, 4),
        ("ProcessHeap.Flags", 0x100, 4),
        ("ProcessHeap.ForceFlags", 0x104, 4),
        ("Reserved", 0x200, 4),
    ))
    wps = tr.install_watchpoints(1, layout)
    assert len(wps) == 6
    assert all(wp.live for wp in wps)
    rules = {wp.field: [r.id for r in TRIGGERS.get(("watch", wp.field), ())]
             for wp in wps}
    assert rules["PEB.BeingDebugged"] == ["IsDebuggerPresentPEB"]
    assert rules["PEB.Reserved"] == []


def test_install_single_field_from_api_out_struct():
    tr = MemoryTracker()
    wps = tr.install_field_watchpoints(
        1, [FieldRef("SYSTEM_INFO", "dwNumberOfProcessors", 0x5FF0, 4)])
    assert len(wps) == 1
    assert wps[0].live
    assert [r.id for r in TRIGGERS[("watch", wps[0].field)]] == \
        ["NumberOfProcessors"]


def test_empty_field_map_installs_nothing():
    tr = MemoryTracker()
    assert tr.install_watchpoints(1, StructLayout("X", 0x1000, ())) == []


def test_duplicate_live_watchpoint_replaced_with_diagnostic():
    tr = MemoryTracker()
    layout = StructLayout("X", 0x1000, (("f", 0, 4),))
    first = tr.install_watchpoints(1, layout)[0]
    second = tr.install_watchpoints(1, layout)[0]
    assert not first.live
    assert second.live
    assert any("replaced" in str(d) for d in tr.diagnostics)


def test_read_live_watchpoint_hits():
    tr = MemoryTracker()
    tr.install_watchpoints(1, StructLayout(
        "PEB", 0x7000, (("BeingDebugged", 0x2, 1),)))
    hits = tr.resolve_access(read_event(1, 0x7002))
    assert [wp.field for wp in hits] == ["PEB.BeingDebugged"]


def test_write_kills_watchpoint_then_read_misses():
    tr = MemoryTracker()
    tr.install_watchpoints(1, StructLayout("X", 0x7000, (("f", 0, 4),)))
    assert tr.resolve_access(write_event(1, 0x7000, size=4)) == []
    assert tr.resolve_access(read_event(1, 0x7000, size=4)) == []


def test_partial_overlap_write_kills():
    tr = MemoryTracker()
    tr.install_watchpoints(1, StructLayout("X", 0x7000, (("f", 0, 4),)))
    tr.resolve_access(write_event(1, 0x7003, size=2))
    assert tr.resolve_access(read_event(1, 0x7000, size=4)) == []


def test_read_unwatched_address_no_hit():
    tr = MemoryTracker()
    tr.install_watchpoints(1, StructLayout("X", 0x7000, (("f", 0, 4),)))
    assert tr.resolve_access(read_event(1, 0x8888)) == []


@pytest.mark.parametrize("width", [-1, MAX_FIELD_WIDTH + 1, 2 ** 40])
def test_field_width_outside_0_to_64_is_refused_before_any_install(width):
    tr = MemoryTracker()
    live, = tr.install_watchpoints(1, StructLayout("X", 0x7000, (("f", 0, 4),)))
    refs = [FieldRef("S", "ok", 0x7000, 4), FieldRef("S", "bad", 0x8000, width)]
    with pytest.raises(ValueError, match=f"S.bad width {width} outside 0..64"):
        tr.install_field_watchpoints(1, refs)
    # the first ref did not replace the live field at its address
    assert tr.watchpoints(1) == [live] and live.live
    assert tr.diagnostics == []


def test_installs_and_writes_below_live_fields_cost_the_same_at_any_count():
    # 2,000 fields installed at descending addresses below the live ones,
    # then each written; an index of live addresses kept sorted in one list
    # moves every entry per install and per write, a ratio of about 12
    def tracker(live):
        tr = MemoryTracker()
        tr.install_field_watchpoints(1, [
            FieldRef("S", f"f{i}", 0x10000000 + 8 * i, 4)
            for i in range(live)])
        return tr

    refs = [[FieldRef("S", f"g{i}", 0x10000000 - 8 * (i + 1), 4)]
            for i in range(2000)]
    writes = [write_event(1, ref.address, size=4) for ref, in refs]

    def installs_then_writes(tr):
        # each round kills what it installs, so the rounds start alike
        for ref in refs:
            tr.install_field_watchpoints(1, ref)
        for ev in writes:
            tr.resolve_access(ev)

    small, large = tracker(2000), tracker(128_000)
    assert (best_time(installs_then_writes, large)
            / best_time(installs_then_writes, small)) < 3


@pytest.mark.parametrize("death", ["write", "replacement"])
def test_the_probe_window_shrinks_when_the_widest_field_dies(death):
    # 20,000 4-byte reads of 1,000 live 4-byte fields, after a 4-byte or a
    # 64-byte field died; a window that keeps the widest width ever
    # installed probes 71 addresses per read after the 64-byte one instead
    # of 7, a ratio of about 3.7
    def tracker(dead_width):
        tr = MemoryTracker()
        tr.install_field_watchpoints(1, [
            FieldRef("S", f"f{i}", 0x10000000 + 8 * i, 4)
            for i in range(1000)])
        tr.install_field_watchpoints(
            1, [FieldRef("D", "gone", 0x20000000, dead_width)])
        if death == "write":
            tr.resolve_access(write_event(1, 0x20000000))
        else:
            tr.install_field_watchpoints(
                1, [FieldRef("D", "new", 0x20000000, 4)])
        return tr

    reads = [read_event(1, 0x10000000 + 8 * (i % 1000), size=4)
             for i in range(20_000)]

    def read_all(tr):
        for ev in reads:
            tr.resolve_access(ev)

    after_narrow, after_wide = tracker(4), tracker(64)
    assert (best_time(read_all, after_wide)
            / best_time(read_all, after_narrow)) < 2.5


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["read", "write"]),
              st.integers(min_value=0x7000, max_value=0x700B),
              st.sampled_from([1, 2, 4])),
    max_size=30))
def test_watchpoint_liveness_is_monotone(accesses):
    tr = MemoryTracker()
    tr.install_watchpoints(1, StructLayout(
        "X", 0x7000, (("a", 0, 4), ("b", 4, 2), ("c", 8, 4))))
    dead = set()
    for i, (kind, addr, size) in enumerate(accesses):
        ev = read_event(1, addr, size=size, seq=i + 1) if kind == "read" \
            else write_event(1, addr, size=size, seq=i + 1)
        tr.resolve_access(ev)
        for wp in tr.watchpoints(1):
            if not wp.live:
                dead.add(id(wp))
            else:
                assert id(wp) not in dead, "watchpoint came back alive"


# -- pe header shadow -----------------------------------------------------

def make_pe_tracker():
    tr = MemoryTracker()
    header = header_bytes()
    tr.register_region(MemoryRegion(1, 0x400000, len(header), "pe_header"))
    tr.register_pe_header(1, 0x400000, header,
                          size_of_image_addr=0x400050)
    return tr


def test_erase_signature_is_a_change():
    tr = make_pe_tracker()
    changed, size_of_image = tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x0))
    assert changed
    assert not size_of_image


def test_same_value_write_is_not_a_change():
    tr = make_pe_tracker()
    # stored bytes are 4d 5a ("MZ"); value 0x5A4D deposits the same bytes
    changed, _ = tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x5A4D))
    assert not changed


def test_size_of_image_raise_detected():
    tr = make_pe_tracker()
    changed, size_of_image = tr.pe_header_write(
        write_event(1, 0x400050, size=4, value=0x00100000))
    assert changed
    assert size_of_image


def test_write_outside_header_ignored():
    tr = make_pe_tracker()
    assert tr.pe_header_write(
        write_event(1, 0x500000, size=4, value=1)) == (False, False)


def test_change_then_same_value_rewrite():
    tr = make_pe_tracker()
    assert tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x0))[0]
    # the zeros are now the stored value
    assert not tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x0))[0]
    assert tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x5A4D))[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=0x1F8),
              st.sampled_from([1, 2, 4, 8]),
              st.integers(min_value=0, max_value=2 ** 64 - 1)),
    max_size=40))
def test_shadow_equals_brute_force_byte_map(writes):
    """Oracle: a plain per-offset dict of last-written bytes."""
    tr = make_pe_tracker()
    expected = bytearray(header_bytes())
    for i, (off, size, value) in enumerate(writes):
        tr.pe_header_write(
            write_event(1, 0x400000 + off, size=size, value=value, seq=i + 1))
        for j in range(size):
            if off + j < len(expected):
                expected[off + j] = (value >> (8 * j)) & 0xFF
    assert tr.pe_shadow_bytes(1, 0x400000) == bytes(expected)


@pytest.mark.parametrize("base,kind", [
    (0x500000, "pe_header"),     # no region there
    (0x400000, "exec_alloc"),    # a region of another kind
    (0x400010, "pe_header"),     # inside a header, not at its base
])
def test_shadow_without_its_header_region_is_refused(base, kind):
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x400000, 0x200, kind))
    with pytest.raises(ValueError, match="no pe_header region starts at"):
        tr.register_pe_header(1, base, b"MZ")
    assert tr.pe_shadow_bytes(1, base) is None
    assert tr.pe_header_write(
        write_event(1, base, size=2, value=1)) == (False, False)


def test_bad_size_header_writes_touch_nothing():
    tr = make_pe_tracker()
    for size in (-5, 0, 3, 16):
        assert tr.pe_header_write(
            write_event(1, 0x400000, size=size, value=0)) == (False, False)
    assert tr.pe_shadow_bytes(1, 0x400000) == header_bytes()


def test_huge_size_header_write_allocates_nothing():
    # 2**62 bytes could never be allocated: the write must be turned away
    # before any mask or byte string of that width is built
    tr = make_pe_tracker()
    assert tr.pe_header_write(
        write_event(1, 0x400000, size=2 ** 62, value=1)) == (False, False)


# -- indexed tables against the list-scan reference -------------------------

PIDS = st.sampled_from([1, 2])
ADDRS = st.integers(min_value=0, max_value=0x20)
KINDS = st.sampled_from(["exec_alloc", "data_alloc", "injected", "pe_header"])
WIDTHS = st.one_of(st.integers(min_value=0, max_value=16),
                   st.sampled_from([0x30, MAX_FIELD_WIDTH, MAX_FIELD_WIDTH + 1]))
# the sizes a trace may hold, and some that validate_trace diagnoses
ACCESS_SIZES = st.sampled_from([1, 2, 4, 8, 0, 3, 16, -1, 2 ** 62])

OPS = st.one_of(
    st.tuples(st.just("register"), PIDS, ADDRS,
              st.integers(min_value=-4, max_value=0x10), KINDS),
    st.tuples(st.just("free"), PIDS, ADDRS),
    st.tuples(st.just("probe"), PIDS, ADDRS),
    st.tuples(st.just("overlapping"), PIDS, ADDRS,
              st.integers(min_value=-4, max_value=0x10)),
    st.tuples(st.just("install"), PIDS,
              st.lists(st.tuples(ADDRS, WIDTHS), min_size=1, max_size=3)),
    st.tuples(st.just("access"), st.sampled_from(["mem_read", "mem_write"]),
              PIDS, ADDRS, ACCESS_SIZES),
    st.tuples(st.just("shadow"), PIDS, ADDRS,
              st.integers(min_value=0, max_value=0x10),
              st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("header_write"), PIDS, ADDRS,
              st.sampled_from([1, 2, 4, 8]),
              st.integers(min_value=0, max_value=2 ** 64 - 1)),
)


def op_pid(op):
    return op[2] if op[0] == "access" else op[1]


def apply_op(tracker, op, seq):
    """Run one operation; return what it returned or the error it raised."""
    kind, pid = op[0], op_pid(op)
    try:
        if kind == "register":
            _, _, base, size, rkind = op
            return tracker.register_region(MemoryRegion(
                pid, base, size, rkind, name=f"r{seq}"))
        if kind == "free":
            return tracker.free_region(pid, op[2], seq)
        if kind == "probe":
            return tracker.is_red(pid, op[2]), tracker.region_at(pid, op[2])
        if kind == "overlapping":
            return tracker.regions_overlapping(pid, op[2], op[3])
        if kind == "install":
            refs = [FieldRef("S", f"f{seq}_{i}", addr, width)
                    for i, (addr, width) in enumerate(op[2])]
            return [(wp.address, wp.field) for wp in
                    tracker.install_field_watchpoints(pid, refs, seq)]
        if kind == "access":
            _, ekind, _, addr, size = op
            ev = TraceEvent(seq, pid, 1, 0, ekind,
                            MemPayload(addr, size, 0, 0x401000))
            return [(wp.address, wp.width, wp.field)
                    for wp in tracker.resolve_access(ev)]
        if kind == "shadow":
            # the header region first, as the profiler maps it
            _, _, base, length, zeros = op
            tracker.register_region(MemoryRegion(
                pid, base, length + zeros, "pe_header", name=f"h{seq}"))
            data = bytes((base + i) & 0xFF for i in range(length))
            return tracker.register_pe_header(pid, base, data, base + 2)
        _, _, addr, size, value = op
        return tracker.pe_header_write(write_event(pid, addr, size, value,
                                                   seq=seq))
    except RegionOverlapError as exc:
        return ("overlap", str(exc), exc.new, exc.old)
    except ValueError as exc:
        return ("refused", str(exc))


def pid_state(tracker, pid, shadow_bases):
    """The tables of ``pid``, with its PE shadows at ``shadow_bases``."""
    return (tracker.regions(pid),
            [(wp.address, wp.width, wp.field, wp.live)
             for wp in tracker.watchpoints(pid)],
            [tracker.pe_shadow_bytes(pid, base) for base in shadow_bases])


def table_state(tracker):
    return [pid_state(tracker, pid, range(0x21)) for pid in (1, 2)] + [
        [str(d) for d in tracker.diagnostics]]


@settings(max_examples=400, deadline=None)
@given(st.lists(OPS, min_size=10, max_size=80))
# writes running from code into a header, and across two headers into the
# second one's SizeOfImage field at 0x12
@example([("register", 1, 0x4, 4, "exec_alloc"), ("shadow", 1, 0x8, 8, 0),
          ("shadow", 1, 0x10, 4, 0), ("header_write", 1, 0x6, 4, 0),
          ("header_write", 1, 0x8, 2, 0), ("header_write", 1, 0xc, 8, 0),
          ("header_write", 1, 0x10, 2, 0)])
def test_indexed_tracker_matches_list_scan(ops):
    # After each operation only what it can change is compared: the tables
    # of its pid, the shadows registered there and the new diagnostics, so
    # a failure names the operation and shows only that pid's tables. The
    # whole state is compared once, at the end.
    fast, slow = MemoryTracker(), ListMemoryTracker()
    shadow_bases = {1: set(), 2: set()}
    for seq, op in enumerate(ops, start=1):
        pid = op_pid(op)
        if op[0] == "shadow":
            shadow_bases[pid].add(op[2])
        seen = len(slow.diagnostics)
        assert apply_op(fast, op, seq) == apply_op(slow, op, seq), op
        bases = sorted(shadow_bases[pid])
        assert pid_state(fast, pid, bases) == pid_state(slow, pid, bases), op
        assert [str(d) for d in fast.diagnostics[seen:]] == \
            [str(d) for d in slow.diagnostics[seen:]], op
    assert table_state(fast) == table_state(slow)


@pytest.mark.parametrize("size", [0, -5])
def test_region_without_extent_is_refused(size):
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(1, 0x1000, 0x1000, "exec_alloc"))
    with pytest.raises(ValueError, match="has no extent"):
        tr.register_region(MemoryRegion(1, 0x3000, size, "data_alloc"))
    assert [r.base for r in tr.regions(1)] == [0x1000]
    # a later region around that base is unaffected
    tr.register_region(MemoryRegion(1, 0x2f00, 0x200, "data_alloc"))
    assert [r.base for r in tr.regions(1)] == [0x1000, 0x2f00]


def test_huge_header_shadow_allocates_only_written_bytes():
    # a 1 TiB header: only the bytes given or written are stored
    tr = MemoryTracker()
    base, size = 0x900000, 2 ** 40
    tr.register_region(MemoryRegion(1, base, size, "pe_header"))
    tr.register_pe_header(1, base, b"MZ")
    far = base + size - 8
    assert tr.pe_header_write(write_event(1, far, size=8, value=7))[0]
    assert not tr.pe_header_write(write_event(1, far, size=8, value=7))[0]
    assert tr.pe_header_write(write_event(1, far, size=8, value=0))[0]
    assert tr.pe_header_write(
        write_event(1, base + size, size=1)) == (False, False)
    assert not tr.pe_header_write(
        write_event(1, base, size=2, value=0x5A4D))[0]

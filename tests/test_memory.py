"""Region table, red area, watchpoints, and PE header shadow."""

import pytest
from hypothesis import given, settings, strategies as st

from evprof.memory import (
    MemoryRegion, MemoryTracker, RegionOverlapError,
)
from evprof.catalog import WATCH_FIELD_TECHNIQUES
from evprof.trace import FieldRef, MemPayload, StructLayout, TraceEvent

from helpers import header_bytes
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
    tr = MemoryTracker(WATCH_FIELD_TECHNIQUES)
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
    by_field = {wp.field: wp for wp in wps}
    assert by_field["PEB.BeingDebugged"].technique == "IsDebuggerPresentPEB"
    assert by_field["PEB.Reserved"].technique is None


def test_install_single_field_from_api_out_struct():
    tr = MemoryTracker(WATCH_FIELD_TECHNIQUES)
    wps = tr.install_field_watchpoints(
        1, [FieldRef("SYSTEM_INFO", "dwNumberOfProcessors", 0x5FF0, 4)])
    assert len(wps) == 1
    assert wps[0].live
    assert wps[0].technique == "NumberOfProcessors"


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
    tr = MemoryTracker(WATCH_FIELD_TECHNIQUES)
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
    result = tr.pe_header_write(write_event(1, 0x400000, size=2, value=0x0))
    assert result.changed
    assert result.field is None


def test_same_value_write_is_not_a_change():
    tr = make_pe_tracker()
    # stored bytes are 4d 5a ("MZ"); value 0x5A4D deposits the same bytes
    result = tr.pe_header_write(write_event(1, 0x400000, size=2, value=0x5A4D))
    assert not result.changed


def test_size_of_image_raise_detected():
    tr = make_pe_tracker()
    result = tr.pe_header_write(
        write_event(1, 0x400050, size=4, value=0x00100000))
    assert result.changed
    assert result.field == "SIZE_OF_IMAGE"


def test_write_outside_header_ignored():
    tr = make_pe_tracker()
    assert tr.pe_header_write(write_event(1, 0x500000, size=4, value=1)) is None


def test_change_then_same_value_rewrite():
    tr = make_pe_tracker()
    assert tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x0)).changed
    # the zeros are now the stored value
    assert not tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x0)).changed
    assert tr.pe_header_write(
        write_event(1, 0x400000, size=2, value=0x5A4D)).changed


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


def test_bad_size_header_writes_touch_nothing():
    tr = make_pe_tracker()
    for size in (-5, 0, 3, 16):
        assert tr.pe_header_write(
            write_event(1, 0x400000, size=size, value=0)) is None
    assert tr.pe_shadow_bytes(1, 0x400000) == header_bytes()


def test_huge_size_header_write_allocates_nothing():
    # 2**62 bytes could never be allocated: the write must be turned away
    # before any mask or byte string of that width is built
    tr = make_pe_tracker()
    assert tr.pe_header_write(
        write_event(1, 0x400000, size=2 ** 62, value=1)) is None


# -- indexed tables against the list-scan reference -------------------------

PIDS = st.sampled_from([1, 2])
ADDRS = st.integers(min_value=0, max_value=0x20)
KINDS = st.sampled_from(["exec_alloc", "data_alloc", "injected", "pe_header"])
WIDTHS = st.one_of(st.integers(min_value=0, max_value=16), st.just(0x30))

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
              PIDS, ADDRS, st.sampled_from([1, 2, 4, 8])),
    st.tuples(st.just("shadow"), PIDS, ADDRS,
              st.integers(min_value=0, max_value=0x10),
              st.one_of(st.none(), st.integers(min_value=0, max_value=8))),
    st.tuples(st.just("header_write"), PIDS, ADDRS,
              st.sampled_from([1, 2, 4, 8]),
              st.integers(min_value=0, max_value=2 ** 64 - 1)),
)


def apply_op(tracker, op, seq):
    """Run one operation; return what it returned or the error it raised."""
    kind, pid = op[0], op[2] if op[0] == "access" else op[1]
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
            _, _, base, length, zeros = op
            data = bytes((base + i) & 0xFF for i in range(length))
            size = None if zeros is None else length + zeros
            return tracker.register_pe_header(pid, base, data, base + 2,
                                              size=size)
        _, _, addr, size, value = op
        return tracker.pe_header_write(write_event(pid, addr, size, value,
                                                   seq=seq))
    except RegionOverlapError as exc:
        return ("overlap", str(exc), exc.new, exc.old)
    except ValueError as exc:
        return ("refused", str(exc))


def table_state(tracker):
    return [(pid, tracker.regions(pid),
             [(wp.address, wp.width, wp.field, wp.live)
              for wp in tracker.watchpoints(pid)],
             [tracker.pe_shadow_bytes(pid, base) for base in range(0x21)])
            for pid in (1, 2)] + [[str(d) for d in tracker.diagnostics]]


@settings(max_examples=400, deadline=None)
@given(st.lists(OPS, min_size=10, max_size=80))
def test_indexed_tracker_matches_list_scan(ops):
    fast, slow = MemoryTracker(), ListMemoryTracker()
    for seq, op in enumerate(ops, start=1):
        assert apply_op(fast, op, seq) == apply_op(slow, op, seq), op
        assert table_state(fast) == table_state(slow), op


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
    tr.register_pe_header(1, base, b"MZ", size=size)
    far = base + size - 8
    assert tr.pe_header_write(write_event(1, far, size=8, value=7)).changed
    assert not tr.pe_header_write(write_event(1, far, size=8, value=7)).changed
    assert tr.pe_header_write(write_event(1, far, size=8, value=0)).changed
    assert tr.pe_header_write(write_event(1, base + size, size=1)) is None
    assert not tr.pe_header_write(
        write_event(1, base, size=2, value=0x5A4D)).changed

"""Trace parsing, serialization, and validation."""

import pytest
from hypothesis import given, settings, strategies as st

from evprof.trace import (
    TraceError, Value, decode_text, encode_text, parse_trace,
    serialize_trace, validate_trace,
)
from evprof.generate import GenSpec, TechniqueSpec, build_sample

from helpers import T

MINIMAL = (
    "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
    "seq=1 pid=1 tid=1 insn_index=2 kind=api name=NtClose ret=i:0 "
    "return_address=0x401000 native=1\n"
)


def test_minimal_trace_parses():
    events = parse_trace(MINIMAL)
    assert len(events) == 2
    assert [e.seq for e in events] == [0, 1]
    assert events[0].kind == "meta"
    assert events[1].payload.name == "NtClose"
    assert events[1].payload.native is True


def test_minimal_round_trip():
    assert serialize_trace(parse_trace(MINIMAL)) == MINIMAL


def test_non_monotonic_seq_reports_line():
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
        "seq=5 pid=1 tid=1 insn_index=1 kind=api name=A "
        "return_address=0x1 native=0\n"
        "seq=0 pid=1 tid=1 insn_index=2 kind=api name=B "
        "return_address=0x1 native=0\n"
    )
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert exc.value.line == 3


def test_missing_meta_rejected():
    with pytest.raises(TraceError, match="meta"):
        parse_trace("seq=0 pid=1 tid=1 insn_index=0 kind=api name=A "
                    "return_address=0x1 native=0\n")


def test_duplicate_meta_rejected():
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=a\n"
        "seq=1 pid=1 tid=1 insn_index=0 kind=meta sample_id=b\n"
    )
    with pytest.raises(TraceError, match="duplicate meta"):
        parse_trace(text)


def test_empty_input_rejected():
    with pytest.raises(TraceError, match="empty"):
        parse_trace("")


def test_unknown_kind_is_hard_error():
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
        "seq=1 pid=1 tid=1 insn_index=1 kind=warp address=0x1\n"
    )
    with pytest.raises(TraceError, match="unknown kind"):
        parse_trace(text)


def test_unknown_api_name_accepted():
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
        "seq=1 pid=1 tid=1 insn_index=1 kind=api name=TotallyMadeUpCall "
        "return_address=0x1 native=0\n"
    )
    events = parse_trace(text)
    assert events[1].payload.name == "TotallyMadeUpCall"


def test_malformed_token_reports_line():
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
        "seq=1 pid=1 tid=1 insn_index=1 kind=api name\n"
    )
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert exc.value.line == 2


def test_unknown_mnemonic_rejected():
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
        "seq=1 pid=1 tid=1 insn_index=1 kind=insn mnemonic=hlt address=0x1\n"
    )
    with pytest.raises(TraceError, match="mnemonic"):
        parse_trace(text)


@pytest.mark.parametrize("record", [
    "kind=region_alloc base=0x9000 size={} region_kind=exec_alloc",
    "kind=image_load name=a.dll base=0x9000 size={} "
    "region_kind=custom_library",
])
@pytest.mark.parametrize("size", ["0", "-5", "-0x10"])
def test_region_without_extent_rejected(record, size):
    text = (
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
        f"seq=1 pid=1 tid=1 insn_index=1 {record.format(size)}\n"
    )
    with pytest.raises(TraceError, match="not positive") as exc:
        parse_trace(text)
    assert exc.value.line == 2


def test_text_encoding_round_trip():
    for s in ("plain", "with space", "a=b,c;d(e)f%g", "päth\\to\\file",
              "100%"):
        assert decode_text(encode_text(s)) == s


def test_typed_values_round_trip():
    for v in (Value("i", -3), Value("s", "hello world"), Value("d", 300000),
              Value("a", 0xDEADBEEF), Value("l", 512)):
        assert Value.parse(v.encode()) == v


def test_string_arg_with_separators_survives():
    t = T()
    t.api("wmi_query", args=(Value("s", "SELECT a, b FROM C"),),
          ret=Value("s", "x;y(z)"))
    text = serialize_trace(t.events)
    events = parse_trace(text)
    payload = events[-1].payload
    assert payload.args[0].v == "SELECT a, b FROM C"
    assert payload.ret.v == "x;y(z)"


# -- validation -----------------------------------------------------------

def test_valid_fixture_has_no_diagnostics():
    t = T().images()
    t.native_filler(3)
    assert validate_trace(t.events) == []


def test_cpuid_missing_outputs_diagnosed():
    t = T()
    t.insn("cpuid", in_regs=(("eax", 1),), out_regs=(("ebx", 0), ("edx", 0)))
    diags = validate_trace(t.events)
    assert len(diags) == 1
    assert "ECX" in diags[0].message
    assert diags[0].seq == t.events[-1].seq


def test_rdtsc_missing_tick_diagnosed():
    t = T()
    t.insn("rdtsc")
    diags = validate_trace(t.events)
    assert any("tick" in d.message for d in diags)


def test_insn_index_regression_diagnosed():
    t = T()
    t.api("NtClose")
    ev = t.api("NtClose")
    # force a decreasing counter on the same thread via tid 2
    t.insn("int3", insn_index=50, pid=ev.pid, tid=2)
    t.insn("int3", insn_index=10, pid=ev.pid, tid=2)
    diags = validate_trace(t.events)
    assert any(f"pid {ev.pid} tid 2" in d.message for d in diags)


def test_bad_mem_size_diagnosed():
    t = T()
    t.read(0x5000, size=3)
    diags = validate_trace(t.events)
    assert any("size 3" in d.message for d in diags)


def test_overlapping_layout_fields_diagnosed():
    from evprof.trace import StructLayout
    bad = StructLayout("X", 0x1000, (("a", 0, 4), ("b", 2, 4)))
    t = T(structs=(bad,))
    diags = validate_trace(t.events)
    assert any("overlapping fields" in d.message for d in diags)


def test_every_event_kind_round_trips():
    from evprof.trace import FieldRef, ProcessStartPayload, TraceEvent
    t = T(labels=(("family", "fam x"), ("year", "2019")))
    t.images(header=b"MZ\x00\x90")
    t.alloc(0x20000, 0x1000, "exec_alloc", name="stage 2")
    t.alloc(0x30000, 0x1000, "data_alloc")
    t.free(0x30000)
    t.events.append(TraceEvent(
        len(t.events), 222, 1, 0, "process_start",
        ProcessStartPayload(parent_pid=100, name="child.exe")))
    t.thread_start(222, 5, parent_tid=1)
    t.api("wmi_query", args=(Value("s", "SELECT Size FROM Win32_DiskDrive"),),
          ret=Value("i", 1), target_pid=555,
          out_structs=(FieldRef("SYSTEM_INFO", "dwNumberOfProcessors",
                                0x5FF0, 4),))
    t.insn("cpuid", in_regs=(("eax", 1),),
           out_regs=(("ebx", 1), ("ecx", 2), ("edx", 3)))
    t.read(0x5FF0, size=4, value=1)
    t.write(0x400000, size=2, value=0)
    text = serialize_trace(t.events)
    assert serialize_trace(parse_trace(text)) == text
    kinds = {e.kind for e in parse_trace(text)}
    assert kinds == {"meta", "image_load", "region_alloc", "region_free",
                     "process_start", "thread_start", "api", "insn",
                     "mem_read", "mem_write"}


# -- properties over generator output ----------------------------------------

technique_ids = st.sampled_from(
    ["IsDebuggerPresentAPI", "RDTSC", "ErasePEHeader", "cpuid_is_hypervisor",
     "NumberOfProcessors", "Shellcode_injected", "reg_keys", "Check_EIP"])


@settings(max_examples=40, deadline=None)
@given(
    tech=technique_ids,
    pos=st.floats(min_value=0, max_value=100),
    origin=st.sampled_from(["red", "benign"]),
    filler=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_parse_serialize_identity_on_generated(tech, pos, origin, filler, seed):
    spec = GenSpec(
        sample_id="prop",
        techniques=(TechniqueSpec(tech, pos=pos, origin=origin),),
        filler=filler, seed=seed)
    text = build_sample(spec).text
    events = parse_trace(text)
    assert serialize_trace(events) == text


@settings(max_examples=20, deadline=None)
@given(filler=st.integers(min_value=1, max_value=60),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_parse_preserves_event_and_kind_counts(filler, seed):
    spec = GenSpec(sample_id="counts", filler=filler, seed=seed,
                   techniques=(TechniqueSpec("RDTSC", pos=50.0),))
    sample = build_sample(spec)
    parsed = parse_trace(sample.text)
    assert len(parsed) == len(sample.events)
    def kinds(events):
        counts = {}
        for e in events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts
    assert kinds(parsed) == kinds(sample.events)

"""Trace parsing, serialization, and validation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from evprof.trace import (
    INSN_MNEMONICS, META_LABEL_KEYS, REGION_KINDS, REQUIRED, SCHEMA,
    ApiPayload, FieldRef, ImageLoadPayload, InsnPayload, MemPayload,
    MetaPayload, ProcessStartPayload, RegionAllocPayload, RegionFreePayload,
    StructLayout, ThreadStartPayload, TraceError, TraceEvent, Value,
    decode_text, encode_text, parse_trace, serialize_event, serialize_trace,
    validate_trace,
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


@pytest.mark.parametrize("text", ["%FF", "a%C3", "%C3%28", "x%80y"])
def test_invalid_percent_utf8_is_a_trace_error(text):
    with pytest.raises(TraceError, match="UTF-8"):
        decode_text(text)


@pytest.mark.parametrize("token", ["d:-1", "d:-99999999", "d:-0x10"])
def test_negative_duration_rejected(token):
    with pytest.raises(TraceError, match="negative duration"):
        Value.parse(token)


def test_zero_duration_and_negative_integers_still_parse():
    assert Value.parse("d:0") == Value("d", 0)
    assert Value.parse("i:-5") == Value("i", -5)


def api_line(fields):
    return ("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
            f"seq=1 pid=1 tid=1 insn_index=1 kind=api {fields} "
            "return_address=0x1 native=0\n")


@pytest.mark.parametrize("fields", [
    "name=Sleep args=d:-99999999",
    "name=A%FF",
    "name=A args=s:%FF",
    "name=A args=q:1",
    "name=A args=i:zz",
    "name=A out_structs=nonsense",
    "name=A ret=s:%E2%82",
])
def test_decoder_errors_carry_the_line_number(fields):
    with pytest.raises(TraceError) as exc:
        parse_trace(api_line(fields))
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2: ")


@pytest.mark.parametrize("line", [
    "kind=insn mnemonic=cpuid address=0x1 in=eax",
    "kind=image_load name=a.dll base=0x9000 size=0x10 "
    "region_kind=custom_library structs=PEB",
])
def test_record_decoder_errors_carry_the_line_number(line):
    text = ("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m "
            "structs=PEB@0x10(x+0x0:4)\n"
            f"seq=1 pid=1 tid=1 insn_index=1 {line}\n")
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert exc.value.line == 2


def test_string_arg_with_separators_survives():
    t = T()
    t.api("wmi_query", args=(Value("s", "SELECT a, b FROM C"),),
          ret=Value("s", "x;y(z)"))
    text = serialize_trace(t.events)
    events = parse_trace(text)
    payload = events[-1].payload
    assert payload.args[0].v == "SELECT a, b FROM C"
    assert payload.ret.v == "x;y(z)"


# -- the schema table ---------------------------------------------------------

# Names inside composite values (struct layouts, published fields, register
# maps) include the separators those syntaxes split on.
names = st.text(alphabet="abcXYZ_019@.:+,;()%", min_size=1, max_size=6)
u64 = st.integers(min_value=0, max_value=2 ** 64 - 1)
ints = st.integers(min_value=-2 ** 64, max_value=2 ** 64)
positive = st.integers(min_value=1, max_value=2 ** 64)


def tuples_of(strategy):
    return st.lists(strategy, max_size=3).map(tuple)


values = st.one_of(
    st.builds(Value, st.just("i"), ints),
    st.builds(Value, st.just("s"), st.text(max_size=8)),
    st.builds(Value, st.just("d"), u64),
    st.builds(Value, st.just("a"), u64),
    st.builds(Value, st.just("l"), ints),
)
layouts = tuples_of(st.builds(
    StructLayout, names, u64,
    tuples_of(st.tuples(names, u64, st.integers(1, 8)))))
regs = tuples_of(st.tuples(names, u64))
region_kinds = st.sampled_from(sorted(REGION_KINDS))
labels = st.dictionaries(st.sampled_from(META_LABEL_KEYS),
                         st.text(max_size=6)).map(
    lambda d: tuple((k, d[k]) for k in META_LABEL_KEYS if k in d))
mem = st.builds(MemPayload, ints, ints, ints, ints)

PAYLOADS = {
    "meta": st.builds(MetaPayload, st.text(max_size=8), labels, layouts),
    "image_load": st.builds(
        ImageLoadPayload, st.text(max_size=8), ints, positive, region_kinds,
        st.none() | st.binary(max_size=6), st.none() | ints, layouts),
    "region_alloc": st.builds(RegionAllocPayload, ints, positive,
                              region_kinds, st.none() | st.text(max_size=8)),
    "region_free": st.builds(RegionFreePayload, ints),
    "process_start": st.builds(ProcessStartPayload, st.none() | ints,
                               st.none() | st.text(max_size=8)),
    "thread_start": st.builds(ThreadStartPayload, st.none() | ints),
    "api": st.builds(
        ApiPayload, st.text(max_size=8), tuples_of(values),
        st.none() | values, ints, st.booleans(),
        tuples_of(st.builds(FieldRef, names, names, u64, st.integers(0, 8))),
        st.none() | ints),
    "insn": st.builds(InsnPayload, st.sampled_from(sorted(INSN_MNEMONICS)),
                      ints, regs, regs),
    "mem_read": mem,
    "mem_write": mem,
}

# One record per kind, every optional field set to a zero or empty value
# that differs from its default: each must be written and read back.
ZERO_PAYLOADS = {
    "meta": MetaPayload("", (("dataset", ""), ("year", "0"))),
    "image_load": ImageLoadPayload("", 0, 1, "pe_header", header=b"",
                                   size_of_image_addr=0),
    "region_alloc": RegionAllocPayload(0, 1, "exec_alloc", name=""),
    "region_free": RegionFreePayload(0),
    "process_start": ProcessStartPayload(parent_pid=0, name=""),
    "thread_start": ThreadStartPayload(parent_tid=0),
    "api": ApiPayload("", (Value("i", 0),), Value("s", ""), 0, False,
                      target_pid=0),
    "insn": InsnPayload("rdtsc", 0, (("", 0),), (("tsc", 0),)),
    "mem_read": MemPayload(0, 0, 0, 0),
    "mem_write": MemPayload(0, 0, 0, 0),
}
ZERO_EVENTS = [TraceEvent(seq, 0, 0, 0, kind, payload)
               for seq, (kind, payload) in enumerate(ZERO_PAYLOADS.items())]


@st.composite
def traces(draw):
    body = draw(st.lists(
        st.sampled_from(sorted(set(SCHEMA) - {"meta"})).flatmap(
            lambda kind: PAYLOADS[kind].map(lambda p: (kind, p))),
        max_size=12))
    seqs = draw(st.lists(st.integers(0, 2 ** 40), min_size=len(body) + 1,
                         max_size=len(body) + 1, unique=True))
    records = [("meta", draw(PAYLOADS["meta"]))] + body
    return [TraceEvent(seq, draw(ints), draw(ints), draw(ints), kind, p)
            for seq, (kind, p) in zip(sorted(seqs), records)]


def test_strategies_cover_every_kind_in_the_schema():
    assert set(PAYLOADS) == set(ZERO_PAYLOADS) == set(SCHEMA)


@settings(max_examples=200, deadline=None)
@given(events=traces())
@example(events=ZERO_EVENTS)
def test_every_kind_round_trips_through_the_schema(events):
    assert parse_trace(serialize_trace(events)) == events


def record_text(kind):
    """A two-line trace whose record of ``kind`` is on line 2 (meta: 1)."""
    meta = serialize_event(ZERO_EVENTS[0])
    if kind == "meta":
        return meta, 1
    event = next(ev for ev in ZERO_EVENTS if ev.kind == kind)
    return meta + "\n" + serialize_event(event), 2


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, (_, fields) in SCHEMA.items()
    for key, _, _, default in fields
    if key is not None and default is REQUIRED
] + [("api", key) for key in ("seq", "pid", "tid", "insn_index", "kind")])
def test_dropping_a_required_field_is_rejected(kind, key):
    text, line = record_text(kind)
    lines = text.split("\n")
    lines[line - 1] = " ".join(tok for tok in lines[line - 1].split()
                               if not tok.startswith(key + "="))
    with pytest.raises(TraceError, match=f"missing field '{key}'") as exc:
        parse_trace("\n".join(lines))
    assert exc.value.line == line


@pytest.mark.parametrize("kind", sorted(SCHEMA))
def test_a_stray_field_is_rejected(kind):
    text, line = record_text(kind)
    lines = text.split("\n")
    lines[line - 1] += " stray=1"
    with pytest.raises(TraceError,
                       match=r"unexpected fields \['stray'\]") as exc:
        parse_trace("\n".join(lines))
    assert exc.value.line == line


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

"""Trace parsing, serialization, and validation."""

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from evprof.catalog import RunConfig
from evprof.trace import (
    INSN_MNEMONICS, MAX_FIELD_WIDTH, MEMO_ENTRIES, META_LABEL_KEYS,
    REGION_KINDS, REQUIRED, SCHEMA, ApiPayload, FieldRef, ImageLoadPayload,
    InsnPayload, MemPayload, MetaPayload, ProcessStartPayload,
    RegionAllocPayload, RegionFreePayload, StructLayout, ThreadStartPayload,
    TraceError, TraceEvent, Value, decode_text, encode_text, parse_trace,
    serialize_event, serialize_trace, tokenize, validate_trace,
)
from evprof.generate import GenSpec, TechniqueSpec, build_sample
from evprof.profiler import run_sample

from helpers import T, best_time, traced_peak
from mutants import LINE_BREAKS, MUTANT_CHARS, corpus60_lines, mutate

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


def test_blank_lines_are_skipped_and_still_counted():
    lines = MINIMAL.splitlines()
    text = lines[0] + "\n\n  \t\n" + lines[1] + "\n\n"
    assert parse_trace(text) == parse_trace(MINIMAL)
    with pytest.raises(TraceError) as exc:
        parse_trace(text + "seq=9 kind=api\n")
    assert exc.value.line == 6


def test_bad_percent_escape_is_an_error_with_its_line():
    # each % needs exactly two hex digits after it
    for name in ("Nt%G1", "ab%1", "a%+f", "a%-0", "a%"):
        with pytest.raises(TraceError) as exc:
            parse_trace(MINIMAL.replace("name=NtClose", "name=" + name))
        assert str(exc.value).startswith("line 2: bad percent escape")


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


@pytest.mark.parametrize("line, message", [
    ("a=1 b a=2", "malformed token 'b'"),
    ("a=1 a=2 b", "duplicate field 'a'"),
    ("a=1 =2 a=3", "malformed token '=2'"),
    ("a==1 a=", "duplicate field 'a'"),
])
def test_tokenize_reports_the_first_bad_token(line, message):
    with pytest.raises(TraceError, match=f"^{message}$"):
        tokenize(line)


def test_tokenize_splits_at_the_first_equals_sign():
    assert tokenize("a==1 b=x=y c=") == {"a": "=1", "b": "x=y", "c": ""}


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


FIELD_LINES = (
    "kind=image_load name=a.dll base=0x9000 size=0x10 "
    "region_kind=custom_library structs=S@0x10(x+0x0:{width})",
    "kind=api name=A return_address=0x1 native=0 "
    "out_structs=S.x@0x10:{width}",
)


@pytest.mark.parametrize("width", [-1, 65, 2 ** 40])
@pytest.mark.parametrize("line", FIELD_LINES)
def test_field_width_outside_0_to_64_is_rejected_with_its_line(line, width):
    text = ("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
            f"seq=1 pid=1 tid=1 insn_index=1 {line.format(width=width)}\n")
    with pytest.raises(TraceError, match="field width") as exc:
        parse_trace(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("width", [0, MAX_FIELD_WIDTH])
@pytest.mark.parametrize("line", FIELD_LINES)
def test_field_widths_at_the_bounds_parse(line, width):
    parse_trace("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
                f"seq=1 pid=1 tid=1 insn_index=1 {line.format(width=width)}\n")


def widest_field_trace(n):
    """One field of the widest width, n 4-byte fields after it, n reads."""
    fields = (("wide", 0, MAX_FIELD_WIDTH),) + tuple(
        (f"f{i}", MAX_FIELD_WIDTH + 8 * i, 4) for i in range(n))
    t = T(structs=(StructLayout("S", 0x100000, fields),)).images()
    for i in range(n):
        t.read(0x100000 + MAX_FIELD_WIDTH + 8 * (i * 7919 % n))
    return serialize_trace(t.events)


def profile_text(text):
    return run_sample(parse_trace(text))


def test_profile_time_is_linear_in_reads_at_the_widest_field():
    n = 2000
    small, large = widest_field_trace(n), widest_field_trace(4 * n)
    # linear is 4; a field wide enough to span all the others makes each
    # read scan every field, and the ratio 16
    assert best_time(profile_text, large) / best_time(profile_text, small) < 8


def api_lines(n):
    meta = "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
    return meta + "".join(
        f"seq={i} pid=1 tid=1 insn_index={i} kind=api name=NtClose "
        f"args=i:{i},s:x ret=i:0 return_address=0x401000 native=1\n"
        for i in range(1, n + 1))


def long_record(last):
    """A meta record of n stray tokens ending in ``last``."""
    return lambda n: ("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m "
                      + " ".join(f"k{i}=1" for i in range(n)) + f" {last}\n")


@pytest.mark.parametrize("trace, n", [
    (api_lines, 2000),
    (long_record("stray=1"), 1000),  # unexpected fields
    (long_record("k0"), 1000),       # malformed last token
    (long_record("k0=2"), 1000),     # duplicated last token
], ids=["lines", "tokens", "malformed-token", "duplicate-token"])
def test_parse_time_is_linear_in_lines_and_tokens(trace, n):
    # linear is 4; the tokenizer's error path rescans the line once
    # parse_outcome turns a TraceError into its message
    assert (best_time(parse_outcome, trace(4 * n))
            / best_time(parse_outcome, trace(n))) < 8


def test_repeated_raw_values_decode_once_and_are_shared():
    events = parse_trace(api_lines(2))
    assert [e.payload for e in events[1:]] == [
        ApiPayload(name="NtClose", args=(Value("i", i), Value("s", "x")),
                   ret=Value("i", 0), return_address=0x401000, native=True)
        for i in (1, 2)]
    first, second = (e.payload for e in events[1:])
    assert second.ret is first.ret
    assert second.name is first.name
    assert second.return_address is first.return_address
    assert second.args is not first.args


def distinct_addresses(n, repeats=1):
    """A trace whose api lines carry ``n`` distinct return addresses,
    ``repeats`` times over."""
    meta = "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=m\n"
    return meta + "".join(
        f"seq={i} pid=1 tid=1 insn_index={i} kind=api name=A "
        f"return_address={hex(0x401000 + i % n)} native=0\n"
        for i in range(1, n * repeats + 1))


def test_more_distinct_values_than_the_memo_holds_round_trip():
    text = distinct_addresses(MEMO_ENTRIES + 100, repeats=2)
    # compared by line, so a failure names the first line that differs
    assert serialize_trace(parse_trace(text)).splitlines() == \
        text.splitlines()


def test_a_bad_value_after_the_memo_filled_fails_on_its_line():
    text = distinct_addresses(MEMO_ENTRIES + 100)
    n = text.count("\n")
    text += (f"seq={n} pid=1 tid=1 insn_index={n} kind=api name=A "
             f"return_address=0xZZ native=0\n")
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert str(exc.value) == (f"line {n + 1}: field 'return_address': "
                              f"bad integer '0xZZ'")


@pytest.mark.parametrize("source", ["str", "file"])
def test_parse_holds_little_beyond_the_events_it_returns(tmp_path, source):
    # a per-call memo and line slicing: no copy of the text or its lines
    text = build_sample(GenSpec("mem", filler=5000, seed=1)).text
    path = tmp_path / "mem.trace"
    path.write_text(text, encoding="utf-8")
    parse_trace(text)
    with open(path, encoding="utf-8") as fh:
        events, peak, held = traced_peak(
            parse_trace, text if source == "str" else fh)
    assert len(events) > 5000
    assert peak <= 1.15 * held


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
        ApiPayload, name=st.text(max_size=8), args=tuples_of(values),
        ret=st.none() | values, return_address=ints, native=st.booleans(),
        out_structs=tuples_of(
            st.builds(FieldRef, names, names, u64, st.integers(0, 8))),
        target_pid=st.none() | ints),
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
    "api": ApiPayload(name="", args=(Value("i", 0),), ret=Value("s", ""),
                      return_address=0, native=False, target_pid=0),
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


def test_each_record_class_is_built_from_its_schema_rows():
    from dataclasses import MISSING, fields
    import evprof.trace
    for kind, (cls, rows) in SCHEMA.items():
        required = [(attr, MISSING) for _, attr, _, default in rows
                    if default is REQUIRED]
        optional = [(attr, default) for _, attr, _, default in rows
                    if default is not REQUIRED]
        assert [(f.name, f.default) for f in fields(cls)] == \
            required + optional, kind
        assert "__slots__" in vars(cls), kind
        assert not cls.__dataclass_params__.frozen, kind
        assert getattr(evprof.trace, cls.__name__) is cls, kind
    # each kind has its own class
    assert RegionFreePayload(0) != ThreadStartPayload(0)


def test_readme_record_table_lists_the_schema_fields():
    import os
    import re
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = fh.read().split(
            "| kind | required | optional (default) |\n")[1].split("\n\n")[0]
    listed = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            kinds, required, optional = (
                re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:4])
            listed.update((kind, (required, optional)) for kind in kinds)

    def keys(rows, required):
        # the meta labels row (key None) is one token per label key
        return [k for key, _, _, default in rows
                if (default is REQUIRED) == required
                for k in ((key,) if key else META_LABEL_KEYS)]
    assert listed == {kind: (keys(rows, True), keys(rows, False))
                      for kind, (_, rows) in SCHEMA.items()}


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


def test_cpuid_missing_eax_input_diagnosed():
    t = T()
    t.insn("cpuid", out_regs=(("ebx", 0), ("ecx", 0), ("edx", 0)))
    assert [d.message for d in validate_trace(t.events)] == \
        ["cpuid missing EAX input"]


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


# -- mutated corpus lines ----------------------------------------------------

@st.composite
def mutated_traces(draw, chars=MUTANT_CHARS):
    """A corpus60 trace mutated by ``mutants.mutate`` with ``chars``."""
    lines = draw(st.sampled_from(corpus60_lines()))
    return mutate(lines, lambda lo, hi: draw(st.integers(lo, hi)), chars)


@settings(max_examples=300, deadline=None)
@given(text=mutated_traces())
def test_mutated_corpus_lines_fail_only_as_trace_errors(text):
    try:
        events = parse_trace(text)
    except TraceError:
        return
    run_sample(events, RunConfig(), validate_trace(events)).to_json()


def parse_outcome(source):
    """The events parsed from ``source``, or the TraceError message."""
    try:
        return parse_trace(source)
    except TraceError as exc:
        return str(exc)


def line_ends_trace(end, last=""):
    """MINIMAL with ``end`` after each line, blank lines, and VT, FF and
    U+2028 between tokens, which end no record; ``last`` is a sixth line."""
    first, second = MINIMAL.splitlines()
    return end.join([first.replace(" ", "\x0b", 1), "", " \x0c ",
                     second.replace(" ", "\u2028", 1), "", last])


@settings(max_examples=300, deadline=None)
@given(text=mutated_traces(MUTANT_CHARS + LINE_BREAKS))
@example(text=line_ends_trace("\n"))
@example(text=line_ends_trace("\r\n"))
@example(text=line_ends_trace("\r"))
@example(text=line_ends_trace("\n", "seq=9"))
@example(text=line_ends_trace("\r\n", "seq=9"))
@example(text=line_ends_trace("\r", "seq=9"))
def test_text_and_text_mode_file_parse_alike(text):
    fh = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    assert parse_outcome(text) == parse_outcome(fh)

"""Per-sample orchestration: verdicts, positions, splits, determinism."""

import functools
import time

import pytest

from evprof.catalog import HONEYPOT_PID, RunConfig
from evprof.profiler import (
    SampleProfiler, SampleReport, run_sample, timeline_slot,
)
from evprof.trace import Value, vdur

from helpers import BENIGN, PEB, PEB_BASE, T, build_samples, header_bytes


def profile(t, config=None):
    return run_sample(t.events, config)


# -- started / active thresholds ------------------------------------------------

@pytest.mark.parametrize("count,started,active", [
    (0, False, False),
    (1, True, False),
    (49, True, False),
    (50, True, True),
])
def test_started_active_thresholds(count, started, active):
    t = T().images()
    t.native_filler(count)
    report = profile(t)
    assert report.native_api_count == count
    assert report.started is started
    assert report.active is active


def test_non_native_apis_do_not_count():
    t = T().images()
    for _ in range(60):
        t.api("GetLastError", native=False)
    report = profile(t)
    assert not report.started


def test_empty_event_list_not_started():
    report = run_sample([])
    assert not report.started and not report.active and not report.evasive


# -- evasive classification ---------------------------------------------------

def test_one_real_technique_makes_evasive():
    t = T().images()
    t.native_filler(50)
    t.api("IsDebuggerPresent", ret=Value("i", 0), native=False)
    report = profile(t)
    assert report.started and report.active and report.evasive
    assert report.technique_set == ["IsDebuggerPresentAPI"]
    assert report.techniques_count == 1


def test_fp_prone_only_sample_not_evasive():
    t = T().images()
    t.native_filler(50)
    t.api("GetTickCount", ret=Value("i", 1), native=False)
    t.api("GetCursorPos", ret=Value("s", "x=1,y=1"), native=False)
    report = profile(t)
    assert report.active
    assert not report.evasive
    assert report.technique_set == []
    # the detections are still recorded
    assert sorted(d.technique for d in report.detections) == \
        ["GetTickCount", "mouse_movement"]
    assert report.first_pos is None and report.last_pos is None


def test_include_fp_prone_switch():
    t = T().images()
    t.native_filler(50)
    t.api("GetTickCount", ret=Value("i", 1), native=False)
    report = profile(t, RunConfig(exclude_fp_prone=False))
    assert report.evasive
    assert report.technique_set == ["GetTickCount"]


def test_gating_end_to_end_library_only_calls():
    t = T().images()
    t.native_filler(50, origin=BENIGN)
    for name in ("IsDebuggerPresent", "GetAdaptersInfo", "Process32Next"):
        t.api(name, native=False, origin=BENIGN)
    t.insn("cpuid", origin=BENIGN, in_regs=(("eax", 1),),
           out_regs=(("ebx", 0), ("ecx", 0), ("edx", 0)))
    report = profile(t)
    assert report.active
    assert not report.evasive
    assert report.detections == []


# -- positions and ordering -----------------------------------------------------

def test_normalized_positions_formula():
    t = T().images()
    t.native_filler(6)
    t.api("IsDebuggerPresent", native=False)   # seq 9
    report = profile(t)
    max_seq = t.events[-1].seq
    d = report.detections[0]
    assert d.normalized_pos == 100.0 * d.seq / max_seq
    assert report.first_pos == report.last_pos == d.normalized_pos


def test_detections_ordered_and_categories_first_occurrence():
    t = T().images()
    t.native_filler(50)
    t.api("NtDelayExecution", args=(vdur(60_000),))         # TimingAttacks
    t.api("IsDebuggerPresent", native=False)                # AntiDebug
    t.api("CheckRemoteDebuggerPresent", native=False)       # AntiDebug again
    t.insn("sidt")                                          # VMChecks
    report = profile(t)
    seqs = [d.seq for d in report.detections]
    assert seqs == sorted(seqs)
    assert report.categories_in_order == \
        ["TimingAttacks", "AntiDebug", "VMChecks"]
    assert report.first_pos < report.last_pos


def test_timeline_slot_boundaries():
    assert timeline_slot(10.0) == "[0-10]"
    assert timeline_slot(10.7) == "[0-10]"
    assert timeline_slot(11.0) == "[11-89]"
    assert timeline_slot(25.0) == "[11-89]"
    assert timeline_slot(89.9) == "[11-89]"
    assert timeline_slot(90.0) == "[90-100]"
    assert timeline_slot(95.5) == "[90-100]"
    assert timeline_slot(0.0) == "[0-10]"
    assert timeline_slot(100.0) == "[90-100]"


def test_timeline_slot_rejects_out_of_range():
    with pytest.raises(ValueError):
        timeline_slot(101.0)


# -- externally visible split ---------------------------------------------------

def test_visible_split_counts():
    t = T().images()
    t.native_filler(50)
    t.api("NtWriteFile")                       # 1 before
    t.api("IsDebuggerPresent", native=False)   # first detection
    t.api("NtWriteFile")                       # between
    t.api("NtWriteFile")
    t.api("CheckRemoteDebuggerPresent", native=False)  # last detection
    for _ in range(7):
        t.api("NtWriteFile")                   # 7 after
    report = profile(t)
    split = report.externally_visible_split
    assert split["defined"]
    assert split["before_first_pct"] == 10.0
    assert split["after_last_pct"] == 70.0
    assert report.visible_api_counts == {"NtWriteFile": 10}


def test_visible_split_all_after():
    t = T().images()
    t.native_filler(50)
    t.api("IsDebuggerPresent", native=False)
    t.api("connect", native=False)
    t.api("send", native=False)
    report = profile(t)
    split = report.externally_visible_split
    assert split["before_first_pct"] == 0.0
    assert split["after_last_pct"] == 100.0
    assert report.internet


def test_visible_split_zero_visible_events_flagged():
    t = T().images()
    t.native_filler(50)
    t.api("IsDebuggerPresent", native=False)
    report = profile(t)
    split = report.externally_visible_split
    assert not split["defined"]
    assert split["before_first_pct"] == 0.0
    assert split["after_last_pct"] == 0.0


def test_child_process_flag():
    t = T().images()
    t.native_filler(5)
    t.api("CreateProcessW", native=False)
    report = profile(t)
    assert report.child_process
    assert not report.internet


# -- mitigation toggles ----------------------------------------------------------

def stall_and_query(t):
    t.native_filler(50)
    t.api("NtDelayExecution", args=(vdur(300_000),))
    t.api("GetTickCount", ret=Value("i", 1_000), native=False)
    return t


def test_mitigate_on_marks_records_and_rewrites():
    t = stall_and_query(T().images())
    prof = SampleProfiler(RunConfig())
    for ev in t.events:
        prof.process(ev)
    report = prof.finish()
    stall = next(d for d in report.detections if d.technique == "time_stalling")
    assert stall.mitigated and stall.substituted_value == "wait_ms=0"
    query = next(e for e in prof.effects if e.kind == "time_query")
    assert query.value == 301_000


def test_no_mitigate_keeps_detection_without_rewrite():
    t = stall_and_query(T().images())
    prof = SampleProfiler(RunConfig(mitigate=False))
    for ev in t.events:
        prof.process(ev)
    report = prof.finish()
    stall = next(d for d in report.detections if d.technique == "time_stalling")
    assert not stall.mitigated and stall.substituted_value is None
    assert prof.clock.offset_ms == 0
    query = next(e for e in prof.effects if e.kind == "time_query")
    assert query.value == 1_000


def test_lone_rdtsc_is_not_a_detection():
    t = T().images()
    t.native_filler(50)
    t.insn("rdtsc", out_regs=(("tsc", 1000),))
    report = profile(t)
    assert all(d.technique != "RDTSC" for d in report.detections)


def test_rdtsc_reads_with_a_backwards_insn_index_are_not_a_pair():
    t = T().images()
    t.native_filler(50)
    t.insn("rdtsc", out_regs=(("tsc", 1000),), insn_index=100_000)
    t.insn("rdtsc", out_regs=(("tsc", 9000),), insn_index=5)
    report = profile(t)
    assert all(d.technique != "RDTSC" for d in report.detections)


def test_unknown_override_rejected():
    from evprof.catalog import ConfigError
    with pytest.raises(ConfigError):
        SampleProfiler(RunConfig(overrides=(("NoSuchTechnique", "off"),)))


# -- watchpoint flows through the pipeline ------------------------------------

def test_read_before_write_detects_then_write_kills():
    t = T().images()
    t.native_filler(50)
    t.read(PEB_BASE + 0x2, size=1)
    report = profile(t)
    assert [d.technique for d in report.detections] == ["IsDebuggerPresentPEB"]

    t2 = T().images()
    t2.native_filler(50)
    t2.write(PEB_BASE + 0x2, size=1, value=0)
    t2.read(PEB_BASE + 0x2, size=1)
    report2 = profile(t2)
    assert report2.detections == []


def test_pe_header_write_flow():
    t = T(structs=()).images(header=header_bytes())
    t.native_filler(50)
    t.write(0x400000, size=2, value=0)
    report = profile(t)
    assert [d.technique for d in report.detections] == ["ErasePEHeader"]

    same = T(structs=()).images(header=header_bytes())
    same.native_filler(50)
    same.write(0x400000, size=2, value=0x5A4D)
    assert profile(same).detections == []


def test_write_running_into_a_pe_header_changes_it():
    # the write at seq 3 starts in the code below the header and zeroes
    # "MZ"; the write at seq 4 then deposits the zeros already there
    t = T(structs=())
    t.main_image(header=b"MZ\x00\x00")
    t.alloc(0x3FF000, 0x1000, "exec_alloc")
    t.write(0x3FFFFF, size=4, value=0)
    t.write(0x400000, size=2, value=0)
    report = profile(t)
    assert [(d.technique, d.seq) for d in report.detections] == \
        [("ErasePEHeader", 3)]


def test_refused_header_region_gets_no_shadow():
    # the allocation overlaps the main image, so it is not mapped and
    # writes there are not header writes
    t = T(structs=()).images()
    t.native_filler(50)
    t.alloc(0x402000, 0x100, "pe_header")
    t.write(0x402000, size=2, value=5)
    report = profile(t)
    assert report.detections == []
    assert any("overlaps existing region main_image" in w
               for w in report.warnings)

    mapped = T(structs=()).images()
    mapped.native_filler(50)
    mapped.alloc(0x900000, 0x100, "pe_header")
    mapped.write(0x900000, size=2, value=5)
    assert [d.technique for d in profile(mapped).detections] == \
        ["ErasePEHeader"]


def test_header_writes_and_frees_stay_linear_in_live_headers():
    # each write finds its shadow through the region table, and each free
    # drops one; a scan over every live header per write grows about
    # fourfold per doubling of n and takes about 12 s at this n on a
    # 2-vCPU machine
    n = 16_000
    bases = [0x10000000 + 0x1000 * i for i in range(n)]
    t = T(structs=()).images()
    for base in bases:
        t.alloc(base, 0x200, "pe_header")
    for base in bases:
        t.write(base, size=2, value=5)
    for base in bases:
        t.free(base)
    start = time.perf_counter()
    report = profile(t)
    assert time.perf_counter() - start < 5
    assert len(report.detections) == n
    assert report.warnings == []


def test_size_of_image_write_flow():
    t = T(structs=()).images(header=header_bytes())
    t.native_filler(50)
    t.write(0x400050, size=4, value=0x00200000)
    report = profile(t)
    assert [d.technique for d in report.detections] == ["SizeOfImage"]


# -- determinism / serialization ----------------------------------------------

def test_identical_trace_and_config_byte_identical_report():
    t = T().images()
    t.native_filler(50)
    t.api("GetCursorPos", ret=Value("s", "x=3,y=4"), native=False)
    t.insn("rdtsc", out_regs=(("tsc", 1000),))
    a = profile(t, RunConfig(seed=9)).to_json()
    b = profile(t, RunConfig(seed=9)).to_json()
    assert a == b


def test_report_json_round_trip():
    t = T(labels=(("family", "fam"), ("year", "2019"))).images()
    t.native_filler(50)
    t.api("IsDebuggerPresent", native=False)
    t.api("NtWriteFile")
    report = profile(t)
    clone = SampleReport.from_json(report.to_json())
    assert clone.to_json() == report.to_json()
    assert clone.technique_set == report.technique_set
    assert clone.labels == {"family": "fam", "year": "2019"}


@functools.cache
def suite_events(suite):
    from evprof.generate import suite_specs
    from evprof.trace import parse_trace
    return [parse_trace(sample.text)
            for sample in build_samples(suite_specs(suite)).values()]


@pytest.mark.parametrize("exclude_fp_prone", [True, False])
@pytest.mark.parametrize("mitigate", [True, False])
@pytest.mark.parametrize("suite", ["roundtrip", "corpus60", "scenarios"])
def test_every_report_of_a_suite_decodes_to_itself(suite, mitigate,
                                                   exclude_fp_prone):
    # the decoder's checks reject nothing the profiler writes
    config = RunConfig(mitigate=mitigate, exclude_fp_prone=exclude_fp_prone)
    for events in suite_events(suite):
        text = run_sample(events, config).to_json()
        assert SampleReport.from_json(text).to_json() == text


REPORT_KEYS = [
    "sample_id", "labels", "started", "active", "native_api_count",
    "total_event_count", "evasive", "techniques_count", "technique_set",
    "first_pos", "last_pos", "categories_in_order",
    "externally_visible_split", "internet", "child_process",
    "visible_api_counts", "detections", "warnings",
]
OPTIONAL_REPORT_KEYS = {"labels", "visible_api_counts", "warnings",
                        "detections"}
DETECTION_KEYS = ["technique", "category", "seq", "pid", "tid", "mitigated",
                  "substituted_value", "normalized_pos"]


def detected_report_doc():
    import json
    t = T().images()
    t.api("IsDebuggerPresent", native=False)
    return json.loads(profile(t).to_json())


def test_report_json_key_order():
    doc = detected_report_doc()
    assert list(doc) == REPORT_KEYS
    assert list(doc["detections"][0]) == DETECTION_KEYS


@pytest.mark.parametrize("key", [k for k in REPORT_KEYS
                                 if k not in OPTIONAL_REPORT_KEYS])
def test_report_missing_a_required_key_is_rejected(key):
    import json
    doc = detected_report_doc()
    del doc[key]
    with pytest.raises(KeyError):
        SampleReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("key", DETECTION_KEYS)
def test_detection_missing_a_key_is_rejected(key):
    import json
    doc = detected_report_doc()
    del doc["detections"][0][key]
    with pytest.raises(KeyError):
        SampleReport.from_json(json.dumps(doc))


def test_report_optional_keys_default_and_extra_keys_are_ignored():
    import json
    t = T(labels=(("family", "fam"),)).images()
    t.api("NtWriteFile")
    doc = json.loads(profile(t).to_json())
    assert not doc["evasive"] and doc["labels"] and doc["visible_api_counts"]
    for key in OPTIONAL_REPORT_KEYS:
        del doc[key]
    doc["future_key"] = 1
    report = SampleReport.from_json(json.dumps(doc))
    assert (report.labels, report.visible_api_counts, report.warnings,
            report.detections) == ({}, {}, [], [])
    # an evasive report must carry the detections its fields derive from
    doc = detected_report_doc()
    del doc["detections"]
    with pytest.raises(ValueError):
        SampleReport.from_json(json.dumps(doc))


def test_report_that_is_not_an_object_is_rejected():
    with pytest.raises(ValueError):
        SampleReport.from_json("[1, 2]")


@pytest.mark.parametrize("key, value", [
    ("technique_set", ["NotATechnique"]),
    ("technique_set", "IsDebuggerPresentAPI"),
    ("technique_set", [["IsDebuggerPresentAPI"]]),
    ("detections", [1]),
    ("detections", {"technique": "IsDebuggerPresentAPI"}),
])
def test_report_with_an_unknown_technique_or_a_bad_detection_is_rejected(
        key, value):
    import json
    doc = detected_report_doc()
    doc[key] = value
    with pytest.raises(ValueError):
        SampleReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("technique_set, techniques_count", [
    (["IsDebuggerPresentAPI", "IsDebuggerPresentAPI"], 2),
    (["IsDebuggerPresentAPI"], 2),
    (["IsDebuggerPresentAPI"], 0),
])
def test_report_technique_set_must_hold_techniques_count_distinct_ids(
        technique_set, techniques_count):
    import json
    doc = detected_report_doc()
    doc.update(technique_set=technique_set, techniques_count=techniques_count)
    with pytest.raises(ValueError):
        SampleReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("changes", [
    # evasive without a technique: the corpus fold would count it evasive
    {"evasive": True, "technique_set": [], "techniques_count": 0},
    {"started": False, "native_api_count": 3},
    {"active": True, "started": True, "native_api_count": 10},
])
def test_report_verdict_must_follow_from_its_counts(changes):
    import json
    doc = detected_report_doc()
    doc.update(changes)
    with pytest.raises(ValueError, match="disagrees with"):
        SampleReport.from_json(json.dumps(doc))


def fp_prone_first_report_doc(config):
    """A report detecting GetTickCount (FP-prone, AntiDebug), Check_EIP
    (AntiInstrumentation) and IsDebuggerPresentAPI (AntiDebug), in that
    order: the FP-prone setting decides which category comes first."""
    import json
    from evprof.generate import GenSpec, TechniqueSpec, build_sample
    spec = GenSpec(sample_id="fp_first", techniques=(
        TechniqueSpec("GetTickCount", pos=10.0),
        TechniqueSpec("Check_EIP", pos=40.0),
        TechniqueSpec("IsDebuggerPresentAPI", pos=70.0)))
    return json.loads(run_sample(build_sample(spec).events,
                                 config).to_json())


@pytest.mark.parametrize("exclude_fp_prone, first", [
    (True, "AntiInstrumentation"), (False, "AntiDebug")])
def test_report_categories_in_order_follow_the_counted_detections(
        exclude_fp_prone, first):
    import json
    doc = fp_prone_first_report_doc(RunConfig(
        exclude_fp_prone=exclude_fp_prone))
    cats = doc["categories_in_order"]
    assert len(cats) == 2 and cats[0] == first
    assert SampleReport.from_json(json.dumps(doc)).categories_in_order == cats
    doc["categories_in_order"] = cats[::-1]
    with pytest.raises(ValueError, match="counted detections"):
        SampleReport.from_json(json.dumps(doc))
    # without detections the report is rejected
    doc["categories_in_order"] = cats
    del doc["detections"]
    with pytest.raises(ValueError):
        SampleReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("key", REPORT_KEYS)
def test_report_value_of_the_wrong_json_type_is_rejected(key):
    import json
    doc = detected_report_doc()
    doc[key] = [[1]]  # no field holds a list of lists
    with pytest.raises(ValueError):
        SampleReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("mitigate", [True, False])
def test_profiling_leaves_the_parsed_events_unchanged(mitigate):
    # records are not frozen: nothing downstream of the parser may mutate
    # one, and a reroute changes no event
    from evprof.generate import suite_specs
    from evprof.trace import parse_trace, serialize_trace
    samples = build_samples(suite_specs("scenarios"))
    rerouted = 0
    for sid, sample in sorted(samples.items()):
        events = parse_trace(sample.text)
        before = serialize_trace(events)
        profiler = SampleProfiler(RunConfig(mitigate=mitigate))
        for event in events:
            profiler.process(event)
        profiler.finish()
        reroutes = [e for e in profiler.effects if e.kind == "reroute"]
        assert all(e.value == HONEYPOT_PID for e in reroutes), sid
        rerouted += len(reroutes)
        assert serialize_trace(events) == before, sid
    assert (rerouted > 0) == mitigate


def test_validation_diagnostics_become_warnings():
    from evprof.trace import validate_trace
    t = T().images()
    t.native_filler(2)
    t.insn("rdtsc")  # missing tick output
    diags = validate_trace(t.events)
    report = run_sample(t.events, None, diags)
    assert any("tick" in w for w in report.warnings)


# -- region and image handling --------------------------------------------------

def test_freed_region_leaves_the_red_area():
    t = T().images()
    t.alloc(0x20000000, 0x1000, "exec_alloc")
    red = t.api("IsDebuggerPresent", origin=0x20000010, native=False)
    t.free(0x20000000)
    t.api("IsDebuggerPresent", origin=0x20000010, native=False)
    report = profile(t)
    assert [d.seq for d in report.detections] == [red.seq]
    assert report.warnings == []


def test_a_header_longer_than_its_image_is_cut_to_the_image():
    from evprof.trace import parse_trace, validate_trace
    for header, techniques, warning in [
        (f"4d5a{'00' * 0x20}", ["ErasePEHeader"],
         "header of 0x22 bytes is longer than its image (size 0x10)"),
        # an empty header is no header: the image maps whole as main_image
        ("", [], "header is empty"),
    ]:
        events = parse_trace(
            "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=h\n"
            "seq=1 pid=1 tid=1 insn_index=1 kind=image_load name=a.exe "
            "base=0x400000 size=0x10 region_kind=main_image "
            f"header={header}\n"
            "seq=2 pid=1 tid=1 insn_index=2 kind=region_alloc base=0x400010 "
            "size=0x1000 region_kind=exec_alloc\n"
            "seq=3 pid=1 tid=1 insn_index=3 kind=mem_write address=0x400000 "
            "size=4 value=0x0 accessor_address=0x400020\n")
        report = run_sample(events, None, validate_trace(events))
        assert [d.technique for d in report.detections] == techniques
        assert report.warnings == ["seq 1: " + warning]


def test_image_load_structs_install_watchpoints():
    t = T(structs=())
    t.main_image(structs=(PEB,))
    t.read(PEB_BASE + 0x2, size=1)
    assert profile(t).technique_set == ["IsDebuggerPresentPEB"]


# -- lifetime ----------------------------------------------------------------

def test_a_finished_profiler_is_freed_without_the_cyclic_collector():
    import gc
    import weakref
    from evprof.generate import RECIPES, GenSpec, TechniqueSpec, build_sample
    events = build_sample(GenSpec(
        "lifetime", techniques=tuple(map(TechniqueSpec, RECIPES)),
        scenario="injection")).events
    enabled = gc.isenabled()
    gc.disable()
    try:
        profiler = SampleProfiler()
        for event in events:
            profiler.process(event)
        profiler.finish()
        alive = weakref.ref(profiler)
        del profiler
        # a profiler that refers to itself lives on until a collection
        assert alive() is None
    finally:
        if enabled:
            gc.enable()

"""Per-sample orchestration: verdicts, positions, splits, determinism."""

import pytest

from evprof.config import ClockConfig, RunConfig
from evprof.profiler import (
    SampleProfiler, SampleReport, run_sample, timeline_slot,
)
from evprof.trace import Value, vdur

from helpers import BENIGN, PEB_BASE, T, header_bytes


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


def test_lone_rdtsc_counts_only_without_sandwich_requirement():
    t = T().images()
    t.native_filler(50)
    t.insn("rdtsc", out_regs=(("tsc", 1000),))
    default = profile(t)
    assert all(d.technique != "RDTSC" for d in default.detections)
    cfg = RunConfig(clock=ClockConfig(rdtsc_requires_sandwich=False))
    relaxed = profile(t, cfg)
    assert [d.technique for d in relaxed.detections] == ["RDTSC"]


def test_unknown_override_rejected():
    from evprof.config import ConfigError
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
    doc = detected_report_doc()
    for key in OPTIONAL_REPORT_KEYS:
        del doc[key]
    doc["future_key"] = 1
    report = SampleReport.from_json(json.dumps(doc))
    assert (report.labels, report.visible_api_counts, report.warnings,
            report.detections) == ({}, {}, [], [])


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


@pytest.mark.parametrize("key", REPORT_KEYS)
def test_report_value_of_the_wrong_json_type_is_rejected(key):
    import json
    doc = detected_report_doc()
    doc[key] = [[1]]  # no field holds a list of lists
    with pytest.raises(ValueError):
        SampleReport.from_json(json.dumps(doc))


def test_validation_diagnostics_become_warnings():
    from evprof.trace import validate_trace
    t = T().images()
    t.native_filler(2)
    t.insn("rdtsc")  # missing tick output
    diags = validate_trace(t.events)
    report = run_sample(t.events, None, diags)
    assert any("tick" in w for w in report.warnings)

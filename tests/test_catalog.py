"""Catalog integrity, trigger matching, gating, and mitigations."""

import pytest
from hypothesis import given, settings, strategies as st

from evprof import catalog
from evprof.catalog import (
    FP_PRONE_TECHNIQUES, RULES, ConfigError, DetectionRecord,
    RunConfig, apply_mitigation, match_event, rule,
)
from evprof.clock import VirtualClock
from evprof.memory import MemoryRegion, MemoryTracker
from evprof.trace import Value

from helpers import BENIGN, MAIN_PID, RED, T


EXPECTED_CATEGORY_COUNTS = {
    "VMChecks": 20,
    "AntiDebug": 21,
    "ResourceProfiling": 6,
    "TimingAttacks": 2,
    "AntiDump": 2,
    "CodeInjection": 1,
    "AntiInstrumentation": 1,
}

EXPECTED_MITIGATED_BY_CATEGORY = {
    "VMChecks": 6,
    "AntiDebug": 1,
    "ResourceProfiling": 6,
    "TimingAttacks": 2,
    "AntiDump": 0,
    "CodeInjection": 1,
    "AntiInstrumentation": 1,
}


def tracker_with_images():
    tr = MemoryTracker()
    tr.register_region(MemoryRegion(MAIN_PID, 0x400000, 0x10000, "main_image"))
    tr.register_region(MemoryRegion(MAIN_PID, 0x7FF00000, 0x20000,
                                    "standard_library"))
    return tr


def match_only(event):
    records, _ = match_event(event, tracker_with_images(), VirtualClock())
    return [r.technique for r in records]


def api_event(name, args=(), ret=None, origin=RED, **kw):
    t = T()
    return t.api(name, args=args, ret=ret, origin=origin, **kw)


# -- integrity ---------------------------------------------------------------

def test_exactly_53_techniques():
    assert len(RULES) == 53


def test_ids_unique():
    ids = [r.id for r in RULES]
    assert len(ids) == len(set(ids))


def test_category_counts():
    counts = {}
    for r in RULES:
        counts[r.category] = counts.get(r.category, 0) + 1
    assert counts == EXPECTED_CATEGORY_COUNTS


def test_exactly_17_mitigations():
    assert sum(1 for r in RULES if r.mitigated) == 17


def test_mitigations_per_category():
    counts = dict.fromkeys(EXPECTED_CATEGORY_COUNTS, 0)
    for r in RULES:
        if r.mitigated:
            counts[r.category] += 1
    assert counts == EXPECTED_MITIGATED_BY_CATEGORY


def test_fp_prone_set_is_exactly_four():
    fp = {r.id for r in RULES if r.fp_prone}
    assert fp == {"GetTickCount", "cpuid_is_hypervisor", "mouse_movement",
                  "NumberOfProcessors"}


def test_is_fp_prone_examples():
    assert "GetTickCount" in FP_PRONE_TECHNIQUES
    assert "RDTSC" not in FP_PRONE_TECHNIQUES
    assert "ErasePEHeader" not in FP_PRONE_TECHNIQUES


def test_is_fp_prone_unknown_id_errors():
    with pytest.raises(KeyError):
        rule("NotATechnique").fp_prone


# -- api trigger matching ------------------------------------------------------

def test_isdebuggerpresent_red_matches():
    assert match_only(api_event("IsDebuggerPresent")) == \
        ["IsDebuggerPresentAPI"]


def test_isdebuggerpresent_benign_discarded():
    assert match_only(api_event("IsDebuggerPresent", origin=BENIGN)) == []


def test_nqip_class_argument_selects_rule():
    ev = api_event("NtQueryInformationProcess",
                   args=(Value("s", "ProcessDebugPort"),))
    assert match_only(ev) == ["NQIP_ProcessDebugPort"]
    ev = api_event("NtQueryInformationProcess",
                   args=(Value("s", "ProcessBasicInformation"),))
    assert match_only(ev) == []


def test_wmi_query_class_and_field_matching():
    ev = api_event("wmi_query",
                   args=(Value("s", "SELECT SerialNumber FROM Win32_BIOS"),))
    assert match_only(ev) == ["serial_number_bios_wmi"]
    ev = api_event("wmi_query",
                   args=(Value("s", "SELECT Name FROM Win32_BIOS"),))
    assert match_only(ev) == []
    ev = api_event("wmi_query",
                   args=(Value("s", "SELECT * FROM Win32_DiskDrive"),))
    assert match_only(ev) == ["disk_size_wmi"]


def test_device_vs_filesystem_artifacts_disjoint():
    dev = api_event("CreateFile", args=(Value("s", "\\\\.\\VBoxMiniRdrDN"),))
    assert match_only(dev) == ["Device_Artifacts"]
    fs = api_event("CreateFile",
                   args=(Value("s", "C:\\drivers\\VBoxMouse.sys"),))
    assert match_only(fs) == ["filesystem_artifacts"]
    plain = api_event("CreateFile", args=(Value("s", "C:\\temp\\a.txt"),))
    assert match_only(plain) == []


def test_registry_artifact_matching():
    ev = api_event("RegOpenKeyEx",
                   args=(Value("s", "HARDWARE\\ACPI\\DSDT\\VBOX__"),))
    assert match_only(ev) == ["reg_keys"]
    ev = api_event("RegOpenKeyEx", args=(Value("s", "SOFTWARE\\Python"),))
    assert match_only(ev) == []


def test_unknown_api_name_matches_nothing():
    assert match_only(api_event("CompletelyUnknownApi")) == []


# -- insn trigger matching ----------------------------------------------------

def insn_event(mnemonic, origin=RED, in_regs=(), out_regs=()):
    t = T()
    return t.insn(mnemonic, origin=origin, in_regs=in_regs,
                  out_regs=out_regs)


def test_cpuid_leaf_1_is_hypervisor_bit_check():
    ev = insn_event("cpuid", in_regs=(("eax", 1),),
                    out_regs=(("ebx", 0), ("ecx", 1 << 31), ("edx", 0)))
    assert match_only(ev) == ["cpuid_is_hypervisor"]


def test_cpuid_leaf_0x40000000_is_vendor_check():
    ev = insn_event("cpuid", in_regs=(("eax", 0x40000000),),
                    out_regs=(("ebx", 1), ("ecx", 2), ("edx", 3)))
    assert match_only(ev) == ["cpuid_hypervisor_vendor"]


def test_cpuid_other_leaf_matches_nothing():
    ev = insn_event("cpuid", in_regs=(("eax", 7),),
                    out_regs=(("ebx", 0), ("ecx", 0), ("edx", 0)))
    assert match_only(ev) == []


def test_descriptor_table_tricks():
    assert match_only(insn_event("sldt")) == ["ldt_trick"]
    assert match_only(insn_event("sidt")) == ["idt_trick"]
    assert match_only(insn_event("sgdt")) == ["gdt_trick"]
    assert match_only(insn_event("str")) == ["str_trick"]


def test_interrupts_red_gated():
    assert match_only(insn_event("int3")) == ["Interrupt_3"]
    assert match_only(insn_event("int2d", origin=BENIGN)) == []


# -- gating soundness property ------------------------------------------------

rule_names = sorted({n for r in RULES for n in r.api_names})


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(rule_names),
    arg=st.sampled_from([
        "ProcessDebugPort", "ThreadHideFromDebugger", "RSMB", "ACPI",
        "MEM_WRITE_WATCH", "csrss.exe", "\\\\.\\VBoxGuest",
        "SELECT Size FROM Win32_DiskDrive", "IOCTL_DISK_GET_LENGTH_INFO",
        "vmware", "CONTEXT_DEBUG_REGISTERS",
        "SELECT Manufacturer FROM Win32_ComputerSystem"]),
)
def test_no_rule_fires_from_benign_provenance(name, arg):
    ev = api_event(name, args=(Value("s", arg),), origin=BENIGN)
    assert match_only(ev) == []


@settings(max_examples=30, deadline=None)
@given(mnemonic=st.sampled_from(
    ["cpuid", "int3", "int2d", "sldt", "sidt", "sgdt", "str",
     "fpu_eip_leak"]))
def test_no_insn_rule_fires_from_benign_provenance(mnemonic):
    ev = insn_event(mnemonic, origin=BENIGN,
                    in_regs=(("eax", 1),),
                    out_regs=(("ebx", 0), ("ecx", 0), ("edx", 0)))
    assert match_only(ev) == []


def test_unmapped_provenance_never_matches():
    ev = api_event("IsDebuggerPresent", origin=0xDEAD0000)
    assert match_only(ev) == []


# -- mitigations ------------------------------------------------------------

def record_for(event, technique):
    return DetectionRecord(technique=technique,
                           category=rule(technique).category,
                           seq=event.seq, pid=event.pid, tid=event.tid)


def test_cpuid_hypervisor_bit_cleared():
    ev = insn_event("cpuid", in_regs=(("eax", 1),),
                    out_regs=(("ebx", 0), ("ecx", 0x80000000), ("edx", 0)))
    rec = record_for(ev, "cpuid_is_hypervisor")
    value = apply_mitigation(rec, ev, VirtualClock(), RunConfig())
    assert value == "ecx=0x0"
    assert rec.mitigated


def test_cpuid_bit_clear_preserves_other_bits():
    ev = insn_event("cpuid", in_regs=(("eax", 1),),
                    out_regs=(("ebx", 0), ("ecx", 0x80000007), ("edx", 0)))
    rec = record_for(ev, "cpuid_is_hypervisor")
    assert apply_mitigation(rec, ev, VirtualClock(), RunConfig()) == "ecx=0x7"


def test_processor_count_forced_to_four():
    ev = api_event("GlobalMemoryStatusEx")  # any event works for the value
    rec = record_for(ev, "NumberOfProcessors")
    assert apply_mitigation(rec, ev, VirtualClock(), RunConfig()) == "4"


def test_disk_sizes_forced_to_800gb():
    ev = api_event("GetDiskFreeSpaceExW", ret=Value("i", 40 * 1024 ** 3))
    rec = record_for(ev, "disk_size_getdiskfreespace")
    assert apply_mitigation(rec, ev, VirtualClock(), RunConfig()) == \
        str(800 * 1024 ** 3)


def test_ram_forced_to_8gb():
    ev = api_event("GlobalMemoryStatusEx")
    rec = record_for(ev, "memory_space")
    assert apply_mitigation(rec, ev, VirtualClock(), RunConfig()) == \
        str(8 * 1024 ** 3)


def test_mitigation_for_unmitigated_rule_errors():
    ev = api_event("IsDebuggerPresent")
    rec = record_for(ev, "IsDebuggerPresentAPI")
    with pytest.raises(ValueError):
        apply_mitigation(rec, ev, VirtualClock(), RunConfig())


def test_mouse_mitigation_deterministic_per_seed():
    ev = api_event("GetCursorPos")
    values = set()
    for _ in range(3):
        rec = record_for(ev, "mouse_movement")
        values.add(apply_mitigation(rec, ev, VirtualClock(),
                                    RunConfig(seed=42)))
    assert len(values) == 1
    rec = record_for(ev, "mouse_movement")
    other = apply_mitigation(rec, ev, VirtualClock(), RunConfig(seed=43))
    assert other not in values


def test_override_forces_substituted_value():
    ev = api_event("GetDiskFreeSpaceExW")
    rec = record_for(ev, "disk_size_getdiskfreespace")
    cfg = RunConfig(overrides=(("disk_size_getdiskfreespace",
                                str(5 * 1024 ** 3)),))
    assert apply_mitigation(rec, ev, VirtualClock(), cfg) == str(5 * 1024 ** 3)


@pytest.mark.parametrize("value", ["on", "off", "forced"])
def test_override_of_a_technique_without_mitigation_is_rejected(value):
    with pytest.raises(ConfigError, match="'IsDebuggerPresentAPI', which "
                                          "has no mitigation"):
        RunConfig(overrides=(("IsDebuggerPresentAPI", value),))
    with pytest.raises(ConfigError, match="unknown technique 'NoSuch'"):
        RunConfig(overrides=(("NoSuch", value),))


def test_check_eip_returns_expected_instruction_pointer():
    ev = insn_event("fpu_eip_leak", out_regs=(("eip", 0x7A001234),))
    rec = record_for(ev, "Check_EIP")
    assert apply_mitigation(rec, ev, VirtualClock(), RunConfig()) == \
        "eip=0x%x" % ev.payload.address


def test_catalog_listing_is_immutable_tuple():
    assert isinstance(RULES, tuple)


# -- one pathway: every rule matched, gated and mitigated in match_event ------

def match_records(event, config=None, clock=None):
    records, _ = match_event(event, tracker_with_images(),
                             clock or VirtualClock(), config)
    return records


def test_trigger_table_holds_every_api_and_insn_rule_once_per_name():
    expected = sorted(
        [("api", n, r.id) for r in RULES
         if r.trigger_kind == "api" for n in r.api_names]
        + [("insn", r.mnemonic, r.id) for r in RULES
           if r.trigger_kind == "insn"]
        + [("watch", f, r.id) for r in RULES
           if r.trigger_kind == "watch" for f in r.watch_fields])
    actual = sorted((kind, name, r.id)
                    for (kind, name), rules in catalog.TRIGGERS.items()
                    for r in rules)
    assert actual == expected
    assert ("insn", "rdtsc") not in catalog.TRIGGERS
    assert not any(("api", n) in catalog.TRIGGERS
                   for n in rule("time_stalling").api_names)


def test_cross_process_injection_is_a_table_rule():
    ev = api_event("NtWriteVirtualMemory", target_pid=555)
    [record] = match_records(ev)
    assert record.technique == "Shellcode_injected"
    assert record.mitigated
    assert record.substituted_value == "target_pid=99999"


def test_injection_needs_a_foreign_target_and_red_origin():
    assert match_only(api_event("NtWriteVirtualMemory")) == []
    assert match_only(api_event("NtCreateThreadEx",
                                target_pid=MAIN_PID)) == []
    assert match_only(api_event("NtQueueApcThread", target_pid=555,
                                origin=BENIGN)) == []


def test_match_event_applies_the_mitigation_itself():
    ev = api_event("GlobalMemoryStatusEx")
    [record] = match_records(ev)
    assert record.mitigated and record.substituted_value == str(8 * 1024 ** 3)
    [record] = match_records(ev, RunConfig(mitigate=False))
    assert not record.mitigated and record.substituted_value is None
    [record] = match_records(
        ev, RunConfig(overrides=(("memory_space", "forced"),)))
    assert record.substituted_value == "forced"


def test_unmitigated_rule_is_recorded_unmitigated():
    [record] = match_records(api_event("IsDebuggerPresent"))
    assert not record.mitigated and record.substituted_value is None


def test_stall_record_and_rewrite_follow_one_switch():
    ev = api_event("Sleep", args=(Value("d", 60_000),))
    clock = VirtualClock()
    records, effects = match_event(ev, tracker_with_images(), clock)
    assert [(r.technique, r.substituted_value) for r in records] == \
        [("time_stalling", "wait_ms=0")]
    assert [e.kind for e in effects] == ["stall_rewrite"]
    assert clock.offset_ms == 60_000
    clock = VirtualClock()
    records, effects = match_event(ev, tracker_with_images(), clock,
                                   RunConfig(mitigate=False))
    assert [(r.technique, r.mitigated) for r in records] == \
        [("time_stalling", False)]
    assert effects == [] and clock.offset_ms == 0


def test_benign_stall_still_rewrites_the_wait():
    ev = api_event("Sleep", args=(Value("d", 60_000),), origin=BENIGN)
    clock = VirtualClock()
    records, effects = match_event(ev, tracker_with_images(), clock)
    assert records == [] and [e.kind for e in effects] == ["stall_rewrite"]
    assert clock.offset_ms == 60_000


def test_rdtsc_substitution_is_the_clocks_answer():
    t = T()
    t.insn("rdtsc", out_regs=(("tsc", 1_000),), insn_index=10)
    second = t.insn("rdtsc", out_regs=(("tsc", 3_000),), insn_index=12)
    clock = VirtualClock()
    tracker = tracker_with_images()
    match_event(t.events[-2], tracker, clock)
    [record], effects = match_event(second, tracker, clock)
    assert record.technique == "RDTSC"
    assert record.substituted_value == "tsc=%d" % effects[0].value == \
        "tsc=2000"


def test_non_integer_time_query_is_left_unadjusted_with_a_warning():
    clock = VirtualClock()
    clock.on_stall_api(5_000)
    ev = api_event("GetTickCount", ret=Value("s", "abc"))
    records, effects = match_event(ev, tracker_with_images(), clock)
    assert [r.technique for r in records] == ["GetTickCount"]
    assert effects == []
    assert [d.message for d in clock.diagnostics] == \
        ["GetTickCount returned s:abc, not an integer; left unadjusted"]

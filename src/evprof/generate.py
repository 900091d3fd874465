"""Synthetic trace generation: per-technique fixtures and whole corpora.

Every one of the 53 catalog techniques has a recipe that emits a minimal
well-formed trace exercising exactly that technique, from either red
(sample-controlled) or benign (standard-library) code, padded with enough
native filler calls to make the sample active. Negative twins reuse the
positive events with only the provenance flipped, so red-area gating is
the single variable under test.

Output is deterministic: equal spec plus seed produces byte-identical
traces, and a corpus build emits a manifest of expected per-sample
verdicts for oracle comparison.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from . import catalog
from .trace import (
    META_LABEL_KEYS, ApiPayload, FieldRef, ImageLoadPayload, InsnPayload,
    MemPayload, MetaPayload, StructLayout, ThreadStartPayload, TraceError,
    TraceEvent, Value, decode_text, encode_text, serialize_trace, tokenize,
    vaddr, vdur, vint, vlen, vstr,
)

MAIN_PID = 1000
MAIN_TID = 1100
VICTIM_PID = 555
HONEYPOT_PID = 99999

MAIN_BASE = 0x400000
MAIN_SIZE = 0x10000
HEADER_SIZE = 0x200
SIZE_OF_IMAGE_ADDR = MAIN_BASE + 0x50
SIZE_OF_IMAGE_INITIAL = 0x00010000

STDLIB_BASE = 0x7FF00000
STDLIB_SIZE = 0x40000

PEB_BASE = 0x7FFD0000
SHARED_USER_DATA_BASE = 0x7FFE0000
SYSTEM_INFO_ADDR = 0x5FF0

RED_CODE = MAIN_BASE + 0x1000
BENIGN_CODE = STDLIB_BASE + 0x500

INJECT_ADDR = 0x9000
INJECT_LEN = 0x200

FILLER_APIS = (
    "NtClose", "NtYieldExecution", "NtFlushInstructionCache",
    "NtQueryDefaultLocale", "NtQueryVirtualMemory", "NtReadFile",
    "NtQueryInformationThread", "NtFreeVirtualMemory",
)

PEB_LAYOUT = StructLayout("PEB", PEB_BASE, (
    ("BeingDebugged", 0x2, 1),
    ("NumberOfProcessors", 0x64, 4),
    ("NtGlobalFlag", 0x68, 4),
    ("ProcessHeap.Flags", 0x100, 4),
    ("ProcessHeap.ForceFlags", 0x104, 4),
))

SHARED_USER_DATA_LAYOUT = StructLayout(
    "SharedUserData", SHARED_USER_DATA_BASE, (("KernelDebugger", 0x2C4, 1),))


def _pe_header() -> bytes:
    header = bytearray(HEADER_SIZE)
    header[0:2] = b"MZ"
    header[0x3C] = 0x80
    header[0x80:0x84] = b"PE\x00\x00"
    header[0x50:0x54] = SIZE_OF_IMAGE_INITIAL.to_bytes(4, "little")
    return bytes(header)


PE_HEADER_BYTES = _pe_header()


@dataclass(frozen=True)
class TechniqueSpec:
    id: str
    pos: float = 50.0       # target position, percent of the trace
    origin: str = "red"     # red | benign

    def __post_init__(self):
        if not 0 <= self.pos <= 100:
            raise ValueError(f"position {self.pos} outside [0, 100]")
        if self.origin not in ("red", "benign"):
            raise ValueError(f"origin must be red or benign, got {self.origin!r}")


@dataclass(frozen=True)
class GenSpec:
    sample_id: str
    techniques: tuple[TechniqueSpec, ...] = ()
    filler: int = 60
    # externally visible behavior calls: (api name, position percent)
    visible: tuple[tuple[str, float], ...] = ()
    labels: tuple[tuple[str, str], ...] = ()
    scenario: str | None = None   # locky | injection | divergent_mitigated |
                                  # divergent_bare | themida
    seed: int = 0


@dataclass
class GeneratedSample:
    spec: GenSpec
    events: list[TraceEvent]
    # technique id -> normalized positions of its trigger events
    positions: dict[str, list[float]]
    expect_detections: list[str]
    expect_technique_set: list[str]
    expect_evasive: bool

    @property
    def text(self) -> str:
        return serialize_trace(self.events)


class TraceBuilder:
    """Accumulates events with automatic seq / insn_index bookkeeping."""

    def __init__(self, spec: GenSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.events: list[TraceEvent] = []
        self._insn: dict[tuple[int, int], int] = {}
        # (technique, event index, detection expected)
        self.triggers: list[tuple[str, int, bool]] = []
        self.expect_triggers = True

    def _next_insn(self, pid: int, tid: int, stride: int = 3) -> int:
        key = (pid, tid)
        self._insn[key] = self._insn.get(key, 0) + stride
        return self._insn[key]

    def advance_insn(self, n: int, pid: int = MAIN_PID, tid: int = MAIN_TID):
        key = (pid, tid)
        self._insn[key] = self._insn.get(key, 0) + n

    def emit(self, kind: str, payload, pid: int = MAIN_PID,
             tid: int = MAIN_TID, trigger: str | None = None,
             stride: int = 3) -> TraceEvent:
        ev = TraceEvent(
            seq=len(self.events), pid=pid, tid=tid,
            insn_index=self._next_insn(pid, tid, stride),
            kind=kind, payload=payload)
        self.events.append(ev)
        if trigger is not None:
            self.triggers.append((trigger, len(self.events) - 1,
                                  self.expect_triggers))
        return ev

    def api(self, name: str, args=(), ret=None, origin: int = RED_CODE,
            native: bool | None = None, out_structs=(), target_pid=None,
            pid: int = MAIN_PID, tid: int = MAIN_TID,
            trigger: str | None = None) -> TraceEvent:
        if native is None:
            native = name.startswith(("Nt", "Zw"))
        payload = ApiPayload(
            name=name, args=tuple(args), ret=ret, return_address=origin,
            native=native, out_structs=tuple(out_structs),
            target_pid=target_pid)
        return self.emit("api", payload, pid=pid, tid=tid, trigger=trigger)

    def insn(self, mnemonic: str, origin: int = RED_CODE, in_regs=(),
             out_regs=(), pid: int = MAIN_PID, tid: int = MAIN_TID,
             trigger: str | None = None, stride: int = 3) -> TraceEvent:
        payload = InsnPayload(mnemonic, origin, tuple(in_regs), tuple(out_regs))
        return self.emit("insn", payload, pid=pid, tid=tid, trigger=trigger,
                         stride=stride)

    def mem_read(self, address: int, size: int, value: int,
                 origin: int = RED_CODE, pid: int = MAIN_PID,
                 tid: int = MAIN_TID, trigger: str | None = None) -> TraceEvent:
        return self.emit("mem_read", MemPayload(address, size, value, origin),
                         pid=pid, tid=tid, trigger=trigger)

    def mem_write(self, address: int, size: int, value: int,
                  origin: int = RED_CODE, pid: int = MAIN_PID,
                  tid: int = MAIN_TID, trigger: str | None = None) -> TraceEvent:
        return self.emit("mem_write", MemPayload(address, size, value, origin),
                         pid=pid, tid=tid, trigger=trigger)

    def filler_api(self) -> TraceEvent:
        name = FILLER_APIS[self.rng.randrange(len(FILLER_APIS))]
        return self.api(name, args=(vint(self.rng.randrange(1 << 16)),),
                        ret=vint(0), origin=RED_CODE)


# ---------------------------------------------------------------------------
# per-technique recipes

def _recipe_simple_api(name, args=(), ret=None, native=None):
    def recipe(b: TraceBuilder, origin: int, technique: str):
        b.api(name, args=args, ret=ret, origin=origin, native=native,
              trigger=technique)
    return recipe


def _recipe_insn(mnemonic, in_regs=(), out_regs=()):
    def recipe(b: TraceBuilder, origin: int, technique: str):
        b.insn(mnemonic, origin=origin, in_regs=in_regs, out_regs=out_regs,
               trigger=technique)
    return recipe


def _recipe_peb_read(offset, size, value=0):
    def recipe(b: TraceBuilder, origin: int, technique: str):
        b.mem_read(PEB_BASE + offset, size, value, origin=origin,
                   trigger=technique)
    return recipe


def _recipe_number_of_processors(b: TraceBuilder, origin: int, technique: str):
    # the publishing call itself comes from library code; only the field
    # read carries the probe's provenance
    b.api("GetSystemInfo", args=(vaddr(SYSTEM_INFO_ADDR),), ret=vint(0),
          origin=BENIGN_CODE, native=False,
          out_structs=(FieldRef("SYSTEM_INFO", "dwNumberOfProcessors",
                                SYSTEM_INFO_ADDR, 4),))
    b.mem_read(SYSTEM_INFO_ADDR, 4, 1, origin=origin, trigger=technique)


def _recipe_shared_user_data(b: TraceBuilder, origin: int, technique: str):
    b.mem_read(SHARED_USER_DATA_BASE + 0x2C4, 1, 0, origin=origin,
               trigger=technique)


def _recipe_erase_pe_header(b: TraceBuilder, origin: int, technique: str):
    b.mem_write(MAIN_BASE, 2, 0x0000, origin=origin, trigger=technique)


def _recipe_size_of_image(b: TraceBuilder, origin: int, technique: str):
    b.mem_write(SIZE_OF_IMAGE_ADDR, 4, SIZE_OF_IMAGE_INITIAL + 0x100000,
                origin=origin, trigger=technique)


def _recipe_rdtsc(b: TraceBuilder, origin: int, technique: str):
    base = 1_000_000 + b.rng.randrange(1 << 20)
    b.insn("rdtsc", origin=origin, out_regs=(("tsc", base),))
    b.advance_insn(27)
    b.insn("rdtsc", origin=origin, out_regs=(("tsc", base + 2_000),),
           trigger=technique)


def _recipe_time_stalling(b: TraceBuilder, origin: int, technique: str):
    b.api("NtDelayExecution", args=(vdur(300_000),), ret=vint(0),
          origin=origin, trigger=technique)


def _recipe_injection(b: TraceBuilder, origin: int, technique: str):
    b.api("NtWriteVirtualMemory",
          args=(vaddr(INJECT_ADDR), vlen(INJECT_LEN)), ret=vint(0),
          origin=origin, target_pid=VICTIM_PID, trigger=technique)


RECIPES = {
    # Anti Debug
    "IsDebuggerPresentAPI": _recipe_simple_api(
        "IsDebuggerPresent", ret=vint(0), native=False),
    "IsDebuggerPresentPEB": _recipe_peb_read(0x2, 1),
    "CheckRemoteDebuggerPresentAPI": _recipe_simple_api(
        "CheckRemoteDebuggerPresent", args=(vint(0xFF),), ret=vint(0),
        native=False),
    "NSIT_ThreadHideFromDebugger": _recipe_simple_api(
        "NtSetInformationThread", args=(vstr("ThreadHideFromDebugger"),),
        ret=vint(0)),
    "NtGlobalFlag": _recipe_peb_read(0x68, 4),
    "NQIP_ProcessDebugPort": _recipe_simple_api(
        "NtQueryInformationProcess", args=(vstr("ProcessDebugPort"),),
        ret=vint(0)),
    "NQIP_ProcessDebugObject": _recipe_simple_api(
        "NtQueryInformationProcess", args=(vstr("ProcessDebugObject"),),
        ret=vint(0)),
    "NQIP_ProcessDebugFlag": _recipe_simple_api(
        "NtQueryInformationProcess", args=(vstr("ProcessDebugFlag"),),
        ret=vint(1)),
    "CanOpenCsrss": _recipe_simple_api(
        "NtOpenProcess", args=(vstr("csrss.exe"),), ret=vint(0)),
    "MemoryBreakpoints_PageGuard": _recipe_simple_api(
        "page_guard_access", args=(vaddr(0x6000),), ret=vint(0),
        native=False),
    "Interrupt_0x2d": _recipe_insn("int2d"),
    "Interrupt_3": _recipe_insn("int3"),
    "HardwareBreakpoints": _recipe_simple_api(
        "GetThreadContext", args=(vstr("CONTEXT_DEBUG_REGISTERS"),),
        ret=vint(0), native=False),
    "NQSI_SystemKernelDebuggerInformation": _recipe_simple_api(
        "NtQuerySystemInformation",
        args=(vstr("SystemKernelDebuggerInformation"),), ret=vint(0)),
    "HeapFlags": _recipe_peb_read(0x100, 4, value=0x2),
    "HeapForceFlags": _recipe_peb_read(0x104, 4),
    "SharedUserData_KernelDebugger": _recipe_shared_user_data,
    "VirtualAlloc_WriteWatch": _recipe_simple_api(
        "VirtualAlloc", args=(vlen(0x1000), vstr("MEM_WRITE_WATCH")),
        ret=vaddr(0x20000), native=False),
    "NQO_ObjectTypeInformation": _recipe_simple_api(
        "NtQueryObject", args=(vstr("ObjectTypeInformation"),), ret=vint(0)),
    "NQO_ObjectAllTypesInformation": _recipe_simple_api(
        "NtQueryObject", args=(vstr("ObjectAllTypesInformation"),),
        ret=vint(0)),
    "GetTickCount": _recipe_simple_api(
        "GetTickCount", ret=vint(123_456), native=False),

    # VM Checks
    "reg_keys": _recipe_simple_api(
        "RegOpenKeyEx", args=(vstr("HARDWARE\\ACPI\\DSDT\\VBOX__"),),
        ret=vint(0), native=False),
    "reg_key_value": _recipe_simple_api(
        "RegQueryValueEx", args=(vstr("SystemBiosVersion"), vstr("VBOX")),
        ret=vint(0), native=False),
    "ldt_trick": _recipe_insn("sldt", out_regs=(("val", 0),)),
    "idt_trick": _recipe_insn("sidt", out_regs=(("val", 0xFFFF0000),)),
    "gdt_trick": _recipe_insn("sgdt", out_regs=(("val", 0xFFFF1000),)),
    "str_trick": _recipe_insn("str", out_regs=(("val", 0x28),)),
    "vm_check_mac": _recipe_simple_api(
        "GetAdaptersInfo", ret=vstr("08-00-27-11-22-33"), native=False),
    "Firmware_RSMB": _recipe_simple_api(
        "GetSystemFirmwareTable", args=(vstr("RSMB"),), ret=vlen(1024),
        native=False),
    "Firmware_ACPI": _recipe_simple_api(
        "GetSystemFirmwareTable", args=(vstr("ACPI"),), ret=vlen(512),
        native=False),
    "Device_Artifacts": _recipe_simple_api(
        "CreateFile", args=(vstr("\\\\.\\VBoxMiniRdrDN"),), ret=vint(-1),
        native=False),
    "cpuid_hypervisor_vendor": _recipe_insn(
        "cpuid", in_regs=(("eax", 0x40000000),),
        out_regs=(("ebx", 0x4B4D564B), ("ecx", 0x564B4D56), ("edx", 0x4D))),
    "cpuid_is_hypervisor": _recipe_insn(
        "cpuid", in_regs=(("eax", 1),),
        out_regs=(("ebx", 0x800), ("ecx", 0x80000000), ("edx", 0x1F8BFBFF))),
    "mouse_movement": _recipe_simple_api(
        "GetCursorPos", ret=vstr("x=512,y=384"), native=False),
    "filesystem_artifacts": _recipe_simple_api(
        "FindFirstFile",
        args=(vstr("C:\\Windows\\System32\\drivers\\VBoxMouse.sys"),),
        ret=vint(-1), native=False),
    "setupdi_diskdrive": _recipe_simple_api(
        "SetupDiGetDeviceRegistryPropertyW", args=(vint(1),),
        ret=vstr("VBOX HARDDISK"), native=False),
    "manufacturer_computer_system_wmi": _recipe_simple_api(
        "wmi_query", args=(vstr("SELECT Manufacturer FROM Win32_ComputerSystem"),),
        ret=vstr("innotek GmbH"), native=False),
    "model_computer_system_wmi": _recipe_simple_api(
        "wmi_query", args=(vstr("SELECT Model FROM Win32_ComputerSystem"),),
        ret=vstr("VirtualBox"), native=False),
    "vbox_mac_wmi": _recipe_simple_api(
        "wmi_query", args=(vstr("SELECT MACAddress FROM Win32_NetworkAdapter"),),
        ret=vstr("08:00:27:AA:BB:CC"), native=False),
    "process_id_processor_wmi": _recipe_simple_api(
        "wmi_query", args=(vstr("SELECT ProcessorId FROM Win32_Processor"),),
        ret=vstr("178BFBFF"), native=False),
    "serial_number_bios_wmi": _recipe_simple_api(
        "wmi_query", args=(vstr("SELECT SerialNumber FROM Win32_BIOS"),),
        ret=vstr("0"), native=False),

    # Resource Profiling
    "process_enum": _recipe_simple_api(
        "Process32Next", ret=vstr("pin.exe"), native=False),
    "memory_space": _recipe_simple_api(
        "GlobalMemoryStatusEx", ret=vint(2 * 1024 ** 3), native=False),
    "disk_size_getdiskfreespace": _recipe_simple_api(
        "GetDiskFreeSpaceExW", args=(vstr("C:/"),), ret=vint(40 * 1024 ** 3),
        native=False),
    "dizk_size_deviceiocontrol": _recipe_simple_api(
        "DeviceIoControl", args=(vstr("IOCTL_DISK_GET_LENGTH_INFO"),),
        ret=vint(40 * 1024 ** 3), native=False),
    "disk_size_wmi": _recipe_simple_api(
        "wmi_query", args=(vstr("SELECT Size FROM Win32_DiskDrive"),),
        ret=vint(40 * 1024 ** 3), native=False),
    "NumberOfProcessors": _recipe_number_of_processors,

    # Timing Attacks
    "time_stalling": _recipe_time_stalling,
    "RDTSC": _recipe_rdtsc,

    # Anti Dump
    "ErasePEHeader": _recipe_erase_pe_header,
    "SizeOfImage": _recipe_size_of_image,

    # Code Injection
    "Shellcode_injected": _recipe_injection,

    # Anti Instrumentation
    "Check_EIP": _recipe_insn("fpu_eip_leak", out_regs=(("eip", 0x7A001234),)),
}

assert set(RECIPES) == set(catalog.KNOWN_TECHNIQUES)


class GenError(Exception):
    pass


# ---------------------------------------------------------------------------
# sample assembly

def _preamble(b: TraceBuilder) -> None:
    spec = b.spec
    b.emit("meta", MetaPayload(
        sample_id=spec.sample_id, labels=spec.labels,
        structs=(PEB_LAYOUT, SHARED_USER_DATA_LAYOUT)))
    b.emit("image_load", ImageLoadPayload(
        name="sample.exe", base=MAIN_BASE, size=MAIN_SIZE,
        region_kind="main_image", header=PE_HEADER_BYTES,
        size_of_image_addr=SIZE_OF_IMAGE_ADDR))
    b.emit("image_load", ImageLoadPayload(
        name="ntdll.dll", base=STDLIB_BASE, size=STDLIB_SIZE,
        region_kind="standard_library"))


def build_sample(spec: GenSpec) -> GeneratedSample:
    for t in spec.techniques:
        if t.id not in RECIPES:
            raise GenError(f"unknown technique {t.id!r}")

    b = TraceBuilder(spec)
    _preamble(b)

    # schedule body items by target position; filler spreads uniformly
    items: list[tuple[float, int, object]] = []
    order = 0
    for i in range(spec.filler):
        pos = 100.0 * i / max(spec.filler - 1, 1)
        items.append((pos, order, "filler"))
        order += 1
    for t in spec.techniques:
        items.append((t.pos, order, t))
        order += 1
    for name, pos in spec.visible:
        items.append((pos, order, ("visible", name)))
        order += 1
    items.sort(key=lambda it: (it[0], it[1]))

    for _, _, item in items:
        if item == "filler":
            b.filler_api()
        elif isinstance(item, TechniqueSpec):
            origin = RED_CODE if item.origin == "red" else BENIGN_CODE
            b.expect_triggers = item.origin == "red"
            RECIPES[item.id](b, origin, item.id)
            b.expect_triggers = True
        else:
            _, name = item
            b.api(name, args=(vstr("payload"),), ret=vint(0), origin=RED_CODE)

    if spec.scenario == "locky":
        build_locky_loop(b)
    elif spec.scenario == "injection":
        build_injection_scenario(b)
    elif spec.scenario == "pe_same_value":
        # rewrites the signature with the bytes already stored: no change,
        # so no Anti-Dump detection may come out of it
        b.mem_write(MAIN_BASE, 2, 0x5A4D)
    elif spec.scenario == "divergent_bare":
        pass  # divergence is expressed by the GenSpec visible list
    elif spec.scenario not in (None, "divergent_mitigated", "themida"):
        raise GenError(f"unknown scenario {spec.scenario!r}")

    return _finish_sample(b)


def _finish_sample(b: TraceBuilder) -> GeneratedSample:
    spec = b.spec
    max_seq = max(b.events[-1].seq, 1)
    positions: dict[str, list[float]] = {}
    detections: list[str] = []
    for technique, idx, expected in b.triggers:
        if not expected:
            continue
        ev = b.events[idx]
        positions.setdefault(technique, []).append(100.0 * ev.seq / max_seq)
        detections.append(technique)
    technique_set = sorted(set(detections) - set(catalog.FP_PRONE_TECHNIQUES))
    return GeneratedSample(
        spec=spec, events=b.events, positions=positions,
        expect_detections=sorted(set(detections)),
        expect_technique_set=technique_set,
        expect_evasive=bool(technique_set),
    )


# ---------------------------------------------------------------------------
# scenario builders

LOCKY_ITERATIONS = 10
LOCKY_FAST_RAW = 1_000     # raw ticks the instrumented fast call takes
LOCKY_SLOW_RAW = 3_000     # raw ticks the instrumented slow call takes


def build_locky_loop(b: TraceBuilder, iterations: int = LOCKY_ITERATIONS) -> None:
    """Ratio-check loop: two API timings measured per iteration.

    Gaps are arranged so each iteration adjusts exactly three reads: both
    measurements plus one trailing read. Odd adjustments per iteration
    rotate the 0.5/0.05 assignment, and the two measurements always get
    opposite factors, so the bare-metal ratio check passes at least once
    even though the raw (instrumented) timings fail it every time.
    """
    raw = 5_000_000 + b.rng.randrange(1 << 20)
    for _ in range(iterations):
        b.advance_insn(60)                      # fresh: outside the window
        b.insn("rdtsc", out_regs=(("tsc", raw),), stride=0)
        raw += LOCKY_FAST_RAW                    # fast op under timing
        b.advance_insn(30)
        b.insn("rdtsc", out_regs=(("tsc", raw),), trigger="RDTSC", stride=0)
        raw += 400
        b.advance_insn(60)                      # fresh again
        b.insn("rdtsc", out_regs=(("tsc", raw),), stride=0)
        raw += LOCKY_SLOW_RAW                    # slow op under timing
        b.advance_insn(30)
        b.insn("rdtsc", out_regs=(("tsc", raw),), trigger="RDTSC", stride=0)
        raw += 150
        b.advance_insn(10)                      # parity burner, still paired
        b.insn("rdtsc", out_regs=(("tsc", raw),), trigger="RDTSC", stride=0)
        raw += 900


def build_injection_scenario(b: TraceBuilder) -> None:
    """Inject into another process, then run evasion from injected code."""
    b.api("NtWriteVirtualMemory",
          args=(vaddr(INJECT_ADDR), vlen(INJECT_LEN)), ret=vint(0),
          target_pid=VICTIM_PID, trigger="Shellcode_injected")
    b.api("NtCreateThreadEx", args=(vaddr(INJECT_ADDR),), ret=vint(0),
          target_pid=VICTIM_PID, trigger="Shellcode_injected")
    b.emit("thread_start", ThreadStartPayload(parent_tid=MAIN_TID),
           pid=HONEYPOT_PID, tid=1)
    b.api("IsDebuggerPresent", ret=vint(0), origin=INJECT_ADDR + 0x10,
          native=False, pid=HONEYPOT_PID, tid=1,
          trigger="IsDebuggerPresentAPI")


THEMIDA_TECHNIQUES = (
    "IsDebuggerPresentAPI", "IsDebuggerPresentPEB", "NtGlobalFlag",
    "CheckRemoteDebuggerPresentAPI", "cpuid_hypervisor_vendor", "idt_trick",
    "str_trick", "memory_space", "disk_size_getdiskfreespace", "RDTSC",
    "ErasePEHeader", "Check_EIP",
)


def themida_spec(sample_id: str = "themida_bundle", seed: int = 7) -> GenSpec:
    """A protector-style bundle: many techniques across many categories."""
    techs = tuple(
        TechniqueSpec(tid, pos=5.0 + 7.0 * i)
        for i, tid in enumerate(THEMIDA_TECHNIQUES)
    )
    return GenSpec(sample_id=sample_id, techniques=techs, filler=80,
                   labels=(("family", "protected"), ("year", "2020"),
                           ("protector", "themida")),
                   scenario="themida", seed=seed)


def divergent_pair(sample_id: str = "divergent", seed: int = 11
                   ) -> tuple[GenSpec, GenSpec]:
    """Two runs of one sample: mitigated (full behavior) and bare.

    The bare run models the malware detecting the analysis and bailing
    out: the post-check externally visible activity never happens.
    """
    check = (TechniqueSpec("IsDebuggerPresentAPI", pos=20.0),)
    mitigated = GenSpec(
        sample_id=sample_id, techniques=check, filler=60,
        visible=(("NtWriteFile", 70.0), ("NtWriteFile", 80.0),
                 ("RegSetValueEx", 85.0), ("connect", 90.0)),
        scenario="divergent_mitigated", seed=seed)
    bare = GenSpec(
        sample_id=sample_id, techniques=check, filler=60,
        visible=(), scenario="divergent_bare", seed=seed)
    return mitigated, bare


# ---------------------------------------------------------------------------
# suites

def gen_technique_trace(technique: str, origin: str = "red",
                        seed: int = 0) -> GeneratedSample:
    """Minimal trace exercising exactly one technique from one origin."""
    prefix = "pos" if origin == "red" else "neg"
    spec = GenSpec(sample_id=f"{prefix}_{technique}",
                   techniques=(TechniqueSpec(technique, pos=60.0, origin=origin),),
                   filler=60, seed=seed)
    return build_sample(spec)


def roundtrip_specs(seed: int = 0) -> list[GenSpec]:
    """53 red-origin positives plus 53 benign-origin negative twins."""
    specs = []
    for technique in sorted(catalog.KNOWN_TECHNIQUES):
        for origin in ("red", "benign"):
            prefix = "pos" if origin == "red" else "neg"
            specs.append(GenSpec(
                sample_id=f"{prefix}_{technique}",
                techniques=(TechniqueSpec(technique, pos=60.0, origin=origin),),
                filler=60, seed=seed))
    return specs


def gen_corpus(specs: list[GenSpec]) -> tuple[dict[str, GeneratedSample], dict]:
    """Build every spec and the expected-verdict manifest."""
    seen = set()
    for spec in specs:
        if spec.sample_id in seen:
            raise GenError(f"duplicate sample id {spec.sample_id!r}")
        seen.add(spec.sample_id)
    samples = {}
    manifest_samples = {}
    for spec in specs:
        sample = build_sample(spec)
        samples[spec.sample_id] = sample
        manifest_samples[spec.sample_id] = {
            "trace_file": spec.sample_id + ".trace",
            "labels": dict(spec.labels),
            "expect_detections": sample.expect_detections,
            "expect_technique_set": sample.expect_technique_set,
            "expect_evasive": sample.expect_evasive,
            "positions": {k: v for k, v in sorted(sample.positions.items())},
        }
    manifest = {"samples": dict(sorted(manifest_samples.items()))}
    return samples, manifest


def write_corpus(specs: list[GenSpec], out_dir) -> dict:
    import os
    os.makedirs(out_dir, exist_ok=True)
    samples, manifest = gen_corpus(specs)
    for sample_id in sorted(samples):
        path = os.path.join(out_dir, sample_id + ".trace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(samples[sample_id].text)
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    labeled = {sid: dict(s.spec.labels) for sid, s in samples.items()
               if s.spec.labels}
    if labeled:
        lines = ["sample_id,family,year,packer,protector"]
        for sid in sorted(labeled):
            lab = labeled[sid]
            lines.append(",".join([
                sid, lab.get("family", ""), lab.get("year", ""),
                lab.get("packer", ""), lab.get("protector", "")]))
        with open(os.path.join(out_dir, "labels.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return manifest


def scenario_specs(seed: int = 0) -> list[GenSpec]:
    return [
        GenSpec(sample_id="locky_loop", filler=60, scenario="locky",
                labels=(("family", "locky"), ("year", "2016")), seed=seed),
        GenSpec(sample_id="injector", filler=60, scenario="injection",
                labels=(("family", "injector"), ("year", "2018")), seed=seed),
        themida_spec(seed=seed),
    ]


def _ts(*pairs) -> tuple[TechniqueSpec, ...]:
    return tuple(TechniqueSpec(tid, pos=pos) for tid, pos in pairs)


def corpus60_specs(seed: int = 0) -> list[GenSpec]:
    """A 60-sample labeled fixture corpus exercising every aggregate."""
    specs: list[GenSpec] = []

    def add(sid, techniques=(), family=None, year=None, packer="",
            protector="", dataset="malware", filler=60, visible=(),
            scenario=None):
        labels = [("dataset", dataset)]
        if family:
            labels.append(("family", family))
        if year:
            labels.append(("year", year))
        if packer:
            labels.append(("packer", packer))
        if protector:
            labels.append(("protector", protector))
        specs.append(GenSpec(
            sample_id=sid, techniques=techniques, filler=filler,
            visible=tuple(visible), labels=tuple(labels), scenario=scenario,
            seed=seed + len(specs)))

    # fam_alpha: shared IsDebuggerPresentAPI, AntiDebug always first
    add("s01", _ts(("IsDebuggerPresentAPI", 10), ("RDTSC", 50)),
        family="fam_alpha", year="2016",
        visible=(("NtWriteFile", 5), ("NtWriteFile", 70), ("connect", 90)))
    add("s02", _ts(("IsDebuggerPresentAPI", 12), ("idt_trick", 60)),
        family="fam_alpha", year="2016",
        visible=(("RegSetValueEx", 80),))
    add("s03", _ts(("IsDebuggerPresentAPI", 8),),
        family="fam_alpha", year="2016")
    add("s04", _ts(("IsDebuggerPresentAPI", 15), ("ErasePEHeader", 70)),
        family="fam_alpha", year="2017",
        visible=(("NtWriteFile", 90), ("NtWriteFile", 95)))
    add("s05", _ts(("IsDebuggerPresentAPI", 11), ("memory_space", 40)),
        family="fam_alpha", year="2017",
        visible=(("CreateProcessW", 75),))

    # fam_beta: disjoint techniques, empty footprint
    add("s06", _ts(("vm_check_mac", 30),), family="fam_beta", year="2017")
    add("s07", _ts(("CanOpenCsrss", 45),), family="fam_beta", year="2017")
    add("s08", _ts(("SizeOfImage", 55),), family="fam_beta", year="2018")
    add("s09", _ts(("time_stalling", 25),), family="fam_beta", year="2018")

    # fam_gamma: two shared techniques
    add("s10", _ts(("IsDebuggerPresentPEB", 5), ("RDTSC", 20)),
        family="fam_gamma", year="2018")
    add("s11", _ts(("IsDebuggerPresentPEB", 6), ("RDTSC", 22),
                   ("HeapFlags", 60)),
        family="fam_gamma", year="2018")
    add("s12", _ts(("IsDebuggerPresentPEB", 4), ("RDTSC", 18),
                   ("reg_keys", 75)),
        family="fam_gamma", year="2019")
    add("s13", _ts(("IsDebuggerPresentPEB", 7), ("RDTSC", 24)),
        family="fam_gamma", year="2019")

    # fam_delta: mixed evasive and clean samples
    add("s14", _ts(("process_enum", 35),), family="fam_delta", year="2019",
        visible=(("connect", 60),))
    add("s15", (), family="fam_delta", year="2019")
    add("s16", (), family="fam_delta", year="2020")
    add("s17", (), family="fam_delta", year="2020",
        visible=(("NtWriteFile", 50),))

    # fam_epsilon: timing attacks come first
    add("s18", _ts(("RDTSC", 5), ("IsDebuggerPresentPEB", 50)),
        family="fam_epsilon", year="2020")
    add("s19", _ts(("RDTSC", 6), ("NtGlobalFlag", 55)),
        family="fam_epsilon", year="2020")
    add("s20", _ts(("time_stalling", 4), ("CanOpenCsrss", 45)),
        family="fam_epsilon", year="2020")

    # fam_zeta: VM checks / anti dump first
    add("s21", _ts(("idt_trick", 5), ("ErasePEHeader", 60)),
        family="fam_zeta", year="2016")
    add("s22", _ts(("gdt_trick", 6), ("SizeOfImage", 65)),
        family="fam_zeta", year="2016")
    add("s23", _ts(("ErasePEHeader", 5), ("RDTSC", 80)),
        family="fam_zeta", year="2017")

    # packed samples: anti-dump dominated
    packed_extras = ("RDTSC", "IsDebuggerPresentAPI", "vm_check_mac",
                     "process_enum", "memory_space", "CanOpenCsrss",
                     "idt_trick", "time_stalling")
    for i, extra in enumerate(packed_extras):
        add(f"s{24 + i:02d}",
            _ts(("ErasePEHeader", 8), (extra, 40 + 3 * i)),
            family=f"fam_pack{i % 2}", year=str(2016 + i % 5), packer="upx")

    # protected samples: many techniques each
    protected_sets = (
        ("IsDebuggerPresentAPI", "IsDebuggerPresentPEB", "RDTSC"),
        ("IsDebuggerPresentAPI", "NtGlobalFlag", "idt_trick", "memory_space"),
        ("CheckRemoteDebuggerPresentAPI", "HeapFlags", "str_trick",
         "disk_size_getdiskfreespace", "RDTSC"),
        ("IsDebuggerPresentAPI", "IsDebuggerPresentPEB", "NtGlobalFlag",
         "cpuid_hypervisor_vendor", "ErasePEHeader", "time_stalling",
         "Check_EIP"),
        ("vm_check_mac", "SharedUserData_KernelDebugger"),
    )
    for i, techs in enumerate(protected_sets):
        add(f"s{32 + i:02d}",
            _ts(*((t, 10 + 8 * j) for j, t in enumerate(techs))),
            family="fam_prot", year=str(2016 + i), protector="themida")

    # never started / started but not active
    add("s37", (), filler=0, family="fam_delta", year="2016")
    add("s38", (), filler=0, family="fam_delta", year="2017")
    add("s39", (), filler=20, family="fam_delta", year="2018")
    add("s40", (), filler=20, family="fam_delta", year="2019")

    # FP-prone-only samples: detections but not evasive
    add("s41", _ts(("GetTickCount", 30),), dataset="goodware",
        family="fam_good", year="2020")
    add("s42", _ts(("mouse_movement", 35),), dataset="goodware",
        family="fam_good", year="2020")
    add("s43", _ts(("cpuid_is_hypervisor", 40),), dataset="goodware",
        family="fam_good", year="2020")
    add("s44", _ts(("NumberOfProcessors", 45),), dataset="goodware",
        family="fam_good", year="2020")

    # clean goodware with ordinary behavior
    for i in range(6):
        add(f"s{45 + i:02d}", (), dataset="goodware", family="fam_good",
            year=str(2016 + i % 5),
            visible=(("NtWriteFile", 20 + 10 * i), ("RegSetValueEx", 80)))

    # scenario samples
    add("s51", (), family="fam_inject", year="2020", scenario="injection",
        visible=(("connect", 95),))
    add("s52", (), family="fam_locky", year="2016", scenario="locky")
    themida = themida_spec(sample_id="s53", seed=seed + 53)
    specs.append(replace(
        themida,
        labels=(("dataset", "malware"), ("family", "fam_prot"),
                ("year", "2020"), ("protector", "themida"))))

    # mixed evasive samples with visible-call splits
    split_cases = (
        ("s54", "NQIP_ProcessDebugPort", (("NtWriteFile", 5),
                                          ("NtWriteFile", 60),
                                          ("connect", 85))),
        ("s55", "Firmware_RSMB", (("RegSetValueEx", 70),)),
        ("s56", "setupdi_diskdrive", (("NtWriteFile", 10),
                                      ("NtWriteFile", 12),
                                      ("send", 88))),
        ("s57", "dizk_size_deviceiocontrol", (("WSASend", 91),)),
        ("s58", "Interrupt_3", (("NtWriteFile", 75), ("NtWriteFile", 82))),
        ("s59", "wmi_mix", ()),
        ("s60", "Shellcode_injected", (("connect", 90),)),
    )
    for sid, tech, visible in split_cases:
        if tech == "wmi_mix":
            add(sid, _ts(("serial_number_bios_wmi", 30),
                         ("disk_size_wmi", 50)),
                family="fam_wmi", year="2019", visible=visible)
        else:
            add(sid, _ts((tech, 30),), family="fam_misc", year="2019",
                visible=visible)

    assert len(specs) == 60, len(specs)
    return specs


# ---------------------------------------------------------------------------
# genspec files (same key=value token dialect as traces)

def parse_genspec_file(text: str) -> list[GenSpec]:
    specs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            specs.append(_parse_genspec(tokenize(line)))
        except (TraceError, ValueError) as exc:
            raise GenError(f"line {lineno}: {exc}") from None
    return specs


def _parse_genspec(fields: dict[str, str]) -> GenSpec:
    if "sample_id" not in fields:
        raise ValueError("missing sample_id")
    techniques = []
    if fields.get("techniques"):
        for part in fields["techniques"].split(";"):
            head, _, origin = part.partition(":")
            tid, _, pos = head.partition("@")
            techniques.append(TechniqueSpec(
                decode_text(tid), float(pos) if pos else 50.0,
                origin or "red"))
    visible = []
    if fields.get("visible"):
        for part in fields["visible"].split(";"):
            name, _, pos = part.partition("@")
            visible.append((decode_text(name), float(pos) if pos else 50.0))
    labels = tuple((key, decode_text(fields[key]))
                   for key in META_LABEL_KEYS if key in fields)
    return GenSpec(
        sample_id=decode_text(fields["sample_id"]),
        techniques=tuple(techniques),
        filler=int(fields.get("filler", 60)),
        visible=tuple(visible),
        labels=labels,
        scenario=fields.get("scenario"),
        seed=int(fields.get("seed", 0)),
    )


def format_genspec(spec: GenSpec) -> str:
    toks = ["sample_id=" + encode_text(spec.sample_id)]
    if spec.techniques:
        toks.append("techniques=" + ";".join(
            "%s@%g:%s" % (encode_text(t.id), t.pos, t.origin)
            for t in spec.techniques))
    toks.append("filler=%d" % spec.filler)
    if spec.visible:
        toks.append("visible=" + ";".join(
            "%s@%g" % (encode_text(n), p) for n, p in spec.visible))
    for key, value in spec.labels:
        toks.append("%s=%s" % (key, encode_text(value)))
    if spec.scenario:
        toks.append("scenario=" + spec.scenario)
    toks.append("seed=%d" % spec.seed)
    return " ".join(toks)

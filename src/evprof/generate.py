"""Synthetic trace generation: per-technique fixtures and whole corpora.

Every one of the 53 catalog techniques has a recipe that emits a minimal
well-formed trace exercising exactly that technique, from either red
(sample-controlled) or benign (standard-library) code, padded with enough
native filler calls to make the sample active. A recipe is built from the
technique's catalog rule, with ``EXAMPLES`` giving the values the rule
leaves open; three techniques keep a hand-written one. Negative twins reuse
the positive events with only the provenance flipped, so red-area gating
is the single variable under test.

Output is deterministic: equal spec plus seed produces byte-identical
traces, and a corpus build emits a manifest of expected per-sample
verdicts for oracle comparison.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from . import catalog, suites
from .clock import SANDWICH_WINDOW, STALL_THRESHOLD_MS
from .trace import (
    LABEL_COLUMNS, ApiPayload, FieldRef, ImageLoadPayload, InsnPayload,
    MemPayload, MetaPayload, StructLayout, ThreadStartPayload, TraceError,
    TraceEvent, check_plain_name, decode_text, serialize_trace, take_labels,
    text_lines, tokenize, vaddr, vdur, vint, vlen, vstr, write_whole,
)

MAIN_PID = 1000
MAIN_TID = 1100
VICTIM_PID = 555

MAIN_BASE = 0x400000
MAIN_SIZE = 0x10000
HEADER_SIZE = 0x200
SIZE_OF_IMAGE_OFFSET = 0x50
SIZE_OF_IMAGE_ADDR = MAIN_BASE + SIZE_OF_IMAGE_OFFSET
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

# filler calls per sample at most: about 0.36 KB each, so 0.4 GB at most
MAX_FILLER = 1_000_000

FILLER_APIS = (
    "NtClose", "NtYieldExecution", "NtFlushInstructionCache",
    "NtQueryDefaultLocale", "NtQueryVirtualMemory", "NtReadFile",
    "NtQueryInformationThread", "NtFreeVirtualMemory",
)
# the return value every filler call shares, safe as nothing mutates an event
_FILLER_RET = vint(0)

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
    header[SIZE_OF_IMAGE_OFFSET:SIZE_OF_IMAGE_OFFSET + 4] = \
        SIZE_OF_IMAGE_INITIAL.to_bytes(4, "little")
    return bytes(header)


PE_HEADER_BYTES = _pe_header()


@dataclass(frozen=True)
class TechniqueSpec:
    id: str
    pos: float = 50.0       # target position, percent of the trace
    origin: str = "red"     # red | benign

    def __post_init__(self):
        if self.id not in RECIPES:
            raise ValueError(f"unknown technique {self.id!r}")
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
    scenario: str | None = None   # a key of SCENARIOS
    seed: int = 0

    def __post_init__(self):
        check_plain_name(self.sample_id)
        if not 0 <= self.filler <= MAX_FILLER:
            raise ValueError(f"filler {self.filler} outside [0, {MAX_FILLER}]")
        for _, pos in self.visible:
            if not 0 <= pos <= 100:  # also refuses nan
                raise ValueError(f"position {pos} outside [0, 100]")
        if self.scenario is not None and self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")


@dataclass
class GeneratedSample:
    spec: GenSpec
    events: list[TraceEvent]
    # technique id -> normalized positions of its expected detections
    positions: dict[str, list[float]]

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
        # (technique, seq) of each detection expected
        self.triggers: list[tuple[str, int]] = []

    def emit(self, kind: str, payload, pid: int = MAIN_PID,
             tid: int = MAIN_TID, trigger: str | None = None,
             stride: int = 3) -> TraceEvent:
        key = (pid, tid)
        insn_index = self._insn[key] = self._insn.get(key, 0) + stride
        ev = TraceEvent(len(self.events), pid, tid, insn_index, kind, payload)
        self.events.append(ev)
        if trigger is not None:
            self.triggers.append((trigger, ev.seq))
        return ev

    def api(self, name: str, args=(), ret=None, origin: int = RED_CODE,
            native: bool | None = None, out_structs=(), target_pid=None,
            pid: int = MAIN_PID, tid: int = MAIN_TID,
            trigger: str | None = None) -> TraceEvent:
        if native is None:
            native = name.startswith(("Nt", "Zw"))
        payload = ApiPayload(name, origin, native, tuple(args), ret,
                             target_pid, tuple(out_structs))
        return self.emit("api", payload, pid, tid, trigger)

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
        return self.api(name, (vint(self.rng.randrange(1 << 16)),),
                        _FILLER_RET)


# ---------------------------------------------------------------------------
# per-technique recipes

# What a rule leaves open about its proof of concept: an API's return value
# and underived args, an insn's out_regs, a watched read's value (default 0),
# a header write's (address, size, value).
EXAMPLES = {
    # Anti Debug
    "IsDebuggerPresentAPI": dict(ret=vint(0)),
    "CheckRemoteDebuggerPresentAPI": dict(args=(vint(0xFF),), ret=vint(0)),
    "NSIT_ThreadHideFromDebugger": dict(ret=vint(0)),
    "NQIP_ProcessDebugPort": dict(ret=vint(0)),
    "NQIP_ProcessDebugObject": dict(ret=vint(0)),
    "NQIP_ProcessDebugFlag": dict(ret=vint(1)),
    "CanOpenCsrss": dict(args=(vstr("csrss.exe"),), ret=vint(0)),
    "MemoryBreakpoints_PageGuard": dict(args=(vaddr(0x6000),), ret=vint(0)),
    "HardwareBreakpoints": dict(ret=vint(0)),
    "NQSI_SystemKernelDebuggerInformation": dict(ret=vint(0)),
    "HeapFlags": dict(value=0x2),
    "VirtualAlloc_WriteWatch": dict(args=(vlen(0x1000),), ret=vaddr(0x20000)),
    "NQO_ObjectTypeInformation": dict(ret=vint(0)),
    "NQO_ObjectAllTypesInformation": dict(ret=vint(0)),
    "GetTickCount": dict(ret=vint(123_456)),

    # VM Checks
    "reg_keys": dict(args=(vstr("HARDWARE\\ACPI\\DSDT\\VBOX__"),),
                     ret=vint(0)),
    "reg_key_value": dict(args=(vstr("SystemBiosVersion"), vstr("VBOX")),
                          ret=vint(0)),
    "ldt_trick": dict(out_regs=(("val", 0),)),
    "idt_trick": dict(out_regs=(("val", 0xFFFF0000),)),
    "gdt_trick": dict(out_regs=(("val", 0xFFFF1000),)),
    "str_trick": dict(out_regs=(("val", 0x28),)),
    "vm_check_mac": dict(ret=vstr("08-00-27-11-22-33")),
    "Firmware_RSMB": dict(ret=vlen(1024)),
    "Firmware_ACPI": dict(ret=vlen(512)),
    "Device_Artifacts": dict(args=(vstr("\\\\.\\VBoxMiniRdrDN"),),
                             ret=vint(-1)),
    "cpuid_hypervisor_vendor": dict(out_regs=(
        ("ebx", 0x4B4D564B), ("ecx", 0x564B4D56), ("edx", 0x4D))),
    "cpuid_is_hypervisor": dict(out_regs=(
        ("ebx", 0x800), ("ecx", 0x80000000), ("edx", 0x1F8BFBFF))),
    "mouse_movement": dict(ret=vstr("x=512,y=384")),
    "filesystem_artifacts": dict(
        args=(vstr("C:\\Windows\\System32\\drivers\\VBoxMouse.sys"),),
        ret=vint(-1)),
    "setupdi_diskdrive": dict(args=(vint(1),), ret=vstr("VBOX HARDDISK")),
    "manufacturer_computer_system_wmi": dict(ret=vstr("innotek GmbH")),
    "model_computer_system_wmi": dict(ret=vstr("VirtualBox")),
    "vbox_mac_wmi": dict(ret=vstr("08:00:27:AA:BB:CC")),
    "process_id_processor_wmi": dict(ret=vstr("178BFBFF")),
    "serial_number_bios_wmi": dict(ret=vstr("0")),

    # Resource Profiling
    "process_enum": dict(ret=vstr("pin.exe")),
    "memory_space": dict(ret=vint(2 * 1024 ** 3)),
    "disk_size_getdiskfreespace": dict(args=(vstr("C:/"),),
                                       ret=vint(40 * 1024 ** 3)),
    "dizk_size_deviceiocontrol": dict(
        args=(vstr("IOCTL_DISK_GET_LENGTH_INFO"),), ret=vint(40 * 1024 ** 3)),
    "disk_size_wmi": dict(ret=vint(40 * 1024 ** 3)),

    # Timing Attacks
    "time_stalling": dict(args=(vdur(10 * STALL_THRESHOLD_MS),), ret=vint(0)),

    # Anti Dump
    "ErasePEHeader": dict(write=(MAIN_BASE, 2, 0x0000)),
    "SizeOfImage": dict(write=(SIZE_OF_IMAGE_ADDR, 4,
                               SIZE_OF_IMAGE_INITIAL + 0x100000)),

    # Anti Instrumentation
    "Check_EIP": dict(out_regs=(("eip", 0x7A001234),)),
}

# qualified name -> (address, width) of every field the preamble declares
_WATCHED = {name: (address, width)
            for layout in (PEB_LAYOUT, SHARED_USER_DATA_LAYOUT)
            for name, address, width in layout.field_addresses()}


def _recipe_from_rule(rule: catalog.TechniqueRule):
    """A rule's trigger as a recipe: its first API name, called with the
    EXAMPLES args plus its ``token`` or a ``SELECT <first field> FROM
    <class>`` query; its mnemonic, with its ``eax`` leaf; a read of its
    first watched field; or the EXAMPLES ``write`` into the PE header."""
    example = EXAMPLES.get(rule.id, {})
    if rule.trigger_kind == "mem_write":
        write = example["write"]  # a rule without one fails at import
        return lambda b, origin, technique: b.mem_write(
            *write, origin=origin, trigger=technique)
    if rule.trigger_kind == "watch":
        address, width = _WATCHED[rule.watch_fields[0]]
        return lambda b, origin, technique: b.mem_read(
            address, width, example.get("value", 0), origin=origin,
            trigger=technique)
    if rule.trigger_kind == "insn":
        in_regs = () if rule.eax is None else (("eax", rule.eax),)
        return lambda b, origin, technique: b.insn(
            rule.mnemonic, origin=origin, in_regs=in_regs,
            out_regs=example.get("out_regs", ()), trigger=technique)
    args = example.get("args", ())
    if rule.token is not None:
        args += (vstr(rule.token),)
    elif rule.wmi is not None:
        klass, fields = rule.wmi
        args += (vstr(f"SELECT {fields[0]} FROM {klass}"),)
    return lambda b, origin, technique: b.api(
        rule.api_names[0], args=args, ret=example.get("ret"), origin=origin,
        trigger=technique)


def _recipe_number_of_processors(b: TraceBuilder, origin: int,
                                 technique: str | None):
    # the publishing call itself comes from library code; only the field
    # read carries the probe's provenance
    b.api("GetSystemInfo", args=(vaddr(SYSTEM_INFO_ADDR),), ret=vint(0),
          origin=BENIGN_CODE,
          out_structs=(FieldRef("SYSTEM_INFO", "dwNumberOfProcessors",
                                SYSTEM_INFO_ADDR, 4),))
    b.mem_read(SYSTEM_INFO_ADDR, 4, 1, origin=origin, trigger=technique)


# instruction gaps before an rdtsc read: paired <= SANDWICH_WINDOW < fresh
FRESH_GAP = SANDWICH_WINDOW * 6 // 5
PAIRED_GAP = SANDWICH_WINDOW * 3 // 5
SHORT_PAIRED_GAP = SANDWICH_WINDOW // 5


def _recipe_rdtsc(b: TraceBuilder, origin: int, technique: str | None):
    base = 1_000_000 + b.rng.randrange(1 << 20)
    b.insn("rdtsc", origin=origin, out_regs=(("tsc", base),))
    b.insn("rdtsc", origin=origin, out_regs=(("tsc", base + 2_000),),
           trigger=technique, stride=PAIRED_GAP)


def _recipe_injection(b: TraceBuilder, origin: int, technique: str | None):
    b.api("NtWriteVirtualMemory",
          args=(vaddr(INJECT_ADDR), vlen(INJECT_LEN)), ret=vint(0),
          origin=origin, target_pid=VICTIM_PID, trigger=technique)


# the techniques whose trace the rule alone does not describe
_HAND_WRITTEN = {
    "NumberOfProcessors": _recipe_number_of_processors,
    "RDTSC": _recipe_rdtsc,
    "Shellcode_injected": _recipe_injection,
}

RECIPES = {r.id: _HAND_WRITTEN.get(r.id) or _recipe_from_rule(r)
           for r in catalog.RULES}

assert set(EXAMPLES) <= set(RECIPES) - set(_HAND_WRITTEN)


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


def _schedule(spec: GenSpec):
    """The body's (position, item) pairs in build order, never held whole:
    filler (None) spreads uniformly, a technique is its TechniqueSpec and a
    visible call its API name. merge breaks ties by stream, so at one
    position filler comes first, then techniques, then calls."""
    filler = ((100.0 * i / max(spec.filler - 1, 1), None)
              for i in range(spec.filler))
    techniques = sorted([(t.pos, t) for t in spec.techniques],
                        key=itemgetter(0))
    visible = sorted([(pos, name) for name, pos in spec.visible],
                     key=itemgetter(0))
    return heapq.merge(filler, techniques, visible, key=itemgetter(0))


def build_sample(spec: GenSpec) -> GeneratedSample:
    b = TraceBuilder(spec)
    _preamble(b)
    for _, item in _schedule(spec):
        if item is None:
            b.filler_api()
        elif isinstance(item, str):
            b.api(item, args=(vstr("payload"),), ret=vint(0), origin=RED_CODE)
        else:
            # a benign-origin probe is gated out: its recipe records no trigger
            red = item.origin == "red"
            RECIPES[item.id](b, RED_CODE if red else BENIGN_CODE,
                             item.id if red else None)

    if spec.scenario is not None:
        SCENARIOS[spec.scenario](b)
    max_seq = max(b.events[-1].seq, 1)
    positions: dict[str, list[float]] = {}
    for technique, seq in b.triggers:
        positions.setdefault(technique, []).append(100.0 * seq / max_seq)
    return GeneratedSample(spec, b.events, positions)


# ---------------------------------------------------------------------------
# scenario builders

LOCKY_ITERATIONS = 10
LOCKY_FAST_RAW = 1_000     # raw ticks the instrumented fast call takes
LOCKY_SLOW_RAW = 3_000     # raw ticks the instrumented slow call takes
# one iteration's reads: (instruction gap before, trigger, raw ticks after)
LOCKY_READS = (
    (FRESH_GAP, None, LOCKY_FAST_RAW),        # fast op under timing
    (PAIRED_GAP, "RDTSC", 400),
    (FRESH_GAP, None, LOCKY_SLOW_RAW),        # slow op under timing
    (PAIRED_GAP, "RDTSC", 150),
    (SHORT_PAIRED_GAP, "RDTSC", 900),         # parity burner
)


def build_locky_loop(b: TraceBuilder) -> None:
    """Ratio-check loop: two API timings measured per iteration.

    Gaps are arranged so each iteration adjusts exactly three reads: both
    measurements plus one trailing read. Odd adjustments per iteration
    rotate the 0.5/0.05 assignment, and the two measurements always get
    opposite factors, so the bare-metal ratio check passes at least once
    even though the raw (instrumented) timings fail it every time.
    """
    raw = 5_000_000 + b.rng.randrange(1 << 20)
    for _ in range(LOCKY_ITERATIONS):
        for gap, trigger, ticks in LOCKY_READS:
            b.insn("rdtsc", out_regs=(("tsc", raw),), trigger=trigger,
                   stride=gap)
            raw += ticks


def build_injection_scenario(b: TraceBuilder) -> None:
    """Inject into another process, then run evasion from injected code."""
    _recipe_injection(b, RED_CODE, "Shellcode_injected")
    b.api("NtCreateThreadEx", args=(vaddr(INJECT_ADDR),), ret=vint(0),
          target_pid=VICTIM_PID, trigger="Shellcode_injected")
    b.emit("thread_start", ThreadStartPayload(parent_tid=MAIN_TID),
           pid=catalog.HONEYPOT_PID, tid=1)
    b.api("IsDebuggerPresent", ret=vint(0), origin=INJECT_ADDR + 0x10,
          native=False, pid=catalog.HONEYPOT_PID, tid=1,
          trigger="IsDebuggerPresentAPI")


def build_pe_same_value(b: TraceBuilder) -> None:
    """Rewrite the PE signature with the bytes already stored: no change,
    so no Anti-Dump detection may come out of it."""
    b.mem_write(MAIN_BASE, 2, 0x5A4D)


# what build_sample appends after the scheduled body, by GenSpec.scenario
SCENARIOS = {
    "locky": build_locky_loop,
    "injection": build_injection_scenario,
    "pe_same_value": build_pe_same_value,
}


# ---------------------------------------------------------------------------
# suites

def suite_specs(name: str, seed: int = 0) -> list[GenSpec]:
    """The specs of the built-in suite ``name`` (``roundtrip``,
    ``corpus60`` or ``scenarios``), shifted by ``seed``."""
    return parse_genspec_file({"roundtrip": suites.ROUNDTRIP,
                               "corpus60": suites.CORPUS60,
                               "scenarios": suites.SCENARIOS}[name], seed)


def write_corpus(specs: list[GenSpec], out_dir) -> dict:
    """Write one trace per spec into ``out_dir``, then ``manifest.json``
    (each sample's expected verdicts) and, when any spec has labels,
    ``labels.csv``, staged as one set by ``write_whole``: a failure leaves
    ``out_dir`` as it was, and a killed run can leave ``*.tmp`` files,
    which ``batch`` and ``aggregate`` skip. Returns the manifest.

    Each sample is dropped once its trace is written, before the next one
    is built, and its trace is written ``BLOCK`` records at a time, so
    memory holds one sample's events and one block of its text; the
    manifest is written as it is encoded.
    """
    seen = set()
    for spec in specs:
        if spec.sample_id in seen:
            raise TraceError(f"duplicate sample_id {spec.sample_id!r}")
        seen.add(spec.sample_id)
    os.makedirs(out_dir, exist_ok=True)
    entries, manifest = {}, {}

    def trace(spec: GenSpec):
        sample = build_sample(spec)
        technique_set = sorted(set(sample.positions)
                               - catalog.FP_PRONE_TECHNIQUES)
        entries[spec.sample_id] = {
            "trace_file": spec.sample_id + ".trace",
            "labels": dict(spec.labels),
            "expect_detections": sorted(sample.positions),
            "expect_technique_set": technique_set,
            "expect_evasive": bool(technique_set),
            "positions": dict(sorted(sample.positions.items())),
        }
        events = sample.events
        for i in range(0, len(events), BLOCK):
            yield serialize_trace(events[i:i + BLOCK])

    def files():
        for spec in specs:
            yield os.path.join(out_dir, spec.sample_id + ".trace"), trace(spec)
        manifest["samples"] = dict(sorted(entries.items()))
        yield os.path.join(out_dir, "manifest.json"), chain(json.JSONEncoder(
            indent=2, sort_keys=True).iterencode(manifest), "\n")
        if any(entry["labels"] for entry in entries.values()):
            out = csv.writer(text := io.StringIO(), lineterminator="\n")
            out.writerow(LABEL_COLUMNS)
            for sample_id, entry in manifest["samples"].items():
                if entry["labels"]:
                    row = dict(entry["labels"], sample_id=sample_id)
                    out.writerow([row.get(k, "") for k in LABEL_COLUMNS])
            yield os.path.join(out_dir, "labels.csv"), [text.getvalue()]

    write_whole(files())
    return manifest


# records serialized per write: about 130 KB of text, so the whole trace's
# text never exists at once
BLOCK = 1024

# ---------------------------------------------------------------------------
# genspec files (same key=value token dialect as traces)

def parse_genspec_file(text: str, seed: int = 0) -> list[GenSpec]:
    """One spec per line; lines end where a trace record ends, at LF, CR LF
    or CR. ``seed`` is added to each line's seed: what ``gen --seed`` does
    to a built-in suite and to a ``--spec`` file alike. A seed below 0
    after that shift is an error: ``random.Random`` seeds by absolute
    value, so -7 would build what 7 builds. A bad line, or one that
    repeats an earlier line's sample_id, is a TraceError that carries its
    number."""
    specs, seen = [], set()
    for lineno, line in enumerate(text_lines(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec = _parse_genspec(tokenize(line), seed)
        except (TraceError, ValueError) as exc:
            raise TraceError(str(exc), lineno) from None
        if spec.sample_id in seen:
            raise TraceError(f"duplicate sample_id {spec.sample_id!r}", lineno)
        seen.add(spec.sample_id)
        specs.append(spec)
    return specs


def _parse_genspec(fields: dict[str, str], shift: int) -> GenSpec:
    if "sample_id" not in fields:
        raise ValueError("missing sample_id")
    techniques = []
    if raw := fields.pop("techniques", ""):
        for part in raw.split(";"):
            head, _, origin = part.partition(":")
            tid, _, pos = head.partition("@")
            techniques.append(TechniqueSpec(
                decode_text(tid), float(pos) if pos else 50.0,
                origin or "red"))
    visible = []
    if raw := fields.pop("visible", ""):
        for part in raw.split(";"):
            name, _, pos = part.partition("@")
            visible.append((decode_text(name), float(pos) if pos else 50.0))
    spec = GenSpec(
        sample_id=decode_text(fields.pop("sample_id")),
        techniques=tuple(techniques),
        filler=int(fields.pop("filler", 60)),
        visible=tuple(visible),
        labels=take_labels(fields),
        scenario=fields.pop("scenario", None),
        seed=int(fields.pop("seed", 0)) + shift,
    )
    if spec.seed < 0:
        raise ValueError(f"seed {spec.seed} is negative")
    if fields:
        raise ValueError(f"unexpected fields {sorted(fields)}")
    return spec

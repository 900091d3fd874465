"""Technique catalog: 53 rules, their triggers, gating, and mitigations.

Categories and per-category rule counts are fixed invariants of the
catalog (VMChecks 20, AntiDebug 21, ResourceProfiling 6, TimingAttacks 2,
AntiDump 2, CodeInjection 1, AntiInstrumentation 1); exactly 17 rules
carry a mitigation transform.

Detection has one pathway, ``match_event``. Rules triggered by an API
name or an instruction mnemonic sit in one table built with the catalog;
clock, watchpoint and PE-header hits join the same list of matches. A match
only ever fires if the triggering code address (API return address,
instruction address, or memory accessor address) lies in the red area;
matches from standard-library code are discarded as legitimate use. Each
surviving match is then mitigated by its rule's transform, when the run
config enables it.

Four techniques are so commonly used for legitimate purposes that they are
flagged FP-prone and excluded from evasive classification by default:
GetTickCount, cpuid_is_hypervisor, mouse_movement, NumberOfProcessors.

WMI-based checks are modeled as a ``wmi_query`` API whose first string
argument is the query text; rules match on the queried class and field.
Guard-page probing is modeled as a ``page_guard_access`` API event.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from .clock import STALL_APIS, VirtualClock
from .config import RunConfig
from .trace import ApiPayload, Diagnostic, TraceEvent

CAT_ANTI_DEBUG = "AntiDebug"
CAT_ANTI_DUMP = "AntiDump"
CAT_ANTI_INSTRUMENTATION = "AntiInstrumentation"
CAT_CODE_INJECTION = "CodeInjection"
CAT_RESOURCE_PROFILING = "ResourceProfiling"
CAT_VM_CHECKS = "VMChecks"
CAT_TIMING_ATTACKS = "TimingAttacks"

CATEGORIES = (
    CAT_ANTI_DEBUG, CAT_ANTI_DUMP, CAT_ANTI_INSTRUMENTATION,
    CAT_CODE_INJECTION, CAT_RESOURCE_PROFILING, CAT_VM_CHECKS,
    CAT_TIMING_ATTACKS,
)

INJECTION_APIS = frozenset({
    "NtWriteVirtualMemory", "NtCreateThreadEx", "NtResumeThread",
    "NtQueueApcThread",
})

# substring artifacts betraying a hypervisor, matched case-insensitively
VM_ARTIFACTS = (
    "vbox", "virtualbox", "vmware", "qemu", "xen", "virtual", "prl",
    "parallels", "vpc",
)

RAM_SUBSTITUTE_BYTES = 8 * 1024 ** 3          # report 8 GB of RAM
DISK_SUBSTITUTE_BYTES = 800 * 1024 ** 3       # report 800 GB of disk
PROCESSOR_COUNT_SUBSTITUTE = 4


class UnknownTechniqueError(KeyError):
    pass


class MitigationError(Exception):
    """Mitigation requested for a rule that has none."""


@dataclass(frozen=True)
class TechniqueRule:
    id: str
    category: str
    trigger_kind: str                      # api | insn | watch | mem_write | clock
    trigger_desc: str
    api_names: tuple[str, ...] = ()
    mnemonic: str | None = None
    # narrows an api/insn trigger; takes the whole event
    predicate: Optional[Callable[[TraceEvent], bool]] = None
    watch_fields: tuple[str, ...] = ()
    mitigated: bool = False
    fp_prone: bool = False


@dataclass
class DetectionRecord:
    technique: str
    category: str
    seq: int
    pid: int
    tid: int
    mitigated: bool = False
    substituted_value: str | None = None
    normalized_pos: float | None = None


@dataclass(frozen=True)
class Effect:
    """A value the pipeline rewrote while processing one event."""

    seq: int
    kind: str     # stall_rewrite | time_query | rdtsc | reroute
    detail: str
    value: int | None = None


# ---------------------------------------------------------------------------
# predicate helpers

def _any_str_contains(payload: ApiPayload, needles) -> bool:
    for a in payload.str_args():
        low = a.lower()
        if any(n in low for n in needles):
            return True
    return False


def _is_device_path(path: str) -> bool:
    low = path.lower()
    return low.startswith("\\\\.\\") or low.startswith("\\device\\")


def _vm_artifact(device: bool) -> Callable[[TraceEvent], bool]:
    """VM artifact in a device path if ``device``, else in a file path."""
    return lambda event: any(
        _is_device_path(a) == device
        and any(n in a.lower() for n in VM_ARTIFACTS)
        for a in event.payload.str_args())


def parse_wmi_query(query: str) -> tuple[str | None, tuple[str, ...]]:
    """Split a WQL query into (class, selected fields)."""
    toks = query.replace(",", " , ").split()
    klass = None
    fields: list[str] = []
    low = [t.lower() for t in toks]
    if "from" in low:
        idx = low.index("from")
        if idx + 1 < len(toks):
            klass = toks[idx + 1]
        if low and low[0] == "select":
            fields = [t for t in toks[1:idx] if t != ","]
    return klass, tuple(fields)


def _wmi(klass: str, *fields: str) -> Callable[[TraceEvent], bool]:
    wanted = {f.lower() for f in fields}

    def pred(event: TraceEvent) -> bool:
        for a in event.payload.str_args():
            qclass, qfields = parse_wmi_query(a)
            if qclass is None or qclass.lower() != klass.lower():
                continue
            if not wanted:
                return True
            got = {f.lower() for f in qfields}
            if "*" in got or got & wanted:
                return True
        return False

    return pred


def _token(token: str) -> Callable[[TraceEvent], bool]:
    return lambda event: token in event.payload.str_args()


def _contains(*needles: str) -> Callable[[TraceEvent], bool]:
    lows = tuple(n.lower() for n in needles)
    return lambda event: _any_str_contains(event.payload, lows)


def _eax_equals(value: int) -> Callable[[TraceEvent], bool]:
    return lambda event: event.payload.reg_in("eax") == value


def _cross_process(event: TraceEvent) -> bool:
    target = event.payload.target_pid
    return target is not None and target != event.pid


RULES: tuple[TechniqueRule, ...] = (
    # -- Anti Debug (21) ----------------------------------------------------
    TechniqueRule("IsDebuggerPresentAPI", CAT_ANTI_DEBUG, "api",
                  "IsDebuggerPresent call",
                  api_names=("IsDebuggerPresent",)),
    TechniqueRule("IsDebuggerPresentPEB", CAT_ANTI_DEBUG, "watch",
                  "read of PEB.BeingDebugged",
                  watch_fields=("PEB.BeingDebugged",)),
    TechniqueRule("CheckRemoteDebuggerPresentAPI", CAT_ANTI_DEBUG, "api",
                  "CheckRemoteDebuggerPresent call",
                  api_names=("CheckRemoteDebuggerPresent",)),
    TechniqueRule("NSIT_ThreadHideFromDebugger", CAT_ANTI_DEBUG, "api",
                  "NtSetInformationThread with ThreadHideFromDebugger",
                  api_names=("NtSetInformationThread",),
                  predicate=_token("ThreadHideFromDebugger")),
    TechniqueRule("NtGlobalFlag", CAT_ANTI_DEBUG, "watch",
                  "read of PEB.NtGlobalFlag",
                  watch_fields=("PEB.NtGlobalFlag",)),
    TechniqueRule("NQIP_ProcessDebugPort", CAT_ANTI_DEBUG, "api",
                  "NtQueryInformationProcess with ProcessDebugPort",
                  api_names=("NtQueryInformationProcess",),
                  predicate=_token("ProcessDebugPort")),
    TechniqueRule("NQIP_ProcessDebugObject", CAT_ANTI_DEBUG, "api",
                  "NtQueryInformationProcess with ProcessDebugObject",
                  api_names=("NtQueryInformationProcess",),
                  predicate=_token("ProcessDebugObject")),
    TechniqueRule("NQIP_ProcessDebugFlag", CAT_ANTI_DEBUG, "api",
                  "NtQueryInformationProcess with ProcessDebugFlag",
                  api_names=("NtQueryInformationProcess",),
                  predicate=_token("ProcessDebugFlag")),
    TechniqueRule("CanOpenCsrss", CAT_ANTI_DEBUG, "api",
                  "open attempt on csrss.exe",
                  api_names=("NtOpenProcess", "OpenProcess"),
                  predicate=_contains("csrss")),
    TechniqueRule("MemoryBreakpoints_PageGuard", CAT_ANTI_DEBUG, "api",
                  "guard-page access expecting STATUS_GUARD_PAGE_VIOLATION",
                  api_names=("page_guard_access",), mitigated=True),
    TechniqueRule("Interrupt_0x2d", CAT_ANTI_DEBUG, "insn",
                  "int 2d execution", mnemonic="int2d"),
    TechniqueRule("Interrupt_3", CAT_ANTI_DEBUG, "insn",
                  "int 3 execution", mnemonic="int3"),
    TechniqueRule("HardwareBreakpoints", CAT_ANTI_DEBUG, "api",
                  "debug-register read via thread context",
                  api_names=("GetThreadContext", "NtGetContextThread"),
                  predicate=_token("CONTEXT_DEBUG_REGISTERS")),
    TechniqueRule("NQSI_SystemKernelDebuggerInformation", CAT_ANTI_DEBUG,
                  "api", "NtQuerySystemInformation with "
                  "SystemKernelDebuggerInformation",
                  api_names=("NtQuerySystemInformation",),
                  predicate=_token("SystemKernelDebuggerInformation")),
    TechniqueRule("HeapFlags", CAT_ANTI_DEBUG, "watch",
                  "read of PEB.ProcessHeap.Flags",
                  watch_fields=("PEB.ProcessHeap.Flags",)),
    TechniqueRule("HeapForceFlags", CAT_ANTI_DEBUG, "watch",
                  "read of PEB.ProcessHeap.ForceFlags",
                  watch_fields=("PEB.ProcessHeap.ForceFlags",)),
    TechniqueRule("SharedUserData_KernelDebugger", CAT_ANTI_DEBUG, "watch",
                  "read of SharedUserData.KernelDebugger",
                  watch_fields=("SharedUserData.KernelDebugger",)),
    TechniqueRule("VirtualAlloc_WriteWatch", CAT_ANTI_DEBUG, "api",
                  "VirtualAlloc with MEM_WRITE_WATCH",
                  api_names=("VirtualAlloc", "VirtualAllocEx"),
                  predicate=_token("MEM_WRITE_WATCH")),
    TechniqueRule("NQO_ObjectTypeInformation", CAT_ANTI_DEBUG, "api",
                  "NtQueryObject with ObjectTypeInformation",
                  api_names=("NtQueryObject",),
                  predicate=_token("ObjectTypeInformation")),
    TechniqueRule("NQO_ObjectAllTypesInformation", CAT_ANTI_DEBUG, "api",
                  "NtQueryObject with ObjectAllTypesInformation",
                  api_names=("NtQueryObject",),
                  predicate=_token("ObjectAllTypesInformation")),
    TechniqueRule("GetTickCount", CAT_ANTI_DEBUG, "api",
                  "GetTickCount timing probe",
                  api_names=("GetTickCount",), fp_prone=True),

    # -- VM Checks (20) -----------------------------------------------------
    TechniqueRule("reg_keys", CAT_VM_CHECKS, "api",
                  "hypervisor artifact in registry key path",
                  api_names=("RegOpenKey", "RegOpenKeyA", "RegOpenKeyW",
                             "RegOpenKeyEx", "RegOpenKeyExA", "RegOpenKeyExW",
                             "NtOpenKey"),
                  predicate=_contains(*VM_ARTIFACTS)),
    TechniqueRule("reg_key_value", CAT_VM_CHECKS, "api",
                  "hypervisor artifact in registry value",
                  api_names=("RegQueryValueEx", "RegQueryValueExA",
                             "RegQueryValueExW", "NtQueryValueKey"),
                  predicate=_contains(*VM_ARTIFACTS)),
    TechniqueRule("ldt_trick", CAT_VM_CHECKS, "insn",
                  "sldt location probe", mnemonic="sldt"),
    TechniqueRule("idt_trick", CAT_VM_CHECKS, "insn",
                  "sidt location probe", mnemonic="sidt"),
    TechniqueRule("gdt_trick", CAT_VM_CHECKS, "insn",
                  "sgdt location probe", mnemonic="sgdt"),
    TechniqueRule("str_trick", CAT_VM_CHECKS, "insn",
                  "str task-register probe", mnemonic="str"),
    TechniqueRule("vm_check_mac", CAT_VM_CHECKS, "api",
                  "adapter MAC enumeration",
                  api_names=("GetAdaptersInfo", "GetAdaptersAddresses")),
    TechniqueRule("Firmware_RSMB", CAT_VM_CHECKS, "api",
                  "raw SMBIOS firmware table read",
                  api_names=("GetSystemFirmwareTable",),
                  predicate=_token("RSMB"), mitigated=True),
    TechniqueRule("Firmware_ACPI", CAT_VM_CHECKS, "api",
                  "ACPI firmware table read",
                  api_names=("GetSystemFirmwareTable",),
                  predicate=_token("ACPI"), mitigated=True),
    TechniqueRule("Device_Artifacts", CAT_VM_CHECKS, "api",
                  "hypervisor device object open",
                  api_names=("CreateFile", "CreateFileA", "CreateFileW",
                             "NtCreateFile", "NtOpenFile"),
                  predicate=_vm_artifact(device=True)),
    TechniqueRule("cpuid_hypervisor_vendor", CAT_VM_CHECKS, "insn",
                  "cpuid leaf 0x40000000 vendor read",
                  mnemonic="cpuid", predicate=_eax_equals(0x40000000),
                  mitigated=True),
    TechniqueRule("cpuid_is_hypervisor", CAT_VM_CHECKS, "insn",
                  "cpuid leaf 1 hypervisor bit",
                  mnemonic="cpuid", predicate=_eax_equals(1),
                  mitigated=True, fp_prone=True),
    TechniqueRule("mouse_movement", CAT_VM_CHECKS, "api",
                  "cursor position sampling",
                  api_names=("GetCursorPos",), mitigated=True, fp_prone=True),
    TechniqueRule("filesystem_artifacts", CAT_VM_CHECKS, "api",
                  "hypervisor artifact path on the filesystem",
                  api_names=("CreateFile", "CreateFileA", "CreateFileW",
                             "NtCreateFile", "NtOpenFile", "FindFirstFile",
                             "FindFirstFileA", "FindFirstFileW",
                             "GetFileAttributes", "GetFileAttributesA",
                             "GetFileAttributesW"),
                  predicate=_vm_artifact(device=False)),
    TechniqueRule("setupdi_diskdrive", CAT_VM_CHECKS, "api",
                  "disk drive property via SetupDi",
                  api_names=("SetupDiGetDeviceRegistryProperty",
                             "SetupDiGetDeviceRegistryPropertyA",
                             "SetupDiGetDeviceRegistryPropertyW"),
                  mitigated=True),
    TechniqueRule("manufacturer_computer_system_wmi", CAT_VM_CHECKS, "api",
                  "WMI Win32_ComputerSystem.Manufacturer",
                  api_names=("wmi_query",),
                  predicate=_wmi("Win32_ComputerSystem", "Manufacturer")),
    TechniqueRule("model_computer_system_wmi", CAT_VM_CHECKS, "api",
                  "WMI Win32_ComputerSystem.Model",
                  api_names=("wmi_query",),
                  predicate=_wmi("Win32_ComputerSystem", "Model")),
    TechniqueRule("vbox_mac_wmi", CAT_VM_CHECKS, "api",
                  "WMI adapter MAC address",
                  api_names=("wmi_query",),
                  predicate=_wmi("Win32_NetworkAdapter", "MACAddress")),
    TechniqueRule("process_id_processor_wmi", CAT_VM_CHECKS, "api",
                  "WMI Win32_Processor id",
                  api_names=("wmi_query",),
                  predicate=_wmi("Win32_Processor", "ProcessorId",
                                 "ProcessId")),
    TechniqueRule("serial_number_bios_wmi", CAT_VM_CHECKS, "api",
                  "WMI BIOS serial number",
                  api_names=("wmi_query",),
                  predicate=_wmi("Win32_BIOS", "SerialNumber")),

    # -- Resource Profiling (6) ----------------------------------------------
    TechniqueRule("process_enum", CAT_RESOURCE_PROFILING, "api",
                  "running process enumeration",
                  api_names=("Process32First", "Process32FirstW",
                             "Process32Next", "Process32NextW"),
                  mitigated=True),
    TechniqueRule("memory_space", CAT_RESOURCE_PROFILING, "api",
                  "installed RAM probe",
                  api_names=("GlobalMemoryStatusEx", "GlobalMemoryStatus"),
                  mitigated=True),
    TechniqueRule("disk_size_getdiskfreespace", CAT_RESOURCE_PROFILING, "api",
                  "disk size via GetDiskFreeSpaceEx",
                  api_names=("GetDiskFreeSpaceEx", "GetDiskFreeSpaceExA",
                             "GetDiskFreeSpaceExW"),
                  mitigated=True),
    TechniqueRule("dizk_size_deviceiocontrol", CAT_RESOURCE_PROFILING, "api",
                  "disk size via DeviceIoControl",
                  api_names=("DeviceIoControl",),
                  predicate=_contains("ioctl_disk_get"), mitigated=True),
    TechniqueRule("disk_size_wmi", CAT_RESOURCE_PROFILING, "api",
                  "WMI disk size",
                  api_names=("wmi_query",),
                  predicate=_wmi("Win32_DiskDrive", "Size"), mitigated=True),
    TechniqueRule("NumberOfProcessors", CAT_RESOURCE_PROFILING, "watch",
                  "processor count field read",
                  watch_fields=("PEB.NumberOfProcessors",
                                "SYSTEM_INFO.dwNumberOfProcessors"),
                  mitigated=True, fp_prone=True),

    # -- Timing Attacks (2) ---------------------------------------------------
    TechniqueRule("time_stalling", CAT_TIMING_ATTACKS, "clock",
                  "above-threshold wait request",
                  api_names=tuple(sorted(STALL_APIS)), mitigated=True),
    TechniqueRule("RDTSC", CAT_TIMING_ATTACKS, "clock",
                  "rdtsc pair within the sandwich window",
                  mnemonic="rdtsc", mitigated=True),

    # -- Anti Dump (2) --------------------------------------------------------
    TechniqueRule("ErasePEHeader", CAT_ANTI_DUMP, "mem_write",
                  "value-changing write into the in-memory PE header"),
    TechniqueRule("SizeOfImage", CAT_ANTI_DUMP, "mem_write",
                  "value-changing write of the SizeOfImage header field"),

    # -- Code Injection (1) -----------------------------------------------------
    TechniqueRule("Shellcode_injected", CAT_CODE_INJECTION, "api",
                  "cross-process write / thread / APC injection",
                  api_names=tuple(sorted(INJECTION_APIS)),
                  predicate=_cross_process, mitigated=True),

    # -- Anti Instrumentation (1) -------------------------------------------
    TechniqueRule("Check_EIP", CAT_ANTI_INSTRUMENTATION, "insn",
                  "instruction-pointer leak via FPU state",
                  mnemonic="fpu_eip_leak", mitigated=True),
)

_BY_ID: dict[str, TechniqueRule] = {r.id: r for r in RULES}
KNOWN_TECHNIQUES = frozenset(_BY_ID)
FP_PRONE_TECHNIQUES = frozenset(r.id for r in RULES if r.fp_prone)

# (event kind, api name | mnemonic) -> rules it triggers, in catalog order.
# Clock rules name their APIs and mnemonic too, but the clock decides when
# they fire, so only api and insn rules are looked up by name.
TRIGGERS: dict[tuple[str, str], list[TechniqueRule]] = {}
WATCH_FIELD_TECHNIQUES: dict[str, str] = {}
for _r in RULES:
    if _r.trigger_kind == "api":
        for _name in _r.api_names:
            TRIGGERS.setdefault(("api", _name), []).append(_r)
    elif _r.trigger_kind == "insn":
        TRIGGERS.setdefault(("insn", _r.mnemonic), []).append(_r)
    for _f in _r.watch_fields:
        WATCH_FIELD_TECHNIQUES[_f] = _r.id


def rule(technique: str) -> TechniqueRule:
    try:
        return _BY_ID[technique]
    except KeyError:
        raise UnknownTechniqueError(technique)


def catalog_listing() -> tuple[TechniqueRule, ...]:
    return RULES


def is_fp_prone(technique: str) -> bool:
    return rule(technique).fp_prone


# ---------------------------------------------------------------------------
# behavior API traits (sandbox-style behavior metadata, separate from rules)

@dataclass(frozen=True)
class ApiTraits:
    externally_visible: bool = False
    internet: bool = False
    child_process: bool = False


_VISIBLE = ApiTraits(externally_visible=True)
_NET = ApiTraits(externally_visible=True, internet=True)
_CHILD = ApiTraits(child_process=True)

API_TRAITS: dict[str, ApiTraits] = {
    # filesystem writes
    "NtWriteFile": _VISIBLE, "WriteFile": _VISIBLE, "WriteFileEx": _VISIBLE,
    "DeleteFile": _VISIBLE, "DeleteFileW": _VISIBLE, "NtDeleteFile": _VISIBLE,
    "MoveFileEx": _VISIBLE, "CopyFile": _VISIBLE, "CopyFileW": _VISIBLE,
    # registry updates
    "RegSetValueEx": _VISIBLE, "RegSetValueExA": _VISIBLE,
    "RegSetValueExW": _VISIBLE, "NtSetValueKey": _VISIBLE,
    "RegCreateKeyEx": _VISIBLE, "RegDeleteKey": _VISIBLE,
    "NtDeleteKey": _VISIBLE,
    # network connections
    "connect": _NET, "WSAConnect": _NET, "InternetConnect": _NET,
    "InternetConnectA": _NET, "InternetConnectW": _NET,
    "InternetOpenUrl": _NET, "InternetOpenUrlA": _NET,
    "InternetOpenUrlW": _NET, "HttpSendRequest": _NET,
    "HttpSendRequestA": _NET, "HttpSendRequestW": _NET,
    "send": _NET, "WSASend": _NET, "URLDownloadToFile": _NET,
    "URLDownloadToFileW": _NET,
    # child processes
    "CreateProcess": _CHILD, "CreateProcessA": _CHILD,
    "CreateProcessW": _CHILD, "CreateProcessInternalW": _CHILD,
    "NtCreateUserProcess": _CHILD, "ShellExecuteEx": _CHILD,
    "ShellExecuteExW": _CHILD,
}


def api_traits(name: str) -> ApiTraits:
    return API_TRAITS.get(name, ApiTraits())


# ---------------------------------------------------------------------------
# mitigation transforms

def _mouse_coordinates(seed: int, seq: int) -> tuple[int, int]:
    digest = hashlib.blake2b(f"{seed}:{seq}".encode(), digest_size=8).digest()
    x = int.from_bytes(digest[:4], "little") % 1920
    y = int.from_bytes(digest[4:], "little") % 1080
    return x, y


def _mit_cpuid_is_hypervisor(record, event, clock, config):
    ecx = event.payload.reg_out("ecx") or 0
    return "ecx=0x%x" % (ecx & ~(1 << 31))


def _mit_mouse(record, event, clock, config):
    x, y = _mouse_coordinates(config.seed, event.seq)
    return "x=%d,y=%d" % (x, y)


def _mit_rdtsc(record, event, clock, config):
    # the clock has already answered this read
    returned = clock.last_rdtsc(event.pid, event.tid) if clock else None
    if returned is None:
        raise MitigationError("RDTSC substitution needs the clock's reading")
    return "tsc=%d" % returned


MITIGATIONS: dict[str, Callable] = {
    "MemoryBreakpoints_PageGuard":
        lambda r, e, c, cfg: "exception=STATUS_GUARD_PAGE_VIOLATION",
    "Firmware_RSMB": lambda r, e, c, cfg: "buffer=scrubbed",
    "Firmware_ACPI": lambda r, e, c, cfg: "buffer=scrubbed",
    "cpuid_hypervisor_vendor": lambda r, e, c, cfg: "ebx=0x0,ecx=0x0,edx=0x0",
    "cpuid_is_hypervisor": _mit_cpuid_is_hypervisor,
    "mouse_movement": _mit_mouse,
    "setupdi_diskdrive": lambda r, e, c, cfg: "buffer=zeroed",
    "process_enum": lambda r, e, c, cfg: "parent=cmd.exe",
    "memory_space": lambda r, e, c, cfg: str(RAM_SUBSTITUTE_BYTES),
    "disk_size_getdiskfreespace": lambda r, e, c, cfg: str(DISK_SUBSTITUTE_BYTES),
    "dizk_size_deviceiocontrol": lambda r, e, c, cfg: str(DISK_SUBSTITUTE_BYTES),
    "disk_size_wmi": lambda r, e, c, cfg: "result=empty",
    "NumberOfProcessors": lambda r, e, c, cfg: str(PROCESSOR_COUNT_SUBSTITUTE),
    "time_stalling": lambda r, e, c, cfg: "wait_ms=0",
    "RDTSC": _mit_rdtsc,
    "Shellcode_injected": lambda r, e, c, cfg: f"target_pid={cfg.honeypot_pid}",
    "Check_EIP": lambda r, e, c, cfg: "eip=0x%x" % e.payload.address,
}

assert set(MITIGATIONS) == {r.id for r in RULES if r.mitigated}


def apply_mitigation(record: DetectionRecord, event: TraceEvent,
                     clock: VirtualClock | None = None,
                     config: RunConfig | None = None) -> str:
    """Fill the record's substituted value and mark it mitigated.

    The transform is a pure function of (event, seed, clock state); a
    forced value in the run config's overrides wins over the built-in
    transform.
    """
    r = rule(record.technique)
    if not r.mitigated:
        raise MitigationError(f"technique {record.technique} has no mitigation")
    config = config or RunConfig()
    forced = config.override_for(record.technique)
    if forced is not None and forced not in ("on", "off"):
        value = forced
    else:
        value = MITIGATIONS[record.technique](record, event, clock, config)
    record.substituted_value = value
    record.mitigated = True
    return value


# ---------------------------------------------------------------------------
# event matching

def match_event(event: TraceEvent, tracker, clock: VirtualClock,
                config: RunConfig | None = None
                ) -> tuple[list[DetectionRecord], list[Effect]]:
    """Run one api/insn/mem event through the detection pathway.

    Advances tracker watchpoints, PE shadows, and the virtual clock as a
    side effect. Every match is red-gated once, against the event's origin
    address, and each surviving record is mitigated when the config enables
    its mitigation. Returns those records plus any values the clock
    rewrote. Events of other kinds produce nothing.
    """
    config = config or RunConfig()
    kind = event.kind
    p = event.payload
    hits: list[TechniqueRule] = []
    effects: list[Effect] = []

    if kind == "api":
        origin, name = p.return_address, p.name
        if name in STALL_APIS:
            requested = next((a.v for a in p.args if a.t == "d"), None)
            if requested is not None:
                rewrite = config.mitigation_enabled("time_stalling")
                result = clock.on_stall_api(requested, rewrite=rewrite)
                if rewrite:
                    effects.append(Effect(
                        event.seq, "stall_rewrite",
                        f"{name} wait {requested} ms rewritten to 0, "
                        f"clock advanced {result.advanced_ms} ms", 0))
                if result.stalling:
                    hits.append(_BY_ID["time_stalling"])
        elif clock.is_time_query(name) and p.ret is not None:
            raw = p.ret.v
            if isinstance(raw, int):
                adjusted = clock.on_time_query(name, raw)
                effects.append(Effect(
                    event.seq, "time_query",
                    f"{name} raw {raw} adjusted to {adjusted}", adjusted))
            else:
                clock.diagnostics.append(Diagnostic(
                    event.seq, f"{name} returned {p.ret.encode()}, not an "
                               f"integer; left unadjusted"))
        if p.out_structs:
            tracker.install_field_watchpoints(event.pid, p.out_structs,
                                              event.seq)

    elif kind == "insn":
        origin, name = p.address, p.mnemonic
        if name == "rdtsc":
            raw = p.reg_out("tsc")
            if raw is not None:
                result = clock.on_rdtsc(
                    event.pid, event.tid, event.insn_index, raw,
                    seq=event.seq, adjust=config.mitigation_enabled("RDTSC"))
                effects.append(Effect(
                    event.seq, "rdtsc",
                    f"raw {raw} returned {result.returned}",
                    result.returned))
                if (result.sandwich
                        or not config.clock.rdtsc_requires_sandwich):
                    hits.append(_BY_ID["RDTSC"])

    elif kind == "mem_read":
        origin, name = p.accessor_address, None
        # the tracker tags each watchpoint with WATCH_FIELD_TECHNIQUES
        for wp in tracker.resolve_access(event):
            if wp.technique is not None:
                hits.append(_BY_ID[wp.technique])

    elif kind == "mem_write":
        origin, name = p.accessor_address, None
        tracker.resolve_access(event)
        result = tracker.pe_header_write(event)
        if result is not None and result.changed:
            technique = ("SizeOfImage" if result.field == "SIZE_OF_IMAGE"
                         else "ErasePEHeader")
            hits.append(_BY_ID[technique])

    else:
        return [], []

    for r in TRIGGERS.get((kind, name), ()):
        if r.predicate is None or r.predicate(event):
            hits.append(r)
    if not hits or not tracker.is_red(event.pid, origin):
        return [], effects

    records = []
    for r in hits:
        record = DetectionRecord(r.id, r.category, event.seq, event.pid,
                                 event.tid)
        if r.mitigated and config.mitigation_enabled(r.id):
            apply_mitigation(record, event, clock, config)
        records.append(record)
    return records, effects

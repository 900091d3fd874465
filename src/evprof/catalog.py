"""Technique catalog: 53 rules, their triggers, gating, and mitigations.

Categories and per-category rule counts are fixed invariants of the
catalog (VMChecks 20, AntiDebug 21, ResourceProfiling 6, TimingAttacks 2,
AntiDump 2, CodeInjection 1, AntiInstrumentation 1); exactly 17 rules
carry their mitigation, a ``substitute``: the fixed value the mitigated
call or read returns, or a transform that computes it.

Detection has one pathway, ``match_event``. Rules triggered by an API
name, an instruction mnemonic or a watched field sit in one table built
with the catalog, ``TRIGGERS``; clock and PE-header hits join the same list
of matches. A match only ever fires if the triggering code address (API
return address, instruction address, or memory accessor address) lies in
the red area; matches from standard-library code are discarded as
legitimate use. Each surviving match is then mitigated by its rule's
substitute, when the run settings enable it. ``RunConfig`` holds the four
settings a run may vary, and refuses an override of a technique that has
no mitigation.

A rule narrows its api or insn trigger with data, which ``_narrowed``
reads: an exact string argument (``token``), case-insensitive substrings
(``needles``, kept to device or file paths by ``path``), a WQL class and
its fields (``wmi``), a cpuid leaf (``eax``), or a target in another
process (``cross_process``). The generator builds each technique's
proof-of-concept trace from the same fields. WMI checks are modeled as a
``wmi_query`` API whose first string argument is the query text, and
guard-page probing as a ``page_guard_access`` API event.

Four techniques are so commonly used for legitimate purposes that they are
flagged FP-prone and excluded from evasive classification by default:
GetTickCount, cpuid_is_hypervisor, mouse_movement, NumberOfProcessors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .clock import STALL_APIS, VirtualClock
from .trace import Diagnostic, TraceEvent

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
HONEYPOT_PID = 99999  # the decoy process injection is rerouted to


@dataclass(frozen=True)
class TechniqueRule:
    id: str
    category: str
    trigger_kind: str                      # api | insn | watch | mem_write | clock
    trigger_desc: str
    api_names: tuple[str, ...] = ()
    mnemonic: str | None = None
    # narrowing fields of an api/insn trigger; a rule sets at most one
    token: str | None = None               # exact string argument
    needles: tuple[str, ...] = ()          # lowercase argument substrings
    path: str | None = None                # device | file: where needles sit
    wmi: tuple[str, tuple[str, ...]] | None = None   # (class, fields)
    eax: int | None = None                 # cpuid leaf
    cross_process: bool = False            # target_pid names another process
    watch_fields: tuple[str, ...] = ()
    # the value a mitigation substitutes, or its (event, clock, config)
    # transform; None when the technique is only detected
    substitute: str | Callable | None = None
    fp_prone: bool = False

    @property
    def mitigated(self) -> bool:
        return self.substitute is not None


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
    value: int


# ---------------------------------------------------------------------------
# narrowing

def _narrowed(r: TechniqueRule, event: TraceEvent) -> bool:
    r"""Whether ``event`` meets the narrowing field ``r`` sets, if any.

    A device path starts with ``\\.\`` or ``\device\``. A WQL query
    matches when it selects ``*`` or one of the rule's fields from its
    class; class and fields compare case-insensitively.
    """
    p = event.payload
    if r.eax is not None:
        return p.reg_in("eax") == r.eax
    if r.cross_process:
        return p.target_pid is not None and p.target_pid != event.pid
    if r.token is not None:
        return r.token in p.str_args()
    if r.needles:
        return any(
            (r.path is None or (r.path == "device")
             == low.startswith(("\\\\.\\", "\\device\\")))
            and any(n in low for n in r.needles)
            for low in map(str.lower, p.str_args()))
    if r.wmi is not None:
        klass, fields = r.wmi
        wanted = {f.lower() for f in fields} | {"*"}
        for query in p.str_args():
            toks = query.lower().replace(",", " , ").split()
            if "from" in toks[:-1]:
                at = toks.index("from")
                if (toks[0] == "select" and toks[at + 1] == klass.lower()
                        and not wanted.isdisjoint(toks[1:at])):
                    return True
        return False
    return True


# ---------------------------------------------------------------------------
# mitigation transforms

def _mouse_coordinates(seed: int, seq: int) -> tuple[int, int]:
    import hashlib  # here, not at start-up: few samples move the mouse
    digest = hashlib.blake2b(f"{seed}:{seq}".encode(), digest_size=8).digest()
    x = int.from_bytes(digest[:4], "little") % 1920
    y = int.from_bytes(digest[4:], "little") % 1080
    return x, y


def _mit_cpuid_is_hypervisor(event, clock, config):
    ecx = event.payload.reg_out("ecx") or 0
    return "ecx=0x%x" % (ecx & ~(1 << 31))


def _mit_mouse(event, clock, config):
    x, y = _mouse_coordinates(config.seed, event.seq)
    return "x=%d,y=%d" % (x, y)


def _mit_rdtsc(event, clock, config):
    # the clock has already answered this read
    returned = clock.last_rdtsc(event.pid, event.tid)
    if returned is None:
        raise ValueError("RDTSC substitution needs the clock's reading")
    return "tsc=%d" % returned


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
                  token="ThreadHideFromDebugger"),
    TechniqueRule("NtGlobalFlag", CAT_ANTI_DEBUG, "watch",
                  "read of PEB.NtGlobalFlag",
                  watch_fields=("PEB.NtGlobalFlag",)),
    TechniqueRule("NQIP_ProcessDebugPort", CAT_ANTI_DEBUG, "api",
                  "NtQueryInformationProcess with ProcessDebugPort",
                  api_names=("NtQueryInformationProcess",),
                  token="ProcessDebugPort"),
    TechniqueRule("NQIP_ProcessDebugObject", CAT_ANTI_DEBUG, "api",
                  "NtQueryInformationProcess with ProcessDebugObject",
                  api_names=("NtQueryInformationProcess",),
                  token="ProcessDebugObject"),
    TechniqueRule("NQIP_ProcessDebugFlag", CAT_ANTI_DEBUG, "api",
                  "NtQueryInformationProcess with ProcessDebugFlag",
                  api_names=("NtQueryInformationProcess",),
                  token="ProcessDebugFlag"),
    TechniqueRule("CanOpenCsrss", CAT_ANTI_DEBUG, "api",
                  "open attempt on csrss.exe",
                  api_names=("NtOpenProcess", "OpenProcess"),
                  needles=("csrss",)),
    TechniqueRule("MemoryBreakpoints_PageGuard", CAT_ANTI_DEBUG, "api",
                  "guard-page access expecting STATUS_GUARD_PAGE_VIOLATION",
                  api_names=("page_guard_access",),
                  substitute="exception=STATUS_GUARD_PAGE_VIOLATION"),
    TechniqueRule("Interrupt_0x2d", CAT_ANTI_DEBUG, "insn",
                  "int 2d execution", mnemonic="int2d"),
    TechniqueRule("Interrupt_3", CAT_ANTI_DEBUG, "insn",
                  "int 3 execution", mnemonic="int3"),
    TechniqueRule("HardwareBreakpoints", CAT_ANTI_DEBUG, "api",
                  "debug-register read via thread context",
                  api_names=("GetThreadContext", "NtGetContextThread"),
                  token="CONTEXT_DEBUG_REGISTERS"),
    TechniqueRule("NQSI_SystemKernelDebuggerInformation", CAT_ANTI_DEBUG,
                  "api", "NtQuerySystemInformation with "
                  "SystemKernelDebuggerInformation",
                  api_names=("NtQuerySystemInformation",),
                  token="SystemKernelDebuggerInformation"),
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
                  token="MEM_WRITE_WATCH"),
    TechniqueRule("NQO_ObjectTypeInformation", CAT_ANTI_DEBUG, "api",
                  "NtQueryObject with ObjectTypeInformation",
                  api_names=("NtQueryObject",),
                  token="ObjectTypeInformation"),
    TechniqueRule("NQO_ObjectAllTypesInformation", CAT_ANTI_DEBUG, "api",
                  "NtQueryObject with ObjectAllTypesInformation",
                  api_names=("NtQueryObject",),
                  token="ObjectAllTypesInformation"),
    TechniqueRule("GetTickCount", CAT_ANTI_DEBUG, "api",
                  "GetTickCount timing probe",
                  api_names=("GetTickCount",), fp_prone=True),

    # -- VM Checks (20) -----------------------------------------------------
    TechniqueRule("reg_keys", CAT_VM_CHECKS, "api",
                  "hypervisor artifact in registry key path",
                  api_names=("RegOpenKeyEx", "RegOpenKey", "RegOpenKeyA",
                             "RegOpenKeyW", "RegOpenKeyExA", "RegOpenKeyExW",
                             "NtOpenKey"),
                  needles=VM_ARTIFACTS),
    TechniqueRule("reg_key_value", CAT_VM_CHECKS, "api",
                  "hypervisor artifact in registry value",
                  api_names=("RegQueryValueEx", "RegQueryValueExA",
                             "RegQueryValueExW", "NtQueryValueKey"),
                  needles=VM_ARTIFACTS),
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
                  token="RSMB", substitute="buffer=scrubbed"),
    TechniqueRule("Firmware_ACPI", CAT_VM_CHECKS, "api",
                  "ACPI firmware table read",
                  api_names=("GetSystemFirmwareTable",),
                  token="ACPI", substitute="buffer=scrubbed"),
    TechniqueRule("Device_Artifacts", CAT_VM_CHECKS, "api",
                  "hypervisor device object open",
                  api_names=("CreateFile", "CreateFileA", "CreateFileW",
                             "NtCreateFile", "NtOpenFile"),
                  needles=VM_ARTIFACTS, path="device"),
    TechniqueRule("cpuid_hypervisor_vendor", CAT_VM_CHECKS, "insn",
                  "cpuid leaf 0x40000000 vendor read",
                  mnemonic="cpuid", eax=0x40000000,
                  substitute="ebx=0x0,ecx=0x0,edx=0x0"),
    TechniqueRule("cpuid_is_hypervisor", CAT_VM_CHECKS, "insn",
                  "cpuid leaf 1 hypervisor bit",
                  mnemonic="cpuid", eax=1,
                  substitute=_mit_cpuid_is_hypervisor, fp_prone=True),
    TechniqueRule("mouse_movement", CAT_VM_CHECKS, "api",
                  "cursor position sampling",
                  api_names=("GetCursorPos",), substitute=_mit_mouse,
                  fp_prone=True),
    TechniqueRule("filesystem_artifacts", CAT_VM_CHECKS, "api",
                  "hypervisor artifact path on the filesystem",
                  api_names=("FindFirstFile", "FindFirstFileA",
                             "FindFirstFileW", "CreateFile", "CreateFileA",
                             "CreateFileW", "NtCreateFile", "NtOpenFile",
                             "GetFileAttributes", "GetFileAttributesA",
                             "GetFileAttributesW"),
                  needles=VM_ARTIFACTS, path="file"),
    TechniqueRule("setupdi_diskdrive", CAT_VM_CHECKS, "api",
                  "disk drive property via SetupDi",
                  api_names=("SetupDiGetDeviceRegistryPropertyW",
                             "SetupDiGetDeviceRegistryProperty",
                             "SetupDiGetDeviceRegistryPropertyA"),
                  substitute="buffer=zeroed"),
    TechniqueRule("manufacturer_computer_system_wmi", CAT_VM_CHECKS, "api",
                  "WMI Win32_ComputerSystem.Manufacturer",
                  api_names=("wmi_query",),
                  wmi=("Win32_ComputerSystem", ("Manufacturer",))),
    TechniqueRule("model_computer_system_wmi", CAT_VM_CHECKS, "api",
                  "WMI Win32_ComputerSystem.Model",
                  api_names=("wmi_query",),
                  wmi=("Win32_ComputerSystem", ("Model",))),
    TechniqueRule("vbox_mac_wmi", CAT_VM_CHECKS, "api",
                  "WMI adapter MAC address",
                  api_names=("wmi_query",),
                  wmi=("Win32_NetworkAdapter", ("MACAddress",))),
    TechniqueRule("process_id_processor_wmi", CAT_VM_CHECKS, "api",
                  "WMI Win32_Processor id",
                  api_names=("wmi_query",),
                  wmi=("Win32_Processor", ("ProcessorId", "ProcessId"))),
    TechniqueRule("serial_number_bios_wmi", CAT_VM_CHECKS, "api",
                  "WMI BIOS serial number",
                  api_names=("wmi_query",),
                  wmi=("Win32_BIOS", ("SerialNumber",))),

    # -- Resource Profiling (6) ----------------------------------------------
    TechniqueRule("process_enum", CAT_RESOURCE_PROFILING, "api",
                  "running process enumeration",
                  api_names=("Process32Next", "Process32First",
                             "Process32FirstW", "Process32NextW"),
                  substitute="parent=cmd.exe"),
    TechniqueRule("memory_space", CAT_RESOURCE_PROFILING, "api",
                  "installed RAM probe",
                  api_names=("GlobalMemoryStatusEx", "GlobalMemoryStatus"),
                  substitute=str(RAM_SUBSTITUTE_BYTES)),
    TechniqueRule("disk_size_getdiskfreespace", CAT_RESOURCE_PROFILING, "api",
                  "disk size via GetDiskFreeSpaceEx",
                  api_names=("GetDiskFreeSpaceExW", "GetDiskFreeSpaceEx",
                             "GetDiskFreeSpaceExA"),
                  substitute=str(DISK_SUBSTITUTE_BYTES)),
    TechniqueRule("dizk_size_deviceiocontrol", CAT_RESOURCE_PROFILING, "api",
                  "disk size via DeviceIoControl",
                  api_names=("DeviceIoControl",),
                  needles=("ioctl_disk_get",),
                  substitute=str(DISK_SUBSTITUTE_BYTES)),
    TechniqueRule("disk_size_wmi", CAT_RESOURCE_PROFILING, "api",
                  "WMI disk size",
                  api_names=("wmi_query",),
                  wmi=("Win32_DiskDrive", ("Size",)),
                  substitute="result=empty"),
    TechniqueRule("NumberOfProcessors", CAT_RESOURCE_PROFILING, "watch",
                  "processor count field read",
                  watch_fields=("PEB.NumberOfProcessors",
                                "SYSTEM_INFO.dwNumberOfProcessors"),
                  substitute=str(PROCESSOR_COUNT_SUBSTITUTE), fp_prone=True),

    # -- Timing Attacks (2) ---------------------------------------------------
    TechniqueRule("time_stalling", CAT_TIMING_ATTACKS, "clock",
                  "above-threshold wait request",
                  api_names=tuple(sorted(STALL_APIS)), substitute="wait_ms=0"),
    TechniqueRule("RDTSC", CAT_TIMING_ATTACKS, "clock",
                  "rdtsc pair within the sandwich window",
                  mnemonic="rdtsc", substitute=_mit_rdtsc),

    # -- Anti Dump (2) --------------------------------------------------------
    TechniqueRule("ErasePEHeader", CAT_ANTI_DUMP, "mem_write",
                  "value-changing write into the in-memory PE header"),
    TechniqueRule("SizeOfImage", CAT_ANTI_DUMP, "mem_write",
                  "value-changing write of the SizeOfImage header field"),

    # -- Code Injection (1) -----------------------------------------------------
    TechniqueRule("Shellcode_injected", CAT_CODE_INJECTION, "api",
                  "cross-process write / thread / APC injection",
                  api_names=tuple(sorted(INJECTION_APIS)),
                  cross_process=True, substitute=f"target_pid={HONEYPOT_PID}"),

    # -- Anti Instrumentation (1) -------------------------------------------
    TechniqueRule("Check_EIP", CAT_ANTI_INSTRUMENTATION, "insn",
                  "instruction-pointer leak via FPU state",
                  mnemonic="fpu_eip_leak",
                  substitute=lambda e, c, cfg: "eip=0x%x" % e.payload.address),
)

_BY_ID: dict[str, TechniqueRule] = {r.id: r for r in RULES}
KNOWN_TECHNIQUES = frozenset(_BY_ID)
FP_PRONE_TECHNIQUES = frozenset(r.id for r in RULES if r.fp_prone)

# ("api", name) | ("insn", mnemonic) | ("watch", qualified field) -> rules
# it triggers, in catalog order. Clock rules name their APIs and mnemonic
# too, but the clock decides when they fire, so they are not looked up.
TRIGGERS: dict[tuple[str, str], list[TechniqueRule]] = {}
for _r in RULES:
    _names = {"api": _r.api_names, "insn": (_r.mnemonic,),
              "watch": _r.watch_fields}.get(_r.trigger_kind, ())
    for _name in _names:
        TRIGGERS.setdefault((_r.trigger_kind, _name), []).append(_r)


def rule(technique: str) -> TechniqueRule:
    return _BY_ID[technique]


# ---------------------------------------------------------------------------
# behavior API names (sandbox-style behavior metadata, separate from rules)

INTERNET_APIS = frozenset({
    "connect", "WSAConnect", "InternetConnect", "InternetConnectA",
    "InternetConnectW", "InternetOpenUrl", "InternetOpenUrlA",
    "InternetOpenUrlW", "HttpSendRequest", "HttpSendRequestA",
    "HttpSendRequestW", "send", "WSASend", "URLDownloadToFile",
    "URLDownloadToFileW",
})

# externally visible: filesystem writes, registry updates and network use
VISIBLE_APIS = frozenset({
    "NtWriteFile", "WriteFile", "WriteFileEx", "DeleteFile", "DeleteFileW",
    "NtDeleteFile", "MoveFileEx", "CopyFile", "CopyFileW",
    "RegSetValueEx", "RegSetValueExA", "RegSetValueExW", "NtSetValueKey",
    "RegCreateKeyEx", "RegDeleteKey", "NtDeleteKey",
}) | INTERNET_APIS

CHILD_PROCESS_APIS = frozenset({
    "CreateProcess", "CreateProcessA", "CreateProcessW",
    "CreateProcessInternalW", "NtCreateUserProcess", "ShellExecuteEx",
    "ShellExecuteExW",
})


# ---------------------------------------------------------------------------
# run settings

class ConfigError(Exception):
    """A usage error: a bad command-line option or run setting; the CLI
    exits 2 on it."""


@dataclass(frozen=True)
class RunConfig:
    """The four settings a study varies: which mitigations run, whether
    the FP-prone four count, and the seed of the mouse substitute."""

    mitigate: bool = True
    exclude_fp_prone: bool = True
    # technique id -> "on" | "off" | forced substituted value
    overrides: tuple[tuple[str, str], ...] = ()
    seed: int = 0

    def __post_init__(self):
        for key, _ in self.overrides:
            if key not in _BY_ID:
                raise ConfigError(
                    f"override references unknown technique {key!r}")
            if not _BY_ID[key].mitigated:
                raise ConfigError(f"override references technique {key!r}, "
                                  f"which has no mitigation")

    def override_for(self, technique: str) -> str | None:
        for key, value in self.overrides:
            if key == technique:
                return value
        return None

    def mitigation_enabled(self, technique: str) -> bool:
        ov = self.override_for(technique)
        if ov == "off":
            return False
        if ov is not None:
            return True
        return self.mitigate


def apply_mitigation(record: DetectionRecord, event: TraceEvent,
                     clock: VirtualClock, config: RunConfig) -> str:
    """Fill the record's substituted value and mark it mitigated.

    The rule's substitute is a fixed value or a pure function of (event,
    seed, clock state); a forced value in the run config's overrides wins
    over it.
    """
    r = rule(record.technique)
    if not r.mitigated:
        raise ValueError(f"technique {record.technique} has no mitigation")
    forced = config.override_for(record.technique)
    if forced is not None and forced not in ("on", "off"):
        value = forced
    elif isinstance(r.substitute, str):
        value = r.substitute
    else:
        value = r.substitute(event, clock, config)
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
                _, stalling = clock.on_stall_api(requested, rewrite=rewrite)
                if rewrite:
                    effects.append(Effect(event.seq, "stall_rewrite", 0))
                if stalling:
                    hits.append(_BY_ID["time_stalling"])
        elif clock.is_time_query(name) and p.ret is not None:
            raw = p.ret.v
            if isinstance(raw, int):
                adjusted = clock.on_time_query(name, raw)
                effects.append(Effect(event.seq, "time_query", adjusted))
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
                returned, paired = clock.on_rdtsc(
                    event.pid, event.tid, event.insn_index, raw,
                    seq=event.seq, adjust=config.mitigation_enabled("RDTSC"))
                effects.append(Effect(event.seq, "rdtsc", returned))
                if paired:
                    hits.append(_BY_ID["RDTSC"])

    elif kind == "mem_read":
        origin, name = p.accessor_address, None
        for wp in tracker.resolve_access(event):
            hits += TRIGGERS.get(("watch", wp.field), ())

    elif kind == "mem_write":
        origin, name = p.accessor_address, None
        tracker.resolve_access(event)
        changed, size_of_image = tracker.pe_header_write(event)
        if changed:
            hits.append(_BY_ID["SizeOfImage" if size_of_image
                               else "ErasePEHeader"])

    else:
        return [], []

    for r in TRIGGERS.get((kind, name), ()):
        if _narrowed(r, event):
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

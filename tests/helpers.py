"""Hand-rolled trace construction and other fixtures for tests.

The ``T`` builder is deliberately independent of evprof.generate: tests
that check the generator or the profiler need fixtures built straight from
the event dataclasses.
"""

import time
import tracemalloc

from evprof.generate import GenSpec, TechniqueSpec, build_sample
from evprof.trace import (
    ApiPayload, ImageLoadPayload, InsnPayload, MemPayload, MetaPayload,
    RegionAllocPayload, RegionFreePayload, StructLayout, ThreadStartPayload,
    TraceEvent, Value,
)

MAIN_PID = 100
MAIN_TID = 11
MAIN_BASE = 0x400000
MAIN_SIZE = 0x10000
STDLIB_BASE = 0x7FF00000
STDLIB_SIZE = 0x20000
PEB_BASE = 0x7FFD0000

RED = MAIN_BASE + 0x1000
BENIGN = STDLIB_BASE + 0x500

PEB = StructLayout("PEB", PEB_BASE, (
    ("BeingDebugged", 0x2, 1),
    ("NumberOfProcessors", 0x64, 4),
    ("NtGlobalFlag", 0x68, 4),
))


def header_bytes(size=0x200):
    data = bytearray(size)
    data[0:2] = b"MZ"
    data[0x50:0x54] = (0x10000).to_bytes(4, "little")
    return bytes(data)


class T:
    """Sequential event builder with explicit control of every field."""

    def __init__(self, sample_id="t", labels=(), structs=(PEB,)):
        self.events = []
        self._insn = 0
        self.meta(sample_id, labels, structs)

    def _emit(self, kind, payload, pid=MAIN_PID, tid=MAIN_TID,
              insn_index=None):
        if insn_index is None:
            self._insn += 2
            insn_index = self._insn
        ev = TraceEvent(len(self.events), pid, tid, insn_index, kind, payload)
        self.events.append(ev)
        return ev

    def meta(self, sample_id, labels=(), structs=()):
        return self._emit("meta", MetaPayload(sample_id, tuple(labels),
                                              tuple(structs)))

    def main_image(self, header=None, size_of_image_addr=MAIN_BASE + 0x50,
                   structs=()):
        return self._emit("image_load", ImageLoadPayload(
            "main.exe", MAIN_BASE, MAIN_SIZE, "main_image",
            header=header, size_of_image_addr=size_of_image_addr,
            structs=tuple(structs)))

    def stdlib(self):
        return self._emit("image_load", ImageLoadPayload(
            "ntdll.dll", STDLIB_BASE, STDLIB_SIZE, "standard_library"))

    def images(self, header=None):
        self.main_image(header=header)
        self.stdlib()
        return self

    def api(self, name, args=(), ret=None, origin=RED, native=None,
            out_structs=(), target_pid=None, pid=MAIN_PID, tid=MAIN_TID):
        if native is None:
            native = name.startswith(("Nt", "Zw"))
        return self._emit("api", ApiPayload(
            name=name, args=tuple(args), ret=ret, return_address=origin,
            native=native, out_structs=tuple(out_structs),
            target_pid=target_pid), pid=pid, tid=tid)

    def native_filler(self, count, origin=RED):
        for i in range(count):
            self.api("NtClose", args=(Value("i", i),), ret=Value("i", 0),
                     origin=origin)
        return self

    def insn(self, mnemonic, origin=RED, in_regs=(), out_regs=(),
             insn_index=None, pid=MAIN_PID, tid=MAIN_TID):
        return self._emit("insn", InsnPayload(
            mnemonic, origin, tuple(in_regs), tuple(out_regs)),
            pid=pid, tid=tid, insn_index=insn_index)

    def read(self, address, size=4, value=0, origin=RED,
             pid=MAIN_PID, tid=MAIN_TID):
        return self._emit("mem_read",
                          MemPayload(address, size, value, origin),
                          pid=pid, tid=tid)

    def write(self, address, size=4, value=0, origin=RED,
              pid=MAIN_PID, tid=MAIN_TID):
        return self._emit("mem_write",
                          MemPayload(address, size, value, origin),
                          pid=pid, tid=tid)

    def alloc(self, base, size, kind, pid=MAIN_PID, name=None):
        return self._emit("region_alloc",
                          RegionAllocPayload(base, size, kind, name), pid=pid)

    def free(self, base, pid=MAIN_PID):
        return self._emit("region_free", RegionFreePayload(base), pid=pid)

    def thread_start(self, pid, tid, parent_tid=None):
        return self._emit("thread_start", ThreadStartPayload(parent_tid),
                          pid=pid, tid=tid, insn_index=0)


# -- generated samples and run comparisons -----------------------------------

def best_time(fn, *args):
    """The best of 3 wall times of ``fn(*args)``, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def traced_peak(fn, *args):
    """Run ``fn(*args)`` under tracemalloc. Returns its result, the peak of
    the bytes allocated during the call, and the bytes of those still held
    when it returns (the result, for a function that keeps no cache)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def build_samples(specs):
    """Each spec's generated sample, by sample id: what ``write_corpus``
    writes, all held in memory at once."""
    return {spec.sample_id: build_sample(spec)
            for spec in sorted(specs, key=lambda s: s.sample_id)}


def divergent_pair(sample_id="divergent", seed=11):
    """Two runs of one sample: mitigated (full behavior) and bare.

    The bare run models the malware detecting the analysis and bailing
    out: the post-check externally visible activity never happens.
    """
    check = (TechniqueSpec("IsDebuggerPresentAPI", pos=20.0),)
    mitigated = GenSpec(
        sample_id=sample_id, techniques=check, filler=60,
        visible=(("NtWriteFile", 70.0), ("NtWriteFile", 80.0),
                 ("RegSetValueEx", 85.0), ("connect", 90.0)),
        seed=seed)
    bare = GenSpec(
        sample_id=sample_id, techniques=check, filler=60,
        visible=(), seed=seed)
    return mitigated, bare


def behavior_diff(report_a, report_b):
    """Compare two runs of one sample under different configurations."""
    if report_a.sample_id != report_b.sample_id:
        raise ValueError(
            f"behavior diff needs two runs of one sample, got "
            f"{report_a.sample_id!r} and {report_b.sample_id!r}")
    return {
        "same_techniques":
            set(report_a.technique_set) == set(report_b.technique_set),
        "same_visible_effects":
            report_a.visible_api_counts == report_b.visible_api_counts,
    }

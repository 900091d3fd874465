"""Seeded inputs for the benchmark's three workloads.

Each writer puts trace files plus a ``labels.csv`` into a directory and
returns an ``Inputs`` record of what a correct report must say for each
sample; ``scan`` then adds the shape of what was written. The program
under test only ever sees the written files.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from evprof import catalog
from evprof import generate as gen
from evprof.trace import (
    FieldRef, ImageLoadPayload, MetaPayload, RegionAllocPayload,
    RegionFreePayload, serialize_trace, vaddr, vint,
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes. Each evprof run on them takes a second or two, so a
    run of the benchmark holds many of them."""

    big_filler: int = 20_000       # native filler calls in big_trace
    big_repeats: int = 40          # occurrences of each technique
    corpus_files: int = 150
    churn_regions: int = 1000      # exec regions live at the churn peak
    sweep_regions: int = 500       # smallest of the three sweep sizes

    def scaled(self, factor: float) -> "Sizes":
        return Sizes(*(max(2, round(v * factor)) for v in (
            self.big_filler, self.big_repeats, self.corpus_files,
            self.churn_regions, self.sweep_regions)))


@dataclass
class Expect:
    technique_set: list[str]
    evasive: bool
    family: str
    events: int = 0                 # filled in by scan
    detections: int | None = None   # checked only where derivable


@dataclass
class Inputs:
    trace_dir: str
    labels_csv: str
    expect: dict[str, Expect] = field(default_factory=dict)
    events: int = 0
    bytes: int = 0
    kind_mix: dict[str, int] = field(default_factory=dict)
    live_regions: int = 0
    digests: dict[str, str] = field(default_factory=dict)   # file -> sha256

    @property
    def files(self) -> int:
        return len(self.expect)

    def shape(self) -> dict:
        return {"files": self.files, "events": self.events,
                "bytes": self.bytes, "kind_mix": self.kind_mix,
                "live_regions": self.live_regions}


_KIND = re.compile(r" kind=([a-z_]+)")
# regions a trace maps, as its events declare them
_REGION_DELTA = {"image_load": 1, "region_alloc": 1, "region_free": -1}


def scan(inputs: Inputs) -> Inputs:
    """Fill events, bytes, kind mix, live regions and file digests from
    the written files."""
    mix: Counter = Counter()
    for name in sorted(os.listdir(inputs.trace_dir)):
        with open(os.path.join(inputs.trace_dir, name), "rb") as fh:
            data = fh.read()
        inputs.digests[name] = hashlib.sha256(data).hexdigest()
        expect = inputs.expect.get(name.removesuffix(".trace"))
        if expect is None:
            continue
        inputs.bytes += len(data)
        kinds = _KIND.findall(data.decode("utf-8"))
        mix.update(kinds)
        expect.events = len(kinds)
        live = 0
        for kind in kinds:
            live += _REGION_DELTA.get(kind, 0)
            inputs.live_regions = max(inputs.live_regions, live)
    inputs.events = sum(mix.values())
    inputs.kind_mix = dict(sorted(mix.items()))
    return inputs


def _from_manifest(out_dir: str, manifest: dict) -> Inputs:
    inputs = Inputs(out_dir, os.path.join(out_dir, "labels.csv"))
    for sample_id, entry in manifest["samples"].items():
        inputs.expect[sample_id] = Expect(
            technique_set=entry["expect_technique_set"],
            evasive=entry["expect_evasive"],
            family=entry["labels"].get("family", ""))
    return inputs


# ---------------------------------------------------------------------------
# big_trace

def big_trace_spec(seed: int, sizes: Sizes) -> gen.GenSpec:
    """Heavy native filler plus every technique repeated throughout.

    A third of the occurrences come from benign (library) code. The first
    occurrence of each technique is always red: the PE-header techniques
    only fire on the first write that changes the header, which the
    generator's per-trigger manifest does not model.
    """
    rng = random.Random(seed)
    techniques = []
    for technique in sorted(catalog.KNOWN_TECHNIQUES):
        positions = sorted(rng.uniform(0.0, 100.0)
                           for _ in range(sizes.big_repeats))
        for i, pos in enumerate(positions):
            origin = "benign" if i % 3 == 1 else "red"
            techniques.append(gen.TechniqueSpec(technique, pos, origin))
    return gen.GenSpec(
        sample_id=f"big_{seed}", techniques=tuple(techniques),
        filler=sizes.big_filler,
        labels=(("dataset", "big"), ("family", "bigfam"),
                ("year", str(2015 + seed % 7))),
        seed=seed)


def write_big_trace(out_dir: str, seed: int, sizes: Sizes) -> Inputs:
    manifest = gen.write_corpus([big_trace_spec(seed, sizes)], out_dir)
    return _from_manifest(out_dir, manifest)


# ---------------------------------------------------------------------------
# corpus

FAMILIES = ("agenttesla", "dridex", "emotet", "formbook", "locky", "lokibot",
            "njrat", "qakbot", "remcos", "trickbot", "ursnif", "zeus")
DATASETS = ("ds2017", "ds2019", "ds2021")
PACKERS = ("aspack", "mpress", "upx")
PROTECTORS = ("themida", "vmprotect")
INJECTOR_EVERY = 50   # every 50th sample injects twice into one target


def corpus_specs(seed: int, sizes: Sizes) -> list[gen.GenSpec]:
    """Small labeled samples: 0-8 distinct techniques, 50-290 filler calls.

    Every ``INJECTOR_EVERY``-th sample runs the injection scenario on top of
    its own ``Shellcode_injected``, so repeated writes into one target
    (region coalescing) occur in every corpus.
    """
    rng = random.Random(seed)
    ids = sorted(catalog.KNOWN_TECHNIQUES)
    specs = []
    for i in range(sizes.corpus_files):
        chosen = rng.sample(ids, rng.randint(0, 8))
        scenario = None
        if i % INJECTOR_EVERY == 0:
            scenario = "injection"
            if "Shellcode_injected" not in chosen:
                chosen.append("Shellcode_injected")
        techniques = tuple(
            gen.TechniqueSpec(t, round(rng.uniform(0.0, 100.0), 2),
                              "benign" if rng.random() < 0.25 else "red")
            for t in chosen)
        labels = [("dataset", rng.choice(DATASETS)),
                  ("family", rng.choice(FAMILIES)),
                  ("year", str(rng.randint(2014, 2021)))]
        if rng.random() < 0.3:
            labels.append(("packer", rng.choice(PACKERS)))
        if rng.random() < 0.1:
            labels.append(("protector", rng.choice(PROTECTORS)))
        specs.append(gen.GenSpec(
            sample_id=f"c{seed}_{i:05d}", techniques=techniques,
            filler=rng.randint(50, 290), labels=tuple(labels),
            scenario=scenario, seed=rng.randrange(1 << 30)))
    return specs


def write_corpus(out_dir: str, seed: int, sizes: Sizes) -> Inputs:
    manifest = gen.write_corpus(corpus_specs(seed, sizes), out_dir)
    return _from_manifest(out_dir, manifest)


# ---------------------------------------------------------------------------
# address_churn

CHURN_CODE_BASE = 0x10000000   # exec_alloc regions, one page apart
CHURN_FIELD_BASE = 0x60000000  # one watched 4-byte field per region
CHURN_REGION_SIZE = 0x800
CALL_SHARE = 1 / 3             # mixed phase: calls, rest reads:writes 3:1


@dataclass
class Churn:
    events: list
    detections: int      # reads of a still-live field from live red code


def build_churn(seed: int, regions: int) -> Churn:
    """Allocate, use and free ``regions`` exec regions through TraceBuilder.

    Phase 1 allocates the regions at shuffled addresses; code in each one
    runs a cpuid and a GetSystemInfo that publishes one watched field.
    Phase 2 makes calls from random live regions and random reads and
    writes (3:1) of the fields. Phase 3 frees the regions in random order,
    each free followed by one more access. The expected detection count is
    derived alongside: a read is a detection when its field was not
    written since publication and its code region is still allocated.
    """
    spec = gen.GenSpec(sample_id=f"churn_{seed}_{regions}", seed=seed,
                       labels=(("dataset", "churn"), ("family", "churnfam"),
                               ("year", str(2015 + seed % 7))))
    b = gen.TraceBuilder(spec)
    rng = b.rng
    b.emit("meta", MetaPayload(sample_id=spec.sample_id, labels=spec.labels,
                               structs=(gen.PEB_LAYOUT,)))
    b.emit("image_load", ImageLoadPayload(
        name="sample.exe", base=gen.MAIN_BASE, size=gen.MAIN_SIZE,
        region_kind="main_image"))
    b.emit("image_load", ImageLoadPayload(
        name="ntdll.dll", base=gen.STDLIB_BASE, size=gen.STDLIB_SIZE,
        region_kind="standard_library"))

    def code(r: int) -> int:
        return CHURN_CODE_BASE + r * 0x1000 + 0x10

    def field_addr(r: int) -> int:
        return CHURN_FIELD_BASE + r * 0x10

    order = list(range(regions))
    rng.shuffle(order)
    live_regions: set[int] = set()
    live_fields: set[int] = set()
    detections = 0

    for r in order:
        b.emit("region_alloc", RegionAllocPayload(
            CHURN_CODE_BASE + r * 0x1000, CHURN_REGION_SIZE, "exec_alloc"))
        live_regions.add(r)
        b.insn("cpuid", origin=code(r), in_regs=(("eax", 0),),
               out_regs=(("ebx", 0x756E6547), ("ecx", 0x6C65746E),
                         ("edx", 0x49656E69)))
        b.api("GetSystemInfo", args=(vaddr(field_addr(r)),), ret=vint(0),
              origin=code(r), native=False,
              out_structs=(FieldRef("SYSTEM_INFO", "dwNumberOfProcessors",
                                    field_addr(r), 4),))
        live_fields.add(r)

    def access(accessor: int) -> None:
        nonlocal detections
        target = rng.randrange(regions)
        if rng.random() < 0.75:
            b.mem_read(field_addr(target), 4, 2, origin=code(accessor))
            if target in live_fields and accessor in live_regions:
                detections += 1
        else:
            b.mem_write(field_addr(target), 4, 8, origin=code(accessor))
            live_fields.discard(target)

    for _ in range(2 * regions):
        r = order[rng.randrange(regions)]
        if rng.random() < CALL_SHARE:
            name = gen.FILLER_APIS[rng.randrange(len(gen.FILLER_APIS))]
            b.api(name, args=(vint(rng.randrange(1 << 16)),), ret=vint(0),
                  origin=code(r))
        else:
            access(r)

    rng.shuffle(order)
    for r in order:
        b.emit("region_free", RegionFreePayload(CHURN_CODE_BASE + r * 0x1000))
        live_regions.discard(r)
        access(rng.randrange(regions))

    return Churn(b.events, detections)


def write_churn(out_dir: str, seed: int, sizes: Sizes) -> Inputs:
    os.makedirs(out_dir, exist_ok=True)
    churn = build_churn(seed, sizes.churn_regions)
    meta = churn.events[0].payload
    with open(os.path.join(out_dir, meta.sample_id + ".trace"), "w",
              encoding="utf-8") as fh:
        fh.write(serialize_trace(churn.events))
    labels = dict(meta.labels)
    with open(os.path.join(out_dir, "labels.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("sample_id,family,year,packer,protector\n"
                 f"{meta.sample_id},{labels['family']},{labels['year']},,\n")
    inputs = Inputs(out_dir, os.path.join(out_dir, "labels.csv"))
    # NumberOfProcessors is FP-prone: detected, never evasive
    inputs.expect[meta.sample_id] = Expect(
        technique_set=[], evasive=False, family=labels["family"],
        detections=churn.detections)
    return inputs


WRITERS = {
    "big_trace": write_big_trace,
    "corpus": write_corpus,
    "address_churn": write_churn,
}

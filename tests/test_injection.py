"""Honeypot rerouting and injection attribution."""

from evprof.catalog import HONEYPOT_PID, RunConfig
from evprof.injection import HONEYPOT_IMAGE_BASE
from evprof.profiler import SampleProfiler
from evprof.trace import Value, vaddr, vlen

from helpers import MAIN_PID, RED, T

VICTIM = 555


def profile(t, config=None):
    prof = SampleProfiler(config or RunConfig())
    for ev in t.events:
        prof.process(ev)
    return prof, prof.finish()


def injection_write(t, target=VICTIM, origin=RED, addr=0x9000, length=0x200):
    return t.api("NtWriteVirtualMemory", args=(vaddr(addr), vlen(length)),
                 ret=Value("i", 0), origin=origin, target_pid=target)


def test_write_rerouted_and_range_red():
    t = T().images()
    injection_write(t)
    prof, report = profile(t)
    hp = HONEYPOT_PID
    assert prof.tracker.is_red(hp, 0x9010)
    assert [d.technique for d in report.detections] == ["Shellcode_injected"]
    assert report.detections[0].mitigated
    assert report.detections[0].substituted_value == f"target_pid={hp}"


def test_honeypot_exists_from_start():
    t = T().images()
    prof, _ = profile(t)
    assert prof.tracker.is_red(HONEYPOT_PID,
                               HONEYPOT_IMAGE_BASE + 4)


def test_self_write_not_injection():
    t = T().images()
    injection_write(t, target=MAIN_PID)
    prof, report = profile(t)
    assert report.detections == []
    assert prof.tracker.regions(HONEYPOT_PID)[0].kind == \
        "honeypot_image"


def test_benign_caller_rerouted_but_not_recorded():
    from helpers import BENIGN
    t = T().images()
    injection_write(t, origin=BENIGN)
    prof, report = profile(t)
    # the write still lands in the honeypot, but no detection is attributed
    assert prof.tracker.is_red(HONEYPOT_PID, 0x9010)
    assert report.detections == []


def test_thread_into_unwritten_memory_diagnosed_but_routed():
    t = T().images()
    t.api("NtCreateThreadEx", args=(vaddr(0xBEEF000),), ret=Value("i", 0),
          target_pid=VICTIM)
    prof, report = profile(t)
    assert [d.technique for d in report.detections] == ["Shellcode_injected"]
    assert any("never written" in w for w in report.warnings)


def test_post_injection_detection_attributed_to_sample():
    t = T().images()
    injection_write(t)
    t.api("NtCreateThreadEx", args=(vaddr(0x9000),), ret=Value("i", 0),
          target_pid=VICTIM)
    prof, _ = profile(t)
    hp = HONEYPOT_PID
    t.thread_start(hp, 1)
    t.api("IsDebuggerPresent", ret=Value("i", 0), origin=0x9010,
          native=False, pid=hp, tid=1)
    _, report = profile(t)
    techniques = [d.technique for d in report.detections]
    assert techniques == ["Shellcode_injected", "Shellcode_injected",
                          "IsDebuggerPresentAPI"]
    assert report.detections[-1].pid == hp
    assert report.sample_id == "t"
    assert set(report.technique_set) == {"Shellcode_injected",
                                         "IsDebuggerPresentAPI"}


def test_overlapping_injections_coalesce():
    t = T().images()
    injection_write(t, addr=0x9000, length=0x200)
    injection_write(t, addr=0x9100, length=0x300)
    prof, report = profile(t)
    hp = HONEYPOT_PID
    injected = [r for r in prof.tracker.regions(hp) if r.kind == "injected"]
    assert len(injected) == 1
    assert injected[0].base == 0x9000
    assert injected[0].size == 0x400
    assert len(report.detections) == 2


def test_all_cross_process_targets_become_honeypot():
    t = T().images()
    injection_write(t, target=VICTIM)
    t.api("NtQueueApcThread", args=(vaddr(0x9000),), ret=Value("i", 0),
          target_pid=777)
    t.api("NtResumeThread", args=(), ret=Value("i", 0), target_pid=888)
    prof, _ = profile(t)
    hp = HONEYPOT_PID
    reroutes = [e for e in prof.effects if e.kind == "reroute"]
    assert [e.seq for e in reroutes] == [ev.seq for ev in t.events[-3:]]
    assert all(e.value == hp for e in reroutes)
    assert prof.tracker.is_red(hp, 0x9010)


def test_router_inactive_when_injection_mitigation_disabled():
    t = T().images()
    injection_write(t)
    cfg = RunConfig(overrides=(("Shellcode_injected", "off"),))
    prof, report = profile(t, cfg)
    # detection still recorded, but unmitigated and nothing rerouted
    assert [d.technique for d in report.detections] == ["Shellcode_injected"]
    assert not report.detections[0].mitigated
    assert prof.tracker.regions(HONEYPOT_PID) == []
    assert [e for e in prof.effects if e.kind == "reroute"] == []


def test_write_into_honeypot_image_registers_only_the_uncovered_part():
    t = T().images()
    image_end = HONEYPOT_IMAGE_BASE + 0x10000
    injection_write(t, addr=image_end - 0x100, length=0x200)
    injection_write(t, addr=image_end + 0x80, length=0x100)
    prof, report = profile(t)
    hp = HONEYPOT_PID
    injected = [r for r in prof.tracker.regions(hp) if r.kind == "injected"]
    assert [(r.base, r.size) for r in injected] == [(image_end, 0x180)]
    assert prof.tracker.region_at(hp, image_end - 0x80).kind == \
        "honeypot_image"
    assert prof.tracker.is_red(hp, image_end + 0x50)
    assert [d.technique for d in report.detections] == \
        ["Shellcode_injected", "Shellcode_injected"]
    assert sum("overlaps honeypot_image" in w for w in report.warnings) == 1


def test_write_spanning_the_honeypot_image_registers_both_sides():
    t = T().images()
    injection_write(t, addr=HONEYPOT_IMAGE_BASE - 0x100, length=0x10200)
    prof, report = profile(t)
    hp = HONEYPOT_PID
    image_end = HONEYPOT_IMAGE_BASE + 0x10000
    assert [(r.kind, r.base, r.size) for r in prof.tracker.regions(hp)] == [
        ("injected", HONEYPOT_IMAGE_BASE - 0x100, 0x100),
        ("honeypot_image", HONEYPOT_IMAGE_BASE, 0x10000),
        ("injected", image_end, 0x100),
    ]
    assert sum("overlaps honeypot_image" in w for w in report.warnings) == 1

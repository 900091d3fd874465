"""Acceptance criteria, one test per criterion, pass/fail printed.

Tolerances are pinned here: integer counts must match exactly, ratio
comparisons use abs 1e-9, the rdtsc formula and clock offsets are
value-exact, and the factor-10 ratio allows one tick of floor slack.
"""

import collections
import functools
import json
import math
import os
import random
import time

from evprof import catalog
from evprof.aggregate import aggregate_reports, apply_labels, load_labels
from evprof.cli import main as cli_main
from evprof.catalog import HONEYPOT_PID, RunConfig
from evprof.clock import VirtualClock
from evprof.generate import GenSpec, build_sample, suite_specs, write_corpus
from evprof.profiler import SampleProfiler, SampleReport, run_sample
from evprof.trace import Value, parse_trace, vdur

import oracles
from helpers import PEB_BASE, T, build_samples, header_bytes
from test_clock import oracle_rdtsc

RATIO_TOL = 1e-9


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {name}: FAIL")
                raise
            print(f"[criterion {number}] {name}: PASS")
        return wrapper
    return decorate


def profile_text(text, config=None):
    return run_sample(parse_trace(text), config)


@criterion(1, "catalog integrity")
def test_criterion_1_catalog_integrity():
    rules = catalog.RULES
    assert len(rules) == 53
    assert len({r.id for r in rules}) == 53
    counts = collections.Counter(r.category for r in rules)
    assert counts == {
        "VMChecks": 20, "AntiDebug": 21, "ResourceProfiling": 6,
        "TimingAttacks": 2, "AntiDump": 2, "CodeInjection": 1,
        "AntiInstrumentation": 1,
    }
    assert sum(1 for r in rules if r.mitigated) == 17
    assert {r.id for r in rules if r.fp_prone} == {
        "GetTickCount", "cpuid_is_hypervisor", "mouse_movement",
        "NumberOfProcessors"}


@criterion(2, "round-trip soundness, 106 traces")
def test_criterion_2_roundtrip_soundness():
    start = time.monotonic()
    samples = build_samples(suite_specs("roundtrip"))
    assert len(samples) == 106
    for sid, sample in samples.items():
        report = profile_text(sample.text)
        got = collections.Counter(d.technique for d in report.detections)
        technique = sample.spec.techniques[0].id
        if sid.startswith("pos_"):
            assert got == {technique: 1}, (sid, dict(got))
        else:
            assert got == {}, (sid, dict(got))
    assert time.monotonic() - start < 10.0


@criterion(3, "virtual clock exactness")
def test_criterion_3_virtual_clock_exactness():
    # stalling: 300 s of requested waits, all rewritten to zero
    t = T().images()
    t.native_filler(50)
    t.api("NtDelayExecution", args=(vdur(120_000),))
    t.api("Sleep", args=(vdur(100_000),), native=False)
    t.api("WaitForSingleObject", args=(Value("i", 0xAB), vdur(80_000)),
          native=False)
    t.api("GetTickCount", ret=Value("i", 10_000), native=False)
    prof = SampleProfiler(RunConfig())
    for ev in t.events:
        prof.process(ev)
    prof.finish()
    stalls = [e for e in prof.effects if e.kind == "stall_rewrite"]
    assert len(stalls) == 3
    assert all(e.value == 0 for e in stalls)
    assert prof.clock.offset_ms == 300_000
    query = next(e for e in prof.effects if e.kind == "time_query")
    assert query.value == 10_000 + 300_000  # exact

    # rdtsc: 1000 randomized sandwiches, value-exact vs the brute force
    rng = random.Random(20_260_809)
    sequence = []
    idx, raw = 0, 10_000_000
    for _ in range(1_000):
        idx += rng.choice([10, 25, 50, 51, 120])
        raw += rng.randrange(0, 1 << 20)
        sequence.append((idx, raw))
    clock = VirtualClock()
    mine = [clock.on_rdtsc(1, 1, i, r)[0] for i, r in sequence]
    assert mine == oracle_rdtsc(sequence)


@criterion(4, "factor-10 and Locky ratio properties")
def test_criterion_4_factor10_and_locky():
    # disjoint sandwiches with equal raw delta: ratio 0.1 within one tick
    for delta in (2_000, 12_345, 999_999, 21):
        clock = VirtualClock()
        idx, raw = 0, 1_000_000
        measured = []
        for _ in range(2):
            idx += 100
            first, _ = clock.on_rdtsc(1, 1, idx, raw)
            idx += 30
            raw += delta
            second, _ = clock.on_rdtsc(1, 1, idx, raw)
            measured.append(second - first)
            raw += 777
        assert abs(measured[1] - measured[0] / 10) <= 1, delta

    # Locky-style loop: ratio >= 1/10 matched at least once when mitigated
    sample = build_sample(GenSpec(sample_id="locky", filler=60,
                                  scenario="locky", seed=3))
    prof = SampleProfiler(RunConfig())
    for ev in parse_trace(sample.text):
        prof.process(ev)
    prof.finish()
    returned = [e.value for e in prof.effects if e.kind == "rdtsc"]
    iterations = [returned[i:i + 5] for i in range(0, 50, 5)]
    passes = [c[3] - c[2] >= 10 * (c[1] - c[0]) for c in iterations]
    assert any(passes)

    # the same raw timings fail the check in every iteration
    raws = []
    for ev in parse_trace(sample.text):
        if ev.kind == "insn" and ev.payload.mnemonic == "rdtsc":
            raws.append(ev.payload.reg_out("tsc"))
    raw_iters = [raws[i:i + 5] for i in range(0, 50, 5)]
    assert all(c[3] - c[2] < 10 * (c[1] - c[0]) for c in raw_iters)


@criterion(5, "watchpoint and written-value semantics")
def test_criterion_5_watchpoint_semantics():
    t = T().images()
    t.native_filler(50)
    t.write(PEB_BASE + 0x2, size=1, value=1)
    t.read(PEB_BASE + 0x2, size=1, value=1)
    assert profile_text_events(t) == []

    t = T().images()
    t.native_filler(50)
    t.read(PEB_BASE + 0x2, size=1)
    assert profile_text_events(t) == ["IsDebuggerPresentPEB"]

    t = T(structs=()).images(header=header_bytes())
    t.native_filler(50)
    t.write(0x400000, size=2, value=0x5A4D)  # same bytes as stored
    assert profile_text_events(t) == []

    t = T(structs=()).images(header=header_bytes())
    t.native_filler(50)
    t.write(0x400000, size=2, value=0)
    assert profile_text_events(t) == ["ErasePEHeader"]


def profile_text_events(t):
    return [d.technique for d in run_sample(t.events).detections]


@criterion(6, "injection end-to-end")
def test_criterion_6_injection_end_to_end():
    sample = build_sample(GenSpec(sample_id="inj", filler=60,
                                  scenario="injection", seed=5))
    prof = SampleProfiler(RunConfig())
    events = parse_trace(sample.text)
    for ev in events:
        prof.process(ev)
    report = prof.finish()
    hp = HONEYPOT_PID
    cross = [ev.seq for ev in events if ev.kind == "api"
             and ev.payload.target_pid not in (None, ev.pid)]
    reroutes = [e for e in prof.effects if e.kind == "reroute"]
    assert cross, "the scenario must make cross-process calls"
    assert [e.seq for e in reroutes] == cross, \
        "each cross-process call must be rerouted once"
    assert all(e.value == hp for e in reroutes)
    injected = [r for r in prof.tracker.regions(hp) if r.kind == "injected"]
    assert injected and all(
        prof.tracker.is_red(hp, r.base) for r in injected)
    attributed = [d for d in report.detections
                  if d.technique == "IsDebuggerPresentAPI"]
    assert len(attributed) == 1
    assert attributed[0].pid == hp
    assert report.sample_id == "inj"
    assert set(report.technique_set) == {"Shellcode_injected",
                                         "IsDebuggerPresentAPI"}


@criterion(7, "aggregator equals brute-force recount on 60-sample corpus")
def test_criterion_7_aggregator_oracle_equivalence(tmp_path):
    start = time.monotonic()
    corpus = tmp_path / "corpus"
    write_corpus(suite_specs("corpus60"), corpus)
    assert cli_main(["batch", str(corpus), "--out",
                     str(tmp_path / "reports"), "--jobs", "4"]) == 0
    reports = []
    for name in sorted(os.listdir(tmp_path / "reports")):
        with open(tmp_path / "reports" / name, encoding="utf-8") as fh:
            reports.append(SampleReport.from_json(fh.read()))
    assert len(reports) == 60
    labels = load_labels(corpus / "labels.csv")
    apply_labels(reports, labels)

    def close(a, b):
        if a is None or b is None:
            return a is None and b is None
        return math.isclose(a, b, abs_tol=RATIO_TOL)

    for group_by in ("dataset", "year", "family"):
        agg = aggregate_reports(reports, group_by)
        want = oracles.oracle_group_stats(reports, group_by)
        assert set(agg["groups"]) == set(want)
        for key, stats in agg["groups"].items():
            o = want[key]
            assert stats["started"] == o["started"]
            assert stats["total"] == o["total"]
            assert stats["max_techniques"] == o["max_techniques"]
            for attr in ("active_pct", "evasive_pct",
                         "active_and_evasive_pct", "avg_techniques",
                         "std_techniques", "internet_pct",
                         "child_process_pct"):
                assert close(stats[attr], o[attr]), (group_by, key, attr)

    agg = aggregate_reports(reports, "dataset")
    mine_rank = agg["technique_ranking"]
    want_rank = oracles.oracle_ranking(reports)
    assert [e["technique"] for e in mine_rank] == [t for t, _ in want_rank]
    assert all(close(e["share_pct"], b)
               for e, (_, b) in zip(mine_rank, want_rank))

    mine_tl = agg["timeline"]
    want_tl = oracles.oracle_timeline(reports)
    assert mine_tl["evasive_samples"] == want_tl["evasive_samples"]
    for hist in ("first_hist", "last_hist", "diff_hist"):
        assert mine_tl[hist] == {str(k): v
                                 for k, v in want_tl[hist].items()}
    for key in ("first_in_0_10_pct", "last_in_0_10_pct",
                "last_in_90_100_pct"):
        assert close(mine_tl[key], want_tl[key])
    for slot, data in mine_tl["slots"].items():
        counts = want_tl["slot_counts"][slot]
        assert data["samples"] == sum(counts.values())
        for entry in data["top_categories"]:
            share = 100.0 * counts[entry["category"]] / sum(counts.values())
            assert close(entry["share_pct"], share)

    mine_order = agg["order"]
    want_order = oracles.oracle_order(reports)
    assert mine_order["multi_category_samples"] == \
        want_order["multi_category_samples"]
    for key in ("first_category_shares", "non_antidebug_first_shares"):
        assert set(mine_order[key]) == set(want_order[key])
        for cat in mine_order[key]:
            assert close(mine_order[key][cat], want_order[key][cat])

    fam_agg = aggregate_reports(reports, "family")
    assert fam_agg["footprints"] == oracles.oracle_footprints(reports)

    mine_pk = agg["packers"]
    want_pk = oracles.oracle_packer_stats(reports, "dataset")
    assert set(mine_pk) == set(want_pk)
    for key in mine_pk:
        for attr, value in want_pk[key].items():
            got = mine_pk[key][attr]
            if isinstance(value, dict):
                assert set(got) == set(value)
                for cat in value:
                    assert close(got[cat], value[cat])
            elif isinstance(value, float) or value is None:
                assert close(got, value), (key, attr)
            else:
                assert got == value

    mine_prev = agg["category_prevalence"]
    want_prev = oracles.oracle_category_prevalence(reports, "dataset")
    for key in want_prev:
        for cat in want_prev[key]:
            assert close(mine_prev[key][cat], want_prev[key][cat])

    # per-sample visible splits recountable from the raw traces
    for name in sorted(os.listdir(corpus)):
        if not name.endswith(".trace"):
            continue
        with open(corpus / name, encoding="utf-8") as fh:
            events = parse_trace(fh.read())
        report = next(r for r in reports
                      if r.sample_id == name[:-len(".trace")])
        want_split = oracles.oracle_visible_split(events, report)
        assert report.externally_visible_split["defined"] == \
            want_split["defined"]
        for key in ("before_first_pct", "after_last_pct"):
            assert close(report.externally_visible_split[key],
                         want_split[key])

    assert time.monotonic() - start < 30.0


@criterion(8, "determinism across parallelism and seeds")
def test_criterion_8_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(suite_specs("roundtrip"), corpus)
    out1 = tmp_path / "jobs1"
    out8 = tmp_path / "jobs8"
    assert cli_main(["batch", str(corpus), "--out", str(out1),
                     "--jobs", "1"]) == 0
    assert cli_main(["batch", str(corpus), "--out", str(out8),
                     "--jobs", "8"]) == 0
    names1 = sorted(os.listdir(out1))
    assert names1 == sorted(os.listdir(out8))
    assert len(names1) == 106
    for name in names1:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()

    gen_a = tmp_path / "gen_a"
    gen_b = tmp_path / "gen_b"
    write_corpus(suite_specs("corpus60", seed=5), gen_a)
    write_corpus(suite_specs("corpus60", seed=5), gen_b)
    for name in sorted(os.listdir(gen_a)):
        assert (gen_a / name).read_bytes() == (gen_b / name).read_bytes()


@criterion(9, "started/active thresholds")
def test_criterion_9_started_active_thresholds():
    expectations = {0: (False, False), 1: (True, False),
                    49: (True, False), 50: (True, True)}
    for count, (started, active) in expectations.items():
        sample = build_sample(GenSpec(sample_id=f"n{count}", filler=count))
        report = profile_text(sample.text)
        assert report.native_api_count == count
        assert (report.started, report.active) == (started, active), count

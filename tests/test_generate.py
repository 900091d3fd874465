"""Generator determinism, coverage, and scenario fixtures."""

import json
import os
import subprocess
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from evprof import catalog, generate
from evprof.catalog import RunConfig
from evprof.generate import (
    GenSpec, TechniqueSpec, build_sample, parse_genspec_file,
    suite_specs, write_corpus,
)
from evprof.profiler import SampleProfiler, run_sample
from evprof.trace import TraceError, parse_trace, validate_trace, vint

from helpers import behavior_diff, build_samples, divergent_pair, traced_peak
from oracles import oracle_schedule


def profile_sample(sample, config=None):
    return run_sample(parse_trace(sample.text), config)


def test_generator_covers_every_catalog_technique():
    from evprof.generate import RECIPES
    assert set(RECIPES) == set(catalog.KNOWN_TECHNIQUES)


def test_one_event_fixtures_come_from_their_rule():
    from evprof.generate import RECIPES, TraceBuilder, _recipe_from_rule
    from evprof.trace import serialize_trace
    # the trigger kind -> the kind of the one event its recipe emits
    kinds = {"api": "api", "clock": "api", "insn": "insn",
             "watch": "mem_read", "mem_write": "mem_write"}
    spec = GenSpec(sample_id="one")
    for rule in catalog.RULES:
        listed, benign = TraceBuilder(spec), TraceBuilder(spec)
        RECIPES[rule.id](listed, generate.RED_CODE, rule.id)
        # a benign-origin probe: the same events, no expected detection
        RECIPES[rule.id](benign, generate.BENIGN_CODE, None)
        assert [ev.kind for ev in benign.events] == \
            [ev.kind for ev in listed.events], rule.id
        assert benign.triggers == [], rule.id
        if rule.id in ("NumberOfProcessors", "RDTSC", "Shellcode_injected"):
            continue
        derived = TraceBuilder(spec)
        _recipe_from_rule(rule)(derived, generate.RED_CODE, rule.id)
        assert [ev.kind for ev in derived.events] == \
            [kinds[rule.trigger_kind]], rule.id
        assert derived.triggers == [(rule.id, 0)], rule.id
        assert serialize_trace(derived.events) == \
            serialize_trace(listed.events), rule.id


def test_equal_spec_and_seed_byte_identical():
    spec = GenSpec(sample_id="det", filler=40, seed=99,
                   techniques=(TechniqueSpec("RDTSC", pos=30.0),))
    assert build_sample(spec).text == build_sample(spec).text


def test_different_seed_changes_filler():
    a = GenSpec(sample_id="x", filler=40, seed=1)
    b = GenSpec(sample_id="x", filler=40, seed=2)
    assert build_sample(a).text != build_sample(b).text


def test_unknown_technique_and_scenario_rejected():
    with pytest.raises(ValueError, match="unknown technique 'Nope'"):
        TechniqueSpec("Nope")
    for name in ("nope", "themida", "divergent_mitigated", "divergent_bare",
                 "", "LOCKY", "build_locky_loop"):
        with pytest.raises(ValueError, match=f"unknown scenario '{name}'"):
            GenSpec(sample_id="x", scenario=name)


@pytest.mark.parametrize("name", sorted(generate.SCENARIOS))
def test_every_scenario_builds_a_trace_that_validates_cleanly(name):
    sample = build_sample(GenSpec(sample_id=name, scenario=name, seed=4))
    assert validate_trace(parse_trace(sample.text)) == []


def test_items_at_one_position_build_filler_then_techniques_then_calls():
    # three filler calls sit at 0, 50 and 100; everything else at 50
    spec = GenSpec(sample_id="tie", filler=3, seed=1,
                   visible=(("CreateFileW", 50.0), ("send", 50)),
                   techniques=(TechniqueSpec("GetTickCount", 50.0),
                               TechniqueSpec("IsDebuggerPresentAPI", 50)))
    sample = build_sample(spec)
    body = [ev.payload.name for ev in sample.events[3:]]
    assert [name in generate.FILLER_APIS for name in body] == \
        [True, True, False, False, False, False, True]
    assert body[2:6] == ["GetTickCount", "IsDebuggerPresent", "CreateFileW",
                         "send"]
    # the techniques trigger at seq 5 and 6 of the trace's 0..9
    assert sample.positions == {"GetTickCount": [100.0 * 5 / 9],
                                "IsDebuggerPresentAPI": [100.0 * 6 / 9]}


@st.composite
def tied_specs(draw):
    """A spec whose techniques and visible calls often sit on a filler
    call's position, or on one another's."""
    filler = draw(st.integers(min_value=0, max_value=40))
    grid = [100.0 * i / max(filler - 1, 1) for i in range(filler)]
    positions = st.sampled_from(grid + [0.0, 50.0, 100.0]) | \
        st.floats(min_value=0, max_value=100)
    techniques = st.builds(TechniqueSpec,
                           st.sampled_from(sorted(generate.RECIPES)),
                           positions, st.sampled_from(["red", "benign"]))
    visible = st.tuples(st.sampled_from(["NtWriteFile", "connect", "send"]),
                        positions)
    return GenSpec("sched", tuple(draw(st.lists(techniques, max_size=5))),
                   filler, tuple(draw(st.lists(visible, max_size=5))),
                   seed=draw(st.integers(min_value=0, max_value=1 << 16)))


@settings(max_examples=60, deadline=None)
@given(spec=tied_specs())
def test_the_lazy_schedule_builds_what_a_stable_sort_builds(spec):
    assert list(generate._schedule(spec)) == oracle_schedule(spec)
    sample = build_sample(spec)
    with mock.patch.object(generate, "_schedule", oracle_schedule):
        sorted_sample = build_sample(spec)
    assert sample.events == sorted_sample.events
    assert sample.positions == sorted_sample.positions


def test_duplicate_sample_ids_rejected_before_any_file(tmp_path):
    specs = [GenSpec(sample_id="dup"), GenSpec(sample_id="dup")]
    with pytest.raises(TraceError):
        write_corpus(specs, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_generated_traces_validate_cleanly():
    for spec in suite_specs("scenarios"):
        sample = build_sample(spec)
        assert validate_trace(parse_trace(sample.text)) == []


def test_filler_calls_share_one_return_value():
    # safe for the reason parsed events may share decoded values: nothing
    # mutates an event
    sample = build_sample(GenSpec("filler_only", filler=50, seed=3))
    rets = [ev.payload.ret for ev in sample.events if ev.kind == "api"]
    assert len(rets) == 50 and rets[0] == vint(0)
    assert all(ret is rets[0] for ret in rets)


def roundtrip_sample(sample_id):
    """The sample of the ``roundtrip`` suite named ``sample_id``."""
    spec, = [s for s in suite_specs("roundtrip") if s.sample_id == sample_id]
    return build_sample(spec)


def test_positive_trace_is_active_and_detects_once():
    sample = roundtrip_sample("pos_IsDebuggerPresentPEB")
    report = profile_sample(sample)
    assert report.active
    assert [d.technique for d in report.detections] == ["IsDebuggerPresentPEB"]


def test_negative_twin_detects_nothing():
    sample = roundtrip_sample("neg_IsDebuggerPresentPEB")
    report = profile_sample(sample)
    assert report.active
    assert report.detections == []


def test_same_value_header_write_variant_detects_nothing():
    spec = GenSpec(sample_id="same", filler=60, scenario="pe_same_value",
                   seed=2)
    report = profile_sample(build_sample(spec))
    assert report.active
    assert report.detections == []


def test_roundtrip_corpus_serialization_is_lossless():
    from evprof.trace import serialize_trace
    for sample in build_samples(suite_specs("roundtrip")).values():
        assert serialize_trace(parse_trace(sample.text)) == sample.text


def test_roundtrip_suite_is_106_specs():
    specs = suite_specs("roundtrip")
    assert len(specs) == 106
    ids = {s.sample_id for s in specs}
    assert len(ids) == 106


def test_manifest_positions_match_profiler():
    spec = GenSpec(sample_id="pos", filler=50, seed=4,
                   techniques=(TechniqueSpec("Interrupt_3", pos=25.0),
                               TechniqueSpec("idt_trick", pos=75.0)))
    sample = build_sample(spec)
    report = profile_sample(sample)
    for tech, positions in sample.positions.items():
        got = [d.normalized_pos for d in report.detections
               if d.technique == tech]
        assert got == positions


def test_position_targeting_is_close():
    spec = GenSpec(sample_id="pos2", filler=100, seed=1,
                   techniques=(TechniqueSpec("Interrupt_3", pos=30.0),))
    sample = build_sample(spec)
    (pos,) = sample.positions["Interrupt_3"]
    assert abs(pos - 30.0) < 10.0


def test_themida_bundle_detects_all():
    spec, = [s for s in suite_specs("scenarios")
             if s.sample_id == "themida_bundle"]
    report = profile_sample(build_sample(spec))
    assert report.techniques_count >= 10
    cats = {catalog.rule(t).category for t in report.technique_set}
    assert len(cats) >= 4
    assert report.techniques_count == len(spec.techniques)


def test_divergent_pair_diff():
    mit_spec, bare_spec = divergent_pair()
    a = profile_sample(build_sample(mit_spec))
    b = profile_sample(build_sample(bare_spec))
    diff = behavior_diff(a, b)
    assert diff["same_techniques"] is True
    assert diff["same_visible_effects"] is False


def test_corpus60_has_60_labeled_samples():
    specs = suite_specs("corpus60")
    assert len({s.sample_id for s in specs}) == 60
    datasets = {dict(s.labels).get("dataset") for s in specs}
    assert datasets == {"malware", "goodware"}


def test_suite_seed_shifts_every_line_seed():
    for name in ("roundtrip", "corpus60", "scenarios"):
        base = suite_specs(name)
        assert [s.seed + 3 for s in base] == \
            [s.seed for s in suite_specs(name, seed=3)]


def test_corpus60_verdicts_match_manifest(tmp_path):
    manifest = write_corpus(suite_specs("corpus60"), tmp_path)
    assert len(manifest["samples"]) == 60
    for sid, entry in manifest["samples"].items():
        report = run_sample(parse_trace(
            (tmp_path / entry["trace_file"]).read_text(encoding="utf-8")))
        assert report.evasive == entry["expect_evasive"], sid
        assert report.technique_set == entry["expect_technique_set"], sid
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert written == manifest


def test_write_corpus_drops_each_sample_before_building_the_next(
        tmp_path, monkeypatch):
    built = []

    def build(spec):
        assert [ref() for ref in built] == [None] * len(built)
        sample = real_build(spec)
        built.append(weakref.ref(sample))
        return sample

    real_build = generate.build_sample
    monkeypatch.setattr(generate, "build_sample", build)
    write_corpus(suite_specs("roundtrip")[:3], tmp_path)
    assert len(built) == 3


def test_write_corpus_holds_one_copy_of_a_sample(tmp_path):
    # the trace is written a block of records at a time: neither its
    # lines, its text nor the encoded text exist whole
    spec = GenSpec("mem", filler=5000, seed=1)
    build_sample(spec)
    _, _, sample = traced_peak(build_sample, spec)
    _, peak, _ = traced_peak(write_corpus, [spec], tmp_path)
    assert peak <= 1.4 * sample


def test_write_corpus_of_many_samples_peaks_near_what_it_returns(tmp_path):
    # the manifest is written as it is encoded: built as one json.dumps
    # string first, it peaked at nearly 4x what write_corpus returns
    specs = [GenSpec(f"s{i:04d}", filler=1, seed=i,
                     labels=(("family", f"fam{i % 7}"), ("year", "2019")))
             for i in range(2000)]
    manifest, peak, held = traced_peak(write_corpus, specs, tmp_path)
    assert len(manifest["samples"]) == 2000
    assert peak <= 2 * held


def test_genspec_file_reads_every_key():
    text = ("sample_id=one techniques=RDTSC@20;HeapFlags@60:benign "
            "filler=30 visible=NtWriteFile@80 family=fam year=2019 "
            "packer=upx seed=5\n"
            "sample_id=two filler=10 scenario=locky seed=6\n"
            "sample_id=th%72ee techniques=RDTSC visible=connect\n")
    assert parse_genspec_file(text) == [
        GenSpec(sample_id="one", filler=30, seed=5,
                techniques=(TechniqueSpec("RDTSC", pos=20.0),
                            TechniqueSpec("HeapFlags", pos=60.0,
                                          origin="benign")),
                visible=(("NtWriteFile", 80.0),),
                labels=(("family", "fam"), ("year", "2019"),
                        ("packer", "upx"))),
        GenSpec(sample_id="two", filler=10, seed=6, scenario="locky"),
        GenSpec(sample_id="three", techniques=(TechniqueSpec("RDTSC"),),
                visible=(("connect", 50.0),)),
    ]


def test_genspec_comments_and_blank_lines_skipped():
    text = "# comment\n\nsample_id=a filler=5 seed=0\n"
    specs = parse_genspec_file(text)
    assert len(specs) == 1
    assert specs[0].sample_id == "a"


@pytest.mark.parametrize("space", "\x0b\x0c\x85\u2028")
def test_genspec_line_ends_only_at_lf_or_cr(space):
    specs = parse_genspec_file(f"sample_id=a{space}filler=5\rsample_id=b\n")
    assert [(s.sample_id, s.filler) for s in specs] == [("a", 5), ("b", 60)]


def test_genspec_missing_sample_id_rejected():
    with pytest.raises(TraceError):
        parse_genspec_file("filler=5\n")


@pytest.mark.parametrize("fields, message", [
    ("techniques=RDTSC@x:red", "could not convert string to float: 'x'"),
    ("filler=zz", "invalid literal for int()"),
    ("techniques=RDTSC@5:blue", "origin must be red or benign, got 'blue'"),
    ("techniques=Nope@5", "unknown technique 'Nope'"),
    ("scenario=nope", "unknown scenario 'nope'"),
    ("filler=1 filler=2", "duplicate field 'filler'"),
    ("filler=1000001", "filler 1000001 outside [0, 1000000]"),
    ("seed=0x", "invalid literal for int()"),
    ("seed=-1", "seed -1 is negative"),
    ("visible=X@500", "position 500.0 outside [0, 100]"),
    ("visible=X@-5", "position -5.0 outside [0, 100]"),
    ("visible=X@inf", "position inf outside [0, 100]"),
    ("visible=X@nan", "position nan outside [0, 100]"),
])
def test_genspec_bad_value_is_a_gen_error_with_line(fields, message):
    text = f"sample_id=a\nsample_id=b {fields}\n"
    with pytest.raises(TraceError) as exc:
        parse_genspec_file(text)
    assert str(exc.value).startswith(f"line 2: {message}")


def test_genspec_unknown_key_is_a_gen_error_with_line():
    with pytest.raises(TraceError) as exc:
        parse_genspec_file("sample_id=a\nsample_id=b techniqes=RDTSC@10\n")
    assert str(exc.value) == "line 2: unexpected fields ['techniqes']"


def test_locky_fixture_ratio_matched_at_least_once():
    spec = GenSpec(sample_id="locky", filler=60, scenario="locky", seed=3)
    sample = build_sample(spec)
    prof = SampleProfiler(RunConfig())
    for ev in parse_trace(sample.text):
        prof.process(ev)
    report = prof.finish()
    returned = [e.value for e in prof.effects if e.kind == "rdtsc"]
    assert len(returned) == 50
    raw_pass = []
    adjusted_pass = []
    for i in range(10):
        chunk = returned[5 * i:5 * i + 5]
        m_fast = chunk[1] - chunk[0]
        m_slow = chunk[3] - chunk[2]
        adjusted_pass.append(m_slow >= 10 * m_fast)
    from evprof.generate import LOCKY_FAST_RAW, LOCKY_SLOW_RAW
    raw_pass = LOCKY_SLOW_RAW >= 10 * LOCKY_FAST_RAW
    assert not raw_pass, "raw instrumented timings must fail the check"
    assert any(adjusted_pass), "mitigated run must match the ratio once"
    assert "RDTSC" in report.technique_set


def test_write_corpus_outputs(tmp_path):
    out = tmp_path / "corpus"
    manifest = write_corpus(suite_specs("roundtrip")[:4], out)
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in files
    assert sum(1 for f in files if f.endswith(".trace")) == 4
    assert len(manifest["samples"]) == 4


def test_import_loads_neither_the_profiler_nor_the_memory_tables():
    # gen builds traces and never profiles one; -S keeps site hooks out
    code = ("import sys, evprof.generate; print(sorted("
            "{'evprof.profiler', 'evprof.memory', 'evprof.injection'} "
            "& set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(generate.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

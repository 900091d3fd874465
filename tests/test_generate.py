"""Generator determinism, coverage, and scenario fixtures."""

import pytest

from evprof import catalog
from evprof.config import RunConfig
from evprof.generate import (
    GenError, GenSpec, TechniqueSpec, build_sample, corpus60_specs,
    divergent_pair, format_genspec, gen_corpus, gen_technique_trace,
    parse_genspec_file, roundtrip_specs, scenario_specs, themida_spec,
)
from evprof.profiler import SampleProfiler, run_sample
from evprof.trace import parse_trace, validate_trace
from evprof.aggregate import behavior_diff


def profile_sample(sample, config=None):
    return run_sample(parse_trace(sample.text), config)


def test_generator_covers_every_catalog_technique():
    from evprof.generate import RECIPES
    assert set(RECIPES) == set(catalog.KNOWN_TECHNIQUES)


def test_equal_spec_and_seed_byte_identical():
    spec = GenSpec(sample_id="det", filler=40, seed=99,
                   techniques=(TechniqueSpec("RDTSC", pos=30.0),))
    assert build_sample(spec).text == build_sample(spec).text


def test_different_seed_changes_filler():
    a = GenSpec(sample_id="x", filler=40, seed=1)
    b = GenSpec(sample_id="x", filler=40, seed=2)
    assert build_sample(a).text != build_sample(b).text


def test_unknown_technique_rejected():
    with pytest.raises(GenError):
        build_sample(GenSpec(sample_id="x",
                             techniques=(TechniqueSpec("Nope"),)))


def test_duplicate_sample_ids_rejected():
    specs = [GenSpec(sample_id="dup"), GenSpec(sample_id="dup")]
    with pytest.raises(GenError):
        gen_corpus(specs)


def test_generated_traces_validate_cleanly():
    for spec in scenario_specs() + [themida_spec()]:
        sample = build_sample(spec)
        assert validate_trace(parse_trace(sample.text)) == []


def test_positive_trace_is_active_and_detects_once():
    sample = gen_technique_trace("IsDebuggerPresentPEB", "red")
    report = profile_sample(sample)
    assert report.active
    assert [d.technique for d in report.detections] == ["IsDebuggerPresentPEB"]


def test_negative_twin_detects_nothing():
    sample = gen_technique_trace("IsDebuggerPresentPEB", "benign")
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
    samples, _ = gen_corpus(roundtrip_specs())
    from evprof.trace import serialize_trace
    for sample in samples.values():
        assert serialize_trace(parse_trace(sample.text)) == sample.text


def test_roundtrip_suite_is_106_specs():
    specs = roundtrip_specs()
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
    spec = themida_spec()
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
    specs = corpus60_specs()
    assert len(specs) == 60
    samples, manifest = gen_corpus(specs)
    assert len(manifest["samples"]) == 60
    datasets = {dict(s.labels).get("dataset") for s in specs}
    assert datasets == {"malware", "goodware"}


def test_corpus60_verdicts_match_manifest():
    samples, manifest = gen_corpus(corpus60_specs())
    for sid, sample in samples.items():
        report = profile_sample(sample)
        entry = manifest["samples"][sid]
        assert report.evasive == entry["expect_evasive"], sid
        assert report.technique_set == entry["expect_technique_set"], sid


def test_genspec_file_round_trip():
    specs = [
        GenSpec(sample_id="one", filler=30, seed=5,
                techniques=(TechniqueSpec("RDTSC", pos=20.0),
                            TechniqueSpec("HeapFlags", pos=60.0,
                                          origin="benign")),
                visible=(("NtWriteFile", 80.0),),
                labels=(("family", "fam"), ("year", "2019"),
                        ("packer", "upx"))),
        GenSpec(sample_id="two", filler=10, seed=6, scenario="locky"),
    ]
    text = "\n".join(format_genspec(s) for s in specs) + "\n"
    parsed = parse_genspec_file(text)
    assert parsed == specs


def test_genspec_comments_and_blank_lines_skipped():
    text = "# comment\n\nsample_id=a filler=5 seed=0\n"
    specs = parse_genspec_file(text)
    assert len(specs) == 1
    assert specs[0].sample_id == "a"


def test_genspec_missing_sample_id_rejected():
    with pytest.raises(GenError):
        parse_genspec_file("filler=5\n")


@pytest.mark.parametrize("fields, message", [
    ("techniques=RDTSC@x:red", "could not convert string to float: 'x'"),
    ("filler=zz", "invalid literal for int()"),
    ("techniques=RDTSC@5:blue", "origin must be red or benign, got 'blue'"),
    ("filler=1 filler=2", "duplicate field 'filler'"),
    ("seed=0x", "invalid literal for int()"),
])
def test_genspec_bad_value_is_a_gen_error_with_line(fields, message):
    text = f"sample_id=a\nsample_id=b {fields}\n"
    with pytest.raises(GenError) as exc:
        parse_genspec_file(text)
    assert str(exc.value).startswith(f"line 2: {message}")


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
    from evprof.generate import write_corpus
    manifest = write_corpus(roundtrip_specs()[:4], out)
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in files
    assert sum(1 for f in files if f.endswith(".trace")) == 4
    assert len(manifest["samples"]) == 4

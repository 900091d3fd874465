"""Command-line workflows: analyze, batch, aggregate, gen, catalog."""

import json
import os
import subprocess
import sys

import pytest

from evprof.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from evprof.generate import roundtrip_specs, write_corpus
from evprof.profiler import SampleReport


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    wanted = {"GetTickCount", "CanOpenCsrss", "Check_EIP", "RDTSC",
              "ErasePEHeader", "IsDebuggerPresentPEB"}
    specs = [s for s in roundtrip_specs()
             if s.techniques[0].id in wanted]
    write_corpus(specs, out)
    return out


def read_reports(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".report.json"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def test_analyze_writes_report(corpus_dir, tmp_path, capsys):
    trace = corpus_dir / "pos_GetTickCount.trace"
    out = tmp_path / "r.json"
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    assert report.started
    assert [d.technique for d in report.detections] == ["GetTickCount"]


def test_analyze_stdout_json(corpus_dir, capsys):
    trace = corpus_dir / "pos_CanOpenCsrss.trace"
    assert main(["analyze", str(trace)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["evasive"] is True


def test_analyze_no_mitigate_flag(corpus_dir, tmp_path):
    trace = corpus_dir / "pos_Check_EIP.trace"
    out = tmp_path / "r.json"
    assert main(["analyze", "--no-mitigate", str(trace),
                 "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    assert report.detections and not report.detections[0].mitigated


def test_analyze_missing_file_nonzero(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.trace")]) == EXIT_DATA


def test_analyze_corrupt_trace_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=x\n"
                   "not a record\n")
    assert main(["analyze", str(bad)]) == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


def test_bad_override_usage_error(corpus_dir):
    trace = corpus_dir / "pos_Check_EIP.trace"
    assert main(["analyze", "--override", "nonsense",
                 str(trace)]) == EXIT_USAGE


def test_unknown_override_technique_rejected(corpus_dir):
    trace = corpus_dir / "pos_Check_EIP.trace"
    assert main(["analyze", "--override", "NotATech=off",
                 str(trace)]) == EXIT_USAGE


def test_batch_profiles_directory(corpus_dir, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(out)]) == EXIT_OK
    assert "12 reports, 0 failures" in capsys.readouterr().out
    assert len(read_reports(out)) == 12


def test_batch_empty_dir_nonzero(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty), "--out",
                 str(tmp_path / "r")]) == EXIT_DATA


def test_batch_isolates_corrupt_trace(corpus_dir, tmp_path, capsys):
    import shutil
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    names = [n for n in sorted(os.listdir(corpus_dir))
             if n.endswith(".trace")][:10]
    for name in names:
        shutil.copy(corpus_dir / name, mixed / name)
    (mixed / "zz_corrupt.trace").write_text("garbage\n")
    out = tmp_path / "reports"
    assert main(["batch", str(mixed), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "10 reports, 1 failures" in captured.out
    assert "zz_corrupt" in captured.err
    assert len(read_reports(out)) == 10


def test_batch_parallel_output_identical(corpus_dir, tmp_path):
    out1 = tmp_path / "seq"
    out8 = tmp_path / "par"
    assert main(["batch", str(corpus_dir), "--out", str(out1),
                 "--jobs", "1"]) == EXIT_OK
    assert main(["batch", str(corpus_dir), "--out", str(out8),
                 "--jobs", "8"]) == EXIT_OK
    assert read_reports(out1) == read_reports(out8)


def test_gen_deterministic_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen", "--suite", "roundtrip", "--out", str(a)]) == EXIT_OK
    assert main(["gen", "--suite", "roundtrip", "--out", str(b)]) == EXIT_OK
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_spec_file(tmp_path):
    spec = tmp_path / "samples.gspec"
    spec.write_text("sample_id=g1 techniques=RDTSC@40:red filler=55 seed=2\n")
    out = tmp_path / "gen"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    assert (out / "g1.trace").exists()


def test_gen_without_inputs_usage_error(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_aggregate_pipeline(tmp_path):
    from evprof.generate import corpus60_specs
    corpus = tmp_path / "c60"
    write_corpus(corpus60_specs(), corpus)
    reports = tmp_path / "reports"
    assert main(["batch", str(corpus), "--out", str(reports),
                 "--jobs", "4"]) == EXIT_OK
    tables = tmp_path / "tables"
    assert main(["aggregate", str(reports),
                 "--labels", str(corpus / "labels.csv"),
                 "--group-by", "year", "--out", str(tables)]) == EXIT_OK
    summary = json.loads((tables / "summary.json").read_text())
    assert summary["group_by"] == "year"
    assert set(summary["groups"]) == {"2016", "2017", "2018", "2019", "2020"}
    core = (tables / "core.txt").read_text()
    assert "Started" in core and "2016" in core


def test_aggregate_group_by_family_footprints(tmp_path):
    from evprof.generate import corpus60_specs
    corpus = tmp_path / "c60"
    write_corpus(corpus60_specs(), corpus)
    reports = tmp_path / "reports"
    main(["batch", str(corpus), "--out", str(reports)])
    assert main(["aggregate", str(reports), "--group-by", "family",
                 "--format", "json", "--out",
                 str(tmp_path / "agg")]) == EXIT_OK
    summary = json.loads((tmp_path / "agg" / "summary.json").read_text())
    assert summary["footprints"]["fam_alpha"]["techniques"] == \
        ["IsDebuggerPresentAPI"]
    assert summary["footprints"]["fam_beta"]["techniques"] == []


def test_aggregate_no_reports_nonzero(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["aggregate", str(empty)]) == EXIT_DATA


def test_aggregate_csv_format(tmp_path):
    from evprof.generate import corpus60_specs
    corpus = tmp_path / "c60"
    write_corpus(corpus60_specs()[:8], corpus)
    reports = tmp_path / "reports"
    main(["batch", str(corpus), "--out", str(reports)])
    tables = tmp_path / "csv"
    assert main(["aggregate", str(reports), "--format", "csv",
                 "--out", str(tables)]) == EXIT_OK
    assert (tables / "core.csv").read_text().startswith("metric,")


def test_catalog_dump_text(capsys):
    assert main(["catalog"]) == EXIT_OK
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 54  # header + 53 rules
    assert "53 techniques; mitigated: 17" in captured.err


def test_catalog_dump_csv(capsys):
    assert main(["catalog", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == \
        "technique,category,trigger,mitigated,fp_prone,description"
    assert len(out.strip().splitlines()) == 54


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "evprof.cli", "catalog", "--format", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 54


def test_config_file_and_flag_precedence(corpus_dir, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "mitigate": True,
        "stall_threshold_ms": 10,
        "overrides": {"RDTSC": "off"},
    }))
    trace = corpus_dir / "pos_RDTSC.trace"
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", str(cfg), str(trace),
                 "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    rec = next(d for d in report.detections if d.technique == "RDTSC")
    assert not rec.mitigated  # config override applies
    # a flag wins over the file
    assert main(["analyze", "--config", str(cfg), "--override", "RDTSC=on",
                 str(trace), "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    rec = next(d for d in report.detections if d.technique == "RDTSC")
    assert rec.mitigated


def test_bad_config_file_usage_error(corpus_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{\"mystery_knob\": 1}")
    trace = corpus_dir / "pos_RDTSC.trace"
    assert main(["analyze", "--config", str(cfg), str(trace)]) == EXIT_USAGE


def test_divergence_study_via_override(corpus_dir, tmp_path):
    trace = corpus_dir / "pos_GetTickCount.trace"
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["analyze", str(trace), "--out", str(out_a)]) == EXIT_OK
    assert main(["analyze", str(trace), "--override", "RDTSC=off",
                 "--override", "memory_space=1073741824",
                 "--out", str(out_b)]) == EXIT_OK
    a = SampleReport.from_json(out_a.read_text())
    b = SampleReport.from_json(out_b.read_text())
    from evprof.aggregate import behavior_diff
    diff = behavior_diff(a, b)
    assert diff["same_techniques"] is True


def edited_trace(tmp_path, technique, old, new):
    """The roundtrip trace of ``technique`` with one text edit applied."""
    specs = [s for s in roundtrip_specs()
             if s.sample_id == f"pos_{technique}"]
    write_corpus(specs, tmp_path / "gen")
    trace = tmp_path / "gen" / f"pos_{technique}.trace"
    text = trace.read_text()
    assert text.count(old) == 1
    trace.write_text(text.replace(old, new))
    return trace


def test_injection_into_honeypot_image_is_a_warning(tmp_path):
    trace = edited_trace(tmp_path, "Shellcode_injected",
                         "args=a:0x9000,", "args=a:0x71000100,")
    out = tmp_path / "r.json"
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    assert "Shellcode_injected" in report.technique_set
    assert any("injected range [0x71000100,+0x200) overlaps honeypot_image"
               in w for w in report.warnings)


@pytest.mark.parametrize("size", ["-5", str(2 ** 62)])
def test_header_write_with_bad_size_is_a_warning(tmp_path, size):
    trace = edited_trace(tmp_path, "ErasePEHeader",
                         "address=0x400000 size=2 ",
                         f"address=0x400000 size={size} ")
    out = tmp_path / "r.json"
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    assert "ErasePEHeader" not in report.technique_set
    assert any(f"memory access size {size} not in" in w
               for w in report.warnings)


def pe_header_alloc_trace(tmp_path, size, write_at):
    trace = tmp_path / "alloc.trace"
    trace.write_text(
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=alloc\n"
        f"seq=1 pid=1 tid=1 insn_index=1 kind=region_alloc base=0x900000 "
        f"size={size} region_kind=pe_header\n"
        "seq=2 pid=1 tid=1 insn_index=2 kind=mem_write "
        f"address=0x{write_at:x} size=8 value=0x1 accessor_address=0x401000\n")
    return trace


@pytest.mark.parametrize("size", ["-5", "0"])
def test_header_alloc_without_extent_is_a_data_error(tmp_path, size):
    trace = pe_header_alloc_trace(tmp_path, size, 0x900000)
    assert main(["analyze", str(trace), "--out",
                 str(tmp_path / "r.json")]) == EXIT_DATA
    assert not (tmp_path / "r.json").exists()


def test_huge_header_alloc_allocates_nothing(tmp_path):
    # a 32 GiB header region, written near its end
    size = 2 ** 35
    trace = pe_header_alloc_trace(tmp_path, hex(size), 0x900000 + size - 8)
    out = tmp_path / "r.json"
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
    assert SampleReport.from_json(out.read_text()).total_event_count == 3

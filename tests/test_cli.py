"""Command-line workflows: analyze, batch, aggregate, gen, catalog."""

import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from evprof import cli, suites
from evprof.catalog import RunConfig
from evprof.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from evprof.generate import GenSpec, TechniqueSpec, suite_specs, write_corpus
from evprof.profiler import SampleReport

from helpers import behavior_diff


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    wanted = {"GetTickCount", "CanOpenCsrss", "Check_EIP", "RDTSC",
              "ErasePEHeader", "IsDebuggerPresentPEB"}
    specs = [s for s in suite_specs("roundtrip")
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


@pytest.mark.parametrize("value", ["on", "off", "forced"])
def test_override_of_a_technique_without_mitigation_rejected(
        corpus_dir, capsys, value):
    trace = corpus_dir / "pos_Check_EIP.trace"
    assert main(["analyze", "--override", f"IsDebuggerPresentAPI={value}",
                 str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: override references technique 'IsDebuggerPresentAPI', "
        "which has no mitigation\n")


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_batch_jobs_below_one_is_a_usage_error(corpus_dir, tmp_path, capsys,
                                              jobs):
    out = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(out),
                 "--jobs", jobs]) == EXIT_USAGE
    assert f"error: --jobs {jobs} is below 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_gen_refuses_a_spec_file_together_with_a_suite(tmp_path):
    spec = tmp_path / "samples.gspec"
    spec.write_text("sample_id=g1 filler=5\n")
    out = tmp_path / "gen"
    assert main(["gen", "--spec", str(spec), "--suite", "scenarios",
                 "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_gen_seed_shifts_a_spec_file_as_it_shifts_a_suite(tmp_path):
    from evprof import suites
    spec = tmp_path / "scenarios.gspec"
    spec.write_text(suites.SCENARIOS)
    runs = {}
    for name, source, seed in (("spec0", ["--spec", str(spec)], "0"),
                               ("spec7", ["--spec", str(spec)], "7"),
                               ("suite7", ["--suite", "scenarios"], "7")):
        out = tmp_path / name
        assert main(["gen", *source, "--seed", seed,
                     "--out", str(out)]) == EXIT_OK
        runs[name] = {p: (out / p).read_bytes() for p in os.listdir(out)}
    assert runs["spec7"] == runs["suite7"]
    assert runs["spec7"]["locky_loop.trace"] != \
        runs["spec0"]["locky_loop.trace"]


@pytest.mark.parametrize("source", ["--suite", "--spec"])
def test_gen_negative_seed_is_a_usage_error(tmp_path, capsys, source):
    # random.Random seeds by absolute value, so -7 would write what 7 writes
    spec = tmp_path / "samples.gspec"
    spec.write_text("sample_id=g1 filler=5\n")
    out = tmp_path / "gen"
    value = "scenarios" if source == "--suite" else str(spec)
    assert main(["gen", source, value, "--seed=-7",
                 "--out", str(out)]) == EXIT_USAGE
    assert "error: --seed -7 is negative" in capsys.readouterr().err
    assert not out.exists()


def test_gen_spec_line_seed_negative_after_the_shift_is_a_data_error(
        tmp_path, capsys):
    spec = tmp_path / "samples.gspec"
    spec.write_text("sample_id=a filler=5 seed=-2\n"
                    "sample_id=b filler=5 seed=-9\n")
    out = tmp_path / "gen"
    assert main(["gen", "--spec", str(spec), "--seed", "5",
                 "--out", str(out)]) == EXIT_DATA
    assert f"error: {spec}: line 2: seed -4 is negative" in \
        capsys.readouterr().err
    assert not out.exists()


def test_aggregate_pipeline(tmp_path):
    corpus = tmp_path / "c60"
    write_corpus(suite_specs("corpus60"), corpus)
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
    corpus = tmp_path / "c60"
    write_corpus(suite_specs("corpus60"), corpus)
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
    corpus = tmp_path / "c60"
    write_corpus(suite_specs("corpus60")[:8], corpus)
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


def test_start_up_imports_neither_the_pool_nor_hashlib():
    # each costs milliseconds of every start; only a --jobs pool, the
    # mouse-movement mitigation, the csv forms and the aggregate and gen
    # commands need them. -S keeps site hooks out.
    code = ("import sys, evprof.cli; print(sorted("
            "{'concurrent.futures', 'hashlib', 'csv', 'evprof.aggregate', "
            "'evprof.generate'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_readme_settings_table_lists_the_run_config_fields():
    from dataclasses import fields
    from evprof.catalog import RunConfig
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Run settings\n")[1].split("\n## ")[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    assert [field.strip(" `") for field, _ in rows] == \
        [f.name for f in fields(RunConfig)]
    [commands] = [a.choices for a in cli.build_parser()._actions
                  if a.dest == "command"]
    for command in ("analyze", "batch"):
        options = commands[command]._option_string_actions
        for _, flag in rows:
            assert flag.strip(" `").split()[0] in options, (command, flag)


def test_there_is_no_config_flag(corpus_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", str(tmp_path / "run.json"),
              str(corpus_dir / "pos_RDTSC.trace")])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("honeypot_pid", 99999), ("tick_rate", 2600000),
    ("stall_threshold_ms", 30000), ("infinite_wait_cap_ms", 600000),
    ("sandwich_window", 50), ("rdtsc_requires_sandwich", True),
])
def test_fixed_clock_and_honeypot_values_are_not_config_keys(
        corpus_dir, capsys, key, value):
    assert key not in {f.name for f in dataclasses.fields(RunConfig)}
    trace = corpus_dir / "pos_RDTSC.trace"
    assert main(["analyze", "--override", f"{key}={value}",
                 str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: override references unknown technique {key!r}\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", f"--{key.replace('_', '-')}", str(value),
              str(trace)])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_there_is_no_mitigate_flag(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--mitigate", str(corpus_dir / "pos_RDTSC.trace")])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --mitigate" in capsys.readouterr().err


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
    diff = behavior_diff(a, b)
    assert diff["same_techniques"] is True


def edited_trace(tmp_path, technique, old, new):
    """The roundtrip trace of ``technique`` with one text edit applied."""
    specs = [s for s in suite_specs("roundtrip")
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


def test_analyze_prints_every_warning_of_the_report(tmp_path, capsys):
    # one warning from validation, one from profiling
    trace = tmp_path / "w.trace"
    trace.write_text(
        "seq=0 pid=1000 tid=1100 insn_index=3 kind=meta sample_id=w\n"
        "seq=1 pid=1000 tid=1100 insn_index=1 kind=image_load "
        "name=main.exe base=0x400000 size=0x10000 region_kind=main_image\n"
        "seq=2 pid=1000 tid=1100 insn_index=4 kind=region_free "
        "base=0x9999000\n")
    out = tmp_path / "r.json"
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
    warnings = SampleReport.from_json(out.read_text()).warnings
    assert warnings == [
        "seq 1: insn_index decreasing on pid 1000 tid 1100",
        "seq 2: region_free of unknown base 0x9999000 pid 1000"]
    assert capsys.readouterr().err.splitlines() == \
        [f"warning: {w}" for w in warnings]


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


# -- one bad trace never aborts a batch or escapes --out ------------------------

def single_trace(directory, name, sample_id, api_fields=None):
    """A two-record trace; with ``api_fields`` its second record is an api
    call made from unmapped code."""
    directory.mkdir(exist_ok=True)
    text = ("seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id="
            f"{sample_id}\n")
    if api_fields is not None:
        text += (f"seq=1 pid=1 tid=1 insn_index=1 kind=api {api_fields} "
                 "return_address=0x401000 native=1\n")
    path = directory / name
    path.write_text(text)
    return path


def test_batch_survives_a_non_integer_time_query(tmp_path, capsys):
    traces = tmp_path / "traces"
    single_trace(traces, "a.trace", "bad", "name=GetTickCount ret=s:abc")
    single_trace(traces, "b.trace", "good", "name=NtClose ret=i:0")
    out = tmp_path / "reports"
    assert main(["batch", str(traces), "--out", str(out)]) == EXIT_OK
    assert "2 reports, 0 failures" in capsys.readouterr().out
    assert sorted(read_reports(out)) == ["bad.report.json",
                                         "good.report.json"]
    bad = SampleReport.from_json((out / "bad.report.json").read_text())
    assert any("GetTickCount returned s:abc, not an integer" in w
               for w in bad.warnings)


def test_batch_records_any_worker_exception_as_a_failure(
        corpus_dir, tmp_path, capsys, monkeypatch):
    import evprof.cli as cli
    real = cli.run_sample

    def flaky(events, cfg, diagnostics):
        if events[0].payload.sample_id == "pos_Check_EIP":
            raise RuntimeError("boom")
        return real(events, cfg, diagnostics)

    monkeypatch.setattr(cli, "run_sample", flaky)
    out = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "11 reports, 1 failures" in captured.out
    assert "pos_Check_EIP.trace: internal error: RuntimeError: boom" in captured.err
    assert "pos_Check_EIP.report.json" not in read_reports(out)


@pytest.mark.parametrize("text, message", [
    ("name=A%FF", "bad percent-encoded UTF-8"),
    ("name=Sleep args=d:-99999999", "negative duration"),
    ("name=A args=q:1", "unknown value type"),
])
def test_analyze_bad_field_is_a_data_error_with_line(tmp_path, capsys,
                                                     text, message):
    trace = single_trace(tmp_path, "x.trace", "x", text)
    assert main(["analyze", str(trace)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line 2: {message}" in err
    assert "internal error" not in err


def test_analyze_invalid_utf8_file_is_a_data_error(tmp_path, capsys):
    trace = tmp_path / "x.trace"
    trace.write_bytes(b"seq=0 pid=1 tid=1 insn_index=0 kind=meta "
                      b"sample_id=\xff\n")
    assert main(["analyze", str(trace)]) == EXIT_DATA
    assert "internal error" not in capsys.readouterr().err


def test_undecodable_trace_is_a_data_error_named_once(corpus_dir, tmp_path,
                                                      capsys):
    import shutil
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    names = [n for n in sorted(os.listdir(corpus_dir))
             if n.endswith(".trace")][:3]
    for name in names:
        shutil.copy(corpus_dir / name, mixed / name)
    # the bad byte is past the first read buffer of the file
    bad = mixed / "zz.trace"
    bad.write_bytes((corpus_dir / names[0]).read_bytes()
                    + b"seq=99999 \xff\n")
    assert main(["analyze", str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    assert err.count(str(bad)) == 1
    out = tmp_path / "reports"
    assert main(["batch", str(mixed), "--out", str(out)]) == EXIT_OK
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("failed:")]
    assert len(failed) == 1
    assert failed[0].startswith(f"failed: {bad}: 'utf-8' codec")
    assert failed[0].count(str(bad)) == 1
    assert len(read_reports(out)) == 3


# as written in the trace; "%00" decodes to NUL
BAD_SAMPLE_IDS = ["../escaped", "a/b", "a\\b", ".", "..", "", "a%00b"]


@pytest.mark.parametrize("sample_id", BAD_SAMPLE_IDS)
def test_batch_rejects_a_sample_id_that_is_not_a_file_name(
        tmp_path, capsys, sample_id):
    traces = tmp_path / "traces"
    single_trace(traces, "a.trace", sample_id.replace("/", "%2F"))
    single_trace(traces, "b.trace", "good")
    out = tmp_path / "run" / "reports"
    assert main(["batch", str(traces), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "1 reports, 1 failures" in captured.out
    assert "is not a plain file name" in captured.err
    assert sorted(os.listdir(out)) == ["good.report.json"]
    assert sorted(os.listdir(out.parent)) == ["reports"]


@pytest.mark.parametrize("sample_id", BAD_SAMPLE_IDS)
def test_analyze_into_a_directory_rejects_a_bad_sample_id(tmp_path, sample_id):
    trace = single_trace(tmp_path, "a.trace", sample_id.replace("/", "%2F"))
    out = tmp_path / "run" / "reports"
    out.mkdir(parents=True)
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_DATA
    assert os.listdir(out) == []
    assert sorted(os.listdir(out.parent)) == ["reports"]


def test_batch_duplicate_sample_id_is_a_failure(tmp_path, capsys):
    traces = tmp_path / "traces"
    single_trace(traces, "a.trace", "same", "name=NtClose ret=i:0")
    single_trace(traces, "b.trace", "same", "name=IsDebuggerPresent")
    single_trace(traces, "c.trace", "other")
    out = tmp_path / "reports"
    assert main(["batch", str(traces), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "2 reports, 1 failures" in captured.out
    assert "b.trace: duplicate sample_id 'same'" in captured.err
    assert sorted(os.listdir(out)) == ["other.report.json",
                                       "same.report.json"]
    # the first trace in name order keeps the file
    kept = SampleReport.from_json((out / "same.report.json").read_text())
    assert kept.native_api_count == 1


@pytest.mark.parametrize("fields", [
    "techniques=RDTSC@x:red", "filler=zz", "techniques=RDTSC@5:blue",
    "filler=1 filler=2", "techniqes=RDTSC@10", "visible=NtWriteFile@500",
    "visible=NtWriteFile@nan",
])
def test_gen_bad_spec_value_is_a_data_error_with_line(tmp_path, capsys,
                                                      fields):
    spec = tmp_path / "samples.gspec"
    spec.write_text(f"# one sample\nsample_id=g1 {fields}\n")
    out = tmp_path / "gen"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {spec}: line 2: " in err
    assert "internal error" not in err


@pytest.mark.parametrize("fields", [
    "sample_id=%2E%2E%2Fescaped filler=3", "sample_id=a/b",
    "sample_id=a%5Cb", "sample_id=.", "sample_id=.. filler=3",
    "sample_id=a%00b", "sample_id=g1 filler=-5",
    "sample_id=g1 filler=1000000000",
])
def test_gen_refuses_a_spec_it_cannot_write_inside_out(tmp_path, capsys,
                                                      fields):
    spec = tmp_path / "s.gspec"
    spec.write_text(f"sample_id=ok filler=3\n{fields}\n")
    out = tmp_path / "work" / "out"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {spec}: line 2: " in err
    assert "internal error" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["s.gspec"]


def test_gen_refuses_a_repeated_sample_id_at_its_line(tmp_path, capsys):
    spec = tmp_path / "s.gspec"
    spec.write_text("sample_id=a filler=3\nsample_id=b\nsample_id=a\n")
    out = tmp_path / "out"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
    assert f"error: {spec}: line 3: duplicate sample_id 'a'" in \
        capsys.readouterr().err
    assert not out.exists()


def test_gen_spec_line_holding_a_form_feed_is_one_sample(tmp_path):
    spec = tmp_path / "samples.gspec"
    spec.write_text("sample_id=a\x0cfiller=5\n")
    out = tmp_path / "gen"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.glob("*.trace")) == ["a.trace"]


@pytest.mark.parametrize("blocked", ["out_is_a_file", "out_under_a_file",
                                     "trace_is_a_directory"])
def test_gen_out_errors_are_data_errors(tmp_path, capsys, blocked):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = {"out_is_a_file": blocker, "out_under_a_file": blocker / "sub",
           "trace_is_a_directory": tmp_path / "gen"}[blocked]
    if blocked == "trace_is_a_directory":
        (out / "pos_RDTSC.trace").mkdir(parents=True)
    assert main(["gen", "--suite", "roundtrip",
                 "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    if blocked == "trace_is_a_directory":
        # the writer's error names the target once, not --out around it
        trace = out / "pos_RDTSC.trace"
        assert err == f"error: {trace}: Is a directory\n"
        assert err.count(str(trace)) == 1
    else:
        assert f"error: {out}: " in err
    assert "internal error" not in err


DELETED = object()  # the key is removed from the report


@pytest.mark.parametrize("key, value", [
    ("technique_set", ["NotATechnique"]),
    ("technique_set", ["RDTSC", "RDTSC"]),
    ("techniques_count", 2),
    ("detections", [1]),
    ("started", "yes"),
    ("first_pos", None),
    ("normalized_pos", "x"),
    ("normalized_pos", 150.0),
    ("evasive", False),
    ("started", False),
    ("active", False),
    ("categories_in_order", ["NotACategory", "AntiDebug"]),
    ("categories_in_order", ["TimingAttacks", "TimingAttacks"]),
    ("first_pos", 99.0),
    ("last_pos", 0.0),
    ("category", "AntiDebug"),
    ("detections", DELETED),
])
def test_aggregate_report_with_bad_content_is_a_data_error(
        corpus_dir, tmp_path, capsys, key, value):
    reports = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(reports)]) == EXIT_OK
    path = reports / "pos_RDTSC.report.json"
    doc = json.loads(path.read_text())
    assert doc["evasive"]
    # a detection key is set on the first detection, any other on the report
    target = doc["detections"][0] if key in ("normalized_pos",
                                             "category") else doc
    if value is DELETED:
        del target[key]
    else:
        target[key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["aggregate", str(reports)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}: bad report: " in err
    assert "internal error" not in err


def test_aggregate_report_with_detections_out_of_order_is_a_data_error(
        tmp_path, capsys):
    # the profiler emits detections in event order; reversed, with the
    # positions and categories that agree with the reversed list, the
    # timeline would bin a negative first-to-last distance
    traces, reports = tmp_path / "traces", tmp_path / "reports"
    write_corpus([GenSpec("two", (TechniqueSpec("IsDebuggerPresentAPI", 10),
                                  TechniqueSpec("RDTSC", 50)))], traces)
    assert main(["batch", str(traces), "--out", str(reports)]) == EXIT_OK
    path = reports / "two.report.json"
    doc = json.loads(path.read_text())
    doc["detections"].reverse()
    counted = [d for d in doc["detections"]
               if d["technique"] in doc["technique_set"]]
    doc["first_pos"] = counted[0]["normalized_pos"]
    doc["last_pos"] = counted[-1]["normalized_pos"]
    doc["categories_in_order"] = list(dict.fromkeys(
        d["category"] for d in counted))
    assert doc["first_pos"] > doc["last_pos"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["aggregate", str(reports)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}: bad report: " in err
    assert "internal error" not in err


@pytest.mark.parametrize("name", ["copy.report.json",
                                  "pos_RDTSC.report.json.report.json"])
def test_aggregate_report_not_named_for_its_sample_is_a_data_error(
        corpus_dir, tmp_path, capsys, name):
    # a copy under another name would otherwise be folded twice
    reports = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(reports)]) == EXIT_OK
    copy = reports / name
    copy.write_text((reports / "pos_RDTSC.report.json").read_text())
    capsys.readouterr()
    assert main(["aggregate", str(reports)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{copy}: bad report: sample_id 'pos_RDTSC' does not match" in err


def test_batch_writes_each_report_before_profiling_the_next(
        corpus_dir, tmp_path, monkeypatch):
    reports = tmp_path / "reports"
    profile = cli._profile_file
    written_before = []

    def spy(path, cfg):
        written_before.append(len(os.listdir(reports)))
        return profile(path, cfg)

    monkeypatch.setattr(cli, "_profile_file", spy)
    assert main(["batch", str(corpus_dir), "--out", str(reports)]) == EXIT_OK
    assert written_before == list(range(len(os.listdir(reports))))


def test_analyze_out_in_a_missing_directory_is_a_data_error(
        corpus_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["analyze", str(corpus_dir / "pos_RDTSC.trace"),
                 "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {out}: " in err
    assert "internal error" not in err


def test_batch_out_that_cannot_be_made_is_a_data_error(
        corpus_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {out}: " in err
    assert "internal error" not in err


@pytest.mark.parametrize("blocked", ["out_dir", "table_file"])
def test_aggregate_out_errors_are_data_errors(corpus_dir, tmp_path, capsys,
                                              blocked):
    reports = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(reports)]) == EXIT_OK
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = tmp_path / "tables"
    if blocked == "out_dir":
        out = blocker / "tables"
    else:
        (out / "core.txt").mkdir(parents=True)
    capsys.readouterr()
    assert main(["aggregate", str(reports), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {out}" in err
    assert "internal error" not in err


# -- no input file ends in an internal error -------------------------------------

@pytest.fixture(scope="module")
def corpus60_run(tmp_path_factory):
    """corpus60's traces and labels.csv, and the reports batch makes."""
    root = tmp_path_factory.mktemp("corpus60")
    write_corpus(suite_specs("corpus60"), root / "traces")
    assert main(["batch", str(root / "traces"),
                 "--out", str(root / "reports")]) == EXIT_OK
    return root


EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2 ** 32),
    st.sampled_from([bytes([b]) for b in range(256)])),
    min_size=1, max_size=6)


def apply_edits(data: bytes, edits) -> bytes:
    """Each edit replaces the byte at ``at`` (modulo the length) with
    ``new``, inserts ``new`` there, or deletes that byte."""
    buf = bytearray(data)
    for op, at, new in edits:
        if op == "insert":
            at %= len(buf) + 1
            buf[at:at] = new
        elif buf:
            at %= len(buf)
            buf[at:at + 1] = new if op == "replace" else b""
    return bytes(buf)


@pytest.mark.parametrize("kind", ["trace", "genspec", "labels", "report"])
@given(edits=EDITS)
# each of these ended in an internal error: a 0xFF byte in a label file or
# in a genspec, a label field over the csv module's 131,072 limit, and a
# report nested deeper than the JSON decoder can follow
@example(edits=[("replace", 0, b"\xff")])
@example(edits=[("insert", -1, b"a" * 200_000)])
@example(edits=[("insert", 0, b"[" * 100_000)])
@settings(max_examples=60, deadline=None)
def test_no_corrupted_input_file_ends_in_an_internal_error(
        corpus60_run, kind, edits):
    traces, reports = corpus60_run / "traces", corpus60_run / "reports"
    source = {"trace": traces / "s01.trace",
              "genspec": None,
              "labels": traces / "labels.csv",
              "report": reports / "s01.report.json"}[kind]
    data = (source.read_bytes() if source else
            next(line for line in suites.CORPUS60.splitlines()
                 if line.startswith("sample_id=")).encode() + b"\n")
    with tempfile.TemporaryDirectory() as work:
        edited = os.path.join(work, "s01.report.json" if kind == "report"
                              else "input")
        with open(edited, "wb") as fh:
            fh.write(apply_edits(data, edits))
        if kind == "report":
            for name in os.listdir(reports):
                if name != "s01.report.json":
                    shutil.copy(reports / name, work)
        argv = {"trace": ["analyze", edited],
                "genspec": ["gen", "--spec", edited,
                            "--out", os.path.join(work, "out")],
                "labels": ["aggregate", str(reports), "--labels", edited],
                "report": ["aggregate", work]}[kind]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_DATA), err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == EXIT_DATA:
        assert f"error: {edited}: " in err.getvalue()


# -- outputs are whole or absent -------------------------------------------------

def limit_file_size(limit):
    """A child-process hook: files grow to ``limit`` bytes at most, and a
    write past it fails with EFBIG instead of killing the process."""
    def hook():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    return hook


def test_batch_under_a_file_size_limit_leaves_only_whole_reports(tmp_path):
    # four of the five reports are over 1,000 bytes, so only one fits
    traces, reports = tmp_path / "traces", tmp_path / "reports"
    write_corpus(suite_specs("corpus60")[:5], traces)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "evprof.cli", "batch", str(traces),
         "--out", str(reports)], env=env, capture_output=True, text=True,
        preexec_fn=limit_file_size(1000))
    assert proc.returncode == EXIT_OK, proc.stderr
    whole = {SampleReport.from_json(doc).sample_id
             for doc in read_reports(reports).values()}
    assert sorted(os.listdir(reports)) == \
        sorted(f"{sid}.report.json" for sid in whole)
    failed = [sid for sid in ("s01", "s02", "s03", "s04", "s05")
              if sid not in whole]
    assert len(whole) == 1 and len(failed) == 4
    for sid in failed:
        assert (f"failed: {traces / sid}.trace: "
                f"{reports / sid}.report.json: ") in proc.stderr
    assert main(["aggregate", str(reports)]) == EXIT_OK


# a batch whose report writes each come in two halves; the second report
# stops between its halves and says "half"
HALTING_BATCH = """
import sys, time
import evprof.cli as cli
real, calls = cli.write_whole, []

def halves(text, halt):
    yield text[:len(text) // 2]
    if halt:
        print("half", flush=True)
        time.sleep(60)
    yield text[len(text) // 2:]

def write_whole(files):
    calls.append(None)
    real((path, halves("".join(chunks), len(calls) == 2))
         for path, chunks in files)

cli.write_whole = write_whole
sys.exit(cli.main(sys.argv[1:]))
"""


def test_batch_killed_mid_run_leaves_only_whole_reports(tmp_path):
    # killed half way through its second report, with the rest still to
    # come: each report left must be whole, and aggregate skips any .tmp
    # file; a writer that wrote in place would leave half a report
    traces, reports = tmp_path / "traces", tmp_path / "reports"
    write_corpus(suite_specs("corpus60"), traces)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen(
            [sys.executable, "-c", HALTING_BATCH, "batch", str(traces),
             "--out", str(reports)], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            assert proc.stdout.readline() == "half\n"
        finally:
            proc.kill()
            proc.wait(timeout=60)
    docs = read_reports(reports)
    assert docs
    for name, doc in docs.items():
        assert f"{SampleReport.from_json(doc).sample_id}.report.json" == name
    assert main(["aggregate", str(reports)]) == EXIT_OK


def test_gen_that_fails_part_way_leaves_out_as_it_was(tmp_path, capsys):
    # pos_IsDebuggerPresentAPI is built before pos_RDTSC, whose path is a
    # directory: nothing of the run may reach --out
    out = tmp_path / "gen"
    (out / "pos_RDTSC.trace").mkdir(parents=True)
    (out / "old.txt").write_text("unrelated\n")
    (out / "pos_IsDebuggerPresentAPI.trace").write_text("other bytes\n")
    before = tree_bytes(out)
    assert main(["gen", "--suite", "roundtrip",
                 "--out", str(out)]) == EXIT_DATA
    assert f"{out / 'pos_RDTSC.trace'}: " in capsys.readouterr().err
    assert sorted(os.listdir(out)) == [
        "old.txt", "pos_IsDebuggerPresentAPI.trace", "pos_RDTSC.trace"]
    assert tree_bytes(out) == before
    assert os.listdir(out / "pos_RDTSC.trace") == []


def test_aggregate_out_writes_its_three_files_as_one_set(
        corpus_dir, tmp_path, capsys):
    reports = tmp_path / "reports"
    assert main(["batch", str(corpus_dir), "--out", str(reports)]) == EXIT_OK
    out = tmp_path / "tables"
    (out / "packers.txt").mkdir(parents=True)
    capsys.readouterr()
    assert main(["aggregate", str(reports), "--out", str(out)]) == EXIT_DATA
    assert f"error: {out / 'packers.txt'}: " in capsys.readouterr().err
    assert os.listdir(out) == ["packers.txt"]


def test_analyze_out_into_a_fifo_writes_it_in_place(corpus_dir, tmp_path):
    # a rename onto the FIFO would replace it, and its reader would get
    # nothing
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    trace = corpus_dir / "pos_RDTSC.trace"
    assert main(["analyze", str(trace), "--out", str(fifo)]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    report = SampleReport.from_json(got[0])
    assert [d.technique for d in report.detections] == ["RDTSC"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


# -- positions, access sizes and hash seeds --------------------------------------

def seq_trace(path, first, records):
    """A trace of a meta record at seq ``first``, a red main image and
    ``records``, whose seqs follow on from ``first``."""
    lines = [f"kind=meta sample_id={path.stem}",
             "kind=image_load name=main.exe base=0x400000 size=0x10000 "
             "region_kind=main_image", *records]
    path.write_text("".join(
        f"seq={first + i} pid=1 tid=1 insn_index={i} {line}\n"
        for i, line in enumerate(lines)))
    return path


@pytest.mark.parametrize("first", [-5, 1000])
def test_positions_count_from_the_meta_record(tmp_path, first):
    # a red check at the middle of five records sits at position 50
    trace = seq_trace(tmp_path / "s.trace", first, [
        "kind=api name=IsDebuggerPresent return_address=0x401000 native=0",
        "kind=api name=NtClose return_address=0x401000 native=1",
        "kind=api name=NtClose return_address=0x401000 native=1"])
    reports = tmp_path / "reports"
    reports.mkdir()
    assert main(["analyze", str(trace), "--out", str(reports)]) == EXIT_OK
    report = SampleReport.from_json((reports / "s.report.json").read_text())
    assert [(d.seq, d.normalized_pos) for d in report.detections] == \
        [(first + 2, 50.0)]
    assert report.first_pos == report.last_pos == 50.0
    assert main(["aggregate", str(reports), "--format", "json",
                 "--out", str(tmp_path / "tables")]) == EXIT_OK


@pytest.mark.parametrize("kind", ["mem_read", "mem_write"])
def test_access_of_size_16_over_a_live_field_touches_no_watchpoint(
        tmp_path, kind):
    # the wide access neither hits BeingDebugged nor kills it, so only the
    # read after it is a detection; validation still warns of its size
    trace = tmp_path / "wide.trace"
    trace.write_text(
        "seq=0 pid=1 tid=1 insn_index=0 kind=meta sample_id=wide "
        "structs=PEB@0x7ffd0000(BeingDebugged+0x2:1)\n"
        "seq=1 pid=1 tid=1 insn_index=1 kind=image_load name=main.exe "
        "base=0x400000 size=0x10000 region_kind=main_image\n"
        f"seq=2 pid=1 tid=1 insn_index=2 kind={kind} address=0x7ffd0000 "
        "size=16 value=0x0 accessor_address=0x401000\n"
        "seq=3 pid=1 tid=1 insn_index=3 kind=mem_read address=0x7ffd0002 "
        "size=1 value=0x0 accessor_address=0x401000\n")
    out = tmp_path / "r.json"
    assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
    report = SampleReport.from_json(out.read_text())
    assert [(d.technique, d.seq) for d in report.detections] == \
        [("IsDebuggerPresentPEB", 3)]
    assert report.warnings == ["seq 2: memory access size 16 not in {1,2,4,8}"]


def tree_bytes(root):
    """Every file under ``root``: relative path -> its bytes."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_gen_batch_aggregate_write_the_same_bytes_under_any_hash_seed(
        tmp_path):
    trees = []
    for seed in ("1", "2"):
        work = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        for argv in (["gen", "--suite", "corpus60", "--out", "traces"],
                     ["batch", "traces", "--out", "reports", "--jobs", "2"],
                     ["aggregate", "reports", "--format", "json",
                      "--out", "tables"]):
            work.mkdir(exist_ok=True)
            proc = subprocess.run([sys.executable, "-m", "evprof.cli", *argv],
                                  cwd=work, env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
        trees.append(tree_bytes(work))
    assert len(trees[0]) > 120
    assert trees[0] == trees[1]

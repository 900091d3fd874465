"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import check_reports  # noqa: E402

TINY = 0.01


def bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", metrics.WHY)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {row[0]: row[1] for row in table}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    printed = out.stdout.splitlines()
    for row in table + (() if trace else metrics.REPORTED):
        assert any(line.split()[:1] == [row[0]] and line.split()[-1]
                   == row[1] for line in printed), row[0]
    assert any(line.startswith("failed_share") for line in printed)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    sizes = workloads.Sizes().scaled(TINY)

    def files(path):
        return {name: (path / name).read_bytes()
                for name in sorted(os.listdir(path))}

    for name, writer in workloads.WRITERS.items():
        writer(str(tmp_path / name / "a"), 5, sizes)
        writer(str(tmp_path / name / "b"), 5, sizes)
        writer(str(tmp_path / name / "c"), 6, sizes)
        first = files(tmp_path / name / "a")
        assert first == files(tmp_path / name / "b"), name
        assert first != files(tmp_path / name / "c"), name


def test_a_flipped_verdict_is_counted_as_failed(tmp_path):
    sizes = workloads.Sizes().scaled(TINY)
    inputs = workloads.scan(workloads.write_corpus(
        str(tmp_path / "traces"), 2, sizes))
    out = str(tmp_path / "reports")
    run.in_process(["batch", inputs.trace_dir, "--out", out])
    tally = run.Tally()
    tally.step(inputs.files, check_reports, inputs, out)
    assert tally.failed == 0

    sample_id = sorted(inputs.expect)[0]
    path = os.path.join(out, sample_id + ".report.json")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["evasive"] = not doc["evasive"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    tally.step(inputs.files, check_reports, inputs, out)
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench("corpus", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_is_written_from_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_json()

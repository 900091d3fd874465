"""Golden digests: generated inputs, reports and summaries, the catalog,
and what the parser makes of mutated traces.

Each suite goes through the public CLI (``gen --suite``, ``batch --jobs 1``,
``aggregate``), and the sha256 of every report file and of ``summary.json``
must match ``golden_digests.json``. Every suite runs under each of
``CONFIGS``: the default, ``--no-mitigate``, and a set of overrides that
switches one mitigation off, forces a substituted value on another and
turns a third on explicitly. The last two keep the unmitigated and the
overridden detection paths under the same gate as the default one.
The ``aggregate/*`` keys pin every table and stdout form of ``aggregate``
over ``corpus60`` under each ``--group-by``.

A refactor or optimization that keeps the outputs byte-identical passes
unchanged; a change that alters reports on purpose regenerates the file
with

    PYTHONPATH=src python tests/test_digests.py > tests/golden_digests.json

and says why in its change notes.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys

import pytest

from evprof.cli import EXIT_OK, main
from evprof.trace import TraceError, parse_trace, serialize_trace

from mutants import LINE_BREAKS, MUTANT_CHARS, corpus60_lines, mutate

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

SUITES = ("roundtrip", "corpus60", "scenarios")
# golden key prefix -> extra ``batch`` arguments; the default config keeps
# the bare suite name as its key
CONFIGS = {
    "": [],
    "no-mitigate/": ["--no-mitigate"],
    "overrides/": ["--override", "RDTSC=off",
                   "--override", "Shellcode_injected=forced",
                   "--override", "time_stalling=on"],
}
CASES = [(prefix, suite) for prefix in CONFIGS for suite in SUITES]
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_digests(path):
    return {name: sha256_of(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def gen_digests(suite, work):
    assert main(["gen", "--suite", suite, "--out", work]) == EXIT_OK
    return dir_digests(work)


def workload_digests(workload, work):
    workloads.WRITERS[workload](work, 1, workloads.Sizes().scaled(0.1))
    return dir_digests(work)


def catalog_digests(fmt, work):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["catalog", "--format", fmt]) == EXIT_OK
    return {name: hashlib.sha256(text.getvalue().encode()).hexdigest()
            for name, text in (("stdout", out), ("stderr", err))}


def aggregate_digests(group_by, work):
    """``aggregate --labels --group-by GROUP_BY`` over a ``corpus60``
    batch: every file ``--out`` writes for ``--format text`` and ``csv``,
    and stdout for ``--format json`` and ``text``."""
    traces = os.path.join(work, "traces")
    reports = os.path.join(work, "reports")
    tables = os.path.join(work, "tables")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--suite", "corpus60", "--out", traces]) == EXIT_OK
        assert main(["batch", traces, "--out", reports,
                     "--jobs", "1"]) == EXIT_OK
    argv = ["aggregate", reports, "--group-by", group_by,
            "--labels", os.path.join(traces, "labels.csv")]
    for fmt in ("text", "csv"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--format", fmt, "--out", tables]) == EXIT_OK
    digests = dir_digests(tables)
    for fmt in ("json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == EXIT_OK
        digests["stdout." + fmt] = hashlib.sha256(
            out.getvalue().encode()).hexdigest()
    return digests


def parse_outcome_digests(work):
    """Per corpus60 trace, the sha256 of what ``parse_trace`` makes of its
    2000 seeded mutants: each mutant's serialized events or its TraceError
    text with the line number. Pins error wording, line numbers and which
    error a line with several faults reports. ``work`` is not used."""
    rng = random.Random(10)
    traces = corpus60_lines()
    outcomes = {}
    for _ in range(2000):
        which = rng.randrange(len(traces))
        text = mutate(traces[which], rng.randint, MUTANT_CHARS + LINE_BREAKS)
        try:
            outcome = serialize_trace(parse_trace(text))
        except TraceError as exc:
            outcome = f"TraceError: {exc}\n"
        outcomes.setdefault(f"trace{which:02d}", []).append(outcome)
    return {name: hashlib.sha256("".join(texts).encode()).hexdigest()
            for name, texts in sorted(outcomes.items())}


# golden key -> function of a scratch directory giving name -> sha256
INPUTS = {
    **{"gen/" + suite: functools.partial(gen_digests, suite)
       for suite in SUITES},
    **{"workload/" + name: functools.partial(workload_digests, name)
       for name in workloads.WRITERS},
    **{"catalog/" + fmt: functools.partial(catalog_digests, fmt)
       for fmt in ("text", "csv")},
    **{"aggregate/" + group_by: functools.partial(aggregate_digests, group_by)
       for group_by in ("dataset", "year", "family")},
    "parse/mutated-corpus60": parse_outcome_digests,
}


def suite_digests(suite, work, batch_args=()):
    """Run one suite through the CLI under ``work``; file name -> sha256."""
    traces = os.path.join(work, "traces")
    reports = os.path.join(work, "reports")
    tables = os.path.join(work, "tables")
    assert main(["gen", "--suite", suite, "--out", traces]) == EXIT_OK
    assert main(["batch", traces, "--out", reports, "--jobs", "1",
                 *batch_args]) == EXIT_OK
    argv = ["aggregate", reports, "--out", tables]
    labels = os.path.join(traces, "labels.csv")
    if os.path.exists(labels):
        argv += ["--labels", labels]
    assert main(argv) == EXIT_OK
    digests = {name: sha256_of(os.path.join(reports, name))
               for name in sorted(os.listdir(reports))}
    digests["summary.json"] = sha256_of(os.path.join(tables, "summary.json"))
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("prefix, suite", CASES,
                         ids=[prefix + suite for prefix, suite in CASES])
def test_suite_outputs_are_byte_identical(prefix, suite, golden, tmp_path):
    actual = suite_digests(suite, str(tmp_path), CONFIGS[prefix])
    expected = golden[prefix + suite]
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert changed == []


@pytest.mark.parametrize("key", sorted(INPUTS))
def test_generated_inputs_are_byte_identical(key, golden, tmp_path):
    actual = INPUTS[key](str(tmp_path))
    expected = golden[key]
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert changed == []


if __name__ == "__main__":
    import tempfile
    out = {}
    for prefix, suite in CASES:
        with tempfile.TemporaryDirectory() as work, \
                contextlib.redirect_stdout(sys.stderr):
            out[prefix + suite] = suite_digests(suite, work, CONFIGS[prefix])
    for key, digests in INPUTS.items():
        with tempfile.TemporaryDirectory() as work, \
                contextlib.redirect_stdout(sys.stderr):
            out[key] = digests(work)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

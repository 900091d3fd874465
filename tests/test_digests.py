"""Golden digests: reports and summary.json of the built-in suites.

Each suite goes through the public CLI (``gen --suite``, ``batch --jobs 1``,
``aggregate``), and the sha256 of every report file and of ``summary.json``
must match ``golden_digests.json``. Every suite runs under each of
``CONFIGS``: the default, ``--no-mitigate``, and a set of overrides that
switches one mitigation off, forces a substituted value on another and
turns a third on explicitly. The last two keep the unmitigated and the
overridden detection paths under the same gate as the default one.

A refactor or optimization that keeps the outputs byte-identical passes
unchanged; a change that alters reports on purpose regenerates the file
with

    PYTHONPATH=src python tests/test_digests.py > tests/golden_digests.json

and says why in its change notes.
"""

import hashlib
import json
import os
import sys

import pytest

from evprof.cli import EXIT_OK, main

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


if __name__ == "__main__":
    import contextlib
    import tempfile
    out = {}
    for prefix, suite in CASES:
        with tempfile.TemporaryDirectory() as work, \
                contextlib.redirect_stdout(sys.stderr):
            out[prefix + suite] = suite_digests(suite, work, CONFIGS[prefix])
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

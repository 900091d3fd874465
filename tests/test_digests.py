"""Golden digests: reports and summary.json of the built-in suites.

Each suite goes through the public CLI (``gen --suite``, ``batch --jobs 1``,
``aggregate``), and the sha256 of every report file and of ``summary.json``
must match ``golden_digests.json``. A refactor or optimization that keeps
the outputs byte-identical passes unchanged; a change that alters reports
on purpose regenerates the file with

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
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_digests.json")


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def suite_digests(suite, work):
    """Run one suite through the CLI under ``work``; file name -> sha256."""
    traces = os.path.join(work, "traces")
    reports = os.path.join(work, "reports")
    tables = os.path.join(work, "tables")
    assert main(["gen", "--suite", suite, "--out", traces]) == EXIT_OK
    assert main(["batch", traces, "--out", reports, "--jobs", "1"]) == EXIT_OK
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


@pytest.mark.parametrize("suite", SUITES)
def test_suite_outputs_are_byte_identical(suite, golden, tmp_path):
    actual = suite_digests(suite, str(tmp_path))
    expected = golden[suite]
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert changed == []


if __name__ == "__main__":
    import contextlib
    import tempfile
    out = {}
    for suite in SUITES:
        with tempfile.TemporaryDirectory() as work, \
                contextlib.redirect_stdout(sys.stderr):
            out[suite] = suite_digests(suite, work)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

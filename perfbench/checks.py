"""Output checks. Each returns a list of problems, one per failed trace."""

from __future__ import annotations

import json
import os

from workloads import Inputs


def report_path(out_dir: str, sample_id: str) -> str:
    return os.path.join(out_dir, sample_id + ".report.json")


def check_reports(inputs: Inputs, out_dir: str) -> list[str]:
    """Each report's verdict must equal what its input was built to give."""
    problems = []
    for sample_id, expect in inputs.expect.items():
        try:
            with open(report_path(out_dir, sample_id), "r",
                      encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{sample_id}: no readable report: {exc}")
            continue
        wrong = []
        if doc.get("technique_set") != expect.technique_set:
            wrong.append(f"technique_set {doc.get('technique_set')} != "
                         f"{expect.technique_set}")
        if doc.get("evasive") != expect.evasive:
            wrong.append(f"evasive {doc.get('evasive')} != {expect.evasive}")
        if doc.get("total_event_count") != expect.events:
            wrong.append(f"total_event_count {doc.get('total_event_count')} "
                         f"!= {expect.events}")
        if expect.detections is not None \
                and len(doc.get("detections", ())) != expect.detections:
            wrong.append(f"{len(doc.get('detections', ()))} detections != "
                         f"{expect.detections}")
        if wrong:
            problems.append(f"{sample_id}: " + "; ".join(wrong))
    return problems


def check_identical(inputs: Inputs, out_dir: str, reference_dir: str
                    ) -> list[str]:
    """Reports in ``out_dir`` must be byte-identical to the reference's."""
    problems = []
    for sample_id in inputs.expect:
        try:
            with open(report_path(out_dir, sample_id), "rb") as fh:
                got = fh.read()
            with open(report_path(reference_dir, sample_id), "rb") as fh:
                want = fh.read()
        except OSError as exc:
            problems.append(f"{sample_id}: {exc}")
            continue
        if got != want:
            problems.append(f"{sample_id}: report differs from the "
                            f"reference run")
    return problems


def check_summary(inputs: Inputs, summary_path: str) -> list[str]:
    """Per-family totals and evasive counts must match the inputs."""
    expected: dict[str, list[int]] = {}
    for expect in inputs.expect.values():
        counts = expected.setdefault(expect.family or "unlabeled", [0, 0])
        counts[0] += 1
        counts[1] += expect.evasive
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            groups = json.load(fh)["groups"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"summary: {exc}"]
    problems = []
    if sorted(groups) != sorted(expected):
        problems.append(f"summary groups {sorted(groups)} != "
                        f"{sorted(expected)}")
    for family, (total, evasive) in sorted(expected.items()):
        group = groups.get(family)
        if group is None:
            continue
        started = group["started"]
        got = round((group["evasive_pct"] or 0.0) * started / 100)
        if (group["total"], started, got) != (total, total, evasive):
            problems.append(
                f"summary {family}: total {group['total']}, started "
                f"{started}, evasive {got}; expected {total}, {total}, "
                f"{evasive}")
    return problems

"""Corpus-level statistics over per-sample reports.

All percentages are computed over the number of started samples of the
relevant group. Aggregation is a fold, one report at a time, whose state
holds only counts (ints and ``Counter``s), each stored once. Everything
else is derived once, by ``finalize``, into the summary document: the
plain dict that ``summary.json`` serializes and whose ``groups`` and
``packers`` sections the core and packer tables render. The mean,
population standard deviation and maximum of the number of techniques
come from a histogram of that number, the variance through the exact
integer identity n*var = (n*sumsq - sum^2) / n, so the only rounding is
in the final square root and division.

The evasive footprint of a family is the intersection of the technique
sets of its evasive samples: the techniques whose per-family count equals
the family's number of evasive samples. Families without any evasive
sample are omitted. Intersecting over non-evasive (empty-set) samples
would force every footprint empty, so they do not participate.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field

from . import catalog
from .profiler import (SampleReport, TIMELINE_SLOTS, counted_detections,
                       timeline_slot)
from .trace import LABEL_COLUMNS, TraceError


def load_labels(path) -> dict[str, dict[str, str]]:
    """Load the sample label file (CSV with a header row). A file that is
    not UTF-8 CSV with a ``sample_id`` column, or that repeats a sample
    id, is a TraceError that names it."""
    labels: dict[str, dict[str, str]] = {}
    try:
        # utf-8-sig: a spreadsheet may save the file with a byte order mark
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if (reader.fieldnames is None
                    or "sample_id" not in reader.fieldnames):
                raise ValueError("missing sample_id column")
            for row in reader:
                sid = row["sample_id"]
                if sid in labels:
                    raise ValueError(f"duplicate sample_id {sid!r}")
                labels[sid] = {
                    k: row.get(k, "") or "" for k in LABEL_COLUMNS[1:]
                }
    # a UnicodeDecodeError is a ValueError
    except (ValueError, csv.Error) as exc:
        raise TraceError(f"{path}: {exc}") from None
    return labels


def apply_labels(reports: list[SampleReport],
                 labels: dict[str, dict[str, str]]) -> int:
    """Join labels onto reports by sample id; returns the join-miss count."""
    misses = 0
    for report in reports:
        row = labels.get(report.sample_id)
        if row is None:
            misses += 1
            continue
        for key, value in row.items():
            if value:
                report.labels[key] = value
    return misses


# ---------------------------------------------------------------------------
# accumulator

@dataclass
class _GroupCounters:
    total: int = 0
    started: int = 0
    active: int = 0
    active_and_evasive: int = 0
    internet: int = 0
    child_process: int = 0
    # techniques_count -> evasive samples; its total is the evasive count
    evasive_techniques: Counter[int] = field(default_factory=Counter)
    category_samples: Counter[str] = field(default_factory=Counter)
    packed: int = 0
    packed_evasive: int = 0
    packed_categories: Counter[str] = field(default_factory=Counter)
    protected: int = 0
    # techniques_count -> evasive protected samples
    protected_techniques: Counter[int] = field(default_factory=Counter)


def _moments(hist: Counter[int]):
    """(mean, population std, max) of the values a histogram counts."""
    n = sum(hist.values())
    if not n:
        return None, None, None
    total = sum(k * v for k, v in hist.items())
    total_sq = sum(k * k * v for k, v in hist.items())
    return (total / n, math.sqrt(n * total_sq - total * total) / n,
            max(hist))


def _pct(count: int, denom: int) -> float | None:
    return 100.0 * count / denom if denom else None


class CorpusAccumulator:
    """Fold state over sample reports."""

    def __init__(self, group_by: str = "dataset"):
        if group_by not in ("dataset", "year", "family"):
            raise ValueError(f"unsupported group_by {group_by!r}")
        self.group_by = group_by
        self.groups: dict[str, _GroupCounters] = {}
        self.technique_samples: Counter[str] = Counter()
        self.first_hist: Counter[int] = Counter()
        self.last_hist: Counter[int] = Counter()
        self.diff_hist: Counter[int] = Counter()
        self.slot_first_category: dict[str, Counter[str]] = {
            s: Counter() for s in TIMELINE_SLOTS}
        # first category of each sample with two or more categories
        self.first_category_counts: Counter[str] = Counter()
        self.family_evasive: Counter[str] = Counter()
        self.family_techniques: dict[str, Counter[str]] = {}

    def add(self, report: SampleReport) -> None:
        key = report.labels.get(self.group_by, "") or "unlabeled"
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = _GroupCounters()
        group.total += 1
        if not report.started:
            return
        group.started += 1
        if report.active:
            group.active += 1
        if report.evasive:
            if report.active:
                group.active_and_evasive += 1
            group.evasive_techniques[report.techniques_count] += 1
        if report.internet:
            group.internet += 1
        if report.child_process:
            group.child_process += 1

        categories = report.categories_in_order
        self.technique_samples.update(report.technique_set)
        group.category_samples.update(categories)

        packer = report.labels.get("packer", "")
        protector = report.labels.get("protector", "")
        if packer:
            group.packed += 1
            if report.evasive:
                group.packed_evasive += 1
            group.packed_categories.update(categories)
        if protector:
            group.protected += 1
            if report.evasive:
                group.protected_techniques[report.techniques_count] += 1

        if report.evasive:
            self._add_timeline(report)
            if len(categories) >= 2:
                self.first_category_counts[categories[0]] += 1
            family = report.labels.get("family", "")
            if family:
                self.family_evasive[family] += 1
                self.family_techniques.setdefault(family, Counter()).update(
                    report.technique_set)

    def _add_timeline(self, report: SampleReport) -> None:
        first = report.first_pos
        last = report.last_pos
        self.first_hist[int(first)] += 1
        self.last_hist[int(last)] += 1
        self.diff_hist[int(last - first)] += 1

        seen_slots = set()
        for d in counted_detections(report.detections, report.technique_set):
            slot = timeline_slot(d.normalized_pos)
            if slot in seen_slots:
                continue
            seen_slots.add(slot)
            self.slot_first_category[slot][d.category] += 1

    def finalize(self) -> dict:
        """The summary document: the plain dict ``summary.json`` holds."""
        ordered = [(key, self.groups[key]) for key in sorted(self.groups)]
        started = sum(g.started for _, g in ordered)
        footprints = _footprints(self.family_evasive, self.family_techniques)
        return {
            "group_by": self.group_by,
            "groups": {key: _group_stats(g) for key, g in ordered},
            # share of started samples, descending; ties break by id
            "technique_ranking": [
                {"technique": tech, "share_pct": _pct(n, started)}
                for tech, n in sorted(self.technique_samples.items(),
                                      key=lambda it: (-it[1], it[0]))],
            "timeline": _timeline(self),
            "order": _order(self.first_category_counts),
            "footprints": footprints,
            "footprint_summary": _footprint_summary(footprints),
            "packers": {key: _packer_stats(g) for key, g in ordered},
            "category_prevalence": {
                key: {cat: _pct(g.category_samples[cat], g.started)
                      for cat in catalog.CATEGORIES}
                for key, g in ordered},
            "diagnostics": [
                f"group {key!r}: no started samples, percentages undefined"
                for key, g in ordered if not g.started],
        }


# ---------------------------------------------------------------------------
# the summary document's sections

def _group_stats(g: _GroupCounters) -> dict:
    avg, std, most = _moments(g.evasive_techniques)
    return {
        "total": g.total,
        "started": g.started,
        "active_pct": _pct(g.active, g.started),
        "evasive_pct": _pct(sum(g.evasive_techniques.values()), g.started),
        "active_and_evasive_pct": _pct(g.active_and_evasive, g.started),
        "avg_techniques": avg,
        "std_techniques": std,
        "max_techniques": most,
        "internet_pct": _pct(g.internet, g.started),
        "child_process_pct": _pct(g.child_process, g.started),
    }


def _packer_stats(g: _GroupCounters) -> dict:
    avg, std, _ = _moments(g.protected_techniques)
    return {
        "started": g.started,
        "packed_over_started_pct": _pct(g.packed, g.started),
        "evasive_over_packed_pct": _pct(g.packed_evasive, g.packed),
        "protected_over_started_pct": _pct(g.protected, g.started),
        "evasive_over_protected_pct":
            _pct(sum(g.protected_techniques.values()), g.protected),
        "packed_category_prevalence_pct": {
            cat: _pct(n, g.packed)
            for cat, n in sorted(g.packed_categories.items())
        },
        "protected_avg_techniques": avg,
        "protected_std_techniques": std,
    }


def _timeline(acc: CorpusAccumulator) -> dict:
    evasive_n = sum(acc.first_hist.values())

    def hist(d):
        return {str(k): d[k] for k in sorted(d)}

    def share(d, keep):
        return _pct(sum(v for k, v in d.items() if keep(k)), evasive_n)

    slots = {}
    for slot in TIMELINE_SLOTS:
        counts = acc.slot_first_category[slot]
        total = sum(counts.values())
        top = sorted(counts.items(), key=lambda it: (-it[1], it[0]))[:3]
        slots[slot] = {
            "samples": total,
            "top_categories": [
                {"category": cat, "share_pct": _pct(n, total)}
                for cat, n in top
            ],
        }
    return {
        "evasive_samples": evasive_n,
        "first_hist": hist(acc.first_hist),
        "last_hist": hist(acc.last_hist),
        "diff_hist": hist(acc.diff_hist),
        "first_in_0_10_pct": share(acc.first_hist, lambda k: k <= 10),
        "last_in_0_10_pct": share(acc.last_hist, lambda k: k <= 10),
        "last_in_90_100_pct": share(acc.last_hist, lambda k: k >= 90),
        "slots": slots,
    }


def _order(first: Counter[str]) -> dict:
    """Shares of the first category of multi-category samples, over all
    of them and over those whose first category is not AntiDebug."""
    total = sum(first.values())
    result = {
        "multi_category_samples": total,
        "first_category_shares": {},
        "non_antidebug_first_shares": {},
    }
    if total == 0:
        result["flag"] = "no multi-category samples"
        return result
    result["first_category_shares"] = {
        cat: 100.0 * n / total for cat, n in sorted(first.items())
    }
    others = {cat: n for cat, n in sorted(first.items())
              if cat != catalog.CAT_ANTI_DEBUG}
    others_total = sum(others.values())
    if others_total:
        result["non_antidebug_first_shares"] = {
            cat: 100.0 * n / others_total for cat, n in others.items()
        }
    return result


def _footprints(family_evasive: Counter[str],
                family_techniques: dict[str, Counter[str]]) -> dict:
    return {
        family: {
            "techniques": sorted(
                tech for tech, n in family_techniques[family].items()
                if n == samples),
            "evasive_samples": samples,
        }
        for family, samples in sorted(family_evasive.items())
    }


def _footprint_summary(footprints: dict) -> dict:
    nonempty = sum(1 for fp in footprints.values() if fp["techniques"])
    return {
        "families_with_evasive_sample": len(footprints),
        "families_with_nonempty_footprint": nonempty,
        "nonempty_pct": _pct(nonempty, len(footprints)),
    }


# ---------------------------------------------------------------------------
# spec-level operations

def aggregate_reports(reports: list[SampleReport], group_by: str) -> dict:
    """The summary document of a report list."""
    if not reports:
        raise ValueError("no reports to aggregate")
    acc = CorpusAccumulator(group_by)
    for report in reports:
        acc.add(report)
    return acc.finalize()


# ---------------------------------------------------------------------------
# rendering

def _fmt(value, digits):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


# (row label, column value key, digits) per table
CORE_ROWS = (
    ("Started", "started", 0),
    ("Active %", "active_pct", 1),
    ("Evasive %", "evasive_pct", 1),
    ("Active & Evasive %", "active_and_evasive_pct", 1),
    ("AVG N. of Techniques", "avg_techniques", 2),
    ("STD N. of Techniques", "std_techniques", 2),
    ("MAX N. of Techniques", "max_techniques", 0),
    ("Internet Connection %", "internet_pct", 1),
    ("Child Process %", "child_process_pct", 1),
)

PACKER_ROWS = (
    ("Started", "started", 0),
    ("Packed/Started %", "packed_over_started_pct", 1),
    ("Evasive/Packed %", "evasive_over_packed_pct", 1),
    ("Protected/Started %", "protected_over_started_pct", 1),
    ("Evasive/Protected %", "evasive_over_protected_pct", 1),
    ("Protected AVG Techniques", "protected_avg_techniques", 2),
    ("Protected STD Techniques", "protected_std_techniques", 2),
)


def _render_table(columns: dict[str, dict], rows, fmt: str) -> str:
    """One column per group key, one row per (label, value key, digits)."""
    keys = list(columns)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric"] + keys)
        for label, attr, digits in rows:
            writer.writerow(
                [label] + [_fmt(columns[k][attr], digits) for k in keys])
        return buf.getvalue()
    label_w = max(len(r[0]) for r in rows)
    widths = [max(len(k), 10) for k in keys]
    lines = [" " * label_w + "  " + "  ".join(
        k.rjust(w) for k, w in zip(keys, widths))]
    for label, attr, digits in rows:
        cells = [_fmt(columns[k][attr], digits).rjust(w)
                 for k, w in zip(keys, widths)]
        lines.append(label.ljust(label_w) + "  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def render_core_table(summary: dict, fmt: str) -> str:
    return _render_table(summary["groups"], CORE_ROWS, fmt)


def render_packer_table(summary: dict, fmt: str) -> str:
    return _render_table(summary["packers"], PACKER_ROWS, fmt)


def render_summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"

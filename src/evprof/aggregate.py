"""Corpus-level statistics over per-sample reports.

All percentages are computed over the number of started samples of the
relevant group. Aggregation is a pure fold with an associative merge, so
report sets can be combined in any order or in parallel: every counter is
an integer until finalization and variance uses the exact integer identity
n*var = (n*sumsq - sum^2) / n, which makes results independent of merge
order.

The evasive footprint of a family is the intersection of the technique
sets of its evasive samples; families without any evasive sample are
omitted. Intersecting over non-evasive (empty-set) samples would force
every footprint empty, so they do not participate.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field

from . import catalog
from .profiler import SampleReport, TIMELINE_SLOTS, timeline_slot


class AggregateError(Exception):
    pass


class LabelError(Exception):
    pass


LABEL_COLUMNS = ("sample_id", "family", "year", "packer", "protector")


def load_labels(path) -> dict[str, dict[str, str]]:
    """Load the sample label file (CSV with a header row)."""
    labels: dict[str, dict[str, str]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "sample_id" not in reader.fieldnames:
            raise LabelError(f"{path}: missing sample_id column")
        for row in reader:
            sid = row["sample_id"]
            if sid in labels:
                raise LabelError(f"{path}: duplicate sample_id {sid!r}")
            labels[sid] = {
                k: row.get(k, "") or "" for k in LABEL_COLUMNS[1:]
            }
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
class _IntStats:
    n: int = 0
    total: int = 0
    total_sq: int = 0
    max: int | None = None

    def add(self, value: int) -> None:
        self.n += 1
        self.total += value
        self.total_sq += value * value
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "_IntStats") -> None:
        self.n += other.n
        self.total += other.total
        self.total_sq += other.total_sq
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def mean(self) -> float | None:
        return self.total / self.n if self.n else None

    def pstd(self) -> float | None:
        if not self.n:
            return None
        return math.sqrt(self.n * self.total_sq - self.total * self.total) / self.n


@dataclass
class _GroupCounters:
    total: int = 0
    started: int = 0
    active: int = 0
    evasive: int = 0
    active_and_evasive: int = 0
    internet: int = 0
    child_process: int = 0
    evasive_techniques: _IntStats = field(default_factory=_IntStats)
    category_samples: Counter[str] = field(default_factory=Counter)
    packed: int = 0
    packed_evasive: int = 0
    packed_categories: Counter[str] = field(default_factory=Counter)
    protected: int = 0
    protected_evasive: int = 0
    protected_techniques: _IntStats = field(default_factory=_IntStats)

    def merge(self, other: "_GroupCounters") -> None:
        for name, theirs in vars(other).items():
            setattr(self, name, _merge(getattr(self, name), theirs))


@dataclass
class _Footprint:
    techniques: set[str]
    evasive_samples: int

    def merge(self, other: "_Footprint") -> None:
        self.techniques &= other.techniques
        self.evasive_samples += other.evasive_samples


def _merge(mine, theirs):
    """Fold two partial values of one fold-state field: ints add, dicts
    merge per key (a key only in ``theirs`` is taken as it is), and anything
    else folds through its own ``merge``."""
    if isinstance(mine, int):
        return mine + theirs
    if isinstance(mine, dict):
        for key, value in theirs.items():
            mine[key] = _merge(mine[key], value) if key in mine else value
        return mine
    mine.merge(theirs)
    return mine


def _pct(count: int, denom: int) -> float | None:
    return 100.0 * count / denom if denom else None


class CorpusAccumulator:
    """Mergeable fold state over sample reports."""

    def __init__(self, group_by: str = "dataset"):
        if group_by not in ("dataset", "year", "family"):
            raise AggregateError(f"unsupported group_by {group_by!r}")
        self.group_by = group_by
        self.groups: dict[str, _GroupCounters] = {}
        self.started_total = 0
        self.technique_samples: Counter[str] = Counter()
        self.first_hist: Counter[int] = Counter()
        self.last_hist: Counter[int] = Counter()
        self.diff_hist: Counter[int] = Counter()
        self.slot_first_category: dict[str, Counter[str]] = {
            s: Counter() for s in TIMELINE_SLOTS}
        self.multi_category_total = 0
        self.first_category_counts: Counter[str] = Counter()
        self.non_antidebug_total = 0
        self.non_antidebug_first: Counter[str] = Counter()
        self.footprints: dict[str, _Footprint] = {}

    def add(self, report: SampleReport) -> None:
        key = report.labels.get(self.group_by, "") or "unlabeled"
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = _GroupCounters()
        group.total += 1
        if not report.started:
            return
        group.started += 1
        self.started_total += 1
        if report.active:
            group.active += 1
        if report.evasive:
            group.evasive += 1
            if report.active:
                group.active_and_evasive += 1
            group.evasive_techniques.add(report.techniques_count)
        if report.internet:
            group.internet += 1
        if report.child_process:
            group.child_process += 1

        categories = set()
        for technique in report.technique_set:
            self.technique_samples[technique] += 1
            categories.add(catalog.rule(technique).category)
        for cat in categories:
            group.category_samples[cat] += 1

        packer = report.labels.get("packer", "")
        protector = report.labels.get("protector", "")
        if packer:
            group.packed += 1
            if report.evasive:
                group.packed_evasive += 1
            for cat in categories:
                group.packed_categories[cat] += 1
        if protector:
            group.protected += 1
            if report.evasive:
                group.protected_evasive += 1
                group.protected_techniques.add(report.techniques_count)

        if report.evasive:
            self._add_timeline(report)
            self._add_order(report)
            family = report.labels.get("family", "")
            if family:
                fp = self.footprints.get(family)
                techniques = set(report.technique_set)
                if fp is None:
                    self.footprints[family] = _Footprint(techniques, 1)
                else:
                    fp.merge(_Footprint(techniques, 1))

    def _add_timeline(self, report: SampleReport) -> None:
        first = report.first_pos
        last = report.last_pos
        self.first_hist[int(first)] += 1
        self.last_hist[int(last)] += 1
        self.diff_hist[int(last - first)] += 1

        counted = set(report.technique_set)
        seen_slots = set()
        for d in report.detections:
            if d.technique not in counted:
                continue
            slot = timeline_slot(d.normalized_pos)
            if slot in seen_slots:
                continue
            seen_slots.add(slot)
            self.slot_first_category[slot][d.category] += 1

    def _add_order(self, report: SampleReport) -> None:
        cats = report.categories_in_order
        if len(cats) < 2:
            return
        self.multi_category_total += 1
        first = cats[0]
        self.first_category_counts[first] += 1
        if first != catalog.CAT_ANTI_DEBUG:
            self.non_antidebug_total += 1
            self.non_antidebug_first[first] += 1

    def merge(self, other: "CorpusAccumulator") -> None:
        if other.group_by != self.group_by:
            raise AggregateError("cannot merge accumulators with different grouping")
        for name, theirs in vars(other).items():
            if name != "group_by":
                setattr(self, name, _merge(getattr(self, name), theirs))

    def finalize(self) -> "CorpusAggregate":
        return CorpusAggregate(self)


# ---------------------------------------------------------------------------
# finalized views

@dataclass
class GroupStats:
    group: str
    total: int
    started: int
    active_pct: float | None
    evasive_pct: float | None
    active_and_evasive_pct: float | None
    avg_techniques: float | None
    std_techniques: float | None
    max_techniques: int | None
    internet_pct: float | None
    child_process_pct: float | None


class CorpusAggregate:
    def __init__(self, acc: CorpusAccumulator):
        self._acc = acc
        self.group_by = acc.group_by
        self.diagnostics: list[str] = []
        self.groups: dict[str, GroupStats] = {}
        for key in sorted(acc.groups):
            g = acc.groups[key]
            if g.started == 0:
                self.diagnostics.append(
                    f"group {key!r}: no started samples, percentages undefined")
            self.groups[key] = GroupStats(
                group=key, total=g.total, started=g.started,
                active_pct=_pct(g.active, g.started),
                evasive_pct=_pct(g.evasive, g.started),
                active_and_evasive_pct=_pct(g.active_and_evasive, g.started),
                avg_techniques=g.evasive_techniques.mean(),
                std_techniques=g.evasive_techniques.pstd(),
                max_techniques=g.evasive_techniques.max,
                internet_pct=_pct(g.internet, g.started),
                child_process_pct=_pct(g.child_process, g.started),
            )

    # -- rankings ---------------------------------------------------------

    def technique_ranking(self, top_n: int | None = None
                          ) -> list[tuple[str, float]]:
        """Techniques by share of started samples using them, descending;
        ties break lexicographically by id."""
        started = self._acc.started_total
        if not started:
            return []
        ranked = sorted(
            ((tech, 100.0 * count / started)
             for tech, count in self._acc.technique_samples.items()),
            key=lambda item: (-item[1], item[0]))
        return ranked[:top_n] if top_n else ranked

    # -- timelines ----------------------------------------------------------

    def timeline(self) -> dict:
        acc = self._acc
        evasive_n = sum(acc.first_hist.values())

        def hist(d):
            return {str(k): d[k] for k in sorted(d)}

        def share_le(d, bound):
            return _pct(sum(v for k, v in d.items() if k <= bound), evasive_n)

        def share_ge(d, bound):
            return _pct(sum(v for k, v in d.items() if k >= bound), evasive_n)

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
            "first_in_0_10_pct": share_le(acc.first_hist, 10),
            "last_in_0_10_pct": share_le(acc.last_hist, 10),
            "last_in_90_100_pct": share_ge(acc.last_hist, 90),
            "slots": slots,
        }

    # -- order of appearance ---------------------------------------------------

    def order_stats(self) -> dict:
        acc = self._acc
        total = acc.multi_category_total
        result = {
            "multi_category_samples": total,
            "first_category_shares": {},
            "non_antidebug_first_shares": {},
        }
        if total == 0:
            result["flag"] = "no multi-category samples"
            return result
        result["first_category_shares"] = {
            cat: 100.0 * n / total
            for cat, n in sorted(acc.first_category_counts.items())
        }
        if acc.non_antidebug_total:
            result["non_antidebug_first_shares"] = {
                cat: 100.0 * n / acc.non_antidebug_total
                for cat, n in sorted(acc.non_antidebug_first.items())
            }
        return result

    # -- footprints ----------------------------------------------------------

    def evasive_footprint(self) -> dict[str, dict]:
        return {
            family: {
                "techniques": sorted(fp.techniques),
                "evasive_samples": fp.evasive_samples,
            }
            for family, fp in sorted(self._acc.footprints.items())
        }

    def footprint_summary(self) -> dict:
        fps = self._acc.footprints
        nonempty = sum(1 for fp in fps.values() if fp.techniques)
        return {
            "families_with_evasive_sample": len(fps),
            "families_with_nonempty_footprint": nonempty,
            "nonempty_pct": _pct(nonempty, len(fps)),
        }

    # -- packers / protectors ----------------------------------------------

    def packer_stats(self) -> dict[str, dict]:
        out = {}
        for key in sorted(self._acc.groups):
            g = self._acc.groups[key]
            out[key] = {
                "started": g.started,
                "packed_over_started_pct": _pct(g.packed, g.started),
                "evasive_over_packed_pct": _pct(g.packed_evasive, g.packed),
                "protected_over_started_pct": _pct(g.protected, g.started),
                "evasive_over_protected_pct":
                    _pct(g.protected_evasive, g.protected),
                "packed_category_prevalence_pct": {
                    cat: _pct(n, g.packed)
                    for cat, n in sorted(g.packed_categories.items())
                },
                "protected_avg_techniques": g.protected_techniques.mean(),
                "protected_std_techniques": g.protected_techniques.pstd(),
            }
        return out

    # -- plot-ready series -----------------------------------------------------

    def category_prevalence(self) -> dict[str, dict[str, float]]:
        """Per group: share of started samples using each category."""
        out = {}
        for key in sorted(self._acc.groups):
            g = self._acc.groups[key]
            out[key] = {
                cat: _pct(g.category_samples[cat], g.started)
                for cat in catalog.CATEGORIES
            }
        return out

    def summary_document(self) -> dict:
        return {
            "group_by": self.group_by,
            "groups": {
                key: {k: v for k, v in vars(s).items() if k != "group"}
                for key, s in self.groups.items()
            },
            "technique_ranking": [
                {"technique": t, "share_pct": share}
                for t, share in self.technique_ranking()
            ],
            "timeline": self.timeline(),
            "order": self.order_stats(),
            "footprints": self.evasive_footprint(),
            "footprint_summary": self.footprint_summary(),
            "packers": self.packer_stats(),
            "category_prevalence": self.category_prevalence(),
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# spec-level operations

def aggregate_reports(reports: list[SampleReport],
                      group_by: str = "dataset") -> CorpusAggregate:
    if not reports:
        raise AggregateError("no reports to aggregate")
    acc = CorpusAccumulator(group_by)
    for report in reports:
        acc.add(report)
    return acc.finalize()


def behavior_diff(report_a: SampleReport, report_b: SampleReport) -> dict:
    """Compare two runs of one sample under different configurations."""
    if report_a.sample_id != report_b.sample_id:
        raise AggregateError(
            f"behavior diff needs two runs of one sample, got "
            f"{report_a.sample_id!r} and {report_b.sample_id!r}")
    return {
        "same_techniques":
            set(report_a.technique_set) == set(report_b.technique_set),
        "same_visible_effects":
            report_a.visible_api_counts == report_b.visible_api_counts,
    }


# ---------------------------------------------------------------------------
# rendering

def _fmt(value, digits=2):
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


def render_core_table(aggregate: CorpusAggregate, fmt: str = "text") -> str:
    columns = {key: vars(stats) for key, stats in aggregate.groups.items()}
    return _render_table(columns, CORE_ROWS, fmt)


def render_packer_table(aggregate: CorpusAggregate, fmt: str = "text") -> str:
    return _render_table(aggregate.packer_stats(), PACKER_ROWS, fmt)


def render_summary_json(aggregate: CorpusAggregate) -> str:
    return json.dumps(aggregate.summary_document(), indent=2,
                      sort_keys=True) + "\n"

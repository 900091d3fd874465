"""Corpus aggregation against hand oracles and brute-force recounts."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from evprof.aggregate import (
    CorpusAccumulator, aggregate_reports, apply_labels,
    load_labels,
)
from evprof import catalog
from evprof.catalog import DetectionRecord
from evprof.profiler import SampleReport, counted_detections, derived_fields

import oracles
from helpers import behavior_diff


def make_report(sample_id="s", started=True, active=True, techniques=(),
                positions=None, labels=None, internet=False, child=False,
                visible=None):
    techniques = list(techniques)
    report = SampleReport(
        sample_id=sample_id, labels=dict(labels or {}),
        native_api_count=(50 if active else 1) if started else 0,
        technique_set=sorted(set(techniques)), internet=internet,
        child_process=child, visible_api_counts=dict(visible or {}))
    positions = positions or list(range(10, 10 + 10 * len(techniques), 10))
    for tech, pos in zip(techniques, positions):
        report.detections.append(DetectionRecord(
            technique=tech, category=catalog.rule(tech).category,
            seq=int(pos), pid=1, tid=1, normalized_pos=float(pos)))
    report.detections.sort(key=lambda d: d.seq)
    vars(report).update(derived_fields(
        report.native_api_count, report.technique_set,
        counted_detections(report.detections, report.technique_set)))
    return report


# -- core metrics --------------------------------------------------------------

def test_avg_std_max_hand_oracle():
    reports = [
        make_report("a", techniques=["RDTSC"]),
        make_report("b", techniques=["RDTSC", "idt_trick"]),
        make_report("c", techniques=["RDTSC", "idt_trick", "HeapFlags"]),
    ]
    for r in reports:
        r.labels["dataset"] = "d1"
    stats = aggregate_reports(reports, "dataset")["groups"]["d1"]
    assert stats["started"] == 3
    assert stats["avg_techniques"] == pytest.approx(2.0)
    assert stats["std_techniques"] == pytest.approx(0.816496580927726)
    assert stats["max_techniques"] == 3
    assert stats["evasive_pct"] == pytest.approx(100.0)


def test_all_non_started_group_flagged_undefined():
    reports = [make_report("a", started=False, active=False),
               make_report("b", started=False, active=False)]
    agg = aggregate_reports(reports, "dataset")
    stats = agg["groups"]["unlabeled"]
    assert stats["started"] == 0
    assert stats["active_pct"] is None
    assert agg["diagnostics"]


def test_percentages_over_started_only():
    reports = [
        make_report("a", started=False, active=False),
        make_report("b", techniques=["RDTSC"]),
        make_report("c"),
    ]
    stats = aggregate_reports(reports, "dataset")["groups"]["unlabeled"]
    assert stats["total"] == 3
    assert stats["started"] == 2
    assert stats["evasive_pct"] == pytest.approx(50.0)


def test_empty_report_list_rejected():
    with pytest.raises(ValueError):
        aggregate_reports([], "dataset")


def test_bad_group_by_rejected():
    with pytest.raises(ValueError):
        CorpusAccumulator("color")


# -- ranking -----------------------------------------------------------------

def test_single_sample_single_technique_ranking():
    ranking = aggregate_reports([make_report("a", techniques=["RDTSC"])],
                                "dataset")["technique_ranking"]
    assert ranking == [{"technique": "RDTSC", "share_pct": 100.0}]


def test_ranking_tie_breaks_lexicographically():
    reports = [
        make_report("a", techniques=["idt_trick"]),
        make_report("b", techniques=["HeapFlags"]),
        make_report("c"),
        make_report("d", techniques=["RDTSC", "HeapFlags"]),
    ]
    ranking = aggregate_reports(reports, "dataset")["technique_ranking"]
    assert ranking[0] == {"technique": "HeapFlags", "share_pct": 50.0}
    assert ranking[1:] == [{"technique": "RDTSC", "share_pct": 25.0},
                           {"technique": "idt_trick", "share_pct": 25.0}]


# -- timeline -------------------------------------------------------------------

def test_first_last_diff_from_positions():
    reports = [make_report("a", techniques=["RDTSC", "HeapFlags"],
                           positions=[5, 50])]
    t = aggregate_reports(reports, "dataset")["timeline"]
    assert t["first_hist"] == {"5": 1}
    assert t["last_hist"] == {"50": 1}
    assert t["diff_hist"] == {"45": 1}
    assert t["first_in_0_10_pct"] == 100.0


def test_first_share_counts_slot_boundary():
    reports = [
        make_report("a", techniques=["RDTSC"], positions=[10]),
        make_report("b", techniques=["RDTSC"], positions=[11]),
        make_report("c", techniques=["RDTSC"], positions=[95]),
        make_report("d", techniques=["RDTSC"], positions=[3]),
    ]
    t = aggregate_reports(reports, "dataset")["timeline"]
    assert t["first_in_0_10_pct"] == pytest.approx(50.0)
    assert t["last_in_90_100_pct"] == pytest.approx(25.0)


def test_slot_top_categories_hand_counted():
    reports = [
        make_report("a", techniques=["IsDebuggerPresentAPI"], positions=[4]),
        make_report("b", techniques=["IsDebuggerPresentPEB"], positions=[6]),
        make_report("c", techniques=["idt_trick"], positions=[8]),
        make_report("d", techniques=["RDTSC"], positions=[50]),
    ]
    t = aggregate_reports(reports, "dataset")["timeline"]
    slot = t["slots"]["[0-10]"]
    assert slot["samples"] == 3
    assert slot["top_categories"][0] == {
        "category": "AntiDebug", "share_pct": pytest.approx(200 / 3)}
    mid = t["slots"]["[11-89]"]
    assert mid["top_categories"][0]["category"] == "TimingAttacks"


# -- order of appearance --------------------------------------------------------

def test_order_stats_hand_oracle():
    reports = []
    for i in range(8):
        reports.append(make_report(
            f"ad{i}", techniques=["IsDebuggerPresentAPI", "RDTSC"],
            positions=[5, 40]))
    for i in range(2):
        reports.append(make_report(
            f"vm{i}", techniques=["idt_trick", "HeapFlags"],
            positions=[5, 40]))
    stats = aggregate_reports(reports, "dataset")["order"]
    assert stats["multi_category_samples"] == 10
    assert stats["first_category_shares"]["AntiDebug"] == pytest.approx(80.0)
    assert stats["first_category_shares"]["VMChecks"] == pytest.approx(20.0)
    assert stats["non_antidebug_first_shares"] == {"VMChecks": 100.0}


def test_single_multi_category_sample():
    reports = [make_report("a", techniques=["RDTSC", "HeapFlags"],
                           positions=[5, 50])]
    stats = aggregate_reports(reports, "dataset")["order"]
    assert stats["first_category_shares"] == {"TimingAttacks": 100.0}
    assert stats["non_antidebug_first_shares"] == \
        {"TimingAttacks": 100.0}


def test_no_multi_category_samples_flagged():
    stats = aggregate_reports([make_report("a", techniques=["RDTSC"])],
                              "dataset")["order"]
    assert stats["multi_category_samples"] == 0
    assert "flag" in stats


# -- footprints -----------------------------------------------------------------

def test_footprint_intersection():
    reports = [
        make_report("a", techniques=["IsDebuggerPresentAPI", "RDTSC"],
                    labels={"family": "fam"}),
        make_report("b", techniques=["IsDebuggerPresentAPI", "idt_trick"],
                    labels={"family": "fam"}),
    ]
    fp = aggregate_reports(reports, "family")["footprints"]
    assert fp["fam"]["techniques"] == ["IsDebuggerPresentAPI"]
    assert fp["fam"]["evasive_samples"] == 2


def test_disjoint_sets_empty_footprint_family_still_counted():
    reports = [
        make_report("a", techniques=["RDTSC"], labels={"family": "fam"}),
        make_report("b", techniques=["idt_trick"], labels={"family": "fam"}),
    ]
    agg = aggregate_reports(reports, "family")
    assert agg["footprints"]["fam"]["techniques"] == []
    summary = agg["footprint_summary"]
    assert summary["families_with_evasive_sample"] == 1
    assert summary["families_with_nonempty_footprint"] == 0


def test_family_without_evasive_samples_omitted():
    reports = [
        make_report("a", labels={"family": "quiet"}),
        make_report("b", techniques=["RDTSC"], labels={"family": "loud"}),
    ]
    fp = aggregate_reports(reports, "family")["footprints"]
    assert "quiet" not in fp and "loud" in fp


def test_footprint_monotone_under_new_samples():
    base = [
        make_report("a", techniques=["RDTSC", "HeapFlags"],
                    labels={"family": "fam"}),
        make_report("b", techniques=["RDTSC", "HeapFlags", "idt_trick"],
                    labels={"family": "fam"}),
    ]
    before = set(aggregate_reports(base, "family")
                 ["footprints"]["fam"]["techniques"])
    extended = base + [make_report("c", techniques=["RDTSC"],
                                   labels={"family": "fam"})]
    after = set(aggregate_reports(extended, "family")
                ["footprints"]["fam"]["techniques"])
    assert after <= before


# -- packers ---------------------------------------------------------------------

def test_packer_ratios_hand_oracle():
    reports = []
    for i in range(10):
        labels = {"dataset": "d"}
        if i < 2:
            labels["packer"] = "upx"
        reports.append(make_report(
            f"s{i}", techniques=["ErasePEHeader"] if i == 0 else [],
            labels=labels))
    agg = aggregate_reports(reports, "dataset")
    stats = agg["packers"]["d"]
    assert stats["packed_over_started_pct"] == pytest.approx(20.0)
    assert stats["evasive_over_packed_pct"] == pytest.approx(50.0)
    assert stats["packed_category_prevalence_pct"]["AntiDump"] == \
        pytest.approx(50.0)


def test_unlabeled_samples_neither_packed_nor_protected():
    reports = [make_report("a", techniques=["RDTSC"])]
    stats = aggregate_reports(reports, "dataset")["packers"]["unlabeled"]
    assert stats["packed_over_started_pct"] == 0.0
    assert stats["evasive_over_packed_pct"] is None


# -- behavior diff -----------------------------------------------------------------

def test_behavior_diff_identity():
    a = make_report("x", techniques=["RDTSC"],
                    visible={"NtWriteFile": 3, "connect": 1})
    b = make_report("x", techniques=["RDTSC"],
                    visible={"NtWriteFile": 3, "connect": 1})
    assert behavior_diff(a, b) == {"same_techniques": True,
                                   "same_visible_effects": True}


def test_behavior_diff_missing_activity():
    a = make_report("x", techniques=["RDTSC"], visible={"NtWriteFile": 3})
    b = make_report("x", techniques=["RDTSC"], visible={})
    diff = behavior_diff(a, b)
    assert diff["same_techniques"] is True
    assert diff["same_visible_effects"] is False


def test_behavior_diff_multiset_not_set():
    a = make_report("x", visible={"NtWriteFile": 3})
    b = make_report("x", visible={"NtWriteFile": 2})
    assert behavior_diff(a, b)["same_visible_effects"] is False


def test_behavior_diff_rejects_different_samples():
    with pytest.raises(ValueError):
        behavior_diff(make_report("x"), make_report("y"))


# -- labels ---------------------------------------------------------------------

def test_load_and_apply_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "sample_id,family,year,packer,protector\n"
        "a,fam1,2019,upx,\n"
        "b,fam2,2020,,themida\n")
    labels = load_labels(path)
    reports = [make_report("a"), make_report("b"), make_report("c")]
    misses = apply_labels(reports, labels)
    assert misses == 1
    assert reports[0].labels["packer"] == "upx"
    assert reports[1].labels["protector"] == "themida"
    assert "packer" not in reports[2].labels


def test_label_file_with_a_byte_order_mark_joins_as_one_without(tmp_path):
    # a spreadsheet may save the file with a BOM before "sample_id"
    text = ("sample_id,family,year,packer,protector\n"
            "a,fam1,2019,upx,\n")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    joins = []
    for path in (plain, marked):
        reports = [make_report("a"), make_report("b")]
        misses = apply_labels(reports, load_labels(path))
        joins.append((misses, [r.labels for r in reports]))
    assert joins[0] == joins[1]
    assert joins[0][0] == 1 and joins[0][1][0]["family"] == "fam1"


def test_duplicate_label_rows_rejected(tmp_path):
    from evprof.trace import TraceError
    path = tmp_path / "labels.csv"
    path.write_text("sample_id,family,year,packer,protector\n"
                    "a,f,2019,,\na,f,2019,,\n")
    with pytest.raises(TraceError):
        load_labels(path)


def test_generated_label_file_reads_back_every_label(tmp_path):
    from evprof.generate import GenSpec, write_corpus
    labels = (("family", 'a,b "c"'), ("year", "2019"), ("packer", "x\ny"))
    write_corpus([GenSpec(sample_id="s1", filler=1, labels=labels),
                  GenSpec(sample_id="s2", filler=1)], tmp_path)
    assert load_labels(tmp_path / "labels.csv") == {
        "s1": {"family": 'a,b "c"', "year": "2019", "packer": "x\ny",
               "protector": ""}}


# -- brute force equivalence on the synthetic corpus ---------------------------

def corpus_reports(seed=7, size=40):
    import random
    rng = random.Random(seed)
    pool = ["RDTSC", "HeapFlags", "idt_trick", "IsDebuggerPresentAPI",
            "ErasePEHeader", "process_enum", "time_stalling"]
    reports = []
    for i in range(size):
        k = rng.randrange(0, 4)
        techs = rng.sample(pool, k)
        positions = sorted(rng.randrange(0, 101) for _ in range(k))
        labels = {
            "dataset": rng.choice(["d1", "d2"]),
            "family": rng.choice(["f1", "f2", "f3"]),
            "year": rng.choice(["2016", "2020"]),
        }
        if rng.random() < 0.3:
            labels["packer"] = "upx"
        if rng.random() < 0.2:
            labels["protector"] = "themida"
        reports.append(make_report(
            f"s{i}", started=rng.random() > 0.1, techniques=techs,
            positions=positions, labels=labels,
            internet=rng.random() < 0.3, child=rng.random() < 0.3))
    return reports


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = st.integers(min_value=1, max_value=40)


def assert_float_eq(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        assert set(a) == set(b), f"{path}: keys {set(a)} != {set(b)}"
        for k in a:
            assert_float_eq(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, float) and isinstance(b, (float, int)):
        assert b is not None and math.isclose(a, b, abs_tol=1e-9), \
            f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def over_corpora(test):
    """Run ``test(seed, size)`` on the seed-7 corpus of 40 reports and on
    corpora of hypothesis-drawn seed and size."""
    return settings(max_examples=50, deadline=None)(
        example(seed=7, size=40)(given(seed=SEEDS, size=SIZES)(test)))


@over_corpora
def test_group_stats_match_brute_force(seed, size):
    reports = corpus_reports(seed, size)
    for group_by in ("dataset", "year", "family"):
        mine = aggregate_reports(reports, group_by)["groups"]
        theirs = oracles.oracle_group_stats(reports, group_by)
        assert set(mine) == set(theirs)
        for key, stats in mine.items():
            o = theirs[key]
            assert stats["started"] == o["started"]
            assert stats["total"] == o["total"]
            for attr in ("active_pct", "evasive_pct",
                         "active_and_evasive_pct", "avg_techniques",
                         "std_techniques", "internet_pct",
                         "child_process_pct"):
                got = stats[attr]
                want = o[attr]
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-9)
            assert stats["max_techniques"] == o["max_techniques"]


@over_corpora
def test_ranking_matches_brute_force(seed, size):
    reports = corpus_reports(seed, size)
    assert aggregate_reports(reports, "dataset")["technique_ranking"] == [
        {"technique": tech, "share_pct": share}
        for tech, share in oracles.oracle_ranking(reports)]


@over_corpora
def test_timeline_matches_brute_force(seed, size):
    reports = corpus_reports(seed, size)
    mine = aggregate_reports(reports, "dataset")["timeline"]
    theirs = oracles.oracle_timeline(reports)
    assert mine["evasive_samples"] == theirs["evasive_samples"]
    for hist in ("first_hist", "last_hist", "diff_hist"):
        assert mine[hist] == {str(k): v for k, v in theirs[hist].items()}
    for key in ("first_in_0_10_pct", "last_in_0_10_pct",
                "last_in_90_100_pct"):
        assert mine[key] == pytest.approx(theirs[key], abs=1e-9)
    for slot, data in mine["slots"].items():
        counts = theirs["slot_counts"][slot]
        assert data["samples"] == sum(counts.values())
        for entry in data["top_categories"]:
            expected = 100.0 * counts[entry["category"]] / sum(counts.values())
            assert entry["share_pct"] == pytest.approx(expected, abs=1e-9)


@over_corpora
def test_order_matches_brute_force(seed, size):
    reports = corpus_reports(seed, size)
    mine = aggregate_reports(reports, "dataset")["order"]
    theirs = oracles.oracle_order(reports)
    assert mine["multi_category_samples"] == theirs["multi_category_samples"]
    assert_float_eq(mine["first_category_shares"],
                    theirs["first_category_shares"])
    assert_float_eq(mine["non_antidebug_first_shares"],
                    theirs["non_antidebug_first_shares"])


@over_corpora
def test_footprints_match_brute_force(seed, size):
    reports = corpus_reports(seed, size)
    assert aggregate_reports(reports, "family")["footprints"] == \
        oracles.oracle_footprints(reports)


@over_corpora
def test_packer_stats_match_brute_force(seed, size):
    reports = corpus_reports(seed, size)
    mine = aggregate_reports(reports, "dataset")["packers"]
    theirs = oracles.oracle_packer_stats(reports, "dataset")
    assert set(mine) == set(theirs)
    for key in mine:
        assert_float_eq(mine[key], theirs[key], key)

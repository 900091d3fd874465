"""Brute-force recomputations of every corpus statistic, and a list-scan
memory tracker.

These are written as direct loops over report lists, independent of the
accumulator in evprof.aggregate, to serve as the second implementation in
dual-route checks. Keep them dumb.
"""

import statistics

from evprof import catalog
from evprof.memory import (
    RED_REGION_KINDS, SIZE_OF_IMAGE_FIELD, SIZE_OF_IMAGE_WIDTH,
    PeWriteResult, RegionOverlapError, WatchPoint,
)
from evprof.trace import MEM_ACCESS_SIZES, Diagnostic


def groups_of(reports, group_by):
    out = {}
    for r in reports:
        key = r.labels.get(group_by, "") or "unlabeled"
        out.setdefault(key, []).append(r)
    return out


def oracle_group_stats(reports, group_by):
    result = {}
    for key, members in groups_of(reports, group_by).items():
        started = [r for r in members if r.started]
        n = len(started)
        evasive = [r for r in started if r.evasive]
        counts = [r.techniques_count for r in evasive]
        result[key] = {
            "total": len(members),
            "started": n,
            "active_pct": 100.0 * sum(r.active for r in started) / n
            if n else None,
            "evasive_pct": 100.0 * len(evasive) / n if n else None,
            "active_and_evasive_pct":
                100.0 * sum(1 for r in evasive if r.active) / n
                if n else None,
            "avg_techniques": statistics.mean(counts) if counts else None,
            "std_techniques": statistics.pstdev(counts) if counts else None,
            "max_techniques": max(counts) if counts else None,
            "internet_pct": 100.0 * sum(r.internet for r in started) / n
            if n else None,
            "child_process_pct":
                100.0 * sum(r.child_process for r in started) / n
                if n else None,
        }
    return result


def oracle_ranking(reports):
    started = [r for r in reports if r.started]
    n = len(started)
    counts = {}
    for r in started:
        for tech in r.technique_set:
            counts[tech] = counts.get(tech, 0) + 1
    ranked = sorted(((t, 100.0 * c / n) for t, c in counts.items()),
                    key=lambda it: (-it[1], it[0]))
    return ranked


def oracle_timeline(reports):
    evasive = [r for r in reports if r.started and r.evasive]
    first_hist, last_hist, diff_hist = {}, {}, {}
    slot_counts = {"[0-10]": {}, "[11-89]": {}, "[90-100]": {}}
    for r in evasive:
        f, l = int(r.first_pos), int(r.last_pos)
        first_hist[f] = first_hist.get(f, 0) + 1
        last_hist[l] = last_hist.get(l, 0) + 1
        d = int(r.last_pos - r.first_pos)
        diff_hist[d] = diff_hist.get(d, 0) + 1
        seen = set()
        for det in r.detections:
            if det.technique not in r.technique_set:
                continue
            p = int(det.normalized_pos)
            slot = "[0-10]" if p <= 10 else "[11-89]" if p <= 89 \
                else "[90-100]"
            if slot in seen:
                continue
            seen.add(slot)
            slot_counts[slot][det.category] = \
                slot_counts[slot].get(det.category, 0) + 1
    n = len(evasive)
    return {
        "evasive_samples": n,
        "first_hist": first_hist,
        "last_hist": last_hist,
        "diff_hist": diff_hist,
        "first_in_0_10_pct":
            100.0 * sum(v for k, v in first_hist.items() if k <= 10) / n
            if n else None,
        "last_in_0_10_pct":
            100.0 * sum(v for k, v in last_hist.items() if k <= 10) / n
            if n else None,
        "last_in_90_100_pct":
            100.0 * sum(v for k, v in last_hist.items() if k >= 90) / n
            if n else None,
        "slot_counts": slot_counts,
    }


def oracle_order(reports):
    multi = [r for r in reports
             if r.started and r.evasive and len(r.categories_in_order) >= 2]
    firsts = {}
    non_ad = {}
    for r in multi:
        first = r.categories_in_order[0]
        firsts[first] = firsts.get(first, 0) + 1
        if first != "AntiDebug":
            non_ad[first] = non_ad.get(first, 0) + 1
    n = len(multi)
    n_non = sum(non_ad.values())
    return {
        "multi_category_samples": n,
        "first_category_shares":
            {cat: 100.0 * c / n for cat, c in firsts.items()},
        "non_antidebug_first_shares":
            {cat: 100.0 * c / n_non for cat, c in non_ad.items()}
            if n_non else {},
    }


def oracle_footprints(reports):
    by_family = {}
    for r in reports:
        family = r.labels.get("family", "")
        if not family or not (r.started and r.evasive):
            continue
        techs = set(r.technique_set)
        if family in by_family:
            by_family[family] = (by_family[family][0] & techs,
                                 by_family[family][1] + 1)
        else:
            by_family[family] = (techs, 1)
    return {
        fam: {"techniques": sorted(techs), "evasive_samples": count}
        for fam, (techs, count) in by_family.items()
    }


def oracle_packer_stats(reports, group_by):
    result = {}
    for key, members in groups_of(reports, group_by).items():
        started = [r for r in members if r.started]
        packed = [r for r in started if r.labels.get("packer")]
        protected = [r for r in started if r.labels.get("protector")]
        packed_ev = [r for r in packed if r.evasive]
        prot_ev = [r for r in protected if r.evasive]
        cat_counts = {}
        for r in packed:
            cats = {catalog.rule(t).category for t in r.technique_set}
            for c in cats:
                cat_counts[c] = cat_counts.get(c, 0) + 1
        counts = [r.techniques_count for r in prot_ev]
        result[key] = {
            "started": len(started),
            "packed_over_started_pct":
                100.0 * len(packed) / len(started) if started else None,
            "evasive_over_packed_pct":
                100.0 * len(packed_ev) / len(packed) if packed else None,
            "protected_over_started_pct":
                100.0 * len(protected) / len(started) if started else None,
            "evasive_over_protected_pct":
                100.0 * len(prot_ev) / len(protected) if protected else None,
            "packed_category_prevalence_pct":
                {c: 100.0 * n / len(packed)
                 for c, n in cat_counts.items()},
            "protected_avg_techniques":
                statistics.mean(counts) if counts else None,
            "protected_std_techniques":
                statistics.pstdev(counts) if counts else None,
        }
    return result


def oracle_category_prevalence(reports, group_by):
    result = {}
    for key, members in groups_of(reports, group_by).items():
        started = [r for r in members if r.started]
        n = len(started)
        shares = {}
        for cat in catalog.CATEGORIES:
            c = sum(1 for r in started
                    if any(catalog.rule(t).category == cat
                           for t in r.technique_set))
            shares[cat] = 100.0 * c / n if n else None
        result[key] = shares
    return result


def oracle_visible_split(events, report):
    """Recount the split from raw trace events plus the report's detections."""
    visible = [ev.seq for ev in events
               if ev.kind == "api"
               and catalog.api_traits(ev.payload.name).externally_visible]
    counted = [d for d in report.detections if d.technique in
               set(report.technique_set)]
    if not counted or not visible:
        return {"before_first_pct": 0.0, "after_last_pct": 0.0,
                "defined": False}
    first = counted[0].seq
    last = counted[-1].seq
    return {
        "before_first_pct":
            100.0 * sum(1 for s in visible if s < first) / len(visible),
        "after_last_pct":
            100.0 * sum(1 for s in visible if s > last) / len(visible),
        "defined": True,
    }


class ListMemoryTracker:
    """evprof.memory.MemoryTracker's tables as plain lists scanned per call.

    Regions stay sorted by base (a re-sort after each insert), watchpoints
    and PE shadows stay in install order, and a PE shadow holds every byte
    of its header.
    """

    def __init__(self, watch_techniques=None):
        self._regions = {}
        self._watchpoints = {}
        self._pe_shadows = {}
        self._watch_techniques = dict(watch_techniques or {})
        self.diagnostics = []

    def register_region(self, region):
        if region.size <= 0:
            raise ValueError(f"region {region} has no extent")
        table = self._regions.setdefault(region.pid, [])
        for existing in table:
            if existing.overlaps(region.base, region.size):
                raise RegionOverlapError(region, existing)
        table.append(region)
        table.sort(key=lambda r: r.base)

    def free_region(self, pid, base, seq=0):
        table = self._regions.get(pid, [])
        for i, region in enumerate(table):
            if region.base == base:
                del table[i]
                if region.kind == "pe_header":
                    self._pe_shadows[pid] = [
                        s for s in self._pe_shadows.get(pid, [])
                        if s[0] != base]
                return
        self.diagnostics.append(
            Diagnostic(seq, f"region_free of unknown base 0x{base:x} pid {pid}"))

    def region_at(self, pid, address):
        for region in self._regions.get(pid, []):
            if region.contains(address):
                return region
        return None

    def regions(self, pid):
        return list(self._regions.get(pid, []))

    def regions_overlapping(self, pid, base, size):
        return [r for r in self._regions.get(pid, [])
                if r.overlaps(base, size)]

    def is_red(self, pid, address):
        region = self.region_at(pid, address)
        return region is not None and region.kind in RED_REGION_KINDS

    def register_pe_header(self, pid, base, data, size_of_image_addr=None,
                           size=None):
        data = bytearray(data)
        if size is not None:
            data += bytes(size - len(data))
        self._pe_shadows.setdefault(pid, []).append(
            (base, data, size_of_image_addr))

    def _shadow_for(self, pid, address):
        for shadow in self._pe_shadows.get(pid, []):
            if shadow[0] <= address < shadow[0] + len(shadow[1]):
                return shadow
        return None

    def pe_header_write(self, event):
        p = event.payload
        if p.size not in MEM_ACCESS_SIZES:
            return None
        shadow = self._shadow_for(event.pid, p.address)
        if shadow is None:
            return None
        base, data, soi = shadow
        changed = False
        for i in range(p.size):
            off = p.address + i - base
            b = (p.value >> (8 * i)) & 0xFF
            if 0 <= off < len(data) and data[off] != b:
                changed = True
                data[off] = b
        touches_soi = (soi is not None and p.address < soi + SIZE_OF_IMAGE_WIDTH
                       and soi < p.address + p.size)
        return PeWriteResult(changed,
                             SIZE_OF_IMAGE_FIELD if touches_soi else None)

    def pe_shadow_bytes(self, pid, base):
        for shadow in self._pe_shadows.get(pid, []):
            if shadow[0] == base:
                return bytes(shadow[1])
        return None

    def install_field_watchpoints(self, pid, refs, seq=0):
        table = self._watchpoints.setdefault(pid, [])
        installed = []
        for r in refs:
            name, addr, width = r.qualified, r.address, r.width
            for wp in table:
                if wp.live and wp.address == addr:
                    wp.live = False
                    self.diagnostics.append(Diagnostic(
                        seq, f"watchpoint at 0x{addr:x} ({wp.field}) replaced "
                             f"by new declaration of {name}"))
            wp = WatchPoint(pid, addr, width, name,
                            self._watch_techniques.get(name))
            table.append(wp)
            installed.append(wp)
        return installed

    def watchpoints(self, pid):
        return list(self._watchpoints.get(pid, []))

    def resolve_access(self, event):
        p = event.payload
        table = self._watchpoints.get(event.pid, [])
        if event.kind == "mem_write":
            for wp in table:
                if wp.live and wp.overlaps(p.address, p.size):
                    wp.live = False
            return []
        return [wp for wp in table if wp.live and wp.overlaps(p.address, p.size)]

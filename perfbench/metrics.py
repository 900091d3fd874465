"""The benchmark's metrics: one table, from which BENCHMARK.json is written.

Run ``python3 perfbench/metrics.py > BENCHMARK.json`` after changing a table.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35

# why each workload was chosen
WHY = {
    "big_trace": (
        "one ~22k-event trace through analyze: parsing dominates, over a "
        "thousand detections, tiny memory tables; codec, dispatch and RSS "
        "work, the bypass case for memory indexing"),
    "corpus": (
        "150 small labeled traces through batch at jobs 1 and N, then "
        "aggregate: per-file costs, pool scaling, report decode and folding"),
    "address_churn": (
        "1000 live exec regions with watched fields, then calls, reads/writes "
        "and frees: the memory tables dominate the run and grow "
        "quadratically"),
}

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("aggregate_reports_per_s", "1/s", "higher", 0.25),
    ("gen_events_per_s", "1/s", "higher", 0.25),
)

# Printed with the end-to-end metrics but not gated. Whether jobs N gains
# anything depends on whether other work on the host holds the other
# cores: over two 10-run sets on 2 vCPUs, corpus read 30-58k events/s at
# jobs 2 (spread 0.28, above the largest bound allowed) against 36-49k at
# jobs 1. cli.pool.overhead_s traces the pool itself.
REPORTED = (
    ("parallel_events_per_s", "1/s"),
)

# name, unit, the end-to-end metric and workload the layer should move
PER_LAYER = (
    ("trace.parse.events_per_s", "1/s",
     "events_per_s, peak_rss_mb on big_trace (most), then corpus"),
    ("trace.parse.self_share", "share",
     "events_per_s on big_trace, where parsing is the largest self time"),
    ("trace.validate.events_per_s", "1/s", "events_per_s on big_trace"),
    ("trace.serialize.events_per_s", "1/s", "gen_events_per_s"),
    ("generate.build.events_per_s", "1/s", "gen_events_per_s"),
    ("profiler.process.api.self_s", "s", "events_per_s on big_trace"),
    ("profiler.process.insn.self_s", "s", "events_per_s on big_trace"),
    ("profiler.process.mem.self_s", "s",
     "events_per_s on big_trace and address_churn"),
    ("profiler.process.region.self_s", "s",
     "events_per_s on address_churn"),
    ("profiler.process.control.self_s", "s", "events_per_s on corpus"),
    ("profiler.init.self_s", "s", "events_per_s on corpus"),
    ("profiler.finish.self_s", "s", "events_per_s on big_trace"),
    ("profiler.to_json.self_s", "s", "events_per_s on big_trace"),
    ("catalog.match_event.calls", "count", "events_per_s on big_trace"),
    ("catalog.match_event.self_s", "s", "events_per_s on big_trace"),
    ("catalog.detections_per_match", "ratio",
     "none: a count that must not move under refactors"),
    ("catalog.apply_mitigation.calls", "count",
     "none: a count that must not move under refactors"),
    ("memory.is_red.calls", "count",
     "events_per_s on address_churn, no change on big_trace"),
    ("memory.is_red.self_s", "s",
     "events_per_s on address_churn, no change on big_trace"),
    ("memory.is_red.red_share", "share",
     "none: the paper's red-area gate, must not move"),
    ("memory.register_region.self_s", "s", "events_per_s on address_churn"),
    ("memory.free_region.self_s", "s", "events_per_s on address_churn"),
    ("memory.install_watchpoints.self_s", "s",
     "events_per_s on address_churn"),
    ("memory.resolve_access.self_s", "s", "events_per_s on address_churn"),
    ("memory.watchpoint_hit_share", "share",
     "none: hits per read, must not move"),
    ("memory.pe_header_write.self_s", "s", "events_per_s on big_trace"),
    ("memory.self_s", "s", "events_per_s on address_churn"),
    ("memory.self_share", "share",
     "events_per_s on address_churn (majority), small on big_trace"),
    ("memory.live_regions.peak", "count", "none: state size"),
    ("memory.watchpoints.peak", "count", "none: state size"),
    ("memory.scaling_exponent", "slope",
     "events_per_s on address_churn; about 2 while the tables are scanned"),
    ("clock.calls", "count", "events_per_s on big_trace"),
    ("clock.self_s", "s", "events_per_s on big_trace"),
    ("injection.route.calls", "count", "events_per_s on big_trace"),
    ("injection.route.self_s", "s",
     "events_per_s on big_trace, then corpus"),
    ("injection.rerouted", "count",
     "none: a count that must not move under refactors"),
    ("aggregate.load.reports_per_s", "1/s",
     "aggregate_reports_per_s on corpus"),
    ("aggregate.add.reports_per_s", "1/s",
     "aggregate_reports_per_s on corpus"),
    ("aggregate.finalize_render.self_s", "s",
     "aggregate_reports_per_s on corpus"),
    ("cli.batch.self_s", "s", "events_per_s on corpus"),
    ("cli.pool.overhead_s", "s",
     "parallel_events_per_s (printed, not gated) on corpus"),
    ("bench.tracing_overhead", "ratio",
     "none: traced wall over untraced wall of the same in-process batch"),
)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": text}
                      for name, text in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better(u)}
                      for n, u, _moves in PER_LAYER],
    }


def better(unit: str) -> str:
    """Direction of a per-layer metric: rates up, everything else down."""
    if unit == "1/s":
        return "higher"
    return "lower"


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

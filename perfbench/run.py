"""evprof benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The seed makes the inputs (see
``workloads.py``); evprof only sees the trace files written from them.

``--trace 0`` measures the end-to-end metrics in rounds until ``--seconds``
have passed. A round regenerates the inputs (they must come out
byte-identical), times two cold starts, and runs evprof through its public
CLI, each command as its own process: the single-process run, then
``batch --jobs N`` with N the usable cores, then ``aggregate``. Each
throughput is the mean of the run's three slowest rounds; set-up time and
peak RSS are medians.

``--trace 1`` gives the per-layer metrics. A pass runs the commands in this
process at jobs 1 with the wrappers of ``tracing.py`` installed, after an
untraced run of the same batch at jobs 1 and at jobs N (for the tracing
and pool overheads), and then profiles the address_churn construction at
three doubling sizes for the memory scaling exponent. Passes repeat until
``--seconds`` have passed; each metric is the median over the passes.
Spans are written under ``.bench_work/spans``.

Every report is checked (see ``checks.py``). A failed check, exception or
non-zero exit counts against ``failed``/``attempted`` and never stops the
run; the command exits 1 if anything failed. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

from metrics import END_TO_END, PER_LAYER, REPORTED, WHY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 150
SETUP_CODE = ("import evprof.cli as cli; cli.RunConfig(); "
              "print('ready', flush=True)")


class Tally:
    """Attempts and failures. An attempt is one trace through one evprof
    command, one aggregate run, one cold start or one sweep size; it fails
    on a wrong or missing output, an exception or a non-zero exit."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def step(self, attempted: int, fn, *args) -> None:
        """Run one checked step; any exception fails all of its attempts."""
        try:
            problems = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted, never aborts
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"] * attempted
        self.attempted += attempted
        self.problems.extend(problems[:attempted])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_evprof(args: list[str], log_path: str) -> tuple[float, float]:
    """Run one evprof CLI process, its output going to ``log_path``;
    return (wall s, peak RSS MB)."""
    argv = [sys.executable, "-m", "evprof.cli", *args]
    with open(log_path, "w+b") as log:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=[
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2)])
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                                 (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            log.seek(0)
            tail = log.read().decode("utf-8", "replace").splitlines()[-3:]
            raise RuntimeError(f"evprof {args[0]} exited {code}: "
                               + " | ".join(tail))
    return wall, usage.ru_maxrss / 1024


def setup_time() -> float:
    """Seconds from spawning a fresh interpreter until evprof.cli is
    imported and a RunConfig is built."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                            stdout=subprocess.PIPE, env=child_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode})")
    return elapsed


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def slowest_rounds(values: list[float]) -> float:
    """Mean of the three slowest rounds of a run.

    Other work on the host slows some rounds down. How many varies a lot
    from run to run, how much varies less: over four 10-run sets per
    workload on 2 vCPUs, this spread 0.09 on average between runs, the
    best round 0.16 and the median 0.16.
    """
    return statistics.mean(sorted(values)[:3])


# set-up time and peak RSS are medians, throughputs the slowest rounds
SUMMARY = {"setup_s": statistics.median, "peak_rss_mb": statistics.median}


# ---------------------------------------------------------------------------
# --trace 0

def end_to_end(workload: str, seed: int, sizes, seconds: float, jobs: int,
               work: str, tally: Tally):
    """Rounds of generate, single run, parallel run and aggregate, until
    ``seconds`` have passed. Returns the raw samples and the inputs."""
    from checks import check_identical, check_reports, check_summary
    from workloads import WRITERS, scan

    samples: dict[str, list[float]] = {
        "setup_s": [], "events_per_s": [], "parallel_events_per_s": [],
        "peak_rss_mb": [], "aggregate_reports_per_s": [],
        "gen_events_per_s": []}
    log = os.path.join(work, "evprof.log")
    first = None

    def generate():
        trace_dir = fresh_dir(os.path.join(work, "traces"))
        start = time.perf_counter()
        inputs = WRITERS[workload](trace_dir, seed, sizes)
        gen_s = time.perf_counter() - start
        scan(inputs)
        samples["gen_events_per_s"].append(inputs.events / gen_s)
        return inputs

    def setup_pass():
        samples["setup_s"].append(setup_time())
        return []

    def same_inputs():
        return [f"{name}: regenerated input differs"
                for name, digest in inputs.digests.items()
                if first.digests.get(name) != digest]

    def single_pass(out):
        if inputs.files == 1:
            trace = os.path.join(inputs.trace_dir,
                                 next(iter(inputs.expect)) + ".trace")
            args = ["analyze", trace, "--out", out]
        else:
            args = ["batch", inputs.trace_dir, "--jobs", "1", "--out", out]
        wall, rss = run_evprof(args, log)
        samples["events_per_s"].append(inputs.events / wall)
        samples["peak_rss_mb"].append(rss)
        return check_reports(inputs, out)

    def parallel_pass(out, reference):
        wall, _ = run_evprof(["batch", inputs.trace_dir, "--jobs", str(jobs),
                              "--out", out], log)
        samples["parallel_events_per_s"].append(inputs.events / wall)
        return check_identical(inputs, out, reference)

    def aggregate_pass(reports, out):
        wall, _ = run_evprof(["aggregate", reports, "--labels",
                              inputs.labels_csv, "--group-by", "family",
                              "--out", out], log)
        samples["aggregate_reports_per_s"].append(inputs.files / wall)
        return check_summary(inputs, os.path.join(out, "summary.json"))

    start = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_ROUND):
            tally.step(1, setup_pass)
        inputs = generate()
        if first is None:
            first = inputs
        else:
            tally.step(inputs.files, same_inputs)
        files = inputs.files
        single_out = fresh_dir(os.path.join(work, "reports1"))
        parallel_out = fresh_dir(os.path.join(work, "reportsN"))
        aggregate_out = fresh_dir(os.path.join(work, "tables"))
        tally.step(files, single_pass, single_out)
        tally.step(files, parallel_pass, parallel_out, single_out)
        tally.step(1, aggregate_pass, single_out, aggregate_out)
        if time.perf_counter() - start >= seconds:
            return samples, first


# ---------------------------------------------------------------------------
# --trace 1

def in_process(argv: list[str]) -> float:
    """Run the evprof CLI in this process; return its wall time."""
    import evprof.cli as cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"evprof {argv[0]} exited {code}")
    return wall


def ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def traced_pass(workload: str, seed: int, sizes, jobs: int, work: str,
                tally: Tally, spans) -> tuple[dict, list, object]:
    """One traced pass; returns its per-layer metrics, the self-time
    ranking and the inputs, and appends its spans to ``spans``."""
    from checks import check_identical, check_reports, check_summary
    from evprof.profiler import run_sample
    import workloads
    from tracing import KIND_GROUPS, MEMORY_SPANS, Tracer, loglog_slope

    with Tracer() as t_gen:
        # address_churn is built and serialized by the benchmark itself
        t_gen.wrap(workloads, "build_churn", "generate.build", whole=True,
                   after=lambda a, r, _: t_gen.counts.update(
                       {"generate.build.events": len(r.events)}))
        t_gen.wrap(workloads, "serialize_trace", "trace.serialize",
                   whole=True, after=lambda a, r, _: t_gen.counts.update(
                       {"trace.serialize.events": len(a[0])}))
        inputs = workloads.WRITERS[workload](os.path.join(work, "traces"),
                                             seed, sizes)
    workloads.scan(inputs)
    files = inputs.files
    walls = {}

    def batch(key: str, out: str, jobs_n: int) -> None:
        walls[key] = in_process(["batch", inputs.trace_dir, "--jobs",
                                 str(jobs_n), "--out", fresh_dir(out)])

    plain = os.path.join(work, "reports1")
    pool = os.path.join(work, "reportsN")
    out = os.path.join(work, "reports_traced")
    tables = os.path.join(work, "tables")

    def plain_pass():
        batch("plain", plain, 1)
        return check_reports(inputs, plain)

    def pool_pass():
        batch("pool", pool, jobs)
        return check_identical(inputs, pool, plain)

    def traced_batch():
        batch("traced", out, 1)
        return check_identical(inputs, out, plain)

    def aggregate_pass():
        in_process(["aggregate", out, "--labels", inputs.labels_csv,
                    "--group-by", "family", "--out", fresh_dir(tables)])
        return check_summary(inputs, os.path.join(tables, "summary.json"))

    tally.step(files, plain_pass)
    tally.step(files, pool_pass)
    with Tracer() as t_main:
        tally.step(files, traced_batch)
        t_main.sample = "aggregate"
        tally.step(1, aggregate_pass)

    points = []

    def sweep_pass(regions):
        churn = workloads.build_churn(seed, regions)
        report = run_sample(churn.events)
        points.append((regions, t_sweep.memory_self(t_sweep.sample)))
        if len(report.detections) != churn.detections:
            return [f"sweep {regions}: {len(report.detections)} detections "
                    f"!= {churn.detections}"]
        return []

    with Tracer() as t_sweep:
        for regions in (sizes.sweep_regions, 2 * sizes.sweep_regions,
                        4 * sizes.sweep_regions):
            t_sweep.sample = f"sweep{regions}"
            tally.step(1, sweep_pass, regions)

    for phase, tracer in (("generate", t_gen), ("run", t_main),
                          ("sweep", t_sweep)):
        spans.append((phase, tracer))

    c = t_main.counts
    batch_s = t_main.total("cli.batch")[1]
    m = {
        "trace.parse.events_per_s": ratio(c["trace.parse.events"],
                                          t_main.total("trace.parse")[1]),
        "trace.parse.self_share": ratio(t_main.total("trace.parse")[2],
                                        batch_s),
        "trace.validate.events_per_s": ratio(
            c["trace.validate.events"], t_main.total("trace.validate")[1]),
        "trace.serialize.events_per_s": ratio(
            t_gen.counts["trace.serialize.events"],
            t_gen.total("trace.serialize")[1]),
        "generate.build.events_per_s": ratio(
            t_gen.counts["generate.build.events"],
            t_gen.total("generate.build")[1]),
    }
    for group in KIND_GROUPS:
        m[f"profiler.process.{group}.self_s"] = \
            t_main.total(f"profiler.process.{group}")[2]
    for name in ("profiler.init", "profiler.finish", "profiler.to_json"):
        m[f"{name}.self_s"] = t_main.total(name)[2]
    matches = t_main.total("catalog.match_event")
    m["catalog.match_event.calls"] = matches[0]
    m["catalog.match_event.self_s"] = matches[2]
    m["catalog.detections_per_match"] = ratio(c["catalog.detections"],
                                              matches[0])
    m["catalog.apply_mitigation.calls"] = \
        t_main.total("catalog.apply_mitigation")[0]
    is_red = t_main.total("memory.is_red")
    m["memory.is_red.calls"] = is_red[0]
    m["memory.is_red.self_s"] = is_red[2]
    m["memory.is_red.red_share"] = ratio(c["memory.is_red.red"], is_red[0])
    for name in MEMORY_SPANS[1:]:
        m[f"{name}.self_s"] = t_main.total(name)[2]
    m["memory.watchpoint_hit_share"] = ratio(c["memory.read_hits"],
                                             c["memory.reads"])
    m["memory.self_s"] = t_main.memory_self()
    m["memory.self_share"] = ratio(m["memory.self_s"], batch_s)
    m["memory.live_regions.peak"] = c["memory.live_regions.peak"]
    m["memory.watchpoints.peak"] = c["memory.watchpoints.peak"]
    m["memory.scaling_exponent"] = loglog_slope(points)
    clock = t_main.total("clock")
    m["clock.calls"] = clock[0]
    m["clock.self_s"] = clock[2]
    route = t_main.total("injection.route")
    m["injection.route.calls"] = route[0]
    m["injection.route.self_s"] = route[2]
    m["injection.rerouted"] = c["injection.rerouted"]
    m["aggregate.load.reports_per_s"] = ratio(
        c["aggregate.load.reports"], t_main.total("aggregate.load")[1])
    adds = t_main.total("aggregate.add")
    m["aggregate.add.reports_per_s"] = ratio(adds[0], adds[1])
    m["aggregate.finalize_render.self_s"] = \
        t_main.total("aggregate.finalize_render")[2]
    m["cli.batch.self_s"] = t_main.total("cli.batch")[2]
    if {"plain", "pool", "traced"} <= walls.keys():
        m["cli.pool.overhead_s"] = walls["pool"] - walls["plain"] / jobs
        m["bench.tracing_overhead"] = walls["traced"] / walls["plain"]

    ranking = sorted(t_main.self_by_name().items(), key=lambda kv: -kv[1])
    return m, ranking, inputs


def traced(workload: str, seed: int, sizes, seconds: float, jobs: int,
           work: str, tally: Tally) -> tuple[dict, list, object]:
    """Traced passes until ``seconds`` have passed; each metric is the
    median over the passes. Spans of every pass are written at the end."""
    passes = []
    spans: list = []
    start = time.perf_counter()
    while True:
        metrics, ranking, inputs = traced_pass(workload, seed, sizes, jobs,
                                               work, tally, spans)
        passes.append(metrics)
        if time.perf_counter() - start >= seconds:
            break
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    with open(os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl"), "w",
              encoding="utf-8") as fh:
        for i, (phase, tracer) in enumerate(spans):
            tracer.write(fh, {"pass": i // 3, "phase": phase})
    values = {}
    for name in passes[0]:
        measured = [m[name] for m in passes if m.get(name) is not None]
        values[name] = statistics.median(measured) if measured else None
    return values, ranking, inputs


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a "
                             "tiny one)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evprof", "cli.py")):
        print(f"error: no evprof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import Sizes

    sizes = Sizes().scaled(args.scale)
    jobs = len(os.sched_getaffinity(0))
    work = fresh_dir(os.path.join(
        WORK, f"{args.workload}-{args.seed}-{os.getpid()}"))
    tally = Tally()
    info = {"workload": args.workload, "why": WHY[args.workload],
            "seed": args.seed, "trace": args.trace, "nproc": jobs,
            "python": platform.python_version(), "sizes": vars(sizes)}
    try:
        if args.trace:
            values, ranking, inputs = traced(args.workload, args.seed, sizes,
                                             args.seconds, jobs, work, tally)
            wanted = [(name, unit) for name, unit, _ in PER_LAYER]
            shown = []
            info["top_self_s"] = dict(ranking[:8])
        else:
            samples, inputs = end_to_end(args.workload, args.seed, sizes,
                                         args.seconds, jobs, work, tally)
            values = {name: SUMMARY.get(name, slowest_rounds)(v) if v else None
                      for name, v in samples.items()}
            wanted = [(name, unit) for name, unit, _, _ in END_TO_END]
            shown = list(REPORTED)
            info["samples"] = samples
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["shape"] = inputs.shape()

    missing = [name for name, _ in wanted if values.get(name) is None]
    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0
    correct = tally.failed == 0 and not missing and tally.attempted > 0
    print(json.dumps({"info": info}))
    for name, unit in wanted + shown:
        value = values.get(name)
        text = "-" if value is None else f"{value:.6g}"
        print(f"{name:36s} {text:>14s} {unit}")
    print(f"{'failed_share':36s} {failed_share:>14.6g} share "
          f"({tally.failed} of {tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    for name in missing:
        print(f"not measured: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

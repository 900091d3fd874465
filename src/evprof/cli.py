"""Command-line interface: analyze, batch, aggregate, gen, catalog."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter

from . import catalog
from .catalog import ConfigError, RunConfig
from .profiler import SampleReport, run_sample
from .trace import (
    TraceError, check_plain_name, parse_trace, validate_trace, write_whole,
)

EXIT_OK = 0
EXIT_USAGE = 2     # ConfigError
EXIT_DATA = 3      # TraceError or OSError: unreadable / malformed inputs
EXIT_RUNTIME = 4   # anything else: a bug


def _message(exc: Exception) -> str:
    """What an error says; an OSError names its file once, as
    ``PATH: strerror``."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


def _build_config(args) -> RunConfig:
    overrides = {}
    for item in args.override or []:
        key, sep, value = item.partition("=")
        if not sep or not value:
            raise ConfigError(f"bad --override {item!r}, expected name=value")
        overrides[key] = value
    return RunConfig(mitigate=not args.no_mitigate,
                     exclude_fp_prone=not args.include_fp_prone,
                     overrides=tuple(sorted(overrides.items())),
                     seed=args.seed)


def _profile_file(path: str, cfg: RunConfig) -> tuple[str, str, list[str]]:
    """Worker: returns (sample_id, report json, the report's warnings). A
    read or parse error is a TraceError whose message leaves out ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            events = parse_trace(fh)
    except OSError as exc:
        raise TraceError(exc.strerror) from None
    except UnicodeDecodeError as exc:
        raise TraceError(str(exc)) from None
    report = run_sample(events, cfg, validate_trace(events))
    return report.sample_id, report.to_json(), report.warnings


def _report_path(out_dir: str, sample_id: str) -> str:
    """Where a sample's report goes; the id must be a plain file name."""
    try:
        check_plain_name(sample_id)
    except ValueError as exc:
        raise TraceError(str(exc)) from None
    return os.path.join(out_dir, sample_id + ".report.json")


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    cfg = _build_config(args)
    try:
        sample_id, doc, warnings = _profile_file(args.trace, cfg)
    except TraceError as exc:
        raise TraceError(f"{args.trace}: {exc}") from None
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out:
        out_path = args.out
        if os.path.isdir(out_path):
            out_path = _report_path(out_path, sample_id)
        write_whole([(out_path, [doc])])
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def _batch_worker(item):
    path, cfg = item
    try:
        return path, _profile_file(path, cfg), None
    except TraceError as exc:
        return path, None, str(exc)
    except Exception as exc:  # noqa: BLE001 - one file must not end the batch
        return path, None, f"internal error: {type(exc).__name__}: {exc}"


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs {args.jobs} is below 1")
    cfg = _build_config(args)
    traces = [os.path.join(args.dir, e) for e in sorted(os.listdir(args.dir))
              if e.endswith(".trace")]
    if not traces:
        raise TraceError(f"{args.dir}: no .trace files found")
    os.makedirs(args.out, exist_ok=True)

    work = [(path, cfg) for path in traces]
    failures = []
    written: dict[str, str] = {}   # sample_id -> trace it came from
    if args.jobs > 1:
        # imported here: a run without a pool does not pay for it at start-up
        import concurrent.futures
        pool_context = concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs)
    else:
        pool_context = contextlib.nullcontext()
    # each report is written as its result arrives, in input order
    with pool_context as pool:
        results = ((_batch_worker(item) for item in work) if pool is None
                   else pool.map(_batch_worker, work))
        for path, result, error in results:
            if error is None:
                sample_id, doc, _warnings = result
                if sample_id in written:
                    error = (f"duplicate sample_id {sample_id!r}, already "
                             f"written from {written[sample_id]}")
                else:
                    try:
                        write_whole([(_report_path(args.out, sample_id),
                                      [doc])])
                        written[sample_id] = path
                    except (TraceError, OSError) as exc:
                        error = _message(exc)
            if error is not None:
                failures.append((path, error))
    print(f"batch: {len(written)} reports, {len(failures)} failures "
          f"(jobs={args.jobs})")
    for path, error in failures:
        print(f"failed: {path}: {error}", file=sys.stderr)
    return EXIT_OK if written else EXIT_DATA


def _load_reports(path: str) -> list[SampleReport]:
    reports = []
    for entry in sorted(os.listdir(path)):
        if not entry.endswith(".report.json"):
            continue
        full = os.path.join(path, entry)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                report = SampleReport.from_json(fh.read())
            # one file per name, so this also refuses a repeated sample_id
            if entry != report.sample_id + ".report.json":
                raise ValueError(f"sample_id {report.sample_id!r} does not "
                                 f"match the file name")
        # RecursionError: JSON nested deeper than the decoder can follow
        except (ValueError, KeyError, RecursionError) as exc:
            raise TraceError(f"{full}: bad report: {exc}") from None
        reports.append(report)
    if not reports:
        raise TraceError(f"{path}: no .report.json files found")
    return reports


def cmd_aggregate(args) -> int:
    from . import aggregate as agg
    reports = _load_reports(args.reports)
    if args.labels:
        misses = agg.apply_labels(reports, agg.load_labels(args.labels))
        if misses:
            print(f"warning: {misses} samples missing from the label file",
                  file=sys.stderr)
    summary = agg.aggregate_reports(reports, args.group_by)

    outputs = {
        "summary.json": agg.render_summary_json(summary),
    }
    table_fmt = "csv" if args.format == "csv" else "text"
    ext = "csv" if table_fmt == "csv" else "txt"
    outputs[f"core.{ext}"] = agg.render_core_table(summary, table_fmt)
    outputs[f"packers.{ext}"] = agg.render_packer_table(summary, table_fmt)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_whole((os.path.join(args.out, name), [content])
                    for name, content in outputs.items())
        print(f"wrote {len(outputs)} files to {args.out}")
    else:
        if args.format == "json":
            sys.stdout.write(outputs["summary.json"])
        else:
            sys.stdout.write(outputs[f"core.{ext}"])
            sys.stdout.write("\n")
            sys.stdout.write(outputs[f"packers.{ext}"])
    for diag in summary["diagnostics"]:
        print(f"warning: {diag}", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import generate
    if bool(args.spec) == bool(args.suite):
        raise ConfigError("gen takes one of --spec FILE and --suite NAME")
    if args.seed < 0:
        # random.Random seeds by absolute value: -7 would repeat 7
        raise ConfigError(f"--seed {args.seed} is negative")
    if args.suite:
        specs = generate.suite_specs(args.suite, args.seed)
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                specs = generate.parse_genspec_file(fh.read(), args.seed)
        except (TraceError, UnicodeDecodeError) as exc:
            raise TraceError(f"{args.spec}: {exc}") from None
    manifest = generate.write_corpus(specs, args.out)
    print(f"generated {len(manifest['samples'])} traces in {args.out}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    rows, categories, mitigated = [], Counter(), 0
    for r in catalog.RULES:
        rows.append((r.id, r.category, r.trigger_kind,
                     "yes" if r.mitigated else "no",
                     "yes" if r.fp_prone else "no", r.trigger_desc))
        categories[r.category] += 1
        mitigated += r.mitigated
    header = ("technique", "category", "trigger", "mitigated", "fp_prone",
              "description")
    if args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(str(row[i])) for row in rows + [header])
                  for i in range(5)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths))
              + "  " + header[5])
        for row in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                  + "  " + row[5])
    print(f"\n{len(rows)} techniques; mitigated: {mitigated}; "
          + "; ".join(f"{c}: {n}" for c, n in sorted(categories.items())),
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evprof",
        description="Trace-driven evasion profiler and corpus aggregator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--no-mitigate", action="store_true",
                       help="record detections without mitigating")
        p.add_argument("--include-fp-prone", action="store_true",
                       help="count the four FP-prone techniques as evasive")
        p.add_argument("--override", action="append", metavar="TECH=VALUE",
                       help="override of a mitigated technique: on, off, "
                            "or a forced substituted value")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the mouse_movement substitute "
                            "coordinates")

    p = sub.add_parser("analyze", help="profile one trace")
    common(p)
    p.add_argument("trace")
    p.add_argument("--out", help="report file or directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", help="profile a directory of traces")
    common(p)
    p.add_argument("dir")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("aggregate", help="corpus statistics over reports")
    p.add_argument("reports", help="directory of .report.json files")
    p.add_argument("--labels", help="sample label CSV")
    p.add_argument("--group-by", choices=("dataset", "year", "family"),
                   default="dataset")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    p.add_argument("--out", help="output directory for tables")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("gen", help="generate fixture traces")
    p.add_argument("--spec", help="genspec file (one sample per line)")
    p.add_argument("--suite", choices=("roundtrip", "corpus60", "scenarios"),
                   help="built-in fixture suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="trace output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("catalog", help="dump the technique table")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceError, OSError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - separate exit class for bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: analyze, batch, aggregate, gen, catalog."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import replace

from . import catalog
from .config import ConfigError, RunConfig, load_config_file
from .profiler import SampleReport, run_sample
from .trace import TraceError, parse_trace, validate_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3      # unreadable / malformed inputs
EXIT_RUNTIME = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_DATA):
        super().__init__(message)
        self.code = code


def _build_config(args) -> RunConfig:
    cfg = load_config_file(args.config) if getattr(args, "config", None) \
        else RunConfig()
    if getattr(args, "no_mitigate", False):
        cfg = replace(cfg, mitigate=False)
    if getattr(args, "include_fp_prone", False):
        cfg = replace(cfg, exclude_fp_prone=False)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    overrides = dict(cfg.overrides)
    for item in getattr(args, "override", None) or []:
        key, sep, value = item.partition("=")
        if not sep or not value:
            raise CliError(f"bad --override {item!r}, expected name=value",
                           EXIT_USAGE)
        overrides[key] = value
    cfg = replace(cfg, overrides=tuple(sorted(overrides.items())))
    cfg.validate_overrides(catalog.KNOWN_TECHNIQUES)
    return cfg


def _profile_file(path: str, cfg: RunConfig) -> tuple[str, str, list[str]]:
    """Worker: returns (sample_id, report json, warnings)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            events = parse_trace(fh.read())
    except (OSError, UnicodeDecodeError, TraceError) as exc:
        raise CliError(f"{path}: {exc}")
    diagnostics = validate_trace(events)
    report = run_sample(events, cfg, diagnostics)
    return report.sample_id, report.to_json(), [str(d) for d in diagnostics]


def _report_path(out_dir: str, sample_id: str) -> str:
    """Where a sample's report goes; the id must be a plain file name."""
    if (sample_id in ("", ".", "..")
            or any(c in sample_id for c in "/\\\0")):
        raise CliError(f"sample_id {sample_id!r} is not a plain file name")
    return os.path.join(out_dir, sample_id + ".report.json")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    cfg = _build_config(args)
    sample_id, doc, warnings = _profile_file(args.trace, cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out:
        out_path = args.out
        if os.path.isdir(out_path):
            out_path = _report_path(out_path, sample_id)
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise CliError(f"{out_path}: {exc}")
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def _batch_worker(item):
    path, cfg = item
    try:
        return path, _profile_file(path, cfg), None
    except CliError as exc:
        return path, None, str(exc)
    except Exception as exc:  # noqa: BLE001 - one file must not end the batch
        return path, None, f"internal error: {type(exc).__name__}: {exc}"


def cmd_batch(args) -> int:
    cfg = _build_config(args)
    try:
        entries = sorted(os.listdir(args.dir))
    except OSError as exc:
        raise CliError(f"{args.dir}: {exc}")
    traces = [os.path.join(args.dir, e) for e in entries
              if e.endswith(".trace")]
    if not traces:
        raise CliError(f"{args.dir}: no .trace files found")
    _make_out_dir(args.out)

    work = [(path, cfg) for path in traces]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_worker, work))
    else:
        results = [_batch_worker(item) for item in work]

    failures = []
    written: dict[str, str] = {}   # sample_id -> trace it came from
    for path, result, error in results:
        if error is None:
            sample_id, doc, _warnings = result
            if sample_id in written:
                error = (f"duplicate sample_id {sample_id!r}, already "
                         f"written from {written[sample_id]}")
            else:
                try:
                    with open(_report_path(args.out, sample_id), "w",
                              encoding="utf-8") as fh:
                        fh.write(doc)
                    written[sample_id] = path
                except (CliError, OSError) as exc:
                    error = str(exc)
        if error is not None:
            failures.append((path, error))
    print(f"batch: {len(written)} reports, {len(failures)} failures "
          f"(jobs={args.jobs})")
    for path, error in failures:
        print(f"failed: {path}: {error}", file=sys.stderr)
    return EXIT_OK if written else EXIT_DATA


def _load_reports(path: str) -> list[SampleReport]:
    try:
        entries = sorted(os.listdir(path))
    except OSError as exc:
        raise CliError(f"{path}: {exc}")
    reports = []
    for entry in entries:
        if not entry.endswith(".report.json"):
            continue
        full = os.path.join(path, entry)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                reports.append(SampleReport.from_json(fh.read()))
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"{full}: bad report: {exc}")
    if not reports:
        raise CliError(f"{path}: no .report.json files found")
    return reports


def cmd_aggregate(args) -> int:
    from . import aggregate as agg
    reports = _load_reports(args.reports)
    if args.labels:
        try:
            labels = agg.load_labels(args.labels)
        except (OSError, agg.LabelError) as exc:
            raise CliError(str(exc))
        misses = agg.apply_labels(reports, labels)
        if misses:
            print(f"warning: {misses} samples missing from the label file",
                  file=sys.stderr)
    try:
        aggregate = agg.aggregate_reports(reports, args.group_by)
    except agg.AggregateError as exc:
        raise CliError(str(exc))

    outputs = {
        "summary.json": agg.render_summary_json(aggregate),
    }
    table_fmt = "csv" if args.format == "csv" else "text"
    ext = "csv" if table_fmt == "csv" else "txt"
    outputs[f"core.{ext}"] = agg.render_core_table(aggregate, table_fmt)
    outputs[f"packers.{ext}"] = agg.render_packer_table(aggregate, table_fmt)

    if args.out:
        _make_out_dir(args.out)
        for name, content in outputs.items():
            path = os.path.join(args.out, name)
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                raise CliError(f"{path}: {exc}")
        print(f"wrote {len(outputs)} files to {args.out}")
    else:
        if args.format == "json":
            sys.stdout.write(outputs["summary.json"])
        else:
            sys.stdout.write(outputs[f"core.{ext}"])
            sys.stdout.write("\n")
            sys.stdout.write(outputs[f"packers.{ext}"])
    for diag in aggregate.diagnostics:
        print(f"warning: {diag}", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import generate
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                specs = generate.parse_genspec_file(fh.read())
        except OSError as exc:
            raise CliError(f"{args.spec}: {exc}")
        except generate.GenError as exc:
            raise CliError(str(exc))
    elif args.suite == "roundtrip":
        specs = generate.roundtrip_specs(seed=args.seed or 0)
    elif args.suite == "corpus60":
        specs = generate.corpus60_specs(seed=args.seed or 0)
    elif args.suite == "scenarios":
        specs = generate.scenario_specs(seed=args.seed or 0)
    else:
        raise CliError("gen needs --spec FILE or --suite NAME", EXIT_USAGE)
    try:
        manifest = generate.write_corpus(specs, args.out)
    except generate.GenError as exc:
        raise CliError(str(exc))
    print(f"generated {len(manifest['samples'])} traces in {args.out}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    rows = [
        (r.id, r.category, r.trigger_kind,
         "yes" if r.mitigated else "no",
         "yes" if r.fp_prone else "no", r.trigger_desc)
        for r in catalog.catalog_listing()
    ]
    header = ("technique", "category", "trigger", "mitigated", "fp_prone",
              "description")
    if args.format == "csv":
        import csv as _csv
        writer = _csv.writer(sys.stdout)
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
    counts = {}
    for r in catalog.catalog_listing():
        counts[r.category] = counts.get(r.category, 0) + 1
    mitigated = sum(1 for r in catalog.catalog_listing() if r.mitigated)
    print(f"\n{len(rows)} techniques; mitigated: {mitigated}; "
          + "; ".join(f"{c}: {n}" for c, n in sorted(counts.items())),
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evprof",
        description="Trace-driven evasion profiler and corpus aggregator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags win)")
        p.add_argument("--mitigate", dest="no_mitigate",
                       action="store_false", default=False,
                       help="apply mitigations (default)")
        p.add_argument("--no-mitigate", dest="no_mitigate",
                       action="store_true",
                       help="record detections without mitigating")
        p.add_argument("--include-fp-prone", action="store_true",
                       help="count the four FP-prone techniques as evasive")
        p.add_argument("--override", action="append", metavar="TECH=VALUE",
                       help="per-technique mitigation override: on, off, "
                            "or a forced substituted value")
        p.add_argument("--seed", type=int, help="deterministic seed")

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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - separate exit class for bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

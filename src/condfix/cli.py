"""Command-line interface.

    condfix repair --program prog.ml --suite suite.txt [options]
    condfix bench  --corpus <dir> --out report.csv [options]

``repair`` prints a unified diff for a found patch plus a JSON report
(optionally written to a file) and exits 0 when patched, 1 when not,
2 on usage or input errors. ``bench`` runs the harness over a bundle
directory and writes the CSV reports; a bundle that does not load gets a
``bundle-error`` row, the others still run, and the exit code is 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import bundle_dirs, bundle_error_row, default_corpus_dir, load_bundle, run_harness
from .errors import BundleError, CondfixError
from .faultloc import METRICS
from .minilang import parse_program
from .pipeline import RepairConfig, render_patch_diff, repair
from .testkit import parse_suite

EXIT_PATCHED = 0
EXIT_NO_PATCH = 1
EXIT_USAGE = 2


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = RepairConfig()
    parser.add_argument("--mode", default=defaults.mode,
                        choices=["condition", "precondition", "both"])
    parser.add_argument("--metric", default=defaults.metric, choices=sorted(METRICS))
    parser.add_argument("--timeout", type=float, default=defaults.global_timeout,
                        help="global timeout in seconds")
    parser.add_argument("--level-timeout", type=float, default=defaults.level_timeout,
                        help="per-level solver timeout")
    parser.add_argument("--max-level", type=int, default=defaults.max_level)
    parser.add_argument("--step-budget", type=int, default=defaults.step_budget)
    parser.add_argument(
        "--solver-cmd", default=defaults.solver_cmd,
        help="external SMT-LIB2 solver command; omit to use the built-in backend",
    )


def _config_from(args: argparse.Namespace) -> RepairConfig:
    return RepairConfig(
        mode=args.mode,
        metric=args.metric,
        level_timeout=args.level_timeout,
        global_timeout=args.timeout,
        step_budget=args.step_budget,
        max_level=args.max_level,
        solver_cmd=args.solver_cmd,
    )


def cmd_repair(args: argparse.Namespace) -> int:
    program = parse_program(Path(args.program).read_text())
    suite = parse_suite(Path(args.suite).read_text())
    report = repair(program, suite, _config_from(args))

    payload = report.to_dict()
    if report.patched:
        diff = render_patch_diff(program, report.patch)
        print(diff, end="")
        payload["diff"] = diff
    else:
        print(f"no patch found: {report.reason}")
    if args.report_json:
        Path(args.report_json).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_PATCHED if report.patched else EXIT_NO_PATCH


def cmd_bench(args: argparse.Namespace) -> int:
    corpus_dir = Path(args.corpus) if args.corpus else default_corpus_dir()
    directories = bundle_dirs(corpus_dir)
    if not directories:
        print(f"no bundles found under {corpus_dir}", file=sys.stderr)
        return EXIT_USAGE
    bundles, unloadable = [], []
    for directory in directories:
        try:
            bundles.append(load_bundle(directory))
        except BundleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            unloadable.append(bundle_error_row(directory.name, exc))
    report = run_harness(bundles, _config_from(args))
    report.rows += unloadable
    out = Path(args.out)
    out.write_text(report.to_csv())
    effort_path = out.with_name(out.stem + "_effort" + out.suffix)
    effort_path.write_text(report.effort_table_csv())
    for row in sorted(report.rows, key=lambda r: r.id):
        marker = "ok" if row.expected_match else "UNEXPECTED"
        print(f"{row.id}: {row.outcome} ({row.reason or row.expression}) [{marker}]")
    print(f"wrote {out} and {effort_path}")
    if unloadable:
        return EXIT_USAGE
    return EXIT_PATCHED if report.all_expected() else EXIT_NO_PATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condfix")
    sub = parser.add_subparsers(dest="command", required=True)

    repair_p = sub.add_parser("repair", help="repair one program against one suite")
    repair_p.add_argument("--program", required=True)
    repair_p.add_argument("--suite", required=True)
    repair_p.add_argument("--report-json", default=None, help="write the JSON report here")
    _add_config_flags(repair_p)
    repair_p.set_defaults(func=cmd_repair)

    bench_p = sub.add_parser("bench", help="run the corpus harness")
    bench_p.add_argument("--corpus", default=None, help="bundle directory (default: packaged corpus)")
    bench_p.add_argument("--out", required=True, help="CSV report path")
    _add_config_flags(bench_p)
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CondfixError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``run`` one case, ``batch`` a case list, ``replay`` a package,
``stats`` over a package directory, ``plot`` a package. Exit code 0 means
every requested case was processed (exclusions included); 1 is a
configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import errors
from .estimator import EstimationSettings, http_transport
from .pipeline import (
    PipelineConfig,
    batch_summary,
    coverage_stats,
    replay_package,
    run_batch,
    run_case,
    write_ledger,
)
from .plotting import render_plot
from .reports import CaseKey
from .simulator import validation_to_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace",
        description="Rebuild two-vehicle crash reports into validated simulation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fixtures", type=Path, metavar="DIR",
                       help="run offline: serve reports and maps from this fixture "
                            "directory, after any --cache hit")
        p.add_argument("--cache", type=Path, metavar="DIR",
                       help="read-through cache directory")
        p.add_argument("--out", type=Path, metavar="DIR", default=Path("out"),
                       help="output directory for case packages")
        p.add_argument("--radius", type=float, metavar="M", default=500.0,
                       help="map retrieval radius in meters")
        p.add_argument("--llm-endpoint", metavar="URL",
                       help="estimate initial states with this text-completion endpoint")
        p.add_argument("--max-retries", type=int, metavar="N", default=3,
                       help="re-prompts of the --llm-endpoint estimator")
        p.add_argument("--horizon", type=float, metavar="S", default=6.0,
                       help="backward-trajectory horizon in seconds")
        p.add_argument("--parallelism", type=int, metavar="N",
                       help="cases in flight (default: 1 with --fixtures, in the "
                            "calling thread; else the CPU count, at most 4)")

    run_p = sub.add_parser("run", help="process a single case")
    run_p.add_argument("--state", type=int, required=True)
    run_p.add_argument("--case", type=int, required=True)
    run_p.add_argument("--year", type=int, required=True)
    add_pipeline_flags(run_p)

    batch_p = sub.add_parser("batch", help="process a list of cases")
    batch_p.add_argument("--cases", type=Path, required=True, metavar="FILE",
                         help="one case per line: 'STATE CASE YEAR' or STATE_CASE_YEAR")
    add_pipeline_flags(batch_p)

    replay_p = sub.add_parser("replay", help="re-validate a case package")
    replay_p.add_argument("package", type=Path, metavar="DIR")

    stats_p = sub.add_parser("stats", help="coverage table over packages")
    stats_p.add_argument("packages", type=Path, metavar="DIR")

    plot_p = sub.add_parser("plot", help="render a package to SVG")
    plot_p.add_argument("package", type=Path, metavar="DIR")

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    if args.fixtures and not args.fixtures.is_dir():
        raise errors.CrashTraceError(f"fixture directory not found: {args.fixtures}")
    for flag, value in (("--radius", args.radius), ("--horizon", args.horizon)):
        if not (math.isfinite(value) and value > 0):
            raise errors.CrashTraceError(f"{flag} must be a finite number above 0, not {value}")
    if args.max_retries < 0:
        raise errors.CrashTraceError(f"--max-retries must be at least 0, not {args.max_retries}")
    if args.parallelism is not None and args.parallelism < 1:
        raise errors.CrashTraceError(f"--parallelism must be at least 1, not {args.parallelism}")
    return PipelineConfig(
        cache_dir=args.cache,
        offline=args.fixtures is not None,
        fixtures_dir=args.fixtures,
        out_dir=args.out,
        radius_m=args.radius,
        estimation=EstimationSettings(
            max_retries=args.max_retries,
            horizon_s=args.horizon,
            llm_transport=http_transport(args.llm_endpoint) if args.llm_endpoint else None,
        ),
        parallelism=args.parallelism,
    )


def _parse_case_line(line: str) -> CaseKey:
    parts = line.replace("_", " ").split()
    if len(parts) != 3:
        raise ValueError(f"bad case line: {line!r}")
    return CaseKey(int(parts[0]), int(parts[1]), int(parts[2]))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "run":
            config = _config_from_args(args)
            outcome = run_case(CaseKey(args.state, args.case, args.year), config)
            print(outcome.ledger_line())
            return 0

        if args.command == "batch":
            config = _config_from_args(args)
            case_list = [
                _parse_case_line(line)
                for line in args.cases.read_text("utf-8").splitlines()
                if line.strip()
            ]
            _, outcomes = run_batch(case_list, config)
            write_ledger(outcomes, Path(config.out_dir) / "ledger.txt")
            print(batch_summary(outcomes), file=sys.stderr)
            return 0

        if args.command == "replay":
            result = replay_package(args.package)
            sys.stdout.write(validation_to_json(result))
            return 0

        if args.command == "stats":
            sys.stdout.write(coverage_stats(args.packages).render())
            return 0

        if args.command == "plot":
            svg = render_plot(args.package)
            out_path = Path(args.package) / "plot.svg"
            out_path.write_text(svg, encoding="utf-8")
            print(str(out_path))
            return 0
    except (errors.CrashTraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    return 1


if __name__ == "__main__":
    sys.exit(main())

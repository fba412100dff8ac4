"""Command-line entry point.

Subcommands run the bundled verification battery section by section;
verify-all runs everything.  Exit codes in strict mode: 0 all pass,
1 discrepancy flagged, 2 check failure, 3 input error.  Without --strict the
exit code is 0 unless the input itself is bad.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import builtin_config, load_config
from .errors import ConfigError
from .report import VerificationReport, render_json, render_text
from .suite import SECTION_NAMES, run_section

_COMMANDS = SECTION_NAMES + ("verify-all",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratacheck",
        description="exact-integer verification of the bundled enumerative "
        "geometry suite",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} checks")
        cmd.add_argument("--config", help="JSON config overriding built-in inputs")
        cmd.add_argument(
            "--mode",
            choices=("paper", "derived"),
            default="derived",
            help="paper replays reference values; derived also recomputes them",
        )
        cmd.add_argument(
            "--strict",
            action="store_true",
            help="nonzero exit on any failure or discrepancy",
        )
        cmd.add_argument("--json", help="also write the report as JSON to this path")
        cmd.add_argument(
            "--check", default="", help="only run checks whose name contains this"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else builtin_config()
        records = run_section(args.command, config, args.mode, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    report = VerificationReport(
        __version__, args.mode, config.label, tuple(records)
    )
    sys.stdout.write(render_text(report))
    if args.json:
        try:
            with open(args.json, "w") as out:
                out.write(render_json(report))
        except OSError as exc:
            print(f"cannot write the JSON report: {exc}", file=sys.stderr)
            return 3
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    raise SystemExit(main())

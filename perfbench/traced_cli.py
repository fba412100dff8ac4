"""`python -m stratacheck` with the span recorder installed.

Usage: python3 perfbench/traced_cli.py SPANS.json REQUEST_ID ARG...

Runs stratacheck.cli.main(ARG...) inside one request span, writes the spans
to SPANS.json when it returns and exits with its exit code, like the module
entry point does.
"""

from __future__ import annotations

import sys

from tracer import ROOT, Tracer


def main(spans_path: str, request: int, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["stratacheck.cli"]
    tracer.request = request
    try:
        return tracer.span(ROOT, cli.main, argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3:]))

"""Machine-readable verification reports with canonical rendering.

The canonical text and JSON forms carry no timestamps and order everything
deterministically, so two runs over the same config and version are
byte-identical.
"""

from __future__ import annotations

import json

from .errors import Record

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"
ERROR = "error"


class CheckRecord(Record):
    name: str
    inputs: dict
    expected: object
    provenance: str
    computed: object
    status: str
    note: str = ""


class VerificationReport(Record):
    version: str
    mode: str
    config_label: str
    checks: tuple[CheckRecord, ...]

    def summary(self) -> dict[str, int]:
        counts = {PASS: 0, FAIL: 0, DISCREPANCY: 0, ERROR: 0}
        for record in self.checks:
            counts[record.status] += 1
        counts["total"] = len(self.checks)
        return counts

    def exit_code(self, strict: bool) -> int:
        """0 all pass; strict mode: 1 discrepancy flagged, 2 check failure."""
        if not strict:
            return 0
        counts = self.summary()
        if counts[FAIL] or counts[ERROR]:
            return 2
        if counts[DISCREPANCY]:
            return 1
        return 0


def _plain(value):
    """Canonical JSON-safe form: tuples to lists, other non-JSON values to str()."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_plain(v) for v in items]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def format_value(value) -> str:
    """A value as the text and JSON reports print it."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def render_text(report: VerificationReport) -> str:
    lines = [
        f"stratacheck {report.version} verification report",
        f"mode: {report.mode}",
        f"config: {report.config_label}",
        "",
    ]
    for record in report.checks:
        expected, computed = format_value(record.expected), format_value(record.computed)
        if record.status == DISCREPANCY:
            body = f"reference {expected} vs derived {computed}"
        else:
            body = f"expected {expected} computed {computed}"
        line = f"[{record.status.upper()}] {record.name} :: {body} ({record.provenance})"
        if record.note:
            line += f" :: {record.note}"
        lines.append(line)
    counts = report.summary()
    lines.append("")
    lines.append(
        "summary: total={total} pass={pass} fail={fail} "
        "discrepancy={discrepancy} error={error}".format(**counts)
    )
    return "\n".join(lines) + "\n"


def render_json(report: VerificationReport) -> str:
    payload = {
        "toolkit": "stratacheck",
        "version": report.version,
        "mode": report.mode,
        "config": report.config_label,
        "checks": [
            {
                "name": r.name,
                "inputs": _plain(r.inputs),
                "expected": _plain(r.expected),
                "provenance": r.provenance,
                "computed": _plain(r.computed),
                "status": r.status,
                "note": r.note,
            }
            for r in report.checks
        ],
        "summary": report.summary(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

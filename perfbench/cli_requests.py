"""Request plans and output checks for the two command-line workloads.

Expected values are the seed's: the record names of each section, the single
designed discrepancy at stratum o (864 recorded against 936 derived, ledger
totals 2283 and 2355) and the exit-code rule of --strict.
"""

from __future__ import annotations

import json
import random

CONFIG = "perfbench/restated_config.json"

SECTIONS = {
    "singularity": [
        "singularity.negation-c4.age",
        "singularity.negation-c4.class",
        "singularity.negation-c4.resolution-verdict",
        "singularity.z2z2-c6.class",
        "singularity.z2z2-c6.resolution-verdict",
        "singularity.negation-c2.class",
    ],
    "pluecker": [
        "pluecker.nodal-sextic.dual-degree",
        "pluecker.nodal-sextic.bitangents-flexes",
        "pluecker.nodal-sextic.flex-crosscheck",
        "pluecker.smooth-quartic.bitangents-flexes",
        "pluecker.smooth-cubic.bitangents-flexes",
        "pluecker.theta-odd.genus-4",
        "pluecker.theta-odd.genus-3",
        "pluecker.moduli-dimension",
        "pluecker.polystable.two-components",
        "pluecker.polystable.three-components",
    ],
    "cover": [
        "cover.sextic-pencil-branch",
        "cover.quartic-pencil-branch",
        "cover.tangency-curve-branch",
    ],
    "intersect": [
        "intersect.diagonal-self",
        "intersect.ruling-self",
        "intersect.bidegree-restriction",
        "intersect.adjoint-product",
        "intersect.adjunction-genus",
    ],
    "lines27": [
        "lines27.line-count",
        "lines27.regular-degrees",
        "lines27.tritangent-count",
        "lines27.tritangent-type-counts",
        "lines27.triples-per-line",
        "lines27.lines-per-triple",
        "lines27.double-count-identity",
    ],
    "euler": [
        "euler.pencil-nodal-members",
        "euler.k3-pencil-nodal-members",
        "euler.jacobian-k3-chi",
        "euler.cubic-ledger-total",
        "euler.degree2-ledger-total",
        "euler.discriminant-degree-sum",
        "euler.doubling-solutions",
        "euler.s-equivalence-classes",
    ],
}
EULER_DERIVED = [
    "euler.derived.case-k",
    "euler.derived.case-n",
    "euler.derived.case-s",
    "euler.derived.case-o",
    "euler.derived.degree2-discrepancies",
]
DISCREPANCY = "euler.derived.case-o"
FILTERS = {
    "singularity": ["class", "z2z2"],
    "pluecker": ["theta", "bitangents"],
    "cover": ["pencil"],
    "intersect": ["self", "adjunction"],
    "lines27": ["tritangent", "per-"],
    "euler": ["ledger", "derived"],
}
VERIFY_ALL_RECORDS = 62


def _summary_line(counts: dict) -> str:
    return (
        "summary: total={total} pass={pass} fail={fail} "
        "discrepancy={discrepancy} error={error}".format(**counts)
    )


def section_plan(seed: int) -> list[dict]:
    """Every section in both modes, with and without the restated config and
    --strict, in a seeded order with a seeded --check filter (or none).

    The expected summary and exit code follow from the seed's record names.
    """
    rng = random.Random(seed)
    plan = []
    for section in SECTIONS:
        for mode in ("paper", "derived"):
            for config in (False, True):
                for strict in (False, True):
                    check = rng.choice([""] + FILTERS[section])
                    names = SECTIONS[section] + (
                        EULER_DERIVED if section == "euler" and mode == "derived" else []
                    )
                    names = [n for n in names if check in n]
                    found = int(DISCREPANCY in names)
                    counts = {"total": len(names), "pass": len(names) - found,
                              "fail": 0, "discrepancy": found, "error": 0}
                    args = [section, "--mode", mode]
                    if check:
                        args += ["--check", check]
                    if config:
                        args += ["--config", CONFIG]
                    if strict:
                        args.append("--strict")
                    plan.append({
                        "args": args,
                        "label": CONFIG if config else "builtin",
                        "summary": _summary_line(counts),
                        "exit": 1 if strict and found else 0,
                    })
    rng.shuffle(plan)
    return plan


def check_section(request: dict, code: int, text: str, stderr: str) -> bool:
    lines = text.splitlines()
    return (
        code == request["exit"]
        and not stderr
        and len(lines) >= 4
        and lines[2] == f"config: {request['label']}"
        and lines[-1] == request["summary"]
    )


def check_verify_all(code: int, text: str, stderr: str, report: str) -> bool:
    """Exit 1 and the seed's 62 records with exactly one discrepancy at o."""
    if code != 1 or stderr:
        return False
    try:
        doc = json.loads(report)
        checks = doc["checks"]
        statuses = [c["status"] for c in checks]
        found = [c for c in checks if c["status"] == "discrepancy"]
        ledger_total = [c["computed"] for c in checks
                        if c["name"] == "euler.cubic-ledger-total"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return False
    counts = {"total": VERIFY_ALL_RECORDS, "pass": VERIFY_ALL_RECORDS - 1,
              "fail": 0, "discrepancy": 1, "error": 0}
    return (
        len(checks) == VERIFY_ALL_RECORDS
        and statuses.count("pass") == VERIFY_ALL_RECORDS - 1
        and len(found) == 1
        and found[0]["name"] == DISCREPANCY
        and (found[0]["expected"], found[0]["computed"]) == (864, 936)
        and "reference 2283, derived 2355" in found[0]["note"]
        and ledger_total == [2283]
        and doc["summary"] == counts
        and text.splitlines()[-1] == _summary_line(counts)
    )

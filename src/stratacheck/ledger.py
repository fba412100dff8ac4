"""Stratification ledgers: chi(total) as a sum of chi(stratum) * chi(fiber).

Two ledgers ship with the toolkit.  The main one covers the nineteen strata
a..s of the discriminant of the six-dimensional fibration; the companion one
covers the three contributing strata of the four-dimensional sibling built
from a degree-2 Del Pezzo double plane.  This module is bookkeeping only:
the reference rows, totals, derived ledgers built from derivations computed
elsewhere (the recipes live in ``suite``, next to the battery rows they read)
and the differences between two ledgers, reported instead of reconciled.
"""

from __future__ import annotations

from .errors import LedgerError, Record

PROVENANCES = ("paper", "derived", "trivial")

# ledger name -> label -> (dimension, description, chi_base, chi_fiber) of
# each stratum; in the cubic ledger only the zero-dimensional strata k, n, o,
# s contribute, the others have fiber chi 0
_STRATA = {
    "cubic": {
        "a": (2, "one invariant node", None, 0),
        "b": (2, "two nodes swapped by the involution", None, 0),
        "c": (1, "two invariant nodes", None, 0),
        "d": (1, "one invariant cusp", None, 0),
        "e": (1, "three nodes, one invariant", None, 0),
        "f": (1, "tacnode", None, 0),
        "g": (1, "two cusps swapped by the involution", None, 0),
        "h": (1, "two components meeting in four points", None, 0),
        "i": (0, "cusp and node", None, 0),
        "j": (0, "tacnode from quadruple contact", None, 0),
        "k": (0, "three invariant nodes", 120, 2),
        "l": (0, "two swapped cusps and an invariant node", None, 0),
        "m": (0, "A5 singularity", None, 0),
        "n": (0, "two components with an extra node", 378, 3),
        "o": (0, "two invariant and two swapped nodes", 864, 1),
        "p": (0, "tacnode and node", None, 0),
        "q": (0, "D4 singularity", None, 0),
        "r": (0, "two swapped nodes and an invariant cusp", None, 0),
        "s": (0, "three components meeting pairwise twice", 45, 1),
    },
    "degree2": {
        "bitangent": (0, "members doubly tangent to the branch quartic", 28, 2),
        "nodal_tangent": (0, "nodal members tangent to the branch quartic", 128, 1),
        "reducible": (0, "reducible members, one per bitangent of the quartic", 28, 1),
    },
}
CUBIC_LABELS = tuple(_STRATA["cubic"])

ZERO_FIBER_NOTE = "positive-dimensional fiber strata only; fiber chi is 0"


class StratumEntry(Record):
    """One ledger row: chi of the base stratum times chi of the fiber."""

    label: str
    dimension: int
    chi_base: int | None
    chi_fiber: int
    provenance: str
    recipe: str = ""
    description: str = ""

    def __post_init__(self):
        if self.dimension not in (0, 1, 2):
            raise LedgerError(f"stratum dimension must be 0, 1 or 2, got {self.dimension}")
        if self.provenance not in PROVENANCES:
            raise LedgerError(f"unknown provenance {self.provenance!r}")

    def contribution(self) -> int:
        if self.chi_fiber == 0:
            return 0
        if self.chi_base is None:
            raise LedgerError(
                f"stratum {self.label!r} has unknown chi_base but nonzero fiber chi"
            )
        return self.chi_base * self.chi_fiber


class Ledger(Record):
    """A named set of rows; a bundled name fixes the labels, others take their own."""

    name: str
    entries: tuple[StratumEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise LedgerError("duplicate ledger labels")
        required = set(_STRATA.get(self.name, labels))
        missing = required - set(labels)
        extra = set(labels) - required
        if missing or extra:
            raise LedgerError(
                f"ledger {self.name!r} incomplete: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )

    def entry(self, label: str) -> StratumEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise LedgerError(f"no entry labeled {label!r}")


def total_chi(ledger: Ledger) -> int:
    """Sum of chi_base * chi_fiber over all rows of a complete ledger."""
    return sum(e.contribution() for e in ledger.entries)


def ledger_rows(ledger: Ledger) -> list[dict]:
    """Rows in the documented structured form used for report emission."""
    return [e.asdict() for e in ledger.entries]


# ---------------------------------------------------------------------------
# the bundled ledgers


def paper_ledger(name: str) -> Ledger:
    """The reference rows of the bundled ledger ``name``, as recorded in _STRATA."""
    if name not in _STRATA:
        raise LedgerError(f"no bundled ledger named {name!r}")
    entries = tuple(
        StratumEntry(label, dimension, chi_base, chi_fiber, "paper",
                     "" if chi_fiber else ZERO_FIBER_NOTE, description)
        for label, (dimension, description, chi_base, chi_fiber) in _STRATA[name].items()
    )
    return Ledger(name, entries)


# ---------------------------------------------------------------------------
# derived rows


def derived_ledger(reference: Ledger, derivations: dict) -> Ledger:
    """The reference ledger with each row in ``derivations`` recomputed.

    ``derivations`` maps a label to its derived (chi_base, recipe), already
    computed; the fiber chi stays reference data (its finite ingredients are
    verified by fiber_point_checks).  Other rows are copied unchanged.
    """
    entries = []
    for e in reference.entries:
        if e.label in derivations:
            chi_base, recipe = derivations[e.label]
            e = e.replace(chi_base=chi_base, provenance="derived", recipe=recipe)
        entries.append(e)
    return reference.replace(entries=tuple(entries))


# ---------------------------------------------------------------------------
# discrepancy reporting


class Discrepancy(Record):
    label: str
    field: str
    paper_value: int | None
    derived_value: int | None
    cause: str


def discrepancy_report(
    ledger_paper: Ledger, ledger_derived: Ledger
) -> tuple[Discrepancy, ...]:
    """Rows where the two ledgers disagree, with the responsible recipe."""
    if {e.label for e in ledger_paper.entries} != {e.label for e in ledger_derived.entries}:
        raise LedgerError("ledgers cover different label sets")
    found = []
    for paper_entry in ledger_paper.entries:
        derived_entry = ledger_derived.entry(paper_entry.label)
        for field_name in ("chi_base", "chi_fiber"):
            pv = getattr(paper_entry, field_name)
            dv = getattr(derived_entry, field_name)
            if pv != dv:
                found.append(Discrepancy(paper_entry.label, field_name, pv, dv,
                                         derived_entry.recipe or "no recipe recorded"))
    return tuple(found)


# ---------------------------------------------------------------------------
# finite fiber-point verifications


class FiberPointChecks(Record):
    doubling_preimage_counts: tuple[tuple[tuple[int, int], int], ...]
    s_equivalence_class_count: int


def fiber_point_checks() -> FiberPointChecks:
    """Finite arithmetic behind the fiber chi values.

    On an elliptic curve every solution of 2p = q for a 2-torsion q is
    4-torsion, so brute force over the sixteen points of (Z/4)^2 is complete:
    each of the four 2-torsion points has exactly four halves.  The
    semistability classes d in {0, +-1, +-2} modulo d ~ -d number three.
    """
    points = [(i, j) for i in range(4) for j in range(4)]
    two_torsion = [(0, 0), (0, 2), (2, 0), (2, 2)]
    counts = tuple(
        (q, sum(1 for p in points if ((2 * p[0]) % 4, (2 * p[1]) % 4) == q))
        for q in two_torsion
    )
    classes = {frozenset((d, -d)) for d in range(-2, 3)}
    return FiberPointChecks(counts, len(classes))


import random
from dataclasses import replace

import pytest

from stratacheck.config import builtin_config
from stratacheck.errors import LedgerError
from stratacheck.ledger import (
    Ledger,
    StratumEntry,
    derived_ledger,
    discrepancy_report,
    discriminant_degree_sum,
    fiber_point_checks,
    paper_ledger,
    total_chi,
)

CURVE_SQUARE = builtin_config().require("bases", "curve-square")


def _derive(label):
    return derived_ledger(paper_ledger("cubic"), CURVE_SQUARE).entry(label)


def test_cubic_paper_total():
    ledger = paper_ledger("cubic")
    assert total_chi(ledger) == 2283
    assert len(ledger.entries) == 19
    contributing = [e.label for e in ledger.entries if e.chi_fiber != 0]
    assert contributing == ["k", "n", "o", "s"]


def test_cubic_dimensions_follow_the_stratification():
    ledger = paper_ledger("cubic")
    dims = {e.label: e.dimension for e in ledger.entries}
    assert dims["a"] == dims["b"] == 2
    assert all(dims[l] == 1 for l in "cdefgh")
    assert all(dims[l] == 0 for l in "ijklmnopqrs")


def test_degree2_paper_total():
    assert total_chi(paper_ledger("degree2")) == 212


def test_derived_entries():
    assert _derive("k").chi_base == 120
    assert _derive("k").chi_fiber == 2
    assert _derive("n").chi_base == 378
    assert _derive("n").chi_fiber == 3
    assert _derive("o").chi_base == 936
    assert _derive("o").chi_fiber == 1
    assert _derive("s").chi_base == 45


def test_derived_ledger_copies_underivable_rows():
    assert _derive("a") == paper_ledger("cubic").entry("a")


def test_derived_ledger_totals():
    derived = derived_ledger(paper_ledger("cubic"), CURVE_SQUARE)
    assert total_chi(derived) == 2355
    assert derived.entry("o").chi_base == 936


def test_single_discrepancy_between_paper_and_derived():
    paper = paper_ledger("cubic")
    found = discrepancy_report(paper, derived_ledger(paper, CURVE_SQUARE))
    assert len(found) == 1
    d = found[0]
    assert d.label == "o"
    assert d.field == "chi_base"
    assert (d.paper_value, d.derived_value) == (864, 936)
    assert "pluecker_solve_bf(6, 18, 4)" in d.cause


def test_identical_ledgers_have_no_discrepancies():
    assert discrepancy_report(paper_ledger("cubic"), paper_ledger("cubic")) == ()


def test_degree2_ledgers_agree():
    derived = derived_ledger(paper_ledger("degree2"), CURVE_SQUARE)
    assert discrepancy_report(paper_ledger("degree2"), derived) == ()
    assert derived.entry("bitangent").provenance == "derived"
    assert derived.entry("reducible").provenance == "derived"
    assert derived.entry("nodal_tangent").provenance == "paper"


def test_incomplete_ledger_rejected():
    rows = paper_ledger("cubic").entries[:-1]
    with pytest.raises(LedgerError):
        Ledger("cubic", rows)


def test_duplicate_labels_rejected():
    rows = paper_ledger("cubic").entries
    with pytest.raises(LedgerError):
        Ledger("cubic", rows + (rows[0],))


def test_unknown_base_with_nonzero_fiber_rejected():
    ledger = paper_ledger("cubic")
    broken = tuple(
        replace(e, chi_fiber=1) if e.label == "a" else e for e in ledger.entries
    )
    with pytest.raises(LedgerError):
        total_chi(Ledger("cubic", broken))


def test_total_chi_linear_in_fiber_values():
    rng = random.Random(99)
    base = paper_ledger("cubic")
    for _ in range(20):
        fibers1 = {e.label: rng.randint(-4, 4) for e in base.entries}
        fibers2 = {e.label: rng.randint(-4, 4) for e in base.entries}
        bases = {e.label: rng.randint(-50, 50) for e in base.entries}

        def build(fibers):
            rows = tuple(
                replace(e, chi_base=bases[e.label], chi_fiber=fibers[e.label])
                for e in base.entries
            )
            return Ledger("cubic", rows)

        summed = {
            label: fibers1[label] + fibers2[label] for label in fibers1
        }
        assert total_chi(build(summed)) == total_chi(build(fibers1)) + total_chi(
            build(fibers2)
        )


def test_fiber_point_checks():
    checks = fiber_point_checks()
    counts = dict(checks.doubling_preimage_counts)
    assert set(counts) == {(0, 0), (0, 2), (2, 0), (2, 2)}
    assert all(v == 4 for v in counts.values())
    assert checks.s_equivalence_class_count == 3


def test_discriminant_degree_sum():
    assert discriminant_degree_sum() == 30


def test_mismatched_label_sets_rejected():
    with pytest.raises(LedgerError):
        discrepancy_report(paper_ledger("cubic"), paper_ledger("degree2"))


def test_stratum_entry_validation():
    with pytest.raises(LedgerError):
        StratumEntry("x", 3, 1, 1, "paper")
    with pytest.raises(LedgerError):
        StratumEntry("x", 0, 1, 1, "hearsay")


def test_bundled_names_fix_the_labels():
    rows = tuple(e for e in paper_ledger("degree2").entries if e.label != "reducible")
    with pytest.raises(LedgerError, match="missing \\['reducible'\\]"):
        Ledger("degree2", rows)
    # any other name takes the labels of its own rows
    assert [e.label for e in Ledger("quartic", rows).entries] == ["bitangent", "nodal_tangent"]
    with pytest.raises(LedgerError, match="quartic"):
        paper_ledger("quartic")

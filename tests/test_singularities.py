import random
from fractions import Fraction

import pytest

from stratacheck.errors import QuasiReflectionError, ToolkitError
from stratacheck.singularities import (
    INCONCLUSIVE,
    NO_SYMPLECTIC_RESOLUTION,
    CyclicDiagonalElement,
    FiniteDiagonalGroup,
    SingularityClass,
    age,
    classify_quotient,
    symplectic_resolution_verdict,
)

NEG_C4 = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1, 1, 1)),))
NEG_C2 = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1)),))
Z2Z2_C6 = FiniteDiagonalGroup(
    (
        CyclicDiagonalElement(2, (0, 0, 1, 1, 1, 1)),
        CyclicDiagonalElement(2, (1, 1, 0, 0, 1, 1)),
    )
)


def test_age_examples():
    assert age(CyclicDiagonalElement(1, (0, 0, 0))) == 0
    assert age(CyclicDiagonalElement(2, (1, 1, 1, 1))) == 2
    assert age(CyclicDiagonalElement(2, (1, 1))) == 1
    assert age(CyclicDiagonalElement(3, (1, 2))) == 1
    assert age(CyclicDiagonalElement(4, (1, 1, 1))) == Fraction(3, 4)


def test_exponents_normalized_mod_order():
    e = CyclicDiagonalElement(3, (4, -1, 3))
    assert e.exponents == (1, 2, 0)


def test_group_closure_of_z2z2_has_four_elements():
    elements = Z2Z2_C6.elements()
    assert len(elements) == 4
    nontrivial = [e for e in elements if not e.is_identity()]
    assert sorted(sum(e.exponents) for e in nontrivial) == [4, 4, 4]
    assert all(age(e) == 2 for e in nontrivial)


def test_classification_examples():
    assert classify_quotient(NEG_C4) is SingularityClass.TERMINAL
    assert classify_quotient(Z2Z2_C6) is SingularityClass.TERMINAL
    assert classify_quotient(NEG_C2) is SingularityClass.CANONICAL_NOT_TERMINAL


def test_not_canonical_example():
    # one third times (1, 1) has age 2/3 < 1
    group = FiniteDiagonalGroup((CyclicDiagonalElement(3, (1, 1)),))
    assert classify_quotient(group) is SingularityClass.NOT_CANONICAL


def test_quasi_reflection_rejected():
    group = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 0, 0)),))
    with pytest.raises(QuasiReflectionError):
        classify_quotient(group)


def test_negation_terminal_iff_dimension_at_least_three():
    for n in range(2, 9):
        group = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1,) * n),))
        expected = (
            SingularityClass.TERMINAL
            if n >= 3
            else SingularityClass.CANONICAL_NOT_TERMINAL
        )
        assert classify_quotient(group) is expected


def test_age_of_inverse_counts_moved_coordinates():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.randint(1, 12)
        n = rng.randint(1, 6)
        e = CyclicDiagonalElement(r, tuple(rng.randrange(r) for _ in range(n)))
        moved = sum(1 for a in e.exponents if a)
        inverse = CyclicDiagonalElement(r, tuple(-a for a in e.exponents))
        assert age(e) + age(inverse) == moved


def test_classification_invariant_under_permutation_and_generators():
    base = classify_quotient(Z2Z2_C6)
    rng = random.Random(13)
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        permuted = FiniteDiagonalGroup(
            tuple(
                CyclicDiagonalElement(g.order, tuple(g.exponents[p] for p in perm))
                for g in Z2Z2_C6.generators
            )
        )
        assert classify_quotient(permuted) is base
    # a different generating set of the same group
    g1, g2 = Z2Z2_C6.generators
    alternative = FiniteDiagonalGroup((g1.compose(g2), g2))
    assert {e for e in alternative.elements()} == {e for e in Z2Z2_C6.elements()}
    assert classify_quotient(alternative) is base


def test_composition_reduces_representation():
    g = CyclicDiagonalElement(4, (2, 2))
    assert g.reduced() == CyclicDiagonalElement(2, (1, 1))
    assert g.compose(g).is_identity()


def test_verdicts():
    assert (
        symplectic_resolution_verdict(SingularityClass.TERMINAL).verdict
        == NO_SYMPLECTIC_RESOLUTION
    )
    assert (
        symplectic_resolution_verdict(SingularityClass.CANONICAL_NOT_TERMINAL).verdict
        == INCONCLUSIVE
    )
    assert (
        symplectic_resolution_verdict(SingularityClass.NOT_CANONICAL).verdict
        == INCONCLUSIVE
    )
    assert "Q-factorial" in symplectic_resolution_verdict(
        SingularityClass.TERMINAL
    ).assumption


def test_mismatched_generator_dimensions_rejected():
    with pytest.raises(ToolkitError):
        FiniteDiagonalGroup(
            (CyclicDiagonalElement(2, (1, 1)), CyclicDiagonalElement(2, (1, 1, 1)))
        )

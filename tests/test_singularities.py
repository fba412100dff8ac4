import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from stratacheck.config import builtin_config
from stratacheck.errors import QuasiReflectionError, ToolkitError
from stratacheck.singularities import (
    INCONCLUSIVE,
    NO_SYMPLECTIC_RESOLUTION,
    CyclicDiagonalElement,
    FiniteDiagonalGroup,
    SingularityClass,
    age,
    classify_quotient,
    preserves_symplectic_form,
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
    nontrivial = [e for e in elements if any(e.exponents)]
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
    # a different generating set of the same group: the product of the two
    # generators, and the second
    g1, g2 = Z2Z2_C6.generators
    alternative = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1, 1, 1, 0, 0)), g2))
    assert {e for e in alternative.elements()} == {e for e in Z2Z2_C6.elements()}
    assert classify_quotient(alternative) is base


def test_reduced_representation():
    g = CyclicDiagonalElement(4, (2, 2))
    assert g.reduced() == CyclicDiagonalElement(2, (1, 1))


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


def composed(e, g):
    """The product of two elements as the deleted ``compose`` formed it: both
    rescaled to the lcm of their orders, added, then reduced."""
    m = lcm(e.order, g.order)
    exps = tuple(
        (a * (m // e.order) + b * (m // g.order)) % m
        for a, b in zip(e.exponents, g.exponents)
    )
    return CyclicDiagonalElement(m, exps).reduced()


def breadth_first_elements(group):
    """The closure that the exponent-vector worklist replaced, kept as its
    reference: breadth-first from the reduced identity, composing each new
    element with every generator."""
    identity = CyclicDiagonalElement(1, (0,) * group.ambient_dim)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in group.generators:
                h = composed(e, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen, key=lambda e: (e.order, e.exponents)))


def embedding_classification(elements):
    """The Reid-Tai test as it was, kept as the reference: the age of every
    nontrivial element under every primitive embedding t -> z^t of its cyclic
    subgroup.  Returns the class, or the QuasiReflectionError message."""
    nontrivial = [e for e in elements if any(e.exponents)]
    for e in nontrivial:
        if sum(1 for a in e.exponents if a) == 1:
            return f"element {e} fixes a hyperplane; age criterion does not apply"
    # each age as its numerator over the order: age > 1 is numerator > order
    ages = [
        (sum((t * a) % e.order for a in e.exponents), e.order)
        for e in nontrivial
        for t in range(1, e.order)
        if gcd(t, e.order) == 1
    ]
    if all(num > r for num, r in ages):
        return SingularityClass.TERMINAL
    if all(num >= r for num, r in ages):
        return SingularityClass.CANONICAL_NOT_TERMINAL
    return SingularityClass.NOT_CANONICAL


def plain_age_classification(group):
    try:
        return classify_quotient(group)
    except QuasiReflectionError as exc:
        return str(exc)


def test_closure_and_plain_ages_match_the_reference_on_the_bundled_groups():
    for group in builtin_config().groups.values():
        reference = breadth_first_elements(group)
        assert group.elements() == reference
        assert plain_age_classification(group) == embedding_classification(reference)


def random_group(rng):
    """1 to 6 variables and 1 to 3 generators of order 1 to 8, some written
    over a multiple of their order, some repeated."""
    n = rng.randint(1, 6)
    gens = []
    for _ in range(rng.randint(1, 3)):
        if gens and rng.random() < 0.2:
            gens.append(rng.choice(gens))
            continue
        r = rng.randint(1, 8)
        exps = tuple(rng.randrange(-r, 2 * r) for _ in range(n))
        scale = rng.choice((1, 1, 2, 3))
        gens.append(CyclicDiagonalElement(r * scale, tuple(a * scale for a in exps)))
    return FiniteDiagonalGroup(tuple(gens))


def test_closure_and_plain_ages_match_the_reference_on_2000_random_groups():
    rng = random.Random(8)
    outcomes = set()
    shapes = set()
    for _ in range(2000):
        group = random_group(rng)
        reference = breadth_first_elements(group)
        assert group.elements() == reference, group
        outcome = plain_age_classification(group)
        assert outcome == embedding_classification(reference), group
        outcomes.add(outcome if isinstance(outcome, SingularityClass) else "quasi-reflection")
        gens = group.generators
        shapes.update(
            {
                "unreduced": any(g != g.reduced() for g in gens),
                "repeated": len(set(gens)) < len(gens),
                "order one": any(g.order == 1 for g in gens),
            }.items()
        )
    assert outcomes == set(SingularityClass) | {"quasi-reflection"}
    kinds = ("unreduced", "repeated", "order one")
    assert shapes == {(kind, seen) for kind in kinds for seen in (True, False)}


def has_invariant_matching(group):
    """Brute force: some perfect matching of the coordinates into pairs (i, j)
    whose dx_i ^ dx_j every generator fixes, so that their sum is an
    invariant symplectic form."""

    def fixed(i, j):
        return all((g.exponents[i] + g.exponents[j]) % g.order == 0 for g in group.generators)

    def match(free):
        if not free:
            return True
        i, *rest = free
        return any(fixed(i, j) and match(rest[:k] + rest[k + 1:]) for k, j in enumerate(rest))

    return match(list(range(group.ambient_dim)))


def test_the_symplectic_test_passes_the_bundled_groups_and_fails_odd_or_unpaired_ones():
    assert all(map(preserves_symplectic_form, builtin_config().groups.values()))
    # +-1 on C^3 has odd dimension; mu3 on C^4 pairs no character with its inverse
    odd = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1, 1)),))
    unpaired = FiniteDiagonalGroup((CyclicDiagonalElement(3, (1, 1, 1, 1)),))
    assert not preserves_symplectic_form(odd) and not preserves_symplectic_form(unpaired)
    # both are terminal, so only this test keeps them from the verdict
    assert classify_quotient(odd) is classify_quotient(unpaired) is SingularityClass.TERMINAL


def random_diagonal_group(rng):
    """1 to 6 variables and 1 or 2 generators of order 2 to 6; half the time
    the coordinates are characters and their inverses, shuffled."""
    n = rng.randint(1, 6)
    orders = [rng.randint(2, 6) for _ in range(rng.randint(1, 2))]
    columns = [tuple(rng.randrange(r) for r in orders) for _ in range(n)]
    if rng.random() < 0.5:
        columns = columns[: max(1, n // 2)]
        columns += [tuple(-a % r for a, r in zip(c, orders)) for c in columns]
        rng.shuffle(columns)
    return FiniteDiagonalGroup(tuple(
        CyclicDiagonalElement(r, tuple(c[k] for c in columns)) for k, r in enumerate(orders)
    ))


def test_the_symplectic_test_matches_a_matching_search_on_2000_random_groups():
    rng = random.Random(30)
    outcomes = set()
    for _ in range(2000):
        group = random_diagonal_group(rng)
        outcome = preserves_symplectic_form(group)
        assert outcome == has_invariant_matching(group), group
        outcomes.add(outcome)
    assert outcomes == {True, False}

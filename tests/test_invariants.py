import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from stratacheck import invariants
from stratacheck.errors import InvolutionError, NonSaturationError, ToolkitError
from stratacheck.invariants import (
    CoordinateInvolution,
    DiagonalAction,
    MonoidPresentation,
    binomial_relations,
    fixed_locus_presentation,
    invariant_generators,
    is_invariant,
    match_generators,
    presentations_isomorphic,
    relation_profile,
    toric_relations,
)

PAIR = DiagonalAction(8, ((1, 1, 1, 1, -1, -1, -1, -1),))
TRIPLE = DiagonalAction(
    12,
    (
        (1, 1, 1, 1, 0, 0, -1, -1, -1, -1, 0, 0),
        (0, 0, 1, 1, 1, 1, 0, 0, -1, -1, -1, -1),
    ),
)
NEG4 = DiagonalAction(4, (), ((2, (1, 1, 1, 1)),))
Z2Z2 = DiagonalAction(6, (), ((2, (0, 0, 1, 1, 1, 1)), (2, (1, 1, 0, 0, 1, 1))))
SWAP_PAIR = CoordinateInvolution((5, 4, 7, 6, 1, 0, 3, 2))
SWAP_TRIPLE = CoordinateInvolution((7, 6, 9, 8, 11, 10, 1, 0, 3, 2, 5, 4))


@pytest.fixture(scope="module")
def triple():
    """The torus-triple presentation, computed once for the tests that read it."""
    return toric_relations(TRIPLE, invariant_generators(TRIPLE, 6), 6)


# ---------------------------------------------------------------------------
# independent oracle (greedy filtering over an exhaustive enumeration)


def all_monomials(n, max_degree):
    if n == 0:
        yield ()
        return
    for head in range(max_degree + 1):
        for tail in all_monomials(n - 1, max_degree - head):
            yield (head,) + tail


def oracle_is_invariant(action, m):
    for row in action.torus_weights:
        if sum(w * e for w, e in zip(row, m)) != 0:
            return False
    for modulus, row in action.finite_factors:
        if sum(w * e for w, e in zip(row, m)) % modulus != 0:
            return False
    return True


def grlex_order(m):
    """Degree first, then the larger exponent vector first."""
    return (sum(m), tuple(-e for e in m))


def oracle_generators(action, bound):
    """The irreducible invariant monomials up to the bound, grlex sorted."""
    invariants_list = sorted(
        (
            m
            for m in all_monomials(action.ambient_dim, bound)
            if sum(m) >= 1 and oracle_is_invariant(action, m)
        ),
        key=grlex_order,
    )
    kept = []
    for m in invariants_list:
        if not any(all(g <= x for g, x in zip(k, m)) for k in kept):
            kept.append(m)
    return kept


def oracle_moves(pres, bound):
    """Generator vectors up to the ambient bound with their expansions, and
    for each relation (u, v) its moves w + u -> w + v among them."""
    k = len(pres.generators)
    expansions = {}
    for total in range(bound // min(sum(g) for g in pres.generators) + 1):
        for combo in combinations_with_replacement(range(k), total):
            e = tuple(combo.count(i) for i in range(k))
            if sum(pres.expand(e)) <= bound:
                expansions[e] = pres.expand(e)
    moves = [
        [(e, tuple(x - y + z for x, y, z in zip(e, u, v)))
         for e in expansions if all(x >= y for x, y in zip(e, u))]
        for u, v in pres.relations
    ]
    return expansions, moves


def oracle_fibers_connected(expansions, moves):
    """Whether each expansion fiber is connected under the given moves; a
    move read from its v side is the same move read from its u side."""
    parent = {e: e for e in expansions}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for pairs in moves:
        for e, f in pairs:
            parent[find(e)] = find(f)
    roots = {}
    for e, amb in expansions.items():
        roots.setdefault(amb, set()).add(find(e))
    return all(len(r) == 1 for r in roots.values())


# ---------------------------------------------------------------------------
# generator computation


def test_pair_generators_are_the_sixteen_products():
    pres = invariant_generators(PAIR, 4)
    expected = set()
    for i in range(4):
        for j in range(4):
            e = [0] * 8
            e[i] = 1
            e[4 + j] = 1
            expected.add(tuple(e))
    assert set(pres.generators) == expected
    assert all(is_invariant(PAIR, g) for g in pres.generators)


def test_negation_generators_are_the_ten_pairs():
    pres = invariant_generators(NEG4, 4)
    expected = set()
    for i, j in combinations_with_replacement(range(4), 2):
        e = [0] * 4
        e[i] += 1
        e[j] += 1
        expected.add(tuple(e))
    assert set(pres.generators) == expected


def test_triple_generators_split_twelve_quadratic_sixteen_cubic():
    pres = invariant_generators(TRIPLE, 6)
    degrees = sorted(sum(g) for g in pres.generators)
    assert degrees.count(2) == 12
    assert degrees.count(3) == 16
    assert len(pres.generators) == 28
    # the same 28 generators, certified at every bound up to 8
    assert invariant_generators(TRIPLE, 7) == invariant_generators(TRIPLE, 8) == pres


def test_z2z2_generators_split_nine_quadratic_eight_cubic():
    pres = invariant_generators(Z2Z2, 4)
    degrees = [sum(g) for g in pres.generators]
    assert degrees.count(2) == 9
    assert degrees.count(3) == 8
    assert len(pres.generators) == 17


def test_saturation_failure_reports_witness():
    skew = DiagonalAction(2, ((1, -3),))
    with pytest.raises(NonSaturationError) as info:
        invariant_generators(skew, 3)
    assert info.value.witness == (3, 1)
    pres = invariant_generators(skew, 4)
    assert pres.generators == ((3, 1),)


def test_unconstrained_action_yields_coordinate_generators():
    free = DiagonalAction(3)
    pres = invariant_generators(free, 2)
    assert set(pres.generators) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_degree_bound_must_be_positive():
    with pytest.raises(ToolkitError):
        invariant_generators(NEG4, 0)


def test_oracle_agreement_on_200_random_actions():
    rng = random.Random(20260808)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        torus = tuple(
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(0, 2))
        )
        finite = tuple(
            (rng.choice((2, 3)), tuple(rng.randint(-2, 2) for _ in range(n)))
            for _ in range(rng.randint(0, 2))
        )
        action = DiagonalAction(n, torus, finite)
        expected = oracle_generators(action, 8)
        try:
            pres = invariant_generators(action, 4)
        except NonSaturationError as exc:
            assert exc.witness == next(m for m in expected if sum(m) > 4)
            outcomes.add("witness")
            continue
        assert pres.generators == tuple(expected)
        assert all(sum(g) <= 4 and is_invariant(action, g) for g in pres.generators)
        outcomes.add("generators")
    assert outcomes == {"generators", "witness"}


def ambient_sieve(action, degree_bound):
    """The grlex sieve run on every ambient monomial instead of on class
    vectors: the same generators, witness and message, without the quotient."""
    generators = []
    for m in invariants._invariant_vectors(action, 2 * degree_bound):
        if sum(m) == 0 or any(all(x <= y for x, y in zip(g, m)) for g in generators):
            continue
        if sum(m) > degree_bound:
            raise NonSaturationError(
                f"invariant monomial {m} of degree {sum(m)} does not factor "
                f"into the degree-{degree_bound} generators; raise the bound",
                witness=m,
            )
        generators.append(m)
    return tuple(generators)


def sieve_outcome(sieve, action, bound):
    try:
        return "generators", sieve(action, bound)
    except NonSaturationError as exc:
        return "witness", exc.witness, str(exc)


def random_aliased_action(rng):
    """A random action in which some weight columns repeat exactly or agree
    only modulo the factor orders."""
    n = rng.randint(1, 6)
    torus = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    finite = [
        (rng.randint(2, 5), [rng.randint(-3, 3) for _ in range(n)])
        for _ in range(rng.randint(0, 2))
    ]
    for _ in range(rng.randint(0, n - 1)):
        i, j = rng.sample(range(n), 2)
        for row in torus:
            row[j] = row[i]
        for m, row in finite:
            row[j] = row[i] + m * rng.randint(-1, 1)
    return DiagonalAction(n, tuple(map(tuple, torus)), tuple((m, tuple(r)) for m, r in finite))


def test_quotient_sieve_matches_ambient_sieve_on_500_aliased_actions(monkeypatch):
    # the sieve must run on the coarsest quotient: one variable per distinct
    # weight column, finite weights compared modulo their orders
    quotient_dims = []
    enumerate_vectors = invariants._invariant_vectors

    def spy(action, max_degree):
        quotient_dims.append(action.ambient_dim)
        return enumerate_vectors(action, max_degree)

    monkeypatch.setattr(invariants, "_invariant_vectors", spy)
    rng = random.Random(20261018)
    actions = [DiagonalAction(4, (), ((2, (1, 3, -1, 0)),))]
    actions += [random_aliased_action(rng) for _ in range(500)]
    outcomes = set()
    for action in actions:
        columns = {
            tuple(row[i] for row in action.torus_weights)
            + tuple(w[i] % m for m, w in action.finite_factors)
            for i in range(action.ambient_dim)
        }
        for bound in (3, 4):
            expected = sieve_outcome(ambient_sieve, action, bound)
            quotient_dims.clear()
            got = sieve_outcome(lambda a, b: invariant_generators(a, b).generators, action, bound)
            assert got == expected, (action, bound)
            assert quotient_dims == [len(columns)], (action, bound)
            outcomes.add(expected[0])
    assert outcomes == {"generators", "witness"}
    # weights 1, 3 and -1 agree mod 2: two classes, of sizes three and one
    assert invariant_generators(actions[0], 3).generators == (
        (0, 0, 0, 1), (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0),
        (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
    )


def test_sieve_stops_at_its_witness(monkeypatch):
    # the sieve pulls class vectors one at a time and stops at the witness;
    # a walk run to its end reaches twice the bound
    reached = []
    enumerate_vectors = invariants._invariant_vectors

    def spy(action, max_degree):
        for v in enumerate_vectors(action, max_degree):
            reached.append(sum(v))
            yield v
        reached.append(max_degree)

    monkeypatch.setattr(invariants, "_invariant_vectors", spy)
    with pytest.raises(NonSaturationError) as info:
        invariant_generators(DiagonalAction(2, (), ((5, (1, 1)),)), 3)
    assert info.value.witness == (5, 0)
    assert max(reached) == 5
    # x^3 y at degree 4 is the witness; degrees 5 and 6 hold invariants too
    reached.clear()
    with pytest.raises(NonSaturationError) as info:
        invariant_generators(DiagonalAction(2, (), ((5, (1, 2)),)), 3)
    assert info.value.witness == (3, 1)
    assert max(reached) == 4
    # a saturated sieve still reads every vector up to twice the bound, the
    # last of them x^4 y^4 in class vectors
    reached.clear()
    assert len(invariant_generators(PAIR, 4).generators) == 16
    assert reached[-2:] == [8, 8]


@pytest.mark.xfail(
    strict=True,
    reason="saturation at twice the bound is heuristic: the degree-8 "
    "generators x^a z^(7-a) w lie above it",
)
def test_generator_above_twice_the_bound_is_reported():
    with pytest.raises(NonSaturationError) as info:
        invariant_generators(DiagonalAction(4, ((1, -1, 1, -7),)), 3)
    assert info.value.witness == (7, 0, 0, 1)


# ---------------------------------------------------------------------------
# relations


def test_pair_relations_are_the_36_minor_identities():
    pres = toric_relations(PAIR, invariant_generators(PAIR, 4), 4)
    assert len(pres.relations) == 36
    gens = pres.generators
    for u, v in pres.relations:
        assert sum(u) == sum(v) == 2
        assert pres.expand(u) == pres.expand(v)
        # sides share no generator: a genuine exchange of row/column pairs
        assert all(not (a and b) for a, b in zip(u, v))
    assert relation_profile(pres) == {(4, (2, 2)): 36}
    assert len(gens) == 16


def test_negation_relations_are_pair_swaps():
    pres = toric_relations(NEG4, invariant_generators(NEG4, 4), 4)
    assert len(pres.relations) == 20
    for u, v in pres.relations:
        assert sum(u) == sum(v) == 2
        assert pres.expand(u) == pres.expand(v)


def test_triple_relation_profile_and_reference_families(triple):
    assert relation_profile(triple) == {
        (4, (2, 2)): 3,
        (5, (2, 2)): 48,
        (6, (2, 2)): 18,
        (6, (2, 3)): 64,
    }
    # reference families regenerated from their index structure
    first = [i for i, g in enumerate(triple.generators) if sum(g) == 3 and (g[2] or g[3])]
    second = [i for i, g in enumerate(triple.generators) if sum(g) == 3 and (g[8] or g[9])]
    assert len(first) == len(second) == 8
    sub_first = MonoidPresentation(12, tuple(triple.generators[i] for i in first))
    sub_second = MonoidPresentation(12, tuple(triple.generators[i] for i in second))
    assert len(binomial_relations(sub_first, 6)) == 9
    assert len(binomial_relations(sub_second, 6)) == 9


def test_relations_expand_to_identities_and_are_minimal():
    pres = toric_relations(Z2Z2, invariant_generators(Z2Z2, 4), 6)
    for u, v in pres.relations:
        assert pres.expand(u) == pres.expand(v)
    expansions, moves = oracle_moves(pres, 6)
    assert oracle_fibers_connected(expansions, moves)
    for dropped in range(len(moves)):
        assert not oracle_fibers_connected(expansions, moves[:dropped] + moves[dropped + 1 :])


def genmon_sign(genexp, gen_signs):
    """Sign of a generator monomial: flipped once for every odd exponent on
    a generator of negative sign."""
    if gen_signs is None:
        return 1
    s = 1
    for e, gs in zip(genexp, gen_signs):
        if gs < 0 and e % 2:
            s = -s
    return s


def weighted_vectors(degrees, bound):
    """Every exponent vector e >= 0 with sum(e_i * degrees[i]) <= bound."""
    if not degrees:
        yield ()
        return
    for head in range(bound // degrees[0] + 1):
        for tail in weighted_vectors(degrees[1:], bound - head * degrees[0]):
            yield (head,) + tail


def closure_relations(pres, degree_bound, gen_signs=None):
    """The congruence closure that the fiber components replaced, kept as
    their reference: fibers in grlex order, two members merged when they
    agree after deleting one shared generator in a lower fiber, by union-find
    state carried across every fiber, then the components still apart joined
    by fresh relations."""
    fibers = {}
    for genexp in weighted_vectors([sum(g) for g in pres.generators], degree_bound):
        key = (pres.expand(genexp), genmon_sign(genexp, gen_signs))
        fibers.setdefault(key, []).append(genexp)
    parent = {m: m for members in fibers.values() for m in members}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    relations = []
    side_key = lambda u: (sum(u), u)
    for key in sorted(fibers, key=lambda k: (grlex_order(k[0]), -k[1])):
        members = sorted(fibers[key], key=side_key)
        for a, b in combinations(members, 2):
            if find(a) == find(b):
                continue
            for i in range(len(a)):
                if a[i] and b[i]:
                    da = a[:i] + (a[i] - 1,) + a[i + 1 :]
                    db = b[:i] + (b[i] - 1,) + b[i + 1 :]
                    if find(da) == find(db):
                        parent[find(b)] = find(a)
                        break
        components = {}
        for m in members:
            components.setdefault(find(m), []).append(m)
        reps = sorted((min(ms, key=side_key) for ms in components.values()), key=side_key)
        for other in reps[1:]:
            relations.append((reps[0], other))
            parent[find(other)] = find(reps[0])
    return tuple(relations)


def test_fiber_components_match_the_closure_on_the_bundled_presentations(
    triple, monkeypatch
):
    calls = []
    components = invariants.binomial_relations

    def spy(pres, degree_bound, gen_signs=None):
        out = components(pres, degree_bound, gen_signs)
        calls.append((pres, degree_bound, gen_signs, out))
        return out

    monkeypatch.setattr(invariants, "binomial_relations", spy)
    pair = toric_relations(PAIR, invariant_generators(PAIR, 4), 4)
    toric_relations(NEG4, invariant_generators(NEG4, 4), 4)
    toric_relations(Z2Z2, invariant_generators(Z2Z2, 4), 6)
    spy(triple, 10)
    spy(triple, 6)
    # each fixed locus unsigned, as bundled, and with signs that make its
    # generator monomials signed
    triple_signs = (1, 1, -1, -1, -1, -1, 1, 1, -1, -1, -1, -1)
    for action, pres, swap, signs in (
        (PAIR, pair, SWAP_PAIR, (-1,) * 8),
        (TRIPLE, triple, SWAP_TRIPLE, triple_signs),
    ):
        fixed_locus_presentation(action, pres, swap)
        fixed_locus_presentation(action, pres, CoordinateInvolution(swap.image, signs))
    assert [len(out) for *_, out in calls] == [36, 20, 63, 133, 133, 20, 20, 63, 63]
    assert [signs is not None for _, _, signs, _ in calls] == [False] * 6 + [True, False, True]
    for pres, degree_bound, gen_signs, out in calls:
        assert out == closure_relations(pres, degree_bound, gen_signs)


def test_fiber_components_match_the_closure_on_500_random_presentations():
    rng = random.Random(20261019)
    presentations = signed_differ = 0
    while presentations < 500:
        n = rng.randint(1, 5)
        torus = tuple(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))
        )
        finite = tuple(
            (rng.randint(2, 4), tuple(rng.randint(-3, 3) for _ in range(n)))
            for _ in range(rng.randint(0, 2))
        )
        try:
            pres = invariant_generators(DiagonalAction(n, torus, finite), 3)
        except NonSaturationError:
            continue
        if not 1 < len(pres.generators) <= 12:
            continue
        presentations += 1
        bound = 2 * max(sum(g) for g in pres.generators) + rng.randint(0, 1)
        signs = tuple(rng.choice((1, -1)) for _ in pres.generators)
        unsigned = binomial_relations(pres, bound)
        signed = binomial_relations(pres, bound, signs)
        assert unsigned == closure_relations(pres, bound), (pres, bound)
        assert signed == closure_relations(pres, bound, signs), (pres, bound, signs)
        signed_differ += signed != unsigned
    assert signed_differ > 50


def test_packed_members_match_the_closure_at_the_packing_boundaries():
    # digits are w = max(bound, 1).bit_length() bits wide: at bounds 1, 3,
    # 7 and 15 the power x^bound fills a digit with its top value 2^w - 1,
    # as generator count, exponent and ambient exponent alike, and at 2, 4,
    # 8 and 16 the width grows by one bit
    corner = MonoidPresentation(2, ((1, 0), (0, 1), (1, 1)))
    line = MonoidPresentation(1, ((1,), (2,), (3,)))
    single = MonoidPresentation(3, ((2, 0, 1),))
    empty = MonoidPresentation(3, ())
    cases = [(pres, bound) for pres in (corner, line, single) for bound in range(-2, 18)]
    cases += [(empty, 4), (empty, 0), (empty, -1)]
    for pres, bound in cases:
        sign_choices = [None] + list(product((1, -1), repeat=len(pres.generators)))
        for signs in sign_choices:
            got = binomial_relations(pres, bound, signs)
            assert got == closure_relations(pres, bound, signs), (pres, bound, signs)
    assert binomial_relations(corner, 12) == (((0, 0, 1), (1, 1, 0)),)
    assert binomial_relations(corner, 1) == binomial_relations(corner, -1) == ()
    assert binomial_relations(line, 15) == (((0, 1, 0), (2, 0, 0)), ((0, 0, 1), (1, 1, 0)))
    # one generator's powers expand to distinct monomials
    assert binomial_relations(single, 17) == binomial_relations(empty, 4) == ()


def test_layered_members_match_the_closure_in_any_generator_order():
    # each pass grows the degree layers in the given generator order, which
    # need not be grlex, and a generator above the bound adds no member
    # but keeps its index and support bit
    cases = (
        MonoidPresentation(1, ((3,), (1,), (2,))),
        MonoidPresentation(2, ((2, 0), (0, 13), (1, 1), (0, 2))),
        MonoidPresentation(2, ((1, 1), (3, 0), (0, 7), (1, 0), (0, 1))),
    )
    for pres in cases:
        for bound in range(-1, 13):
            for signs in [None] + list(product((1, -1), repeat=len(pres.generators))):
                got = binomial_relations(pres, bound, signs)
                assert got == closure_relations(pres, bound, signs), (pres, bound, signs)
    line, square, _ = cases
    # x^2 = x * x, and x^3 = x * x^2, the least member of x^3's other component
    assert binomial_relations(line, 6) == (((0, 0, 1), (0, 2, 0)), ((1, 0, 0), (0, 1, 1)))
    assert binomial_relations(square, 12) == (((0, 0, 2, 0), (1, 0, 0, 1)),)
    assert binomial_relations(square, 3) == ()


def test_malformed_generator_signs_are_rejected():
    pres = MonoidPresentation(2, ((1, 0), (0, 1), (1, 1)))
    for signs in ((1,), (1, -1, 1, -1), (1, 0, -1), (1, -1, 5)):
        with pytest.raises(ToolkitError, match="one \\+1 or -1 per generator"):
            binomial_relations(pres, 4, signs)
    # xy and x * y have one sign when an even count of the three is -1;
    # their squares always do
    assert binomial_relations(pres, 4, [1, -1, -1]) == (((0, 0, 1), (1, 1, 0)),)
    assert binomial_relations(pres, 4, (1, -1, 1)) == (((0, 0, 2), (2, 2, 0)),)


def test_fiber_order_matches_the_closure_on_wide_packed_codes(triple):
    # 25 to 28 generators at bounds 8 and 9: the packed exponent vectors
    # alone are wider than 64 bits, and many fibers of one degree emit
    # relations
    rng = random.Random(20261021)
    cases = [(triple, 8), (triple, 9)]
    for size in (25, 27):
        gens = rng.sample(triple.generators, size)
        cases.append((MonoidPresentation(12, tuple(gens)), 8))
    for pres, bound in cases:
        assert bound.bit_length() * len(pres.generators) > 64
        signs = tuple(rng.choice((1, -1)) for _ in pres.generators)
        unsigned = binomial_relations(pres, bound)
        signed = binomial_relations(pres, bound, signs)
        assert len({sum(pres.expand(u)) for u, _ in unsigned}) < len(unsigned)
        assert unsigned == closure_relations(pres, bound), (pres, bound)
        assert signed == closure_relations(pres, bound, signs), (pres, bound, signs)


def test_generators_with_negative_exponents_are_rejected():
    with pytest.raises(ToolkitError, match="negative exponent"):
        MonoidPresentation(2, ((2, -1),))


def test_relations_with_negative_exponents_are_rejected():
    # (2, -1) and (0, 0) both expand to x^0, but x^-1 is no monomial
    with pytest.raises(ToolkitError, match="negative exponent"):
        MonoidPresentation(1, ((1,), (2,)), (((2, -1), (0, 0)),))
    with pytest.raises(ToolkitError, match="negative exponent"):
        MonoidPresentation(1, ((1,), (2,)), (((0, 0), (-2, 1)),))


def test_toric_relations_rejects_non_invariant_generators():
    bad = MonoidPresentation(8, ((1, 0, 0, 0, 0, 0, 0, 0),))
    with pytest.raises(ToolkitError):
        toric_relations(PAIR, bad, 4)


# ---------------------------------------------------------------------------
# fixed loci


def test_pair_fixed_locus_is_the_veronese_presentation():
    pair = toric_relations(PAIR, invariant_generators(PAIR, 4), 4)
    fixed = fixed_locus_presentation(PAIR, pair, SWAP_PAIR)
    assert fixed.ambient_dim == 4
    assert len(fixed.generators) == 10
    assert len(fixed.relations) == 20
    for u, v in fixed.relations:
        assert sum(u) == sum(v) == 2


def test_triple_fixed_locus_generators_and_relations(triple):
    fixed = fixed_locus_presentation(TRIPLE, triple, SWAP_TRIPLE)
    assert fixed.ambient_dim == 6
    degrees = [sum(g) for g in fixed.generators]
    assert degrees.count(2) == 9 and degrees.count(3) == 8
    histogram = {}
    for u, _ in fixed.relations:
        d = sum(fixed.expand(u))
        histogram[d] = histogram.get(d, 0) + 1
    assert histogram == {4: 3, 5: 24, 6: 36}


def test_identity_involution_keeps_presentation():
    pair = toric_relations(PAIR, invariant_generators(PAIR, 4), 4)
    same = fixed_locus_presentation(PAIR, pair, CoordinateInvolution(tuple(range(8))))
    assert same == pair


def test_non_normalizing_involution_rejected():
    # swapping a variable with its dual sends x1*y2 to y1*y2, not invariant
    with pytest.raises(InvolutionError):
        fixed_locus_presentation(
            PAIR,
            invariant_generators(PAIR, 4),
            CoordinateInvolution((4, 1, 2, 3, 0, 5, 6, 7)),
        )


def test_sign_involution_zeroes_fixed_variables():
    # invariants of Z/2 negation on C^2: x^2, xy, y^2; the sign fixes kill x
    action = DiagonalAction(2, (), ((2, (1, 1)),))
    pres = toric_relations(action, invariant_generators(action, 2), 4)
    inv = CoordinateInvolution((0, 1), (-1, 1))
    fixed = fixed_locus_presentation(action, pres, inv)
    assert fixed.ambient_dim == 1
    assert fixed.generators == ((2,),)
    assert fixed.relations == ()


def test_fixed_locus_rejects_mismatched_dimensions():
    # an 8-variable involution on a 2-variable action and presentation
    action = DiagonalAction(2, ((1, -3),))
    pres = toric_relations(action, invariant_generators(action, 4), 4)
    with pytest.raises(ToolkitError, match="dimensions differ"):
        fixed_locus_presentation(action, pres, SWAP_PAIR)
    # a matching involution on a presentation of another dimension
    with pytest.raises(ToolkitError, match="dimensions differ"):
        fixed_locus_presentation(PAIR, pres, SWAP_PAIR)


def test_involution_must_square_to_identity():
    with pytest.raises(InvolutionError):
        CoordinateInvolution((1, 2, 0))


def test_presentation_without_generators_has_empty_fixed_locus_and_relations():
    # only the constants are invariant under the diagonal C*
    action = DiagonalAction(2, ((1, 1),))
    empty = invariant_generators(action, 2)
    assert empty.generators == ()
    fixed = fixed_locus_presentation(action, empty, CoordinateInvolution((1, 0)))
    assert fixed == MonoidPresentation(1, ())
    assert invariants.within_subset_relation_count(empty, ()) == 0
    assert presentations_isomorphic(empty, empty, ()).degree_bound == 0


# ---------------------------------------------------------------------------
# presentation isomorphisms


def test_fixed_pair_isomorphic_to_negation_invariants():
    pair = toric_relations(PAIR, invariant_generators(PAIR, 4), 4)
    fixed = fixed_locus_presentation(PAIR, pair, SWAP_PAIR)
    neg = toric_relations(NEG4, invariant_generators(NEG4, 4), 4)
    result = presentations_isomorphic(fixed, neg, match_generators(fixed, neg))
    assert result.isomorphic
    assert result.counterexample is None
    assert result.degree_bound == 4
    assert result.classes_checked == 2 * len(neg.relations)


def test_fixed_triple_isomorphic_to_z2z2_invariants(triple):
    fixed = fixed_locus_presentation(TRIPLE, triple, SWAP_TRIPLE)
    z = toric_relations(Z2Z2, invariant_generators(Z2Z2, 4), 6)
    result = presentations_isomorphic(fixed, z, match_generators(fixed, z))
    assert result.isomorphic
    assert result.degree_bound == 6
    # the certificate recomputes both sides' relations, so a target that
    # carries none (generators only) gets the same verdict
    bare = invariant_generators(Z2Z2, 4)
    assert bare.relations == ()
    assert presentations_isomorphic(fixed, bare, match_generators(fixed, bare), 6) == result


def test_presentation_isomorphic_to_itself():
    neg = toric_relations(NEG4, invariant_generators(NEG4, 4), 4)
    result = presentations_isomorphic(neg, neg, tuple(range(10)))
    assert result.isomorphic


def test_generator_count_mismatch_is_false_not_error():
    pair = invariant_generators(PAIR, 4)
    neg = invariant_generators(NEG4, 4)
    result = presentations_isomorphic(pair, neg, tuple(range(10)))
    assert not result.isomorphic
    assert "mismatch" in result.detail


def test_wrong_bijection_returns_counterexample():
    neg = toric_relations(NEG4, invariant_generators(NEG4, 4), 4)
    # swapping two generators of different squarefree type breaks the fibers
    gens = list(neg.generators)
    squares = [i for i, g in enumerate(gens) if max(g) == 2]
    mixed = [i for i, g in enumerate(gens) if max(g) == 1]
    bad_map = list(range(10))
    bad_map[squares[0]], bad_map[mixed[0]] = bad_map[mixed[0]], bad_map[squares[0]]
    result = presentations_isomorphic(neg, neg, tuple(bad_map))
    assert not result.isomorphic
    # the counterexample is a relation of one side whose image fails on the other
    u, v = result.counterexample
    inverse = [bad_map.index(j) for j in range(10)]
    targets = bad_map if result.detail.startswith("congruent on the source") else inverse
    assert (u, v) in binomial_relations(neg, result.degree_bound)
    assert neg.expand(u) == neg.expand(v)

    def carry(genexp):
        out = [0] * 10
        for e, j in zip(genexp, targets):
            out[j] = e
        return tuple(out)

    assert neg.expand(carry(u)) != neg.expand(carry(v))


# ---------------------------------------------------------------------------
# assorted invariants of the machinery itself


def test_grlex_order_is_degree_then_lex():
    assert tuple(invariants._invariant_vectors(DiagonalAction(2), 2)) == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    )


def test_grlex_key_total_degree_first():
    ms = list(invariants._invariant_vectors(DiagonalAction(2), 4))
    assert ms.index((0, 3)) < ms.index((4, 0))
    assert ms.index((2, 0)) < ms.index((1, 1))


def random_enumeration_action(rng):
    """A random action with up to three torus rows, each mixed, all positive
    or all negative, so the enumerator's pruning windows take every shape."""
    n = rng.randint(1, 6)
    torus = []
    for _ in range(rng.randint(0, 3)):
        low, high = rng.choice(((-2, 2), (1, 2), (-2, -1)))
        torus.append(tuple(rng.randint(low, high) for _ in range(n)))
    finite = tuple(
        (rng.randint(2, 5), tuple(rng.randint(-3, 3) for _ in range(n)))
        for _ in range(rng.randint(0, 2))
    )
    return DiagonalAction(n, tuple(torus), finite)


def test_invariant_monomials_sorted_and_complete():
    ms = invariants._invariant_vectors(NEG4, 4)
    brute = sorted(
        (m for m in all_monomials(4, 4) if oracle_is_invariant(NEG4, m)),
        key=grlex_order,
    )
    assert list(ms) == brute
    # a negative bound admits no monomial, with or without torus rows
    for action in (DiagonalAction(2), DiagonalAction(2, ((1, -1),)), NEG4):
        assert list(invariants._invariant_vectors(action, -1)) == []
    rng = random.Random(20261020)
    row_signs, row_counts = set(), set()
    one_variable_congruence = zero_only = False
    closing_zero = set()  # whether w[-2] - w[-1] is 0 mod m, per finite row
    for _ in range(300):
        action = random_enumeration_action(rng)
        n = action.ambient_dim
        row_signs.update(
            (min(row) > 0) - (max(row) < 0) for row in action.torus_weights
        )
        row_counts.add(len(action.torus_weights))
        one_variable_congruence |= n == 1 and bool(action.finite_factors)
        if n > 1:
            closing_zero.update((w[-2] - w[-1]) % m == 0 for m, w in action.finite_factors)
        one_signed = any(min(row) > 0 or max(row) < 0 for row in action.torus_weights)
        for bound in range(-1, 7):
            brute = sorted(
                (
                    m
                    for m in all_monomials(n, bound)
                    if oracle_is_invariant(action, m)
                ),
                key=grlex_order,
            )
            assert list(invariants._invariant_vectors(action, bound)) == brute, (action, bound)
            zero_only |= one_signed and bound >= 1 and brute == [(0,) * n]
    assert row_signs == {-1, 0, 1}
    assert row_counts == {0, 1, 2, 3}
    assert one_variable_congruence and zero_only
    assert closing_zero == {False, True}


def test_every_relation_side_has_equal_expansion_under_validation():
    with pytest.raises(ToolkitError):
        MonoidPresentation(
            2, ((1, 0), (0, 1)), relations=(((1, 0), (0, 1)),)
        )

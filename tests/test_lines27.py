import random
from itertools import combinations, count, permutations, product, takewhile
from math import isqrt

from stratacheck.lines27 import (
    CANONICAL,
    PICARD,
    _line_classes,
    build_configuration,
    dual_stratification_counts,
    tritangent_type_counts,
)
from stratacheck.surfaces import DivisorClass, divisor, intersect

CONFIG = build_configuration()
LINES = CONFIG.lines
INDEX = {line.coefficients: i for i, line in enumerate(LINES)}


# ---------------------------------------------------------------------------
# the classical blowup labels, kept here as the oracle for the derivation


def classical_class(kind, indices):
    """E_i = e_i, F_ij = h - e_i - e_j, G_j = 2h - sum of e_k over k != j."""
    if kind == "E":
        return divisor(PICARD, **{f"e{indices[0]}": 1})
    if kind == "F":
        return divisor(PICARD, h=1, **{f"e{i}": -1 for i in indices})
    return divisor(PICARD, h=2, **{f"e{k}": -1 for k in range(1, 7) if k != indices[0]})


LABELS = (
    [("E", (i,)) for i in range(1, 7)]
    + [("G", (j,)) for j in range(1, 7)]
    + [("F", pair) for pair in combinations(range(1, 7), 2)]
)


def classical_incident(a, b):
    """E meets no E, G no G; E_i meets G_j for i != j; E_i and G_j meet F_kl
    when their index is one of k, l; two F's meet when their pairs are disjoint."""
    if a == b:
        return False
    kinds = {a[0], b[0]}
    if kinds in ({"E"}, {"G"}):
        return False
    if kinds == {"E", "G"}:
        return a[1] != b[1]
    if "F" in kinds and len(kinds) == 2:
        single, pair = (a, b) if a[0] != "F" else (b, a)
        return single[1][0] in pair[1]
    return not set(a[1]) & set(b[1])


def label_of(i):
    return next(lab for lab in LABELS if classical_class(*lab) == LINES[i])


def line_index(kind, indices):
    return INDEX[classical_class(kind, indices).coefficients]


def labelled_planes():
    return {frozenset(label_of(i) for i in plane) for plane in CONFIG.planes}


def incident(i, j):
    return j in CONFIG.neighbours[i]


# ---------------------------------------------------------------------------


def test_twenty_seven_lines():
    assert len(LINES) == 27
    assert set(INDEX) == {classical_class(*lab).coefficients for lab in LABELS}
    for line in LINES:
        assert intersect(line, line) == -1
        assert intersect(CANONICAL, line) == -1
    degrees = [line.coefficients[0] for line in LINES]
    assert (degrees.count(0), degrees.count(1), degrees.count(2)) == (6, 15, 6)


def test_wider_box_brute_force_finds_the_same_classes():
    # 0 <= a <= 5, |b_i| <= 3: b_6 is fixed by K.L = -1, the other five range
    found = set()
    for a in range(6):
        for head in product(range(-3, 4), repeat=5):
            b6 = 3 * a - 1 - sum(head)
            if abs(b6) > 3:
                continue
            line = DivisorClass(PICARD, (a,) + tuple(-x for x in head + (b6,)))
            if intersect(line, line) == -1 and intersect(CANONICAL, line) == -1:
                found.add(line.coefficients)
    assert found == set(INDEX)


def test_pruned_search_matches_the_full_product_in_order():
    # the full six-coordinate box, filtered by both equations
    oracle = []
    for a in takewhile(lambda a: (3 * a - 1) ** 2 <= 6 * (a * a + 1), count()):
        reach = isqrt(a * a + 1)
        for b in product(range(-reach, reach + 1), repeat=6):
            if sum(b) == 3 * a - 1 and sum(x * x for x in b) == a * a + 1:
                oracle.append((a,) + tuple(-x for x in b))
    assert [line.coefficients for line in _line_classes()] == oracle
    assert len(oracle) == 27


def test_derived_incidence_matches_the_classical_rule():
    for a, b in combinations(LABELS, 2):
        i = INDEX[classical_class(*a).coefficients]
        j = INDEX[classical_class(*b).coefficients]
        assert incident(i, j) == classical_incident(a, b), (a, b)
        assert incident(i, j) == (intersect(LINES[i], LINES[j]) == 1)


def test_incidence_rule_spot_checks():
    pairs = {
        (("E", (1,)), ("E", (2,))): False,
        (("G", (1,)), ("G", (2,))): False,
        (("E", (1,)), ("G", (1,))): False,
        (("E", (1,)), ("G", (2,))): True,
        (("E", (1,)), ("F", (1, 2))): True,
        (("E", (1,)), ("F", (3, 4))): False,
        (("G", (1,)), ("F", (1, 2))): True,
        (("G", (1,)), ("F", (3, 4))): False,
        (("F", (1, 2)), ("F", (3, 4))): True,
        (("F", (1, 2)), ("F", (1, 3))): False,
        (("F", (1, 2)), ("F", (1, 2))): False,
    }
    for (a, b), meets in pairs.items():
        assert classical_incident(a, b) == meets, (a, b)
        assert incident(line_index(*a), line_index(*b)) == meets, (a, b)
    # disjoint lines have intersection number 0
    assert intersect(classical_class("E", (1,)), classical_class("G", (1,))) == 0


def test_graph_is_ten_regular():
    assert {len(near) for near in CONFIG.neighbours} == {10}
    expected = {line_index("G", (j,)) for j in range(2, 7)} | {
        line_index("F", (1, k)) for k in range(2, 7)
    }
    assert CONFIG.neighbours[line_index("E", (1,))] == expected


def test_strongly_regular_parameters():
    # (27, 10, 1, 5): meeting lines share one neighbour, disjoint ones five
    for i, j in combinations(range(27), 2):
        common = len(CONFIG.neighbours[i] & CONFIG.neighbours[j])
        assert common == (1 if incident(i, j) else 5), (i, j)


def test_incidence_symmetric_irreflexive():
    for i in range(27):
        assert not incident(i, i)
    for i, j in combinations(range(27), 2):
        assert incident(i, j) == incident(j, i)


def test_tritangent_triples_count_and_types():
    assert len(CONFIG.planes) == 45
    assert tritangent_type_counts(CONFIG) == {"EGF": 30, "FFF": 15}
    for plane in CONFIG.planes:
        for i, j in combinations(plane, 2):
            assert incident(i, j)


def test_triples_match_the_two_label_schemes():
    for plane in labelled_planes():
        kinds = sorted(kind for kind, _ in plane)
        if kinds == ["E", "F", "G"]:
            by_kind = dict(plane)
            (i,), (j,) = by_kind["E"], by_kind["G"]
            assert i != j
            assert set(by_kind["F"]) == {i, j}
        else:
            assert kinds == ["F", "F", "F"]
            assert sorted(k for _, pair in plane for k in pair) == [1, 2, 3, 4, 5, 6]


def test_every_pairwise_incident_scheme_triple_is_found():
    # brute force over all triples that pairwise meet under the classical rule
    brute = {
        frozenset(t)
        for t in combinations(LABELS, 3)
        if all(classical_incident(a, b) for a, b in combinations(t, 2))
    }
    assert brute == labelled_planes()


def test_stratification_counts():
    counts = dual_stratification_counts(CONFIG)
    assert counts.dual_line_count == 27
    assert counts.triple_point_count == 45
    assert counts.triples_per_line == 5
    assert counts.lines_per_triple == 3
    assert counts.dual_line_count * counts.triples_per_line == 135
    assert counts.triple_point_count * counts.lines_per_triple == 135


def _assert_symmetry(image):
    """``image`` maps the lines onto themselves, keeping incidence and planes."""
    moved = [INDEX.get(image(line).coefficients) for line in LINES]
    assert sorted(moved) == list(range(27))
    for i, j in combinations(range(27), 2):
        assert intersect(image(LINES[i]), image(LINES[j])) == intersect(LINES[i], LINES[j])
        assert incident(moved[i], moved[j]) == incident(i, j)
    assert {tuple(sorted(moved[i] for i in plane)) for plane in CONFIG.planes} == set(
        CONFIG.planes
    )


def test_counts_stable_under_relabeling():
    rng = random.Random(3)
    all_perms = list(permutations(range(1, 7)))
    for perm in rng.sample(all_perms, 10):
        # e_i -> e_perm(i), h fixed
        _assert_symmetry(
            lambda line: DivisorClass(
                PICARD,
                (line.coefficients[0],)
                + tuple(line.coefficients[perm.index(k) + 1] for k in range(1, 7)),
            )
        )


def test_cremona_reflection_preserves_lines_and_incidence():
    # reflection in the (-2)-class r = h - e1 - e2 - e3: x -> x + (x.r) r,
    # so h -> 2h - e1 - e2 - e3 and e1 -> h - e2 - e3
    root = divisor(PICARD, h=1, e1=-1, e2=-1, e3=-1)
    assert intersect(root, root) == -2

    def reflect(line):
        return line + intersect(line, root) * root

    assert reflect(divisor(PICARD, h=1)) == divisor(PICARD, h=2, e1=-1, e2=-1, e3=-1)
    assert reflect(divisor(PICARD, e1=1)) == divisor(PICARD, h=1, e2=-1, e3=-1)
    _assert_symmetry(reflect)
    assert intersect(reflect(CANONICAL), reflect(CANONICAL)) == 3
    assert reflect(CANONICAL) == CANONICAL

"""End-to-end acceptance checks, one test per criterion.

Every assertion is an exact integer equality.  Run with ``pytest -s`` to see
the per-criterion PASS/FAIL lines.
"""

import random
from contextlib import contextmanager

from stratacheck import __version__
from stratacheck.cli import main
from stratacheck.config import builtin_config
from stratacheck.curves import (
    fibration_euler,
    flex_count,
    moduli_dimension_check,
    pgl_dim,
    pluecker_dual_degree,
    pluecker_solve_bf,
    riemann_hurwitz_branch,
    solve_polystable_degrees,
    solve_unknown_count,
    theta_characteristics,
)
from stratacheck.errors import NonSaturationError
from stratacheck.invariants import (
    CoordinateInvolution,
    DiagonalAction,
    fixed_locus_presentation,
    invariant_generators,
    is_invariant,
    match_generators,
    presentations_isomorphic,
    relation_profile,
    toric_relations,
)
from stratacheck.ledger import derived_ledger, discrepancy_report, paper_ledger, total_chi
from stratacheck.lines27 import build_configuration, dual_stratification_counts
from stratacheck.report import VerificationReport, render_json, render_text
from stratacheck.singularities import (
    CyclicDiagonalElement,
    FiniteDiagonalGroup,
    NO_SYMPLECTIC_RESOLUTION,
    SingularityClass,
    age,
    classify_quotient,
    symplectic_resolution_verdict,
)
from stratacheck.suite import RECIPES, run_section
from stratacheck.surfaces import bidegree_class, adjunction_genus, divisor, intersect


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


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


def test_criterion_1_invariant_ring_suite():
    with criterion(1, "invariant-ring suite"):
        pair = toric_relations(PAIR, invariant_generators(PAIR, 4), 4)
        neg4 = toric_relations(NEG4, invariant_generators(NEG4, 4), 4)
        triple = toric_relations(TRIPLE, invariant_generators(TRIPLE, 6), 6)
        z2z2 = toric_relations(Z2Z2, invariant_generators(Z2Z2, 4), 6)

        assert len(pair.generators) == 16
        assert len(neg4.generators) == 10
        degrees = [sum(g) for g in triple.generators]
        assert (degrees.count(2), degrees.count(3)) == (12, 16)
        zdegrees = [sum(g) for g in z2z2.generators]
        assert (zdegrees.count(2), zdegrees.count(3)) == (9, 8)

        # relation families: 36 exchange minors for the doubled torus action
        assert len(pair.relations) == 36
        for u, v in pair.relations:
            assert sum(u) == sum(v) == 2 and pair.expand(u) == pair.expand(v)

        # reference families 3 / 18 / 64 inside the computed congruence set
        profile = relation_profile(triple)
        assert profile[(4, (2, 2))] == 3
        assert profile[(6, (2, 2))] == 18
        assert profile[(6, (2, 3))] == 64

        fixed_pair = fixed_locus_presentation(
            PAIR, pair, CoordinateInvolution((5, 4, 7, 6, 1, 0, 3, 2))
        )
        fixed_triple = fixed_locus_presentation(
            TRIPLE, triple, CoordinateInvolution((7, 6, 9, 8, 11, 10, 1, 0, 3, 2, 5, 4))
        )
        assert len(fixed_pair.generators) == 10
        fdeg = [sum(g) for g in fixed_triple.generators]
        assert (fdeg.count(2), fdeg.count(3)) == (9, 8)

        # reference families 3 / 36 at ambient degrees 4 and 6
        fixed_hist = {}
        for u, _ in fixed_triple.relations:
            d = sum(fixed_triple.expand(u))
            fixed_hist[d] = fixed_hist.get(d, 0) + 1
        assert fixed_hist[4] == 3 and fixed_hist[6] == 36

        iso1 = presentations_isomorphic(
            fixed_pair, neg4, match_generators(fixed_pair, neg4)
        )
        iso2 = presentations_isomorphic(
            fixed_triple, z2z2, match_generators(fixed_triple, z2z2)
        )
        assert iso1.isomorphic and iso1.classes_checked > 0
        assert iso2.isomorphic and iso2.classes_checked > 0


def test_criterion_2_brute_force_oracle_equivalence():
    with criterion(2, "brute-force oracle over 200 random actions"):
        def all_monomials(n, max_degree):
            if n == 0:
                yield ()
                return
            for head in range(max_degree + 1):
                for tail in all_monomials(n - 1, max_degree - head):
                    yield (head,) + tail

        def oracle(action, bound):
            """Irreducible invariant monomials up to the bound, grlex sorted."""
            invs = sorted(
                (
                    m
                    for m in all_monomials(action.ambient_dim, bound)
                    if sum(m) >= 1 and is_invariant(action, m)
                ),
                key=lambda m: (sum(m), tuple(-e for e in m)),
            )
            kept = []
            for m in invs:
                if not any(all(g <= x for g, x in zip(k, m)) for k in kept):
                    kept.append(m)
            return kept

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
            expected = oracle(action, 8)
            try:
                pres = invariant_generators(action, 4)
            except NonSaturationError as exc:
                # the first irreducible above the bound is the witness
                assert exc.witness == next(m for m in expected if sum(m) > 4)
                outcomes.add("witness")
                continue
            assert set(pres.generators) == set(expected)
            assert all(sum(g) <= 4 for g in pres.generators)
            outcomes.add("generators")
        assert outcomes == {"generators", "witness"}


def test_criterion_3_singularity_suite():
    with criterion(3, "quotient singularity suite"):
        neg4 = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1, 1, 1)),))
        neg2 = FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1)),))
        z2z2 = FiniteDiagonalGroup(
            (
                CyclicDiagonalElement(2, (0, 0, 1, 1, 1, 1)),
                CyclicDiagonalElement(2, (1, 1, 0, 0, 1, 1)),
            )
        )
        assert age(CyclicDiagonalElement(2, (1, 1, 1, 1))) == 2
        assert classify_quotient(neg4) is SingularityClass.TERMINAL
        assert (
            symplectic_resolution_verdict(classify_quotient(neg4)).verdict
            == NO_SYMPLECTIC_RESOLUTION
        )
        assert classify_quotient(z2z2) is SingularityClass.TERMINAL
        assert classify_quotient(neg2) is SingularityClass.CANONICAL_NOT_TERMINAL


def test_criterion_4_enumerative_suite():
    with criterion(4, "classical enumerative suite"):
        assert solve_unknown_count(12, (), 1) == 12
        assert riemann_hurwitz_branch(4, 0, 6) == 18
        assert theta_characteristics(4, "odd") == 120
        assert riemann_hurwitz_branch(4, 0, 4) == 14
        assert riemann_hurwitz_branch(4, 0, 4) * 27 == 378

        basis = builtin_config().require("bases", "curve-square")
        diag = divisor(basis, diag=1)
        assert intersect(diag, diag) == -6
        tangency = bidegree_class(basis, 1, 2, 6) - 2 * diag
        canonical = bidegree_class(basis, 1, 1, 6)
        k_degree = intersect(canonical + tangency, tangency)
        assert k_degree == 132
        assert adjunction_genus(k_degree) == 67
        assert riemann_hurwitz_branch(67, 4, 4) == 108

        config = build_configuration()
        counts = dual_stratification_counts(config)
        assert len(config.lines) == 27
        assert len(config.planes) == 45
        assert counts.triples_per_line == 5
        assert counts.lines_per_triple == 3
        assert counts.dual_line_count * 5 == 45 * 3 == 135

        assert moduli_dimension_check(3, (2, 3), pgl_dim(3)) == 13
        assert solve_polystable_degrees((0, 1), ((0, 4), (4, 0)), -3) == (-2, -2)
        assert solve_polystable_degrees(
            (0, 0, 0), ((0, 2, 2), (2, 0, 2), (2, 2, 0)), -3
        ) == (-2, -2, -2)
        assert solve_unknown_count(24, ((5, 2),), 1) == 14
        assert fibration_euler(((19, 1),)) == 19


def test_criterion_5_ledger_suite():
    with criterion(5, "stratification ledger suite"):
        assert total_chi(paper_ledger("cubic")) == 2283
        assert total_chi(paper_ledger("degree2")) == 212
        euler = {r.name: r.computed for r in run_section("euler", builtin_config())}
        assert euler["euler.discriminant-degree-sum"] == 30


def test_criterion_6_discrepancy_detection():
    with criterion(6, "discrepancy detection"):
        b, f = pluecker_solve_bf(6, 18, 4)
        assert (b, f) == (96, 36)
        assert b + f == (18 - 1) * (18 - 2) // 2 - 4
        assert 2 * b + 3 * f == 18 * 17 - 6
        assert flex_count(6, 6, 0) == 36
        assert pluecker_dual_degree(6, 6, 0) == 18

        values = {r.name: r.computed for r in run_section("verify-all", builtin_config())}
        paper = paper_ledger("cubic")
        derived = derived_ledger(
            paper, {label: recipe(values.__getitem__) for label, recipe in RECIPES.items()}
        )
        found = discrepancy_report(paper, derived)
        assert len(found) == 1
        assert found[0].label == "o"
        assert (found[0].paper_value, found[0].derived_value) == (864, 936)
        assert total_chi(derived) == 2355
        assert total_chi(paper_ledger("cubic")) == 2283

        # the solver is right where the reference data is self-consistent
        assert pluecker_solve_bf(4, 12, 3) == (28, 24)


def test_criterion_7_report_determinism(tmp_path, capsys):
    with criterion(7, "byte-identical reports"):
        config = builtin_config()
        renders = []
        for _ in range(2):
            records = run_section("verify-all", config)
            report = VerificationReport(
                __version__, "derived", config.label, tuple(records)
            )
            renders.append((render_text(report), render_json(report)))
        assert renders[0] == renders[1]

        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        texts = []
        for path in paths:
            assert main(["verify-all", "--json", str(path)]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()

"""The bundled verification battery behind every CLI subcommand.

The battery is one table of check rows, built from the active config.  A row
names its check, inputs, frozen expected value and provenance: "paper" marks
a value replayed from the reference dataset, "derived" one recomputed from
an independent route, and "trivial" a definitional identity.  Adding a check
means adding one row.  A row may read other rows' computed values, and its
inputs then name them; each row is computed once per run, and a failure is
an ERROR in every reader that names the row read.  The ledger recipes,
``RECIPES``, are arithmetic on such values, so every derived number has one
route.  Exactly one record in derived mode is a discrepancy by design: the
recorded bitangent count 90 for the nodal sextic does not satisfy the
dual-curve equations, whose unique solution is 96, so stratum ``o`` of the
cubic ledger derives to 936 against the reference 864.
"""

from __future__ import annotations

from collections import Counter

from . import curves, invariants, ledger, lines27, singularities, surfaces
from .config import ConfigDocument
from .errors import Record, ToolkitError
from .report import DISCREPANCY, ERROR, FAIL, PASS, CheckRecord, format_value

SECTION_NAMES = (
    "invariants",
    "singularity",
    "pluecker",
    "cover",
    "intersect",
    "lines27",
    "euler",
)

# cubic-ledger labels whose reference value is known to disagree with its
# derivation; a mismatch there is a DISCREPANCY, anywhere else a FAIL
EXPECTED_DISCREPANCIES = frozenset({"o"})


class Check(Record):
    """One row of the battery; ``compute`` reads the run's shared intermediates
    and, through ``_Run.value``, other rows' computed values.

    ``note`` is text, or a function of the run computed inside the row's
    guarded call.  A row with a ``discrepancy_note`` reports a mismatch as a
    DISCREPANCY against the reference value, with that note, instead of as a
    FAIL.
    """

    name: str
    inputs: dict
    expected: object
    provenance: str
    compute: Callable[["_Run"], object]
    note: str | Callable[["_Run"], str] = ""
    derived_only: bool = False
    discrepancy_note: Callable[["_Run"], str] | None = None


def _formula(name, inputs, expected, provenance, fn, note=""):
    """A row computed as ``fn(**inputs)``: the inputs are fn's arguments, and
    an input that names a row passes that row's computed value."""
    return Check(name, inputs, expected, provenance, lambda run: fn(**{
        key: run.value(arg) if isinstance(arg, str) and arg in run.rows else arg
        for key, arg in inputs.items()
    }), note)


def _shared(compute):
    """A property computed once per run, through ``_Run.once``."""
    return property(lambda run: run.once(compute, lambda: compute(run)))


class _Run:
    """The battery's rows and the intermediates several rows share, each
    computed once on first use.

    An exception raised while computing one reaches every row that reads it,
    inside that row's guarded call.
    """

    def __init__(self, config: ConfigDocument, rows: list[Check]):
        self.config = config
        self.rows = {row.name: row for row in rows}
        self.outcomes: dict = {}

    def once(self, key, compute):
        """compute() on the first call with this key; a raised exception is
        kept too and raised again to every later call, not recomputed."""
        if key not in self.outcomes:
            try:
                self.outcomes[key] = (compute(), None)
            except Exception as exc:
                self.outcomes[key] = (None, exc)
        value, exc = self.outcomes[key]
        if exc is not None:
            raise exc
        return value

    def value(self, name):
        """Row ``name``'s computed value, once per run under its name; a
        failure is raised again naming the row, and so names a chain of reads."""
        try:
            return self.once(name, lambda: self.rows[name].compute(self))
        except Exception as exc:
            raise ToolkitError(f"{name}: {type(exc).__name__}: {exc}") from exc

    def _presentation(self, action, generator_bound, relation_bound):
        act = self.config.require("actions", action)
        gens = invariants.invariant_generators(act, generator_bound)
        return invariants.toric_relations(act, gens, relation_bound)

    def _fixed_locus(self, action, pres, involution):
        return invariants.fixed_locus_presentation(
            self.config.require("actions", action),
            pres,
            self.config.require("involutions", involution),
        )

    @_shared
    def pair(self):
        return self._presentation("torus-pair", 4, 4)

    @_shared
    def neg4(self):
        return self._presentation("negation-c4", 4, 4)

    @_shared
    def triple(self):
        return self._presentation("torus-triple", 6, 6)

    @_shared
    def z2z2(self):
        return self._presentation("z2z2-c6", 4, 6)

    @_shared
    def pair_fixed(self):
        return self._fixed_locus("torus-pair", self.pair, "swap-pair")

    @_shared
    def triple_fixed(self):
        return self._fixed_locus("torus-triple", self.triple, "swap-triple")

    @_shared
    def curve_square(self):
        return self.config.require("bases", "curve-square")

    @_shared
    def lines(self):
        return lines27.build_configuration()

    @_shared
    def line_counts(self):
        return lines27.dual_stratification_counts(self.lines)

    def group(self, name):
        return self.config.require("groups", name)


# ---------------------------------------------------------------------------
# helpers


def _degree_histogram(pres):
    return dict(Counter(sum(g) for g in pres.generators))


def _ambient_relation_histogram(pres):
    return dict(Counter(sum(pres.expand(u)) for u, _ in pres.relations))


def _is_minor_swap(pres, relation):
    """Both sides are products of two generators swapping their ambient factors."""
    u, v = relation
    return sum(u) == 2 and sum(v) == 2 and pres.expand(u) == pres.expand(v)


def _triple_reference_families(triple):
    if triple.ambient_dim != 12:
        raise ToolkitError(
            "the reference families read the 12-variable torus-triple layout "
            "(blocks x12, x13, x23, y12, y13, y23, two variables each), not "
            f"{triple.ambient_dim} variables"
        )
    gens = triple.generators
    # cubics split by which half of the third weight-block they use
    first_letter = [i for i, g in enumerate(gens) if sum(g) == 3 and (g[2] or g[3])]
    second_letter = [i for i, g in enumerate(gens) if sum(g) == 3 and (g[8] or g[9])]
    return {
        "quadratic-blocks": _ambient_relation_histogram(triple).get(4, 0),
        "within-letter-cubics": (
            invariants.within_subset_relation_count(triple, first_letter)
            + invariants.within_subset_relation_count(triple, second_letter)
        ),
        "cross-letter-cubics": invariants.cubic_quadratic_matchings(triple),
    }


def _isomorphic(a, b):
    """Whether the two invariant rings are isomorphic, in all degrees.

    Equal generator sets in the same ambient space, signs aside, generate
    the same subalgebra of the polynomial ring, so the rings are equal.
    """
    return a.ambient_dim == b.ambient_dim and sorted(a.generators) == sorted(b.generators)


def _class(group):
    return singularities.classify_quotient(group).value


def _verdict(group):
    cls = singularities.classify_quotient(group)
    return singularities.symplectic_resolution_verdict(cls).verdict


def _self_intersection(basis, label):
    d = surfaces.divisor(basis, **{label: 1})
    return surfaces.intersect(d, d)


def _n_recipe(value):
    branch, lines = value("cover.quartic-pencil-branch"), value("lines27.line-count")
    return branch * lines, f"riemann_hurwitz_branch(4, 0, 4) * {lines} dual lines"


def _o_recipe(value):
    bitangents, _ = value("pluecker.nodal-sextic.bitangents-flexes")
    members = value("euler.pencil-nodal-members")
    # branch points of the 4-sheeted tangency-curve cover of the genus-4 curve
    branch = value("cover.tangency-curve-branch")
    return bitangents * members - 2 * branch, (
        f"pluecker_solve_bf(6, {value('pluecker.nodal-sextic.dual-degree')}, 4) bitangent "
        f"count * {members} nodal members - 2 * {branch} branch points")


# ledger label -> derivation giving (chi_base, recipe) from ``value``, which
# reads a battery row's computed value by the row's name
RECIPES = {
    "k": lambda value: (value("pluecker.theta-odd.genus-4"), "theta_characteristics(4, odd)"),
    "n": _n_recipe,
    "o": _o_recipe,
    "s": lambda value: (value("lines27.tritangent-count"),
                        "tritangent triple count of the 27-line configuration"),
    "bitangent": lambda value: (value("pluecker.theta-odd.genus-3"),
                                "theta_characteristics(3, odd)"),
    "reducible": lambda value: (value("pluecker.smooth-quartic.bitangents-flexes")[0],
                                "pluecker_solve_bf(4, 12, 3) bitangent count"),
}


def _derivation(run, label):
    # one recipe call per label and run gives a case row its value and note
    # and case-o's note its derived ledger
    return run.once(("derived", label), lambda: RECIPES[label](run.value))


def _derived_ledger(run, reference):
    return ledger.derived_ledger(reference, {
        e.label: _derivation(run, e.label) for e in reference.entries if e.label in RECIPES
    })


# ---------------------------------------------------------------------------
# the table


def _battery(config: ConfigDocument) -> list[Check]:
    """Every row, in report order."""
    cubic = config.require("ledgers", "cubic")
    degree2 = config.require("ledgers", "degree2")
    families_note = "sizes of the structured reference families"
    pair_inputs = {"action": "torus-pair", "degree_bound": 4}
    triple_inputs = {"action": "torus-triple", "degree_bound": 6}
    triple_fixed_inputs = {"action": "torus-triple", "involution": "swap-triple"}
    rows = [
        # invariant rings
        Check("invariants.torus-pair.generator-count", pair_inputs,
              16, "paper", lambda r: len(r.pair.generators)),
        Check("invariants.torus-pair.generator-degrees", {"action": "torus-pair"},
              {2: 16}, "paper", lambda r: _degree_histogram(r.pair)),
        Check("invariants.torus-pair.relation-count", pair_inputs,
              36, "derived", lambda r: len(r.pair.relations),
              note="one two-by-two minor identity per pair of rows and columns"),
        Check("invariants.torus-pair.relations-are-minor-swaps", {"action": "torus-pair"},
              True, "derived",
              lambda r: all(_is_minor_swap(r.pair, rel) for rel in r.pair.relations)),
        Check("invariants.negation-c4.generator-count",
              {"action": "negation-c4", "degree_bound": 4},
              10, "paper", lambda r: len(r.neg4.generators)),
        Check("invariants.negation-c4.relation-count",
              {"action": "negation-c4", "degree_bound": 4},
              20, "derived", lambda r: len(r.neg4.relations),
              note="pair swaps of quadratic monomial factorizations"),
        Check("invariants.torus-triple.generator-count", triple_inputs,
              28, "paper", lambda r: len(r.triple.generators)),
        Check("invariants.torus-triple.generator-degrees", {"action": "torus-triple"},
              {2: 12, 3: 16}, "paper", lambda r: _degree_histogram(r.triple)),
        Check("invariants.torus-triple.relation-families", triple_inputs,
              {"quadratic-blocks": 3, "within-letter-cubics": 18,
               "cross-letter-cubics": 64},
              "paper", lambda r: _triple_reference_families(r.triple),
              note=families_note),
        Check("invariants.torus-triple.relation-profile", triple_inputs,
              {"(4, (2, 2))": 3, "(5, (2, 2))": 48, "(6, (2, 2))": 18,
               "(6, (2, 3))": 64},
              "derived",
              lambda r: {str(k): v for k, v in
                         sorted(invariants.relation_profile(r.triple).items())},
              note="complete minimal congruence set; the 48 mixed quadratic-cubic "
              "swaps of ambient degree 5 are indispensable but not part of the "
              "reference families"),
        Check("invariants.torus-pair.fixed-locus.generator-count",
              {"action": "torus-pair", "involution": "swap-pair"},
              10, "paper", lambda r: len(r.pair_fixed.generators)),
        Check("invariants.torus-pair.fixed-locus.isomorphic-negation-c4",
              {"left": "torus-pair fixed locus", "right": "negation-c4 invariants"},
              True, "paper", lambda r: _isomorphic(r.pair_fixed, r.neg4)),
        Check("invariants.torus-triple.fixed-locus.generator-count", triple_fixed_inputs,
              17, "paper", lambda r: len(r.triple_fixed.generators)),
        Check("invariants.torus-triple.fixed-locus.generator-degrees", triple_fixed_inputs,
              {2: 9, 3: 8}, "paper", lambda r: _degree_histogram(r.triple_fixed)),
        Check("invariants.torus-triple.fixed-locus.relation-families", triple_fixed_inputs,
              {"block-squares": 3, "cubic-pair-products": 36}, "paper",
              lambda r: {
                  "block-squares": _ambient_relation_histogram(r.triple_fixed).get(4, 0),
                  "cubic-pair-products":
                      invariants.cubic_quadratic_matchings(r.triple_fixed),
              },
              note=families_note),
        Check("invariants.torus-triple.fixed-locus.relation-profile", triple_fixed_inputs,
              {4: 3, 5: 24, 6: 36}, "derived",
              lambda r: _ambient_relation_histogram(r.triple_fixed),
              note="complete minimal congruence set by ambient degree"),
        Check("invariants.z2z2-c6.generator-count", {"action": "z2z2-c6", "degree_bound": 4},
              17, "paper", lambda r: len(r.z2z2.generators)),
        Check("invariants.torus-triple.fixed-locus.isomorphic-z2z2-c6",
              {"left": "torus-triple fixed locus", "right": "z2z2-c6 invariants"},
              True, "paper", lambda r: _isomorphic(r.triple_fixed, r.z2z2)),
        # quotient singularities
        Check("singularity.negation-c4.age", {"element": "minus one on C^4"},
              "2", "derived",
              lambda r: str(singularities.age(r.group("negation-c4").generators[0]))),
        Check("singularity.negation-c4.class", {"group": "negation-c4"},
              "terminal", "paper", lambda r: _class(r.group("negation-c4"))),
        Check("singularity.negation-c4.resolution-verdict", {"group": "negation-c4"},
              singularities.NO_SYMPLECTIC_RESOLUTION, "paper",
              lambda r: _verdict(r.group("negation-c4"))),
        Check("singularity.z2z2-c6.class", {"group": "z2z2-c6"},
              "terminal", "derived", lambda r: _class(r.group("z2z2-c6")),
              note="each of the three involutions negates four coordinates, age 2"),
        Check("singularity.z2z2-c6.resolution-verdict", {"group": "z2z2-c6"},
              singularities.NO_SYMPLECTIC_RESOLUTION, "paper",
              lambda r: _verdict(r.group("z2z2-c6"))),
        Check("singularity.negation-c2.class", {"group": "negation-c2"},
              "canonical_not_terminal", "trivial", lambda r: _class(r.group("negation-c2"))),
        # plane-curve arithmetic
        _formula("pluecker.nodal-sextic.dual-degree", {"d": 6, "delta": 6, "kappa": 0},
                 18, "paper", curves.pluecker_dual_degree),
        _formula("pluecker.nodal-sextic.bitangents-flexes",
                 {"d": 6, "d_star": "pluecker.nodal-sextic.dual-degree", "g": 4},
                 (96, 36), "derived", curves.pluecker_solve_bf,
                 note="reference value 90 for the bitangents fails both dual-curve "
                 "equations; 96 is the unique solution"),
        _formula("pluecker.nodal-sextic.flex-crosscheck", {"d": 6, "delta": 6, "kappa": 0},
                 36, "derived", curves.flex_count),
        _formula("pluecker.smooth-quartic.bitangents-flexes", {"d": 4, "d_star": 12, "g": 3},
                 (28, 24), "derived", curves.pluecker_solve_bf),
        _formula("pluecker.smooth-cubic.bitangents-flexes", {"d": 3, "d_star": 6, "g": 1},
                 (0, 9), "derived", curves.pluecker_solve_bf),
        _formula("pluecker.theta-odd.genus-4", {"g": 4, "parity": "odd"},
                 120, "paper", curves.theta_characteristics),
        _formula("pluecker.theta-odd.genus-3", {"g": 3, "parity": "odd"},
                 28, "derived", curves.theta_characteristics),
        Check("pluecker.moduli-dimension", {"n": 3, "degrees": (2, 3), "group_dim": 15},
              13, "paper",
              lambda r: curves.moduli_dimension_check(3, (2, 3), curves.pgl_dim(3))),
        Check("pluecker.polystable.two-components",
              {"genera": (0, 1), "intersection": 4, "total_chi": -3},
              (-2, -2), "paper",
              lambda r: curves.solve_polystable_degrees((0, 1), ((0, 4), (4, 0)), -3)),
        Check("pluecker.polystable.three-components",
              {"genera": (0, 0, 0), "pairwise_intersection": 2, "total_chi": -3},
              (-2, -2, -2), "paper",
              lambda r: curves.solve_polystable_degrees(
                  (0, 0, 0), ((0, 2, 2), (2, 0, 2), (2, 2, 0)), -3)),
        # branched covers
        _formula("cover.sextic-pencil-branch", {"g_source": 4, "g_target": 0, "degree": 6},
                 18, "paper", curves.riemann_hurwitz_branch),
        _formula("cover.quartic-pencil-branch", {"g_source": 4, "g_target": 0, "degree": 4},
                 14, "paper", curves.riemann_hurwitz_branch),
        _formula("cover.tangency-curve-branch",
                 {"g_source": "intersect.adjunction-genus", "g_target": 4, "degree": 4},
                 108, "paper", curves.riemann_hurwitz_branch),
        # surface intersection arithmetic
        Check("intersect.diagonal-self", {"basis": "curve-square"},
              -6, "paper", lambda r: _self_intersection(r.curve_square, "diag")),
        Check("intersect.ruling-self", {"basis": "curve-square"},
              0, "paper", lambda r: _self_intersection(r.curve_square, "f1")),
        Check("intersect.bidegree-restriction", {"p": 1, "q": 2, "hyperplane_degree": 6},
              (12, 6, 0), "paper",
              lambda r: surfaces.bidegree_class(r.curve_square, 1, 2, 6).coefficients),
        Check("intersect.adjoint-product",
              {"tangency": "12f1+6f2-2diag", "canonical": "6f1+6f2"},
              132, "paper", lambda r: surfaces.tangency_adjoint_degree(r.curve_square),
              note="needs diag.f1 = diag.f2 = 1; the recorded zero pairing "
              "cannot reproduce 132"),
        _formula("intersect.adjunction-genus", {"canonical_degree": "intersect.adjoint-product"},
                 67, "paper", surfaces.adjunction_genus),
        # the 27 lines
        Check("lines27.line-count", {}, 27, "paper", lambda r: len(r.lines.lines)),
        Check("lines27.regular-degrees", {}, [10], "derived",
              lambda r: sorted({len(near) for near in r.lines.neighbours})),
        Check("lines27.tritangent-count", {}, 45, "paper", lambda r: len(r.lines.planes)),
        Check("lines27.tritangent-type-counts", {}, {"EGF": 30, "FFF": 15}, "derived",
              lambda r: lines27.tritangent_type_counts(r.lines)),
        Check("lines27.triples-per-line", {}, 5, "paper",
              lambda r: r.line_counts.triples_per_line),
        Check("lines27.lines-per-triple", {}, 3, "paper",
              lambda r: r.line_counts.lines_per_triple),
        Check("lines27.double-count-identity", {}, (135, 135), "trivial",
              lambda r: (r.line_counts.dual_line_count * r.line_counts.triples_per_line,
                         r.line_counts.triple_point_count * r.line_counts.lines_per_triple)),
        # Euler characteristic ledgers
        Check("euler.pencil-nodal-members",
              {"total_chi": 12, "fiber_chi": 1, "smooth_chi": 0},
              12, "paper", lambda r: curves.solve_unknown_count(12, (), 1)),
        Check("euler.k3-pencil-nodal-members",
              {"total_chi": 24, "known": ((5, 2),), "fiber_chi": 1},
              14, "paper", lambda r: curves.solve_unknown_count(24, ((5, 2),), 1)),
        Check("euler.jacobian-k3-chi", {"strata": ((19, 1),), "smooth_chi": 0},
              19, "paper", lambda r: curves.fibration_euler(((19, 1),))),
        Check("euler.cubic-ledger-total",
              {"ledger": "cubic", "mode": "paper", "rows": ledger.ledger_rows(cubic)},
              2283, "paper", lambda r: ledger.total_chi(cubic)),
        Check("euler.degree2-ledger-total",
              {"ledger": "degree2", "mode": "paper", "rows": ledger.ledger_rows(degree2)},
              212, "paper", lambda r: ledger.total_chi(degree2)),
        _formula("euler.discriminant-degree-sum",
                 {"dual_surface": "euler.pencil-nodal-members",
                  "dual_branch_curve": "cover.sextic-pencil-branch"},
                 30, "paper", lambda **degrees: sum(degrees.values())),
        Check("euler.doubling-solutions", {"torsion_model": "(Z/4)^2"},
              {"(0, 0)": 4, "(0, 2)": 4, "(2, 0)": 4, "(2, 2)": 4}, "derived",
              lambda r: {str(q): c for q, c in
                         ledger.fiber_point_checks().doubling_preimage_counts}),
        Check("euler.s-equivalence-classes", {"degrees": (0, 1, -1, 2, -2)},
              3, "paper", lambda r: ledger.fiber_point_checks().s_equivalence_class_count),
    ]

    def discrepancy_note(r, label):
        derived = _derived_ledger(r, cubic)
        found = {d.label: d for d in ledger.discrepancy_report(cubic, derived)}
        return (
            f"cause: {found[label].cause}; ledger totals: reference "
            f"{ledger.total_chi(cubic)}, derived {ledger.total_chi(derived)}"
        )

    # each derivable cubic row against its derivation: agreeing cases first,
    # then the designed discrepancies
    derivable = [label for label in ledger.CUBIC_LABELS if label in RECIPES]
    for label in sorted(derivable, key=lambda label: label in EXPECTED_DISCREPANCIES):
        rows.append(
            Check(f"euler.derived.case-{label}", {"ledger": "cubic", "label": label},
                  cubic.entry(label).chi_base, "derived",
                  lambda r, label=label: _derivation(r, label)[0],
                  note=lambda r, label=label: _derivation(r, label)[1],
                  derived_only=True,
                  discrepancy_note=(lambda r, label=label: discrepancy_note(r, label))
                  if label in EXPECTED_DISCREPANCIES else None)
        )
    rows.append(
        Check("euler.derived.degree2-discrepancies", {"ledger": "degree2"},
              0, "paper",
              lambda r: len(ledger.discrepancy_report(degree2, _derived_ledger(r, degree2))),
              note="derivable companion rows agree with the reference values",
              derived_only=True)
    )
    return rows


# ---------------------------------------------------------------------------
# running


def _evaluate(row: Check, run: _Run) -> CheckRecord:
    """One guarded call: any exception becomes an ERROR record, including
    one raised while rendering the computed value (an integer too long to
    print, say), so the rest of the report still prints."""
    try:
        computed = run.once(row.name, lambda: row.compute(run))
        format_value(computed)
        if computed != row.expected and row.discrepancy_note is not None:
            return CheckRecord(
                row.name, row.inputs, row.expected, "paper", computed,
                DISCREPANCY, row.discrepancy_note(run),
            )
        note = row.note(run) if callable(row.note) else row.note
    except Exception as exc:
        return CheckRecord(
            row.name, row.inputs, row.expected, row.provenance, None, ERROR,
            f"{type(exc).__name__}: {exc}",
        )
    status = PASS if computed == row.expected else FAIL
    return CheckRecord(
        row.name, row.inputs, row.expected, row.provenance, computed, status, note
    )


def run_section(
    name: str, config: ConfigDocument, mode: str = "derived", name_filter: str = ""
) -> list[CheckRecord]:
    """Checks for one subcommand; verify-all runs every section."""
    if name != "verify-all" and name not in SECTION_NAMES:
        raise ToolkitError(f"unknown subcommand {name!r}")
    rows = _battery(config)
    # every row, so that a kept row can read one the filters drop
    run = _Run(config, rows)
    return [
        _evaluate(row, run)
        for row in rows
        if name in ("verify-all", row.name.split(".")[0])
        and (mode == "derived" or not row.derived_only)
        and name_filter in row.name
    ]

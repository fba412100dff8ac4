"""Invariant monomials of diagonal group actions and their binomial relations.

An action is pure weight data: a monomial is invariant exactly when its
exponent vector is orthogonal to every torus weight row and satisfies every
finite congruence row, so it depends only on the total exponent on each
class of variables with equal weights.  Generating sets come from one grlex
sieve over those class vectors, built one degree at a time up to twice the
bound; it stops at the first irreducible above the bound, which certifies
that the bound was too small.  Relations come from the expansion fibers of
generator monomials: in each fiber, the members that share a generator form
one component, and one relation joins each further component to the first,
so every answer is exact up to the stated degree bound.  Two invariant rings
in the same ambient variables are isomorphic when their generator sets
agree; for a given generator bijection, ``presentations_isomorphic``
certifies the isomorphism by relations: each side's minimal relations,
carried through the bijection, must hold on the other side.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, groupby, product

from .errors import InvolutionError, NonSaturationError, Record, ToolkitError


# ---------------------------------------------------------------------------
# domain types


class DiagonalAction(Record):
    """Diagonal action of (C*)^k x (finite abelian) on C^n, given by weights.

    ``torus_weights`` has one integer row of length n per C* factor.
    ``finite_factors`` is a sequence of (modulus, weight row) pairs; a cyclic
    factor of order m acts on the i-th variable by the (weight_i)-th power of
    a primitive m-th root of unity.
    """

    ambient_dim: int
    torus_weights: tuple[tuple[int, ...], ...] = ()
    finite_factors: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "torus_weights", tuple(tuple(r) for r in self.torus_weights)
        )
        object.__setattr__(
            self,
            "finite_factors",
            tuple((m, tuple(w)) for m, w in self.finite_factors),
        )
        if self.ambient_dim < 1:
            raise ToolkitError("ambient dimension must be positive")
        for row in self.torus_weights:
            if len(row) != self.ambient_dim:
                raise ToolkitError("torus weight row has wrong length")
        for modulus, row in self.finite_factors:
            if modulus < 2:
                raise ToolkitError("finite factor modulus must be >= 2")
            if len(row) != self.ambient_dim:
                raise ToolkitError("finite weight row has wrong length")


class MonoidPresentation(Record):
    """Monomial generators plus binomial relations over the generator set.

    A relation is a pair (u, v) of exponent vectors over the generator index
    set whose ambient expansions agree.  Relations may be empty for a
    generators-only presentation.
    """

    ambient_dim: int
    generators: tuple[tuple[int, ...], ...]
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        rels = tuple((tuple(u), tuple(v)) for u, v in self.relations)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", rels)
        seen = set()
        for g in gens:
            if len(g) != self.ambient_dim:
                raise ToolkitError("generator has wrong ambient dimension")
            if min(g, default=0) < 0:
                raise ToolkitError(f"generator {g} has a negative exponent")
            if sum(g) < 1:
                raise ToolkitError("the unit monomial cannot be a generator")
            if g in seen:
                raise ToolkitError(f"duplicate generator {g}")
            seen.add(g)
        for u, v in rels:
            if len(u) != len(gens) or len(v) != len(gens):
                raise ToolkitError("relation side has wrong generator count")
            if self.expand(u) != self.expand(v):
                raise ToolkitError(f"relation {u} = {v} does not expand to an identity")

    def expand(self, genexp) -> tuple[int, ...]:
        """Ambient monomial obtained by expanding a generator exponent vector."""
        out = [0] * self.ambient_dim
        for e, g in zip(genexp, self.generators):
            if e:
                for i, gi in enumerate(g):
                    out[i] += e * gi
        return tuple(out)


class CoordinateInvolution(Record):
    """Order-two coordinate substitution x_i -> sign_i * x_image[i]."""

    image: tuple[int, ...]
    signs: tuple[int, ...] | None = None

    def __post_init__(self):
        image = tuple(self.image)
        signs = (1,) * len(image) if self.signs is None else tuple(self.signs)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "signs", signs)
        n = len(image)
        if sorted(image) != list(range(n)):
            raise InvolutionError("image is not a permutation of the variables")
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise InvolutionError("signs must be +1 or -1, one per variable")
        for i in range(n):
            if image[image[i]] != i:
                raise InvolutionError("substitution applied twice is not the identity")
            if signs[i] * signs[image[i]] != 1:
                raise InvolutionError("signs applied twice are not the identity")


class IsomorphismResult(Record):
    """Outcome of a presentation comparison, with a certificate either way."""

    isomorphic: bool
    degree_bound: int
    classes_checked: int
    detail: str
    counterexample: tuple | None = None


# ---------------------------------------------------------------------------
# invariance and enumeration


def _grlex_key(m):
    """Graded-lexicographic sort key: degree first, then the larger exponent
    vector first."""
    return (sum(m), tuple(-e for e in m))


def is_invariant(action: DiagonalAction, monomial) -> bool:
    """Exact weight test for a single monomial."""
    if len(monomial) != action.ambient_dim:
        raise ToolkitError("monomial has wrong ambient dimension")
    for row in action.torus_weights:
        if sum(w * e for w, e in zip(row, monomial)):
            return False
    for modulus, row in action.finite_factors:
        if sum(w * e for w, e in zip(row, monomial)) % modulus:
            return False
    return True


def _invariant_vectors(action: DiagonalAction, max_degree: int):
    """Yield the invariant monomials of degree <= max_degree in grlex order,
    built one exact degree at a time.

    For each degree a depth-first walk sets the exponents in variable order,
    the first varying slowest and each counting down from the degree left,
    which is grlex order.  It keeps the weight of the partial monomial on
    every torus row, then every finite row, up to date.  A torus weight must
    end at zero: with r units of degree left for the variables i.., it can
    still change by between r*min(row[i:]) and r*max(row[i:]), so each
    exponent runs only over the interval that keeps the next window live.
    A table built once per call gives, for each variable i and torus row,
    (row index, c - lo, hi - c, lo, hi) with c = row[i] and the extremes
    lo, hi of row[i+1:].  The last exponent is the degree left and its
    window is the torus equation, so the last variable only checks the
    congruences: a finite weight must end divisible by its modulus.
    """
    n, k = action.ambient_dim, len(action.torus_weights)
    rows = action.torus_weights + tuple(w for _, w in action.finite_factors)
    windows = [
        [(r, c - a, b - c, a, b) for r, row in enumerate(action.torus_weights)
         for c, a, b in ((row[i], min(row[i + 1:]), max(row[i + 1:])),)]
        for i in range(n - 1)
    ]
    steps = [[(j, row[i]) for j, row in enumerate(rows) if row[i]] for i in range(n)]
    congruences = [(k + j, m, w[-1]) for j, (m, w) in enumerate(action.finite_factors)]
    exps = [0] * n
    weight = [0] * len(rows)
    found = []

    def rec(i: int, remaining: int) -> None:
        if i == n - 1:
            for j, m, c in congruences:
                if (weight[j] + remaining * c) % m:
                    return
            exps[i] = remaining
            found.append(tuple(exps))
            return
        # window of i+1: e*(c - lo) <= -w - remaining*lo, e*(hi - c) <= w + remaining*hi
        top, bottom = remaining, 0
        for r, below, above, a, b in windows[i]:
            w = weight[r]
            for p, q in ((below, -w - remaining * a), (above, w + remaining * b)):
                if p > 0:
                    top = min(top, q // p)
                elif p < 0:
                    bottom = max(bottom, -(q // -p))
                elif q < 0:
                    return
        for e in range(top, bottom - 1, -1):
            for j, c in steps[i]:
                weight[j] += e * c
            exps[i] = e
            rec(i + 1, remaining - e)
            for j, c in steps[i]:
                weight[j] -= e * c

    for degree in range(max_degree + 1):
        if all(degree * min(row) <= 0 <= degree * max(row) for row in action.torus_weights):
            found.clear()
            rec(0, degree)
            yield from found


def invariant_generators(action: DiagonalAction, degree_bound: int) -> MonoidPresentation:
    """Minimal monomial generators of the invariant ring, up to degree_bound.

    The sieve runs on the weight-class quotient: variables with identical
    weight columns (torus weights exactly, finite weights mod their modulus)
    form one class, and the quotient has one variable per class, in order of
    each class's first member.  Invariance depends only on the class vector,
    the total exponent on each class, and a monomial is reducible exactly
    when its class vector is, since any split of the class totals is
    realised by splitting the exponents.

    One grlex sieve pulls the invariant class vectors of degree at most
    2*degree_bound, a degree at a time, and keeps a vector when no kept one
    divides it.  The quotient of an invariant vector by an invariant divisor
    is invariant, and grlex visits every divisor first, so the kept vectors
    are the irreducible ones.  Their expansions, grlex sorted, are the
    generators: the irreducible invariant monomials up to twice the bound.

    Saturation certificate: the first kept vector above degree_bound raises
    NonSaturationError before a higher degree is built.  The witness puts
    each class total on the class's first member: the grlex-first monomial
    above the bound that does not factor into the generators.
    """
    if degree_bound < 1:
        raise ToolkitError("degree bound must be >= 1")
    classes: dict = {}
    for i in range(action.ambient_dim):
        column = tuple(row[i] for row in action.torus_weights) + tuple(
            w[i] % m for m, w in action.finite_factors
        )
        classes.setdefault(column, []).append(i)
    firsts = [c[0] for c in classes.values()]
    quotient = DiagonalAction(
        len(firsts),
        tuple(tuple(row[i] for i in firsts) for row in action.torus_weights),
        tuple((m, tuple(w[i] for i in firsts)) for m, w in action.finite_factors),
    )

    def expansions(vector):
        # combinations_with_replacement starts with every pick on the
        # class's first member, so the first expansion is the witness
        for picks in product(*map(combinations_with_replacement, classes.values(), vector)):
            flat = sum(picks, ())
            yield tuple(flat.count(i) for i in range(action.ambient_dim))

    kept = []
    for v in _invariant_vectors(quotient, 2 * degree_bound):
        if sum(v) == 0 or any(all(x <= y for x, y in zip(g, v)) for g in kept):
            continue
        if sum(v) > degree_bound:
            m = next(expansions(v))
            raise NonSaturationError(
                f"invariant monomial {m} of degree {sum(m)} does not factor "
                f"into the degree-{degree_bound} generators; raise the bound",
                witness=m,
            )
        kept.append(v)
    generators = sorted((m for v in kept for m in expansions(v)), key=_grlex_key)
    return MonoidPresentation(action.ambient_dim, tuple(generators))


# ---------------------------------------------------------------------------
# binomial relations from the components of each fiber


def _twice_top_degree(generators) -> int:
    """The default relation bound: twice the largest generator degree, or 0
    when there are no generators."""
    return 2 * max((sum(g) for g in generators), default=0)


def binomial_relations(
    pres: MonoidPresentation, degree_bound: int, gen_signs=None
) -> tuple:
    """Minimal generating set of binomial relations up to an ambient degree.

    The generator monomials up to the bound fall into expansion fibers,
    keyed by ambient monomial and, with ``gen_signs`` (one +1 or -1 per
    generator), by sign.  In each fiber, members that share a generator are
    joined; the least member of each component, by (degree, vector),
    represents it, and the first representative is related to each of the
    others.  Fibers come in grlex order of their ambient monomial, + first.

    The generator monomials live in one list per ambient degree, 0 to the
    bound.  Each is one integer of w-bit digits, with w =
    max(bound, 1).bit_length() and these fields from the top down: ambient
    monomial, each digit complemented to 2^w - 1 - e; one sign bit, set for
    -1; generator count; exponent vector, index 0 most significant; support
    mask, bit i for generator i.  Generators have nonnegative exponents and
    degree at least 1, so up to the bound every count and exponent of either
    kind is at most the bound, below 2^w: no field carries into the next.
    The pass for generator i of degree d extends layer e + d from layer e,
    for e = 0 .. bound - d, by one precomputed addition, which also sets
    bit i on the members older than the pass, and an xor of the sign bit
    when i has sign -1; no member passes the bound.  Within a layer numeric
    order is (ambient lex descending, sign, count, vector): the fibers in
    output order, each with its members ascending by (degree, vector).  So
    one sort per layer lays out its fibers in turn, components are joined
    on the support masks, and the first member to meet one is its least.

    Why this is complete and minimal (the fiber graph of Diaconis and
    Sturmfels, Ann. Statist. 1998): a relation (u, v) moves a member w + u
    to w + v.  A relation of lower degree has w nonzero, so its moves only
    join members that share a generator.  Conversely, if members a and b
    share generator i, then a - e_i and b - e_i lie in one lower fiber (the
    expansion less that generator, with the same sign flip when it has sign
    -1).  By induction on the degree the relations already returned connect
    that fiber, and the same path with generator i put back joins a and b.
    So the components are exactly the classes the lower relations leave
    apart: each returned relation is needed, and together they connect
    every fiber.  No state carries from one fiber to the next.
    """
    k, n = len(pres.generators), pres.ambient_dim
    if gen_signs is not None and [abs(s) for s in gen_signs] != [1] * k:
        raise ToolkitError("gen_signs must hold one +1 or -1 per generator")
    w = max(degree_bound, 1).bit_length()
    count = k + w * k  # the places of the fields, from the bottom up
    sign, ambient = count + w, count + w + 1
    full, top = (1 << k) - 1, (1 << w) - 1
    layers = [[((1 << w * n) - 1) << ambient]] + [[] for _ in range(degree_bound)]
    for i, g in enumerate(pres.generators):
        # walked upwards, layer e + d takes g on each member of layer e
        d = sum(g)
        amb = sum(e << w * (n - 1 - j) for j, e in enumerate(g))
        add = (1 << count) + (1 << count - w * (i + 1)) - (amb << ambient)
        flip = 1 << sign if gen_signs is not None and gen_signs[i] < 0 else 0
        step = add + (1 << i)  # no member from before the pass holds g
        sizes = [len(layer) for layer in layers]
        for e in range(degree_bound - d + 1):
            layer, old = layers[e], sizes[e]
            layers[e + d] += [m + step ^ flip for m in layer[:old]]
            layers[e + d] += [m + add ^ flip for m in layer[old:]]

    def unpack(member):
        vector, mask = [0] * k, member & full
        while mask:
            i = mask.bit_length() - 1
            vector[i] = member >> count - w * (i + 1) & top
            mask ^= 1 << i
        return tuple(vector)

    relations = []
    for layer in layers:
        layer.sort()
        for _, fiber in groupby(layer, sign.__rrshift__):
            first, *others = fiber
            if not others:
                continue
            components = [first & full]  # the disjoint support masks
            for m in others:
                mask, rest = m & full, []
                for c in components:
                    if c & mask:
                        mask |= c
                    else:
                        rest.append(c)
                rest.append(mask)
                components = rest
            if len(components) > 1:
                fiber = (first, *others)
                leasts = sorted(next(m for m in fiber if m & c) for c in components)
                least, *more = map(unpack, leasts)
                relations += [(least, other) for other in more]
    return tuple(relations)


def toric_relations(
    action: DiagonalAction, gens: MonoidPresentation, degree_bound: int
) -> MonoidPresentation:
    """Attach a minimal binomial relation set to an invariant generator set."""
    for g in gens.generators:
        if not is_invariant(action, g):
            raise ToolkitError(f"generator {g} is not invariant under the action")
    rels = binomial_relations(gens, degree_bound)
    return MonoidPresentation(gens.ambient_dim, gens.generators, rels)


def relation_profile(pres: MonoidPresentation) -> dict:
    """Histogram of relations keyed by (ambient degree, sorted side degrees)."""
    keys = ((sum(pres.expand(u)), tuple(sorted((sum(u), sum(v))))) for u, v in pres.relations)
    return dict(Counter(keys))


def within_subset_relation_count(pres: MonoidPresentation, keep) -> int:
    """Relations among the selected generators only, at twice their top degree."""
    sub = MonoidPresentation(pres.ambient_dim, tuple(pres.generators[i] for i in keep))
    return len(binomial_relations(sub, _twice_top_degree(sub.generators)))


def cubic_quadratic_matchings(pres: MonoidPresentation) -> int:
    """Count unordered cubic-generator pairs whose product factors into quadratics.

    Regenerates the cubic relation family one index pair at a time by looking
    up a triple of quadratic generators with the same ambient expansion.
    """

    def products(degree, factors):
        indices = [i for i, g in enumerate(pres.generators) if sum(g) == degree]
        return [
            tuple(map(sum, zip(*(pres.generators[i] for i in combo))))
            for combo in combinations_with_replacement(indices, factors)
        ]

    triple_products = set(products(2, 3))
    return sum(amb in triple_products for amb in products(3, 2))


# ---------------------------------------------------------------------------
# fixed loci of normalizing involutions


def _check_normalizes(
    action: DiagonalAction, pres: MonoidPresentation, inv: CoordinateInvolution
) -> None:
    """The involution must map invariant monomials to invariant monomials.

    Checking the generators suffices: the substitution is multiplicative, so
    closure on generators is closure on everything they generate.  Both the
    identity and any substitution conjugating the acting group into itself
    pass; a substitution moving a generator off the invariant cone fails.
    """
    for g in pres.generators:
        # x_i goes to x_image[i], and image is its own inverse
        image = tuple(g[j] for j in inv.image)
        if not is_invariant(action, image):
            raise InvolutionError(
                f"involution does not normalize the action: generator {g} "
                f"maps to non-invariant {image}"
            )


def fixed_locus_presentation(
    action: DiagonalAction,
    pres: MonoidPresentation,
    inv: CoordinateInvolution,
    degree_bound: int | None = None,
) -> MonoidPresentation:
    """Presentation induced on the fixed locus of a normalizing involution.

    The fixed locus of the substitution is cut out by identifying each
    variable with (sign times) its image; generators are rewritten in one
    representative variable per orbit, duplicates merge, and the relations
    are recomputed by ``binomial_relations`` in the reduced variables.  When
    no bound is given, the largest ambient degree among the input relations
    is reused (or twice the top generator degree if there are none, 0
    without generators).
    """
    if not len(inv.image) == action.ambient_dim == pres.ambient_dim:
        raise ToolkitError("action, presentation and involution dimensions differ")
    _check_normalizes(action, pres, inv)

    n = action.ambient_dim
    rep = [min(i, j) for i, j in enumerate(inv.image)]
    zeroed = [j == i and s == -1 for i, (j, s) in enumerate(zip(inv.image, inv.signs))]
    reps = sorted({rep[i] for i in range(n) if not zeroed[i]})
    index_of = {r: k for k, r in enumerate(reps)}

    reduced: dict[tuple[int, ...], int] = {}
    for g in pres.generators:
        if any(zeroed[i] and g[i] for i in range(n)):
            continue  # the generator vanishes on the fixed locus
        image = [0] * len(reps)
        sign = 1
        for i, e in enumerate(g):
            if not e:
                continue
            image[index_of[rep[i]]] += e
            if i != rep[i] and inv.signs[i] == -1 and e % 2:
                sign = -sign
        key = tuple(image)
        if key in reduced and reduced[key] != sign:
            raise InvolutionError(
                f"generators collapse onto {key} with opposite signs; "
                "the fixed locus is not a monomial cone"
            )
        reduced.setdefault(key, sign)

    new_gens = sorted(reduced, key=_grlex_key)
    signs = tuple(reduced[g] for g in new_gens)
    if degree_bound is None:
        if pres.relations:
            degree_bound = max(sum(pres.expand(u)) for u, _ in pres.relations)
        else:
            degree_bound = _twice_top_degree(pres.generators)
    base = MonoidPresentation(len(reps), tuple(new_gens))
    gen_signs = signs if any(s < 0 for s in signs) else None
    rels = binomial_relations(base, degree_bound, gen_signs=gen_signs)
    return MonoidPresentation(len(reps), tuple(new_gens), rels)


# ---------------------------------------------------------------------------
# presentation comparison


def match_generators(a: MonoidPresentation, b: MonoidPresentation) -> tuple[int, ...]:
    """Generator bijection matching equal exponent vectors.

    Raises when the ambient dimensions or the generator sets differ.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ToolkitError("ambient dimensions differ")
    lookup = {g: i for i, g in enumerate(b.generators)}
    mapping = []
    for g in a.generators:
        j = lookup.get(g)
        if j is None:
            raise ToolkitError(f"generator {g} has no counterpart")
        mapping.append(j)
    if len(set(mapping)) != len(b.generators):
        raise ToolkitError("generator correspondence is not a bijection")
    return tuple(mapping)


def presentations_isomorphic(
    a: MonoidPresentation,
    b: MonoidPresentation,
    generator_map,
    degree_bound: int | None = None,
) -> IsomorphismResult:
    """Decide whether a generator bijection carries one congruence to the other.

    Relation certificate: every relation of ``binomial_relations(a, bound)``,
    carried through the bijection, must expand to an identity on ``b``, and
    every relation of ``binomial_relations(b, bound)``, carried back, to one
    on ``a``.  Those relations generate each congruence up to the ambient
    degree bound and the bijection is multiplicative, so each congruence
    lands inside the other and the two agree up to the bound.  The first
    relation that fails is returned as the counterexample, indexed by the
    generators of its own side.  The bound defaults to twice the largest
    generator degree of either side.
    """
    if degree_bound is None:
        degree_bound = _twice_top_degree(a.generators + b.generators)
    if len(a.generators) != len(b.generators):
        return IsomorphismResult(
            False,
            degree_bound,
            0,
            f"generator count mismatch: {len(a.generators)} vs {len(b.generators)}",
        )
    gmap = tuple(generator_map)
    if sorted(gmap) != list(range(len(b.generators))):
        raise ToolkitError("generator map is not a bijection onto the target")
    # a relation is carried across by reading each generator's exponent off
    # its partner on the other side
    inverse = sorted(range(len(gmap)), key=gmap.__getitem__)
    checked = 0
    for here, there, partner, names in (
        (a, b, inverse, ("source", "target")),
        (b, a, gmap, ("target", "source")),
    ):
        for u, v in binomial_relations(here, degree_bound):
            checked += 1
            if there.expand([u[k] for k in partner]) != there.expand([v[k] for k in partner]):
                return IsomorphismResult(
                    False,
                    degree_bound,
                    checked,
                    f"congruent on the {names[0]}, not on the {names[1]}",
                    (u, v),
                )
    return IsomorphismResult(
        True, degree_bound, checked, f"{checked} relations hold on both sides"
    )

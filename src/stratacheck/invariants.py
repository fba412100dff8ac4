"""Invariant monomials of diagonal group actions and their binomial relations.

An action is pure weight data: a monomial is invariant exactly when its
exponent vector is orthogonal to every torus weight row and satisfies every
finite congruence row, so it depends only on the total exponent on each
class of variables with equal weights.  Generating sets come from one grlex
walk over those class vectors, built one degree at a time up to twice the
bound and capped by the generators kept so far, so that it yields only
irreducibles; it stops at the first irreducible above the bound, which
certifies that the bound was too small.  Relations come from the expansion
fibers of generator monomials: in each fiber, the members that share a
generator form one component, and one relation joins each further component
to the first, so every answer is exact up to the stated degree bound.  A
pass over each fiber's support union flags the fibers that split, and only
their members are sorted and joined.  Two invariant rings in the same
ambient variables are isomorphic when their generator sets agree; for a
given generator bijection, ``presentations_isomorphic`` certifies the
isomorphism by relations: each side's minimal relations, carried through
the bijection, must hold on the other side.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, groupby, product
from operator import mul

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

    def weight_classes(self) -> list[list[int]]:
        """The variables grouped by weight column, torus weights exactly and
        finite weights mod their modulus, in order of each class's first
        member."""
        classes: dict = {}
        for i in range(self.ambient_dim):
            column = tuple(row[i] for row in self.torus_weights) + tuple(
                w[i] % m for m, w in self.finite_factors
            )
            classes.setdefault(column, []).append(i)
        return list(classes.values())


class MonoidPresentation(Record):
    """Monomial generators plus binomial relations over the generator set.

    A relation is a pair (u, v) of exponent vectors over the generator index
    set whose ambient expansions agree, checked once here: a later relation
    statistic reads generator degrees.  Relations may be empty for a
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
            if min(u + v, default=0) < 0:
                raise ToolkitError(f"relation {u} = {v} has a negative exponent")
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


def _invariant_vectors(action: DiagonalAction, max_degree: int, kept: list):
    """Yield the invariant monomials of degree <= max_degree in grlex order,
    built one exact degree at a time, except the multiples of a vector in
    ``kept``; with ``kept`` empty, every one.

    For each degree a depth-first walk sets the exponents in variable order,
    the first varying slowest and each counting down from the degree left,
    which is grlex order.  It keeps the weight of the partial monomial on
    every torus row, then every finite row, up to date.  A torus weight must
    end at zero: with r units of degree left for the variables i.., it can
    still change by between r*min(row[i:]) and r*max(row[i:]).  So a degree
    above 0 needs min(row) <= 0 <= max(row) on every row, tested once per
    call, and the exponent e of variable i runs only over the interval that
    keeps the window of i+1 live.  With c = row[i], lo and hi the extremes
    of row[i+1:] and w the row's weight so far, that window is two
    inequalities e*p <= s*w + r*t, with (p, s, t) = (c - lo, -1, -lo) and
    (hi - c, 1, hi).  A table built once per call sorts them by the sign of
    p, per variable: p > 0 caps e at (s*w + r*t) // p, p < 0 (stored as |p|)
    raises its floor to -((s*w + r*t) // |p|), and p = 0 is a test that no
    e changes.  At variable n-2 the last exponent is r - e and the window is
    the torus equation itself, so each e there only checks the congruences,
    base + e*(w[n-2] - w[n-1]) mod m for a finite row w, and its vector is
    appended in place.  A one-variable action checks the congruences of
    each degree alone.

    ``kept`` is read at the start of each degree, so a caller may append to
    it the vectors it has read.  A kept g whose last nonzero exponent is at
    j divides a vector exactly when the prefix dominates g below j and e_j
    >= g_j, so when the prefix dominates it, checked on g's nonzero
    exponents only, it caps e_j at g_j - 1.  A g ending at n-1 rules out,
    at variable n-2, every e with e >= g_{n-2} and r - e >= g_{n-1}.  A
    one-variable walk stops after its first kept vector, which divides
    every later one.
    """
    n, k, torus = action.ambient_dim, len(action.torus_weights), action.torus_weights
    if not all(min(row) <= 0 <= max(row) for row in torus):
        max_degree = min(max_degree, 0)
    if n == 1:
        for degree in range(max_degree + 1):
            if kept:
                return  # every later degree is a multiple of the kept vector
            if all(degree * w[0] % m == 0 for m, w in action.finite_factors):
                yield (degree,)
        return
    rows = torus + tuple(w for _, w in action.finite_factors)
    levels = []
    for i in range(n - 1):
        upper, lower, plain = [], [], []
        for r, row in enumerate(torus):
            c, a, b = row[i], min(row[i + 1:]), max(row[i + 1:])
            for p, s, t in ((c - a, -1, -a), (b - c, 1, b)):
                (upper if p > 0 else lower if p < 0 else plain).append((r, s, t, abs(p)))
        step = [(j, row[i]) for j, row in enumerate(rows) if row[i]]
        levels.append((plain, upper, lower, step))
    closing = [
        (k + j, w[-1], w[-2] - w[-1], m) for j, (m, w) in enumerate(action.finite_factors)
    ]
    last = n - 2
    exps = [0] * last
    weight = [0] * len(rows)
    found = []

    def rec(i: int, remaining: int) -> None:
        plain, upper, lower, step = levels[i]
        # the window of i+1 bounds e by e*p <= s*weight[r] + remaining*t
        for r, s, t, _ in plain:
            if s * weight[r] + remaining * t < 0:
                return
        top, bottom = remaining, 0
        for r, s, t, p in upper:
            x = (s * weight[r] + remaining * t) // p
            if x < top:
                top = x
        for r, s, t, p in lower:
            x = -((s * weight[r] + remaining * t) // p)
            if x > bottom:
                bottom = x
        # a kept g ending at i caps e at g[i] - 1 if the prefix dominates it
        for support, cap in caps[i]:
            if cap < top:
                for t, x in support:
                    if exps[t] < x:
                        break
                else:
                    top = cap
        if top < bottom:
            return
        if i == last:
            # the last exponent is remaining - e; the window made the torus
            # rows vanish, and each finite row is base + e*d mod m.  A kept g
            # ending at n-1 rules out g[n-2] <= e <= remaining - g[n-1]
            es = range(top, bottom - 1, -1)
            for support, a, b in ends:
                for t, x in support:
                    if exps[t] < x:
                        break
                else:
                    es = [e for e in es if not a <= e <= remaining - b]
            for e in es:
                for j, c, d, m in closing:
                    if (weight[j] + remaining * c + e * d) % m:
                        break
                else:
                    found.append((*exps, e, remaining - e))
            return
        # e counts down, so each step takes one c off a weight set one above
        for j, c in step:
            weight[j] += (top + 1) * c
        for e in range(top, bottom - 1, -1):
            for j, c in step:
                weight[j] -= c
            exps[i] = e
            rec(i + 1, remaining - e)
        for j, c in step:
            weight[j] -= bottom * c

    # a kept g ending at j < n-1 is (support, g[j] - 1) in caps[j], and one
    # ending at n-1 is (support, g[n-2], g[n-1]) in ends; its support is the
    # (index, exponent) pairs of its nonzero exponents below min(j, n-2)
    caps = [[] for _ in range(last + 1)]
    ends = []
    size = 0
    for degree in range(max_degree + 1):
        # the caller has read every lower degree, so kept holds its vectors
        while size < len(kept):
            g, j = kept[size], n - 1
            size += 1
            while not g[j]:
                j -= 1
            support = [(t, x) for t, x in enumerate(g[:min(j, last)]) if x]
            if j == n - 1:
                ends.append((support, g[-2], g[-1]))
            else:
                caps[j].append((support, g[j] - 1))
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
    2*degree_bound, a degree at a time, from a walk that the kept vectors
    cap: it yields no multiple of a kept vector, and no vector divides
    another of its degree, so the sieve keeps every nonzero vector it reads.
    The quotient of an invariant vector by an invariant divisor is
    invariant, and grlex visits every divisor first, so the kept vectors are
    the irreducible ones.  Their expansions, grlex sorted, are the
    generators: the irreducible invariant monomials up to twice the bound.

    Saturation certificate: the first kept vector above degree_bound raises
    NonSaturationError before a higher degree is built.  The witness puts
    each class total on the class's first member: the grlex-first monomial
    above the bound that does not factor into the generators.
    """
    if degree_bound < 1:
        raise ToolkitError("degree bound must be >= 1")
    classes = action.weight_classes()
    firsts = [c[0] for c in classes]
    quotient = DiagonalAction(
        len(firsts),
        tuple(tuple(row[i] for i in firsts) for row in action.torus_weights),
        tuple((m, tuple(w[i] for i in firsts)) for m, w in action.finite_factors),
    )

    def expansions(vector):
        # combinations_with_replacement starts with every pick on the
        # class's first member, so the first expansion is the witness
        for picks in product(*map(combinations_with_replacement, classes, vector)):
            flat = sum(picks, ())
            yield tuple(flat.count(i) for i in range(action.ambient_dim))

    kept = []
    for v in _invariant_vectors(quotient, 2 * degree_bound, kept):
        if sum(v) == 0:
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
    return MonoidPresentation(action.ambient_dim, tuple(generators), ())


# ---------------------------------------------------------------------------
# binomial relations from the components of each fiber


def _twice_top_degree(generators) -> int:
    """The default relation bound: twice the largest generator degree, or 0
    when there are no generators."""
    return 2 * max((sum(g) for g in generators), default=0)


def binomial_relations(pres: MonoidPresentation, degree_bound: int) -> tuple:
    """Minimal generating set of binomial relations up to an ambient degree.

    The generator monomials up to the bound fall into expansion fibers,
    keyed by ambient monomial.  In each fiber, members that share a
    generator are joined; the least member of each component, by (degree,
    vector), represents it, and the first representative is related to each
    of the others.  Fibers come in grlex order of their ambient monomial.

    The generator monomials are integers of w-bit digits, with w =
    max(bound, 1).bit_length() and these fields from the top down: ambient
    monomial, each digit complemented to 2^w - 1 - e; generator count;
    exponent vector, index 0 most significant; support mask, bit i for
    generator i.  Generators have nonnegative exponents and degree at least
    1, so up to the bound every count and exponent of either kind is at
    most the bound, below 2^w: no field carries into the next.

    A first pass flags the split fibers one fiber at a time.  It keeps one
    dict per ambient degree, from the fiber key (the packed ambient
    monomial) to the OR of its members' masks.  The pass for generator i of
    degree d walks e = 0 .. bound - d upwards and maps each fiber of degree
    e to key - g_i at degree e + d, with its union plus bit i, and flags the
    target when that mask meets none of the target's union so far.  The
    members that take g_i in pass i all share generator i, so they form one
    block inside one component.  If a fiber splits, the first block of a
    component other than the first block's own shares no generator with any
    earlier block, and that block flags the fiber.

    The members are then built in one list per ambient degree, up to the
    last degree with a flag: the pass for generator i extends layer e + d
    from layer e by one precomputed addition, which also sets bit i on the
    members older than the pass.  Only the members of flagged fibers are
    sorted.  Numeric order (ambient lex descending, count, vector) lays them
    out fiber by fiber in output order, each ascending by (degree, vector):
    components are joined on the masks, the first to meet one is its least;
    a connected fiber emits none.

    Why this is complete and minimal (the fiber graph of Diaconis and
    Sturmfels, Ann. Statist. 1998): a relation (u, v) moves a member w + u
    to w + v.  A relation of lower degree has w nonzero, so its moves only
    join members that share a generator.  Conversely, if members a and b
    share generator i, then a - e_i and b - e_i lie in one lower fiber (the
    expansion less that generator).  By induction on the degree the
    relations already returned connect that fiber, and the same path with
    generator i put back joins a and b.  So the components are exactly the
    classes the lower relations leave apart: each returned relation is
    needed, and together they connect every fiber.  No state carries from
    one fiber to the next.
    """
    k, n = len(pres.generators), pres.ambient_dim
    w = max(degree_bound, 1).bit_length()
    count = k + w * k  # the places of the fields, from the bottom up
    ambient = count + w
    full, top = (1 << k) - 1, (1 << w) - 1
    unit = (1 << w * n) - 1
    ambs = [sum(e << w * (n - 1 - j) for j, e in enumerate(g)) for g in pres.generators]
    unions = [{unit: 0}] + [{} for _ in range(degree_bound)]
    splits = [set() for _ in unions]
    for i, (g, amb) in enumerate(zip(pres.generators, ambs)):
        # walked upwards, fiber key - amb of degree e + d takes one block,
        # whose masks OR to the source fiber's union with bit i
        d, bit = sum(g), 1 << i
        for e in range(degree_bound - d + 1):
            # d >= 1, so the dict read is never the dict written
            target, split = unions[e + d], splits[e + d]
            for key, mask in unions[e].items():
                key -= amb
                mask |= bit
                union = target.get(key, mask)
                if not union & mask:
                    split.add(key)
                target[key] = union | mask
    last = max((e for e, split in enumerate(splits) if split), default=0)
    layers = [[unit << ambient]] + [[] for _ in range(last)]
    for i, (g, amb) in enumerate(zip(pres.generators, ambs)):
        # walked upwards, layer e + d takes g on each member of layer e
        d = sum(g)
        add = (1 << count) + (1 << count - w * (i + 1)) - (amb << ambient)
        step = add + (1 << i)  # no member from before the pass holds g
        sizes = [len(layer) for layer in layers]
        for e in range(last - d + 1):
            layer, old = layers[e], sizes[e]
            layers[e + d] += [m + step for m in layer[:old]]
            layers[e + d] += [m + add for m in layer[old:]]

    def unpack(member):
        vector, mask = [0] * k, member & full
        while mask:
            i = mask.bit_length() - 1
            vector[i] = member >> count - w * (i + 1) & top
            mask ^= 1 << i
        return tuple(vector)

    relations = []
    for layer, split in zip(layers[1:], splits[1:]):  # layer 0 holds the unit alone
        flagged = sorted(m for m in layer if m >> ambient in split) if split else ()
        for _, fiber in groupby(flagged, ambient.__rrshift__):
            first, *others = fiber
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
    """Histogram of relations keyed by (ambient degree, sorted side degrees);
    expansion is linear, so the ambient degree is sum(u_i * deg g_i)."""
    degrees = [sum(g) for g in pres.generators]
    return dict(Counter((sum(map(mul, u, degrees)), tuple(sorted((sum(u), sum(v)))))
                        for u, v in pres.relations))


def within_subset_relation_count(pres: MonoidPresentation, keep) -> int:
    """Relations among the selected generators only, at twice their top
    degree."""
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


def fixed_locus_generators(
    action: DiagonalAction, pres: MonoidPresentation, inv: CoordinateInvolution
) -> MonoidPresentation:
    """Generators induced on the fixed locus of a normalizing involution, as
    a generators-only presentation.

    The fixed locus identifies each variable with (sign times) its image, so
    a variable fixed with sign -1 vanishes, with every generator that uses
    it.  The others are rewritten in one representative variable per orbit:
    each restricts to +-y^a, and y^a and -y^a generate the same ring, so the
    signs drop and duplicates merge.  Only the generators of ``pres`` are
    read, so a generators-only presentation serves.
    """
    if not len(inv.image) == action.ambient_dim == pres.ambient_dim:
        raise ToolkitError("action, presentation and involution dimensions differ")
    _check_normalizes(action, pres, inv)

    n = action.ambient_dim
    rep = [min(i, j) for i, j in enumerate(inv.image)]
    zeroed = [j == i and s == -1 for i, (j, s) in enumerate(zip(inv.image, inv.signs))]
    reps = sorted({rep[i] for i in range(n) if not zeroed[i]})
    index_of = {r: k for k, r in enumerate(reps)}

    reduced = set()
    for g in pres.generators:
        if any(zeroed[i] and g[i] for i in range(n)):
            continue  # the generator vanishes on the fixed locus
        image = [0] * len(reps)
        for i, e in enumerate(g):
            if e:  # a zeroed variable has no representative index
                image[index_of[rep[i]]] += e
        reduced.add(tuple(image))

    return MonoidPresentation(len(reps), tuple(sorted(reduced, key=_grlex_key)), ())


def fixed_locus_presentation(
    action: DiagonalAction, pres: MonoidPresentation, inv: CoordinateInvolution, degree_bound: int
) -> MonoidPresentation:
    """``fixed_locus_generators`` with the relations of ``binomial_relations``
    in the reduced variables, up to ``degree_bound``."""
    base = fixed_locus_generators(action, pres, inv)
    return base.replace(relations=binomial_relations(base, degree_bound))


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

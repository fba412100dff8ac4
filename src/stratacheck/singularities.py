"""Finite diagonal quotient singularities and the Reid-Tai age test.

A group element is a diagonal matrix of roots of unity, recorded as an order
r together with integer eigenvalue exponents.  The group is closed as
exponent vectors over m, the lcm of the generator orders, and the
classification reads the plain age sum(v) / m of every nontrivial vector v
in integers: all sums above m means terminal, all at least m canonical.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, lcm
from operator import add, attrgetter

from .errors import QuasiReflectionError, Record, ToolkitError


class CyclicDiagonalElement(Record):
    """diag(z^a_1, ..., z^a_n) for z a primitive order-th root of unity."""

    order: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ToolkitError("element order must be >= 1")
        object.__setattr__(
            self, "exponents", tuple(a % self.order for a in self.exponents)
        )

    def reduced(self) -> "CyclicDiagonalElement":
        """Canonical representation with order equal to the element's order."""
        g = self.order
        for a in self.exponents:
            g = gcd(g, a)
        if g == 1:
            return self
        return CyclicDiagonalElement(
            self.order // g, tuple(a // g for a in self.exponents)
        )

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.exponents)


def age(element: CyclicDiagonalElement):
    """Sum of the eigenvalue exponents divided by the order, as an exact
    ``Fraction``.  ``fractions`` is imported here, where the one value is
    built, so that importing this module does not load it."""
    from fractions import Fraction

    return Fraction(sum(element.exponents), element.order)


_order_then_exponents = attrgetter("order", "exponents")


class FiniteDiagonalGroup(Record):
    """Group generated by commuting diagonal elements, stored in closed form."""

    generators: tuple[CyclicDiagonalElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ToolkitError("a group needs at least one generator")
        dims = {len(g.exponents) for g in self.generators}
        if len(dims) != 1:
            raise ToolkitError("generators act on spaces of different dimensions")

    @property
    def ambient_dim(self) -> int:
        return len(self.generators[0].exponents)

    def _closure(self) -> tuple[int, list[tuple[int, ...]]]:
        """m and every group element as an exponent vector over m, the zero
        vector first.

        Over m = the lcm of the generator orders, a generator of order r is
        the vector a * (m // r) in (Z/m)^n and composing adds vectors mod m.
        Generators join one at a time: if H is closed so far and c is the
        least multiple with c * g in H, the group H + <g> is the disjoint
        union of the cosets H + j * g for j < c, one addition per element.
        """
        m = lcm(*(g.order for g in self.generators))
        found = [(0,) * self.ambient_dim]
        seen = set(found)
        for g in self.generators:
            step = tuple(a * (m // g.order) for a in g.exponents)
            subgroup, shift = found[:], step
            while shift not in seen:
                coset = [tuple(map(m.__rmod__, map(add, h, shift)))
                         for h in subgroup]
                seen.update(coset)
                found += coset
                shift = tuple(map(m.__rmod__, map(add, shift, step)))
        return m, found

    def elements(self) -> tuple[CyclicDiagonalElement, ...]:
        """Every group element in reduced form, identity included, ordered by
        (order, exponents)."""
        m, found = self._closure()
        elements = (CyclicDiagonalElement(m, v).reduced() for v in found)
        return tuple(sorted(elements, key=_order_then_exponents))


class SingularityClass(str, Enum):
    TERMINAL = "terminal"
    CANONICAL_NOT_TERMINAL = "canonical_not_terminal"
    NOT_CANONICAL = "not_canonical"


def classify_quotient(group: FiniteDiagonalGroup) -> SingularityClass:
    """Reid-Tai classification of C^n / G for a finite diagonal G.

    Requires the action to be free of quasi-reflections; a nontrivial element
    moving exactly one coordinate makes the criterion inapplicable as stated.
    The trivial group counts as terminal (the quotient is smooth).

    Reid-Tai asks for the age of every nontrivial element under every
    primitive embedding of its cyclic subgroup, but the plain ages suffice.
    Take e of order r and t coprime to r.  The age of e under the embedding
    z -> z^t is sum((t * a) mod r) / r, which is age(e^t), and e^t is again
    a nontrivial element of the group.  So the ages over all elements and all
    primitive embeddings are exactly the plain ages over all elements.

    In integers: written over m, an element is a vector v with entries in
    [0, m), and its age is exactly sum(v) / m, whatever its own order.  So
    every age is above 1 when every nontrivial sum is above m, and at least
    1 when every sum is at least m; the least sum decides both.  A
    quasi-reflection is a vector with one nonzero entry, reduced only to
    name the first one in (order, exponents) order.
    """
    m, vectors = group._closure()
    nontrivial = vectors[1:]
    # a quasi-reflection has a zero in all coordinates but one
    quasi = [v for v in nontrivial if v.count(0) == group.ambient_dim - 1]
    if quasi:
        e = min((CyclicDiagonalElement(m, v).reduced() for v in quasi),
                key=_order_then_exponents)
        raise QuasiReflectionError(
            f"element {e} fixes a hyperplane; age criterion does not apply"
        )
    least = min(map(sum, nontrivial), default=m + 1)  # ages times m
    if least > m:
        return SingularityClass.TERMINAL
    if least >= m:
        return SingularityClass.CANONICAL_NOT_TERMINAL
    return SingularityClass.NOT_CANONICAL


NO_SYMPLECTIC_RESOLUTION = "no symplectic desingularization"
INCONCLUSIVE = "inconclusive by this criterion"

Q_FACTORIALITY_NOTE = (
    "assumes the quotient germ is Q-factorial, which holds for finite "
    "quotients of smooth germs and is recorded here rather than computed"
)


class ResolutionVerdict(Record):
    verdict: str
    assumption: str


def symplectic_resolution_verdict(
    classification: SingularityClass,
) -> ResolutionVerdict:
    """Terminal plus Q-factorial rules out crepant, hence symplectic, resolutions."""
    if classification is SingularityClass.TERMINAL:
        return ResolutionVerdict(NO_SYMPLECTIC_RESOLUTION, Q_FACTORIALITY_NOTE)
    return ResolutionVerdict(INCONCLUSIVE, Q_FACTORIALITY_NOTE)

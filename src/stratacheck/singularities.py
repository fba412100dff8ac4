"""Finite diagonal quotient singularities and the Reid-Tai age test.

A group element is a diagonal matrix of roots of unity, recorded as an order
r together with integer eigenvalue exponents.  The group is closed as
exponent vectors over the lcm of the generator orders, and the classification
reads the plain age of every nontrivial element: all ages strictly above 1
means terminal, all at least 1 means canonical.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

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


def age(element: CyclicDiagonalElement) -> Fraction:
    """Sum of the eigenvalue exponents divided by the order, as an exact rational."""
    return Fraction(sum(element.exponents), element.order)


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

    def elements(self) -> tuple[CyclicDiagonalElement, ...]:
        """Every group element in reduced form, identity included.

        Over m = the lcm of the generator orders, a generator of order r is
        the exponent vector a * (m // r) in (Z/m)^n and composing adds vectors
        mod m.  The worklist closes the zero vector under adding generators.
        """
        m = lcm(*(g.order for g in self.generators))
        steps = [tuple(a * (m // g.order) for a in g.exponents) for g in self.generators]
        found = [(0,) * self.ambient_dim]
        seen = set(found)
        for v in found:
            for step in steps:
                w = tuple((a + b) % m for a, b in zip(v, step))
                if w not in seen:
                    seen.add(w)
                    found.append(w)
        elements = (CyclicDiagonalElement(m, v).reduced() for v in found)
        return tuple(sorted(elements, key=lambda e: (e.order, e.exponents)))


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
    """
    nontrivial = [e for e in group.elements() if not e.is_identity()]
    for e in nontrivial:
        if sum(1 for a in e.exponents if a) == 1:
            raise QuasiReflectionError(
                f"element {e} fixes a hyperplane; age criterion does not apply"
            )
    ages = [age(e) for e in nontrivial]
    if all(a > 1 for a in ages):
        return SingularityClass.TERMINAL
    if all(a >= 1 for a in ages):
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

"""Finite diagonal quotient singularities and the Reid-Tai age test.

A group element is a diagonal matrix of roots of unity, recorded as an order
r together with integer eigenvalue exponents.  The classification ranges over
every nontrivial element of the group and every primitive embedding of the
cyclic subgroup it generates: all ages strictly above 1 means terminal, all
at least 1 means canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .errors import QuasiReflectionError, ToolkitError


@dataclass(frozen=True)
class CyclicDiagonalElement:
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

    def compose(self, other: "CyclicDiagonalElement") -> "CyclicDiagonalElement":
        if len(self.exponents) != len(other.exponents):
            raise ToolkitError("elements act on spaces of different dimensions")
        m = lcm(self.order, other.order)
        exps = tuple(
            (a * (m // self.order) + b * (m // other.order)) % m
            for a, b in zip(self.exponents, other.exponents)
        )
        return CyclicDiagonalElement(m, exps).reduced()

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.exponents)


def age(element: CyclicDiagonalElement) -> Fraction:
    """Sum of the eigenvalue exponents divided by the order, as an exact rational."""
    return Fraction(sum(element.exponents), element.order)


@dataclass(frozen=True)
class FiniteDiagonalGroup:
    """Group generated by commuting diagonal elements, stored in closed form."""

    generators: tuple[CyclicDiagonalElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        dims = {len(g.exponents) for g in self.generators}
        if len(dims) != 1:
            raise ToolkitError("generators act on spaces of different dimensions")

    @property
    def ambient_dim(self) -> int:
        return len(self.generators[0].exponents)

    def elements(self) -> tuple[CyclicDiagonalElement, ...]:
        """Every group element in reduced form, identity included."""
        identity = CyclicDiagonalElement(1, (0,) * self.ambient_dim)
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for e in frontier:
                for g in self.generators:
                    h = e.compose(g)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return tuple(sorted(seen, key=lambda e: (e.order, e.exponents)))


class SingularityClass(str, Enum):
    TERMINAL = "terminal"
    CANONICAL_NOT_TERMINAL = "canonical_not_terminal"
    NOT_CANONICAL = "not_canonical"


def _embedding_ages(element: CyclicDiagonalElement):
    """Ages of the element under every primitive root embedding t -> z^t."""
    r = element.order
    for t in range(1, r):
        if gcd(t, r) == 1:
            yield Fraction(sum((t * a) % r for a in element.exponents), r)


def classify_quotient(group: FiniteDiagonalGroup) -> SingularityClass:
    """Reid-Tai classification of C^n / G for a finite diagonal G.

    Requires the action to be free of quasi-reflections; a nontrivial element
    moving exactly one coordinate makes the criterion inapplicable as stated.
    The trivial group counts as terminal (the quotient is smooth).
    """
    nontrivial = [e for e in group.elements() if not e.is_identity()]
    for e in nontrivial:
        if sum(1 for a in e.exponents if a) == 1:
            raise QuasiReflectionError(
                f"element {e} fixes a hyperplane; age criterion does not apply"
            )
    ages = [a for e in nontrivial for a in _embedding_ages(e)]
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


@dataclass(frozen=True)
class ResolutionVerdict:
    verdict: str
    assumption: str


def symplectic_resolution_verdict(
    classification: SingularityClass,
) -> ResolutionVerdict:
    """Terminal plus Q-factorial rules out crepant, hence symplectic, resolutions."""
    if classification is SingularityClass.TERMINAL:
        return ResolutionVerdict(NO_SYMPLECTIC_RESOLUTION, Q_FACTORIALITY_NOTE)
    return ResolutionVerdict(INCONCLUSIVE, Q_FACTORIALITY_NOTE)

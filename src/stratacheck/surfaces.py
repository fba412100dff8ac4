"""Symbolic intersection arithmetic over a fixed basis of divisor classes."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ToolkitError


@dataclass(frozen=True)
class ClassBasis:
    """Named divisor classes together with their symmetric intersection pairing."""

    labels: tuple[str, ...]
    pairing: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "pairing", tuple(tuple(r) for r in self.pairing))
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ToolkitError("basis labels must be distinct")
        if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
            raise ToolkitError("pairing must be square of the basis size")
        for i in range(n):
            for j in range(n):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise ToolkitError("pairing must be symmetric")

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ToolkitError(f"unknown class label {label!r}") from None


@dataclass(frozen=True)
class DivisorClass:
    """Integer combination of basis classes."""

    basis: ClassBasis
    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) != len(self.basis.labels):
            raise ToolkitError("coefficient vector does not match the basis")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _same_basis(self, other)
        return DivisorClass(
            self.basis,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _same_basis(self, other)
        return DivisorClass(
            self.basis,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(self.basis, tuple(scalar * a for a in self.coefficients))


def divisor(basis: ClassBasis, **coefficients: int) -> DivisorClass:
    """Build a class from label=coefficient keywords; omitted labels are zero."""
    vec = [0] * len(basis.labels)
    for label, value in coefficients.items():
        vec[basis.index(label)] = value
    return DivisorClass(basis, tuple(vec))


def _same_basis(a: DivisorClass, b: DivisorClass) -> None:
    if a.basis != b.basis:
        raise ToolkitError("divisor classes live over different bases")


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a^T . pairing . b, exact."""
    _same_basis(a, b)
    pairing = a.basis.pairing
    return sum(
        ai * pairing[i][j] * bj
        for i, ai in enumerate(a.coefficients)
        if ai
        for j, bj in enumerate(b.coefficients)
        if bj
    )


def adjunction_genus(canonical_degree: int) -> int:
    """Genus from 2g - 2 = deg K restricted to the curve; degree must be even."""
    if canonical_degree % 2:
        raise ToolkitError(f"canonical degree {canonical_degree} is odd")
    g = (canonical_degree + 2) // 2
    if g < 0:
        raise ToolkitError(f"negative genus {g}")
    return g


def bidegree_class(basis: ClassBasis, p: int, q: int, hyperplane_degree: int) -> DivisorClass:
    """Class of a bidegree-(p, q) form restricted to a curve self-product.

    On C x C with deg(hyperplane restricted to C) = hyperplane_degree, the
    restriction is numerically q*h on the first ruling, labelled f1, plus p*h
    on the second, labelled f2.
    """
    if p < 0 or q < 0 or hyperplane_degree < 0:
        raise ToolkitError("bidegree data must be non-negative")
    return divisor(basis, f1=q * hyperplane_degree, f2=p * hyperplane_degree)

"""The 27 lines on a smooth cubic surface, derived from its Picard lattice.

The surface is the plane blown up in six points: its Picard lattice is
Z^{1,6} with basis h, e1..e6, pairing diag(1, -1, ..., -1) and canonical
class K = -3h + e1 + ... + e6.  The lines are the classes L with L.L = -1 and
K.L = -1, two lines meet when L.L' = 1, and the tritangent planes are the
triangles of that incidence graph (Manin, *Cubic Forms*, 1974; Hartshorne,
*Algebraic Geometry*, V.4).  The derivation runs once per process, on first
use, and every count is read off it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, count, product, takewhile
from math import isqrt

from .errors import Record, ToolkitError
from .surfaces import ClassBasis, DivisorClass, divisor, intersect

_EXCEPTIONAL = tuple(f"e{i}" for i in range(1, 7))
_DIAGONAL = (1,) + (-1,) * len(_EXCEPTIONAL)
PICARD = ClassBasis(
    ("h",) + _EXCEPTIONAL,
    [[d if i == j else 0 for j in range(len(_DIAGONAL))] for i, d in enumerate(_DIAGONAL)],
)
CANONICAL = divisor(PICARD, h=-3, **dict.fromkeys(_EXCEPTIONAL, 1))

# sorted h-degrees of the three lines of a plane -> its report key
_PLANE_TYPES = {(0, 1, 2): "EGF", (1, 1, 1): "FFF"}


class LineConfiguration(Record):
    """``neighbours[i]`` indexes the lines meeting ``lines[i]``; a plane is an
    increasing triple of line indices."""

    lines: tuple[DivisorClass, ...]
    neighbours: tuple[frozenset[int], ...]
    planes: tuple[tuple[int, int, int], ...]


def _line_classes() -> list[DivisorClass]:
    """Every L = a*h - sum b_i*e_i with L.L = -1 and K.L = -1.

    The conditions read sum b_i^2 = a^2 + 1 and sum b_i = 3a - 1.
    Cauchy-Schwarz, (3a - 1)^2 <= 6(a^2 + 1), holds exactly for 0 <= a <= 2,
    and then |b_i| <= isqrt(a^2 + 1) <= 2, so the search over b_1..b_5, with b_6
    read off the linear condition, is complete.  Hits are confirmed by ``intersect``.
    """
    rank = len(_EXCEPTIONAL)
    found = []
    for a in takewhile(lambda a: (3 * a - 1) ** 2 <= rank * (a * a + 1), count()):
        reach = isqrt(a * a + 1)
        for head in product(range(-reach, reach + 1), repeat=rank - 1):
            b = head + (3 * a - 1 - sum(head),)
            if abs(b[-1]) > reach or sum(x * x for x in b) != a * a + 1:
                continue
            line = DivisorClass(PICARD, (a,) + tuple(-x for x in b))
            if intersect(line, line) != -1 or intersect(CANONICAL, line) != -1:
                raise ToolkitError(f"{line.coefficients} is not a line class")
            found.append(line)
    return found


@cache
def build_configuration() -> LineConfiguration:
    """The lines, their incidences and the tritangent planes, derived once."""
    lines = _line_classes()
    edges = [
        (i, j)
        for i, j in combinations(range(len(lines)), 2)
        if intersect(lines[i], lines[j]) == 1
    ]
    neighbours = [set() for _ in lines]
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    # each triangle once, from the edge of its two smallest indices
    planes = tuple(
        (i, j, k) for i, j in edges for k in sorted(neighbours[i] & neighbours[j]) if k > j
    )
    return LineConfiguration(tuple(lines), tuple(map(frozenset, neighbours)), planes)


def tritangent_type_counts(config: LineConfiguration) -> dict[str, int]:
    """Planes keyed by the h-degrees of their lines; any other degrees raise."""
    return dict(Counter(
        _PLANE_TYPES[tuple(sorted(config.lines[i].coefficients[0] for i in plane))]
        for plane in config.planes
    ))


class DualStratification(Record):
    dual_line_count: int
    triple_point_count: int
    triples_per_line: int
    lines_per_triple: int


def dual_stratification_counts(config: LineConfiguration) -> DualStratification:
    """Counts (27, 45, 5, 3); planes per line and lines per plane are uniform."""
    per_line = {sum(i in p for p in config.planes) for i in range(len(config.lines))}
    per_plane = {len(p) for p in config.planes}
    if len(per_line) != 1 or len(per_plane) != 1:
        raise ToolkitError("planes per line or lines per plane are not uniform")
    return DualStratification(len(config.lines), len(config.planes), *per_line, *per_plane)

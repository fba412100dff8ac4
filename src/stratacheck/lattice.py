"""Exact integer primitives: exponent-vector monomials and integer kernels.

A monomial in n variables is a tuple of n non-negative ints, its exponent
vector.  A matrix is a rectangular sequence of integer rows.  Everything runs
on Python's arbitrary-precision ints; nothing in the toolkit ever touches a
float.
"""

from __future__ import annotations

from .errors import ToolkitError


# ---------------------------------------------------------------------------
# monomials


def grlex_key(m):
    """Sort key realizing the canonical graded-lexicographic order."""
    return (sum(m), tuple(-e for e in m))


def sort_monomials(monomials) -> list[tuple[int, ...]]:
    return sorted(monomials, key=grlex_key)


# ---------------------------------------------------------------------------
# integer matrices


def as_matrix(entries) -> tuple[tuple[int, ...], ...]:
    """Validate a rectangular integer matrix and freeze it."""
    rows = tuple(tuple(r) for r in entries)
    if rows:
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ToolkitError("matrix rows have unequal lengths")
            for x in r:
                if not isinstance(x, int):
                    raise ToolkitError(f"matrix entries must be integers, got {x!r}")
    return rows


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _eliminate(rows: list[list[int]], pivot_cols) -> int:
    """Integer row echelon reduction over the given pivot columns.

    Only unimodular row operations are used, so the lattice spanned by the
    rows is preserved exactly.  Returns the number of pivots; afterwards
    every row with index >= rank vanishes on all pivot columns.
    """
    rank = 0
    for col in pivot_cols:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if not rows[r][col]:
                continue
            a, b = rows[rank][col], rows[r][col]
            if b % a == 0:
                q = b // a
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
            else:
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                top, bot = rows[rank], rows[r]
                rows[rank] = [x * p + y * q for p, q in zip(top, bot)]
                rows[r] = [ag * q - bg * p for p, q in zip(top, bot)]
        rank += 1
    return rank


def matrix_rank(matrix) -> int:
    rows = [list(r) for r in as_matrix(matrix)]
    if not rows:
        return 0
    return _eliminate(rows, range(len(rows[0])))


def _hermite_normalize(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row form: echelon, positive pivots, reduced entries above."""
    if not rows:
        return []
    rank = _eliminate(rows, range(len(rows[0])))
    rows = rows[:rank]
    pivots = []
    for i, row in enumerate(rows):
        j = next(k for k, x in enumerate(row) if x)
        if row[j] < 0:
            rows[i] = [-x for x in row]
        pivots.append(j)
    for i in range(rank - 1, -1, -1):
        j = pivots[i]
        p = rows[i][j]
        for k in range(i):
            q = rows[k][j] // p
            if q:
                rows[k] = [x - q * y for x, y in zip(rows[k], rows[i])]
    return rows


def integer_kernel(matrix, cols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of the lattice of integer vectors v with M v = 0.

    Row-reduces the transpose of M augmented with an identity block.  The row
    operations are unimodular, so the identity block stays a basis of Z^n and
    the rows whose transpose part vanishes carry, in their identity part, a
    basis of the full kernel lattice.  The basis is returned in Hermite
    normal form, so the output is canonical.
    """
    mat = as_matrix(matrix)
    m = len(mat)
    if m == 0:
        if cols is None:
            raise ToolkitError("column count required for a matrix with no rows")
        n = cols
    else:
        n = len(mat[0])
        if cols is not None and cols != n:
            raise ToolkitError(f"cols={cols} conflicts with row width {n}")
    aug = [
        [mat[r][i] for r in range(m)] + [1 if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    rank = _eliminate(aug, range(m))
    kernel = [row[m:] for row in aug[rank:]]
    return [tuple(r) for r in _hermite_normalize(kernel)]

"""Brute-force oracles for the random-actions stream.

They share no code with stratacheck.  The action oracle enumerates every
exponent vector up to twice the bound, keeps the invariant ones and sieves
out the minimal ones degree by degree (the exhaustive oracle of the
acceptance tests, vectorised).  A saturated verdict means no minimal element
lies above the bound; otherwise the program's witness must be the first such
element in graded-lexicographic order.  The group oracle works over a common
denominator: the group is closed under powers, so every primitive embedding
of an element's cyclic subgroup is again an element, and the Reid-Tai test
reduces to the plain age of every nontrivial element.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from stream import BOUND, group_elements

# ---------------------------------------------------------------------------
# action oracle

_EXPONENTS: dict = {}


def _exponents(n: int, degree: int):
    """Every exponent vector of total degree 1..degree, in grlex order."""
    key = (n, degree)
    if key not in _EXPONENTS:
        rows = [[]]
        for _ in range(n):
            rows = [r + [e] for r in rows for e in range(degree + 1 - sum(r))]
        arr = np.array(rows, dtype=np.int64)
        deg = arr.sum(axis=1)
        keep = deg >= 1
        arr, deg = arr[keep], deg[keep]
        # lexsort sorts by the last key first: degree ascending, then each
        # exponent descending from the first variable on
        order = np.lexsort(tuple(-arr[:, i] for i in range(n - 1, -1, -1)) + (deg,))
        _EXPONENTS[key] = (arr[order], deg[order])
    return _EXPONENTS[key]


def action_oracle(n: int, torus, finite, bound: int = BOUND):
    """(generators up to bound, first witness above it or None) by brute force."""
    exps, deg = _exponents(n, 2 * bound)
    ok = np.ones(len(exps), dtype=bool)
    for row in torus:
        ok &= exps @ np.array(row, dtype=np.int64) == 0
    for modulus, row in finite:
        ok &= exps @ np.array(row, dtype=np.int64) % modulus == 0
    invariant, inv_deg = exps[ok], deg[ok]
    kept = np.zeros((0, n), dtype=np.int64)
    generators = set()
    for d in range(1, 2 * bound + 1):
        layer = invariant[inv_deg == d]
        if len(kept) and len(layer):
            reducible = (layer[:, None, :] >= kept[None, :, :]).all(axis=2).any(axis=1)
            layer = layer[~reducible]
        if not len(layer):
            continue
        if d > bound:
            return generators, tuple(int(x) for x in layer[0])
        kept = np.vstack([kept, layer])
        generators.update(tuple(int(x) for x in row) for row in layer)
    return generators, None



# ---------------------------------------------------------------------------
# group oracle


def group_oracle(gens):
    """["quasi-reflection"], or the class name and the resolution verdict."""
    common, elements = group_elements(gens)
    nontrivial = [e for e in elements if any(e)]
    if any(sum(1 for a in e if a) == 1 for e in nontrivial):
        return ["quasi-reflection"]
    ages = [Fraction(sum(e), common) for e in nontrivial]
    if all(a > 1 for a in ages):
        return ["terminal", "no symplectic desingularization"]
    if all(a >= 1 for a in ages):
        return ["canonical_not_terminal", "inconclusive by this criterion"]
    return ["not_canonical", "inconclusive by this criterion"]


def check(request, outcome) -> bool:
    """Whether the program's outcome for one request matches the oracle."""
    if request[0] == "group":
        return outcome == group_oracle(request[1])
    generators, witness = action_oracle(request[1], request[2], request[3])
    if witness is not None:
        return outcome == ["nonsaturated", list(witness)]
    return (
        outcome[0] == "saturated"
        and {tuple(g) for g in outcome[1]} == generators
        and outcome[2]
    )

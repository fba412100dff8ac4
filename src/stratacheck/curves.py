"""Classical enumerative arithmetic for curves.

Dual degrees, bitangent and flex counts, branched-cover bookkeeping, theta
characteristic counts, and the small exact linear solves the stratification
ledger leans on.  Every solver demands exact integer answers; a negative or
fractional result raises instead of rounding.  The two solvers that divide
import ``fractions`` when called, so importing this module does not load it.
"""

from __future__ import annotations

from math import comb

from .errors import InconsistentInputError, ToolkitError


# ---------------------------------------------------------------------------
# Pluecker formulas


def pluecker_dual_degree(d: int, delta: int, kappa: int) -> int:
    """Dual degree d(d-1) - 2*delta - 3*kappa."""
    if min(d, delta, kappa) < 0:
        raise InconsistentInputError("degree, node and cusp counts must be non-negative")
    d_star = d * (d - 1) - 2 * delta - 3 * kappa
    if d_star < 0:
        raise InconsistentInputError(f"dual degree {d_star} is negative")
    return d_star


def pluecker_solve_bf(d: int, d_star: int, g: int) -> tuple[int, int]:
    """Bitangents and flexes from the pair of dual-curve relations.

    Solves b + f = (d*-1)(d*-2)/2 - g and 2b + 3f = d*(d*-1) - d exactly and
    re-substitutes the answer into both equations before returning it.
    """
    s1 = (d_star - 1) * (d_star - 2) // 2 - g
    s2 = d_star * (d_star - 1) - d
    f = s2 - 2 * s1
    b = s1 - f
    if b < 0 or f < 0:
        raise InconsistentInputError(
            f"no non-negative solution for (d, d*, g)=({d}, {d_star}, {g}): "
            f"b={b}, f={f}"
        )
    assert b + f == s1 and 2 * b + 3 * f == s2
    return b, f


def flex_count(d: int, delta: int, kappa: int) -> int:
    """Flexes 3d(d-2) - 6*delta - 8*kappa, the companion dual formula."""
    f = 3 * d * (d - 2) - 6 * delta - 8 * kappa
    if f < 0:
        raise InconsistentInputError(f"negative flex count {f}")
    return f


# ---------------------------------------------------------------------------
# branched covers


def riemann_hurwitz_branch(g_source: int, g_target: int, degree: int) -> int:
    """Branch divisor degree 2g - 2 - n(2g' - 2) of an n-sheeted cover."""
    if degree < 1:
        raise ToolkitError("cover degree must be >= 1")
    r = 2 * g_source - 2 - degree * (2 * g_target - 2)
    if r < 0:
        raise InconsistentInputError(f"negative branch degree {r}")
    return r


# ---------------------------------------------------------------------------
# theta characteristics and moduli dimensions


def theta_characteristics(g: int, parity: str) -> int:
    """2^(g-1)(2^g - 1) odd or 2^(g-1)(2^g + 1) even square roots of the canonical class."""
    if g < 1:
        raise ToolkitError("genus must be >= 1")
    if parity == "odd":
        return 2 ** (g - 1) * (2**g - 1)
    if parity == "even":
        return 2 ** (g - 1) * (2**g + 1)
    raise ToolkitError(f"parity must be 'odd' or 'even', got {parity!r}")


def pgl_dim(projective_dim: int) -> int:
    """Dimension (n+1)^2 - 1 of the projective linear group of P^n."""
    if projective_dim < 0:
        raise ToolkitError("projective dimension must be non-negative")
    return (projective_dim + 1) ** 2 - 1


def moduli_dimension_check(n: int, degrees, group_dim: int) -> int:
    """Sum of the hypersurface linear-system dimensions in P^n minus a group dimension."""
    return sum(comb(n + d, n) - 1 for d in degrees) - group_dim


# ---------------------------------------------------------------------------
# polystable degree solving


def solve_polystable_degrees(genera, intersections, total_chi: int) -> tuple[int, ...]:
    """Unique integer degrees with equal slopes and the prescribed total chi.

    ``intersections`` is the symmetric off-diagonal table C_i . C_j (diagonal
    zero); the self-intersection enters through 2g_i - 2 as usual for curves
    on a symplectic surface, so C_i . C = (2g_i - 2) + sum_j C_i . C_j.
    Slope equality makes (1 - g_i + d_i) proportional to C_i . C, and the
    total chi fixes the constant, so d_i = mu * (C_i . C) - 1 + g_i with
    mu = total_chi / sum(C_i . C).  Non-integral degrees are an error.
    """
    k = len(genera)
    if len(intersections) != k or any(len(r) != k for r in intersections):
        raise ToolkitError("intersection table shape does not match components")
    for i in range(k):
        if intersections[i][i] != 0:
            raise ToolkitError("intersection table diagonal must be zero")
        for j in range(k):
            if intersections[i][j] != intersections[j][i]:
                raise ToolkitError("intersection table must be symmetric")
    denominators = [2 * g - 2 + sum(row) for g, row in zip(genera, intersections)]
    if any(n <= 0 for n in denominators):
        raise ToolkitError("every slope denominator C_i . C must be positive")
    from fractions import Fraction

    mu = Fraction(total_chi, sum(denominators))
    degrees = []
    for g, n in zip(genera, denominators):
        d = mu * n - 1 + g
        if d.denominator != 1:
            raise InconsistentInputError(
                f"no integer degree solution: component needs d = {d}"
            )
        degrees.append(int(d))
    chis = [1 - g + d for g, d in zip(genera, degrees)]
    assert sum(chis) == total_chi
    assert len({Fraction(c, n) for c, n in zip(chis, denominators)}) == 1
    return tuple(degrees)


# ---------------------------------------------------------------------------
# fibration Euler characteristics


def fibration_euler(strata) -> int:
    """Total chi of a fibration over P^1 whose smooth fibers have chi 0.

    Only the point strata (count, fiber chi) contribute, each count times
    its fiber chi.
    """
    return sum(count * chi for count, chi in strata)


def solve_unknown_count(total_chi: int, known_strata, unknown_fiber_chi: int) -> int:
    """Number of fibers of a given chi forced by the total Euler characteristic."""
    if unknown_fiber_chi == 0:
        raise ToolkitError(
            "unknown fiber chi equals the smooth fiber chi; count is undetermined"
        )
    from fractions import Fraction

    count = Fraction(total_chi - fibration_euler(known_strata), unknown_fiber_chi)
    if count.denominator != 1 or count < 0:
        raise InconsistentInputError(f"no admissible integer fiber count: {count}")
    return int(count)

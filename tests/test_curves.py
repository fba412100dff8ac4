import pytest
from hypothesis import given, strategies as st

from stratacheck.curves import (
    fibration_euler,
    flex_count,
    moduli_dimension_check,
    pgl_dim,
    pluecker_dual_degree,
    pluecker_solve_bf,
    riemann_hurwitz_branch,
    solve_polystable_degrees,
    solve_unknown_count,
    theta_characteristics,
)
from stratacheck.errors import InconsistentInputError, ToolkitError


# ---------------------------------------------------------------------------
# Pluecker arithmetic


def test_dual_degree_examples():
    assert pluecker_dual_degree(6, 6, 0) == 18
    assert pluecker_dual_degree(2, 0, 0) == 2
    assert pluecker_dual_degree(3, 0, 0) == 6
    assert pluecker_dual_degree(4, 0, 0) == 12


def test_dual_degree_negative_rejected():
    with pytest.raises(InconsistentInputError):
        pluecker_dual_degree(2, 5, 0)


def test_solve_bf_examples():
    assert pluecker_solve_bf(3, 6, 1) == (0, 9)
    assert pluecker_solve_bf(4, 12, 3) == (28, 24)
    assert pluecker_solve_bf(6, 18, 4) == (96, 36)


def test_solve_bf_resubstitutes_exactly():
    for d, d_star, g in ((3, 6, 1), (4, 12, 3), (6, 18, 4), (5, 20, 6)):
        b, f = pluecker_solve_bf(d, d_star, g)
        assert b + f == (d_star - 1) * (d_star - 2) // 2 - g
        assert 2 * b + 3 * f == d_star * (d_star - 1) - d


def test_recorded_sextic_bitangent_count_fails_the_equations():
    # the bundled reference value is 90; it satisfies neither equation
    b, f = 90, 36
    assert b + f != (18 - 1) * (18 - 2) // 2 - 4
    b, f = 90, 42  # nor does any f rescue both equations at once
    assert not (b + f == 132 and 2 * b + 3 * f == 300)


def test_solve_bf_without_admissible_solution():
    with pytest.raises(InconsistentInputError):
        pluecker_solve_bf(3, 6, 9)


def test_flex_count_examples_and_agreement():
    assert flex_count(3, 0, 0) == 9
    assert flex_count(2, 0, 0) == 0
    assert flex_count(6, 6, 0) == 36
    for d, delta, kappa in ((3, 0, 0), (4, 0, 0), (6, 6, 0)):
        g = (d - 1) * (d - 2) // 2 - delta - kappa
        d_star = pluecker_dual_degree(d, delta, kappa)
        assert pluecker_solve_bf(d, d_star, g)[1] == flex_count(d, delta, kappa)


def test_dual_genus_consistency():
    for d, delta, kappa in ((3, 0, 0), (4, 0, 0), (6, 6, 0)):
        g = (d - 1) * (d - 2) // 2 - delta - kappa
        d_star = pluecker_dual_degree(d, delta, kappa)
        b, f = pluecker_solve_bf(d, d_star, g)
        assert (d_star - 1) * (d_star - 2) // 2 - b - f == g


# ---------------------------------------------------------------------------
# branched covers


def test_riemann_hurwitz_examples():
    assert riemann_hurwitz_branch(4, 0, 6) == 18
    assert riemann_hurwitz_branch(4, 0, 4) == 14
    assert riemann_hurwitz_branch(67, 4, 4) == 108
    for n in range(1, 6):
        assert riemann_hurwitz_branch(1, 1, n) == 0


def test_riemann_hurwitz_rejections():
    with pytest.raises(InconsistentInputError):
        riemann_hurwitz_branch(0, 1, 2)
    with pytest.raises(ToolkitError):
        riemann_hurwitz_branch(4, 0, 0)


@given(st.integers(0, 40), st.integers(0, 6), st.integers(1, 8))
def test_cover_data_identity_holds_whenever_constructible(gs, gt, n):
    try:
        branch = riemann_hurwitz_branch(gs, gt, n)
    except InconsistentInputError:
        assert 2 * gs - 2 - n * (2 * gt - 2) < 0
        return
    assert branch >= 0
    assert 2 * gs - 2 == n * (2 * gt - 2) + branch


# ---------------------------------------------------------------------------
# theta characteristics and dimensions


def test_theta_examples():
    assert theta_characteristics(4, "odd") == 120
    assert theta_characteristics(3, "odd") == 28
    assert theta_characteristics(1, "odd") == 1


def test_theta_parities_sum_to_all_torsion():
    for g in range(1, 9):
        assert (
            theta_characteristics(g, "odd") + theta_characteristics(g, "even")
            == 4**g
        )


def test_theta_rejects_bad_arguments():
    with pytest.raises(ToolkitError):
        theta_characteristics(0, "odd")
    with pytest.raises(ToolkitError):
        theta_characteristics(3, "both")


def test_moduli_dimension_examples():
    assert pgl_dim(3) == 15
    assert moduli_dimension_check(3, (2, 3), pgl_dim(3)) == 13
    assert moduli_dimension_check(2, (3,), pgl_dim(2)) == 1
    assert moduli_dimension_check(5, (), 0) == 0


# ---------------------------------------------------------------------------
# polystable degrees


def test_polystable_two_components():
    assert solve_polystable_degrees((0, 1), ((0, 4), (4, 0)), -3) == (-2, -2)
    # slope equality alone pins the stated linear relation between the degrees
    d1, d2 = solve_polystable_degrees((0, 1), ((0, 4), (4, 0)), -3)
    assert 2 * d1 + 2 == d2


def test_polystable_three_components():
    table = ((0, 2, 2), (2, 0, 2), (2, 2, 0))
    assert solve_polystable_degrees((0, 0, 0), table, -3) == (-2, -2, -2)


def test_polystable_single_component():
    assert solve_polystable_degrees((4,), ((0,),), -3) == (0,)


def test_polystable_requires_integer_solution():
    with pytest.raises(InconsistentInputError):
        solve_polystable_degrees((0, 1), ((0, 4), (4, 0)), -2)


def test_polystable_table_validation():
    with pytest.raises(ToolkitError, match="symmetric"):
        solve_polystable_degrees((0, 1), ((0, 4), (3, 0)), -3)
    with pytest.raises(ToolkitError, match="diagonal"):
        solve_polystable_degrees((0, 1), ((1, 4), (4, 0)), -3)
    with pytest.raises(ToolkitError, match="shape"):
        solve_polystable_degrees((0, 1), ((0, 4),), -3)
    with pytest.raises(ToolkitError, match="positive"):
        solve_polystable_degrees((0,), ((0,),), -3)


# ---------------------------------------------------------------------------
# fibration Euler characteristics


def test_fibration_euler_examples():
    assert fibration_euler(((19, 1),)) == 19
    assert fibration_euler(((5, 0), (7, 0))) == 0
    assert fibration_euler(((12, 1),)) == 12


def test_solve_unknown_count_examples():
    assert solve_unknown_count(12, (), 1) == 12
    assert solve_unknown_count(24, ((5, 2),), 1) == 14
    assert solve_unknown_count(19, (), 1) == 19


def test_solve_unknown_count_rejections():
    with pytest.raises(ToolkitError, match="count is undetermined"):
        solve_unknown_count(12, (), 0)
    with pytest.raises(InconsistentInputError):
        solve_unknown_count(13, ((5, 2),), 2)

"""Closed forms for k = 1..4 against pinned values and the general engine."""

from fractions import Fraction

from ktrees.closedforms import (
    fourtree_U,
    otter_U,
    rooted_trees,
    threetree_U,
    twotree_U,
    twotree_rooted_series,
)
from ktrees.engine import count_ktrees, solve_system
from ktrees.series import (
    Series,
    add,
    exp_series,
    integer_coeffs,
    mul,
    one,
    resized,
    scale,
    substitute_power,
    times_x,
)


def test_otter_reference_row():
    assert integer_coeffs(otter_U(9)) == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_otter_constant_term():
    assert otter_U(0).coeffs[0] == 1


def test_rooted_trees_head():
    # Vertex-rooted unlabeled trees by edges (A000081).  The fixed point
    # grows one order per pass from order 0, so every requested order,
    # 0 and 1 included, must end on the exact head.
    head = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]
    for n in range(13):
        assert integer_coeffs(rooted_trees(n)) == head[: n + 1], n


def test_twotree_rooted_series_every_order_through_12():
    d12, s12 = twotree_rooted_series(12)
    for n in range(13):
        assert twotree_rooted_series(n) == (resized(d12, n), resized(s12, n)), n


def picard_passes(passes, squared):
    """Every pass of the Picard iteration F <- exp(sum_m T(x^m)/m), with
    T = x*F, or x*F^2 when ``squared``, started from F = 1 at order 0.

    Degree d of the exponent only needs F through d-1, so pass i, at order
    i, is exact: entry i of the result is F at order i.
    """
    f = one(0)
    out = [f]
    for _ in range(passes):
        term = times_x(mul(f, f) if squared else f)
        exponent = Series(term.order, [0] * (term.order + 1))
        for m in range(1, term.order + 1):
            exponent = add(exponent, scale(substitute_power(term, m), Fraction(1, m)))
        f = exp_series(exponent)
        out.append(f)
    return out


def test_online_solves_match_the_picard_iteration_through_30():
    r = picard_passes(30, squared=False)
    d = picard_passes(30, squared=True)
    for n in range(31):
        assert rooted_trees(n) == r[n], n
        assert twotree_rooted_series(n)[0] == d[n], n


def test_twotree_reference_row():
    assert integer_coeffs(twotree_U(9)) == [1, 1, 1, 2, 5, 12, 39, 136, 529, 2171]


def test_twotree_n4():
    assert twotree_U(4).coeffs[4] == 5


def test_threetree_reference_row():
    assert integer_coeffs(threetree_U(9)) == [1, 1, 1, 2, 5, 15, 58, 275, 1505, 9003]


def test_threetree_constant_term():
    assert threetree_U(0).coeffs[0] == 1


def test_fourtree_reference_row():
    assert integer_coeffs(fourtree_U(9)) == [1, 1, 1, 2, 5, 15, 64, 331, 2150, 15817]


def test_fourtree_n5():
    assert fourtree_U(5).coeffs[5] == 15


def test_all_closed_forms_agree_with_engine_through_30():
    for fn, k in ((otter_U, 1), (twotree_U, 2), (threetree_U, 3), (fourtree_U, 4)):
        assert integer_coeffs(fn(30)) == count_ktrees(k, 30).U, k


def test_twotree_internals_match_engine_tables():
    d, s = twotree_rooted_series(30)
    cache = solve_system(2, 30)
    assert d == cache.c_table[(1, 1)]
    assert s == cache.c_table[(2,)]

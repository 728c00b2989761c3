"""Closed forms for k = 1..4 against pinned values and the general engine."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from ktrees import _jumps, cli, closedforms, engine
from ktrees.closedforms import (
    fourtree_U,
    otter_U,
    rooted_trees,
    second_jump,
    threetree_U,
    twotree_U,
    twotree_rooted_series,
)
from ktrees.engine import count_ktrees, solve_system
from ktrees.series import IntegralityError, Series
from rational_series import (
    add,
    exp_series,
    integer_coeffs,
    mul,
    one,
    scale,
    substitute_power,
    times_x,
)


def test_otter_reference_row():
    assert otter_U(9) == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_otter_constant_term():
    assert otter_U(0) == [1]


def test_rooted_trees_head():
    # Vertex-rooted unlabeled trees by edges (A000081).  The fixed point
    # grows one order per pass from order 0, so every requested order,
    # 0 and 1 included, must end on the exact head.
    head = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]
    for n in range(13):
        assert rooted_trees(n) == head[: n + 1], n


def test_twotree_rooted_series_every_order_through_12():
    d12, s12 = twotree_rooted_series(12)
    for n in range(13):
        assert twotree_rooted_series(n) == (d12[: n + 1], s12[: n + 1]), n


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
        assert rooted_trees(n) == integer_coeffs(r[n]), n
        assert twotree_rooted_series(n)[0] == integer_coeffs(d[n]), n


def test_twotree_reference_row():
    assert twotree_U(9) == [1, 1, 1, 2, 5, 12, 39, 136, 529, 2171]


def test_twotree_n4():
    assert twotree_U(4)[4] == 5


def test_threetree_reference_row():
    assert threetree_U(9) == [1, 1, 1, 2, 5, 15, 58, 275, 1505, 9003]


def test_threetree_constant_term():
    assert threetree_U(0) == [1]


def test_fourtree_reference_row():
    assert fourtree_U(9) == [1, 1, 1, 2, 5, 15, 64, 331, 2150, 15817]


def test_fourtree_n5():
    assert fourtree_U(5)[5] == 15


def test_all_closed_forms_agree_with_engine_through_30():
    for fn, k in ((otter_U, 1), (twotree_U, 2), (threetree_U, 3), (fourtree_U, 4)):
        closed = fn(30)
        assert all(type(c) is int for c in closed), k
        assert closed == count_ktrees(k, 30).U, k


@pytest.mark.parametrize(
    "solve",
    [rooted_trees, otter_U, twotree_rooted_series, twotree_U, threetree_U, fourtree_U, second_jump],
)
@pytest.mark.parametrize("order", [-1, -3])
def test_a_negative_order_is_refused_like_the_engine(solve, order):
    with pytest.raises(ValueError, match=f"^order must be >= 0, got {order}$"):
        solve(order)


def test_second_jump_reference_values():
    assert second_jump(12)[5:] == [6, 19, 56, 171, 512, 1536, 4567, 13577]
    # Below n = 5 the entries are the series' own coefficients, all zero,
    # one per degree at the two shortest orders too.
    assert second_jump(0) == [0]
    assert second_jump(1) == [0, 0]


def test_second_jump_equals_the_engine_through_20():
    # One solve per k at order 20: by monotone truncation its row holds
    # U_k[n] for every n <= 20.
    u = {k: count_ktrees(k, 20).U for k in range(1, 18)}
    jump = second_jump(20)
    assert all(type(j) is int for j in jump)
    for n in range(5, 21):
        assert u[n - 3][n] - u[n - 4][n] == jump[n], n


def test_the_rows_read_the_same_second_jump_off_the_rooted_trees():
    series = _jumps._series(_jumps._rooted_trees(29), 30)
    assert [_jumps._second(series, n) for n in range(5, 31)] == second_jump(30)[5:]


def test_a_second_jump_remainder_names_the_degree(monkeypatch):
    # Every integer A gives integer counts, so only a wrong term leaves a
    # remainder: here A(x^4) is read for A(x^3).
    sub = closedforms._sub
    monkeypatch.setattr(closedforms, "_sub", lambda f, m: sub(f, 4 if m == 3 else m))
    with pytest.raises(IntegralityError, match=r"^second jump, degree 3: 2/3 is not an integer$"):
        second_jump(12)


def test_twotree_internals_match_engine_tables():
    d, s = twotree_rooted_series(30)
    cache = solve_system(2, 30)
    assert d == cache.c[(1, 1)]
    assert s == cache.c[(2,)]


@pytest.mark.parametrize(
    "k, solve", [(1, rooted_trees), (2, twotree_rooted_series), (3, threetree_U), (4, fourtree_U)]
)
def test_every_hand_table_solves_to_the_engine_per_type_series(monkeypatch, k, solve):
    # Each closed form's own table covers exactly the cycle types of k, and
    # its kernel reproduces every one of the engine's C_mu tables.
    solved = []
    fixed_points = closedforms._fixed_points

    def recorded(order, system):
        solved.append(fixed_points(order, system))
        return solved[-1]

    monkeypatch.setattr(closedforms, "_fixed_points", recorded)
    solve(30)
    (tables,) = solved
    assert tables == solve_system(k, 30).c


def test_a_remainder_names_k_the_type_and_the_degree():
    # B(x) = x, but the m = 2 term reads x*C_(2): 4*C[4] = 6 at degree 4.
    system = {
        (1,): ([], lambda m: (2,) if m == 2 else (1,)),
        (2,): ([((2,), 1)], lambda m: (2,)),
    }
    with pytest.raises(IntegralityError, match=r"^k=1, mu=\(1,\), degree 4: 3/2 is not"):
        closedforms._fixed_points(6, system)


def test_a_reduction_remainder_names_k_and_the_degree(monkeypatch):
    # H = C_(3) enters 24*U as 8*H, so one more tree fixed by a 3-cycle at
    # degree 9 moves the numerator by 8, which 24 does not divide.
    fixed_points = closedforms._fixed_points

    def bumped(order, system):
        tables = fixed_points(order, system)
        tables[(3,)][9] += 1
        return tables

    monkeypatch.setattr(closedforms, "_fixed_points", bumped)
    with pytest.raises(IntegralityError, match=r"^k=3, degree 9: \d+/3 is not an integer"):
        threetree_U(12)


@pytest.mark.parametrize("k, mu", [(3, (3,)), (4, (4,))])
def test_a_wrong_engine_coefficient_fails_the_closed_form_check(monkeypatch, k, mu):
    # Adding k to C_mu[15] keeps the orbit average integral (mu's class has
    # k!/k permutations), so only an independent solve of C_mu can catch it.
    solve = engine.solve_system

    def corrupted(k_solved, order):
        cache = solve(k_solved, order)
        if k_solved == k and order >= 15:
            cache.c[mu][15] += k
        return cache

    monkeypatch.setattr(engine, "solve_system", corrupted)
    monkeypatch.setattr(closedforms, "solve_system", corrupted, raising=False)
    lines = {name: (passed, detail) for name, passed, detail in cli._verify_closedform()}
    assert lines[f"closedform: {k}-tree formula == engine through order 30"] == (
        False,
        "first difference at n=15",
    )


def _imports(module) -> set[str]:
    """Every module and ``module.name`` that ``module``'s source imports."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    return imported


def test_closedforms_imports_nothing_from_the_engine_or_partitions():
    imported = _imports(closedforms)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"engine", "partitions"}, sorted(imported)


def test_the_engine_imports_nothing_from_the_closed_forms():
    # Its jumps are their own route, from their own rooted-tree recurrence.
    imported = _imports(engine)
    assert "closedforms" not in {part for name in imported for part in name.split(".")}


def test_the_jumps_take_only_the_error_type_from_the_package():
    imported = _imports(_jumps)
    package = {name for name in imported if name.split(".")[0] not in {"__future__", "operator"}}
    assert package == {"series", "series.IntegralityError"}, sorted(imported)


def test_closedforms_run_on_ints_without_fractions_or_series():
    # Only the error type comes from the series module.
    imported = _imports(closedforms)
    assert "fractions" not in imported, sorted(imported)
    assert {name for name in imported if name.startswith("series.")} == {
        "series.IntegralityError"
    }, sorted(imported)

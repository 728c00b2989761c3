"""Which checks of ``verify --mode all`` catch which planted engine faults.

Each row plants one fault through monkeypatch, runs the whole command once
and pins its exit code, the suites that print FAIL lines and, for a fault
that breaks an exact division, the location its one stderr line names.
Suites that run in forked workers inherit the patches.  A row that starts
to behave differently means a check's reach has changed: widen the row
with the check, never narrow it to let a change pass.

Every structural fault below (a wrong period, split, centralizer order,
divisor or multiplicity) is caught only by the engine's exact-division
check, in the first suite, so it stops verify before any check line.  The
two integrality-preserving bumps escape every check of verify today.  The
last three tests plant them against identities tier-1 checks but verify
does not yet: the C_(4,2)[10] bump against U's second and third jumps
(ROADMAP items 10 and 11), and the B_(4,2,1)[9] bump against B's last jump
(ROADMAP item 9).
"""

from math import factorial, prod

import pytest

from ktrees import _jumps, cli, closedforms, engine, partitions

UNTIL_ITEM_2 = "no check reaches it before the per-permutation route (ROADMAP item 2)"


class _EachPartOnce(tuple):
    """A partition that reports every part as occurring once."""

    def count(self, part):
        return 1


def _wrong_period(monkeypatch):
    # _power_rows calls cycle_power(mu, p) only for the primes p that divide
    # lcm(mu); max(mu) drops some of them once it is not lcm(mu).
    monkeypatch.setattr(engine, "lcm", lambda *mu: max(mu))


def _wrong_split(monkeypatch):
    # A cycle of length p splits only when p divides the power, not into
    # gcd(p, i) cycles of length p / gcd(p, i).
    def split(lam, i):
        parts = [q for p in lam for q in ([1] * p if i % p == 0 else [p])]
        return tuple(sorted(parts, reverse=True))

    monkeypatch.setattr(engine, "cycle_power", split)


def _wrong_z(monkeypatch):
    # prod_i i * l_i! instead of prod_i i^l_i * l_i!.
    monkeypatch.setattr(
        partitions, "z_of", lambda lam: prod(p * factorial(lam.count(p)) for p in set(lam))
    )


def _dropped_divisor(monkeypatch):
    # C_mu's log-derivative at degree d loses its m = d term.
    table = engine._divisor_table
    monkeypatch.setattr(
        engine, "_divisor_table", lambda n: [ms[:-1] if len(ms) > 1 else ms for ms in table(n)]
    )


def _dropped_multiplicity(monkeypatch):
    # A product's log-derivative weighs part i by i, not by i * its
    # multiplicity: the solve reads the multiplicity off the partitions.
    of = engine.partitions_of
    monkeypatch.setattr(engine, "partitions_of", lambda m: [_EachPartOnce(p) for p in of(m)])


def _bump(table, key, degree, by):
    """Add ``by`` to one coefficient of one per-type table of the k = 6 solve."""

    def plant(monkeypatch):
        solve = engine.solve_system

        def bumped(k, order):
            cache = solve(k, order)
            if k == 6 and order >= degree:
                getattr(cache, table)[key][degree] += by
            return cache

        monkeypatch.setattr(engine, "solve_system", bumped)

    return plant


# (fault, exit code, suites with FAIL lines, location named on stderr)
FAULTS = [
    pytest.param(_wrong_period, 3, [], "k=5, B, degree 5", id="powers-period-max"),
    pytest.param(_wrong_split, 3, [], "k=4, B, degree 7", id="cycle-power-split"),
    pytest.param(_wrong_z, 3, [], "k=3, B, degree 2", id="z-of"),
    pytest.param(_dropped_divisor, 3, [], "k=1, mu=(1,), degree 2", id="dropped-divisor"),
    pytest.param(_dropped_multiplicity, 3, [], "k=1, B, degree 2", id="dropped-multiplicity"),
    pytest.param(
        _bump("c", (4, 2), 10, 8), 1, ["closedform"], None,
        id="bump-C42-10",
        marks=pytest.mark.xfail(strict=True, reason=f"U_6[10] moves by 1; {UNTIL_ITEM_2}"),
    ),
    pytest.param(
        _bump("b", (4, 2, 1), 9, 48), 1, ["closedform"], None,
        id="bump-B421-9",
        marks=pytest.mark.xfail(strict=True, reason=f"U stays, B_6[9] moves; {UNTIL_ITEM_2}"),
    ),
]


@pytest.mark.parametrize("plant, code, failing, where", FAULTS)
def test_verify_reach(capsys, monkeypatch, plant, code, failing, where):
    plant(monkeypatch)
    got = cli.main(["verify", "--mode", "all"])
    out, err = capsys.readouterr()
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    suites = sorted({line[len("FAIL "):].split(":")[0] for line in fails})
    assert (got, suites) == (code, failing)
    if where is None:
        assert err == ""
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"internal error: non-integer count ({where}")


def test_the_second_jump_catches_the_c42_bump_at_n_10_alone(monkeypatch):
    # The bump moves U_6[10] by 1, which only the jump at n = 10,
    # U_7[10] - U_6[10], reads; U_6[9] stays.
    _bump("c", (4, 2), 10, 8)(monkeypatch)
    u = {k: engine.count_ktrees(k, 20).U for k in range(1, 18)}
    jump = closedforms.second_jump(20)
    assert [n for n in range(5, 21) if u[n - 3][n] - u[n - 4][n] != jump[n]] == [10]


def test_the_third_jump_catches_the_c42_bump_at_n_10_alone(monkeypatch):
    # One k lower, the jump at n = 10, U_6[10] - U_5[10], reads the bump;
    # the one at n = 11, U_7[11] - U_6[11], reads U_6[11], which stays.
    _bump("c", (4, 2), 10, 8)(monkeypatch)
    solved = {k: engine.count_ktrees(k, 20) for k in range(1, 17)}
    u, trees = {k: bundle.U for k, bundle in solved.items()}, solved[1].C
    jumps = {n: _jumps._third(_jumps._series(trees, n), n) for n in range(6, 21)}
    assert [n for n in range(6, 21) if u[n - 4][n] - u[n - 5][n] != jumps[n]] == [10]


def test_the_b_last_jump_catches_the_b421_bump_at_n_9_alone(monkeypatch):
    # The bump moves B_6[9] by 630 * 48 / 7! = 6, which only the jump at
    # n = 9, B_7[9] - B_6[9], reads; U and B's stable range stay.
    _bump("b", (4, 2, 1), 9, 48)(monkeypatch)
    b = {k: engine.count_ktrees(k, 16).B for k in range(1, 17)}
    r = closedforms.rooted_trees(16)
    assert [n for n in range(4, 17) if b[n - 2][n] - b[n - 3][n] != r[n - 1]] == [9]

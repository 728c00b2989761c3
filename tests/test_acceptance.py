"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All equalities are exact (integer or rational arithmetic, zero tolerance).
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; timings are informational since wall-clock depends on the host.
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from ktrees import cli
from ktrees.closedforms import fourtree_U, otter_U, threetree_U, twotree_U
from ktrees.engine import count_ktrees
from ktrees.oracle import orbit_count
from ktrees.partitions import partitions_of, z_of
from ktrees.series import Series
from rational_series import add, exp_series, mul, scale, substitute_power


def report(number: int, description: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if (detail and not ok) else ""
    print(f"{status} criterion {number}: {description} ({elapsed:.1f}s){suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def stability_table():
    """U vectors through n=12 for k = 1..14, shared by criteria 6 and 7."""
    return {k: count_ktrees(k, 12).U for k in range(1, 15)}


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = cli.main(["table", "--max-k", "5", "--max-n", "9", "--stable", "--format", "csv"])
    out = capsys.readouterr().out
    rows = [[int(v) for v in line.split(",")] for line in out.strip().splitlines()]
    expected = [cli.REFERENCE_COUNTS[k] for k in range(1, 6)] + [cli.STABLE_ROW]
    cells = sum(
        1 for got, want in zip(rows, expected) for a, b in zip(got, want) if a == b
    )
    ok = code == 0 and rows == expected and cells == 60
    report(1, "CLI table reproduces all 60 embedded reference cells", ok, t0,
           f"{cells}/60 cells")


def test_criterion_2_closed_form_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for fn, k in ((otter_U, 1), (twotree_U, 2), (threetree_U, 3), (fourtree_U, 4)):
        if fn(30) != count_ktrees(k, 30).U:
            mismatches.append(k)
    report(2, "closed forms k=1..4 equal the engine exactly through N=30",
           not mismatches, t0, f"mismatch at k={mismatches}")


def test_criterion_3_brute_force_equivalence():
    t0 = time.perf_counter()
    bad = []
    for k in (1, 2, 3):
        engine_u = count_ktrees(k, 6).U
        for n in range(7):
            if orbit_count(k, n) != engine_u[n]:
                bad.append((k, n))
    report(3, "oracle orbit counts equal engine U for k<=3, n<=6", not bad, t0, str(bad))


def test_criterion_4_burnside_identity(fixed_counts):
    t0 = time.perf_counter()
    bad = []
    for k in (1, 2, 3):
        perms = list(permutations(range(1, k + 2)))
        for n in range(7):
            total = sum(fixed_counts(k, n, pi) for pi in perms)
            if total != orbit_count(k, n) * factorial(k + 1):
                bad.append((k, n))
    report(4, "(k+1)! * orbits equals the sum of fixed counts, k<=3, n<=6",
           not bad, t0, str(bad))


def test_criterion_5_dissymmetry_identity():
    t0 = time.perf_counter()
    bad = []
    for k in range(1, 7):
        bundle = count_ktrees(k, 40)  # raises IntegralityError if a division is inexact
        for n in range(41):
            if bundle.U[n] != bundle.B[n] + bundle.C[n] - bundle.E[n] or bundle.U[n] < 0:
                bad.append((k, n))
    report(5, "U = B + C - E with integer, nonnegative U for k=1..6, N=40",
           not bad, t0, str(bad))


def test_criterion_6_stability(stability_table):
    t0 = time.perf_counter()
    bad = []
    for n in range(13):
        for k in range(max(n - 1, 2), 15):
            if stability_table[k][n] != stability_table[k - 1][n]:
                bad.append((n, k))
    report(6, "counts constant in k for k >= n-2, n<=12, k<=14", not bad, t0, str(bad))


def test_criterion_7_difference_identity(stability_table):
    t0 = time.perf_counter()
    bad = []
    for n in range(4, 13):
        lhs = stability_table[n - 2][n] - stability_table[n - 3][n]
        if lhs != stability_table[1][n - 1]:
            bad.append(n)
    report(7, "last-jump difference equals the tree count, 4<=n<=12", not bad, t0, str(bad))


def test_criterion_8_series_algebra_properties():
    t0 = time.perf_counter()
    rng = random.Random(2024)

    def rand_series(order, zero_constant=False):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order + 1)]
        if zero_constant:
            coeffs[0] = Fraction(0)
        return Series(order, coeffs)

    ok = True
    for _ in range(25):
        order = rng.randint(0, 12)
        f, g, h = (rand_series(order) for _ in range(3))
        ok = ok and mul(f, g) == mul(g, f)
        ok = ok and mul(mul(f, g), h) == mul(f, mul(g, h))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        ok = ok and substitute_power(substitute_power(f, a), b) == substitute_power(f, a * b)
        u = rand_series(order, zero_constant=True)
        v = rand_series(order, zero_constant=True)
        ok = ok and exp_series(add(u, v)) == mul(exp_series(u), exp_series(v))
    for m in range(13):
        ok = ok and sum(Fraction(1, z_of(lam)) for lam in partitions_of(m)) == 1
    report(8, "series algebra laws and the class equation hold exactly", ok, t0)


def test_criterion_9_scale_sanity():
    t0 = time.perf_counter()
    big = count_ktrees(5, 100)  # must finish without integrality violation
    small = count_ktrees(5, 50)
    ok = big.U[: 51] == small.U and all(u >= 0 for u in big.U)
    report(9, "k=5 to N=100 completes, consistent with the N=50 prefix", ok, t0)

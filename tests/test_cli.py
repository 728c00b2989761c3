"""CLI surface: formats, exit codes, determinism, verify wiring."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from ktrees import _jumps, cli, engine, oracle
from ktrees.closedforms import otter_U, twotree_rooted_series
from ktrees.engine import count_ktrees
from ktrees.partitions import partitions_of
from ktrees.series import IntegralityError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "2", "--terms", "10", "--format", "csv")
    assert code == 0
    assert out == "1,1,1,2,5,12,39,136,529,2171\n"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--terms", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": 3, "counts": [1, 1, 1, 2, 5, 15, 58, 275, 1505, 9003]}


def test_count_plain_single_term(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "1", "--terms", "1")
    assert code == 0
    assert out == "1\n"


def test_count_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "count", "--k", "2", "--terms", "8", "--format", "csv")
    _, second, _ = run_cli(capsys, "count", "--k", "2", "--terms", "8", "--format", "csv")
    assert first == second


def test_table_csv_matches_reference(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-k", "5", "--max-n", "9", "--stable", "--format", "csv"
    )
    assert code == 0
    rows = [[int(v) for v in line.split(",")] for line in out.strip().splitlines()]
    assert rows[:5] == [cli.REFERENCE_COUNTS[k] for k in range(1, 6)]
    assert rows[5] == cli.STABLE_ROW
    assert not out.strip().splitlines()[0].endswith(",")


def test_table_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-k", "2", "--max-n", "3", "--stable", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"k": 1, "counts": [1, 1, 1, 2]},
        {"k": 2, "counts": [1, 1, 1, 2]},
        {"k": "stable", "counts": [1, 1, 1, 2]},
    ]


def test_table_single_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-k", "1", "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out == "1\n"


def test_table_plain_has_header(capsys):
    _, out, _ = run_cli(capsys, "table", "--max-k", "2", "--max-n", "4")
    lines = out.splitlines()
    assert lines[0].startswith("k\\n")
    assert len(lines) == 3


def test_count_large_k_is_the_stable_row(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "100", "--terms", "10", "--format", "csv")
    assert code == 0
    assert out == ",".join(str(c) for c in cli.STABLE_ROW) + "\n"


# SHA-256 of the full stdout, far past the 10-term reference tables: the
# benchmark's deep, wide and verify outputs, and a row with p(12) = 77
# cycle types.
PINNED_OUTPUTS = [
    (
        ("count", "--k", "5", "--terms", "81"),
        "123186e580ceba576d1a4d6b022316a18b7b4e8cdec1eb93011fd89605171dd8",
    ),
    (
        ("stable", "--terms", "17"),
        "3884273ae5e29aa1ad7f7491e3dcddb514c23b24f8baf7c5e62c40fe8dd21022",
    ),
    (
        ("count", "--k", "12", "--terms", "41"),
        "3b291f6a201ac5ab8abe452830e26317f2881c35af98f1725c89af4716026590",
    ),
    (
        ("verify", "--mode", "all"),
        "099d6677a4dac70c98e5a9daec73b3cefefac35137f005e646fefa59b37b2d49",
    ),
    # The three row commands' shared planner and both printers: a plain grid
    # whose columns differ in width, rows clamped to the stable solve, the
    # stable row as JSON, and a count clamped from k = 40.
    (
        ("table", "--max-k", "8", "--max-n", "9", "--stable"),
        "400f271330f8e55f0036a220082ecc3f7bac761a23c990c67589a0e48bf37562",
    ),
    (
        ("table", "--max-k", "30", "--max-n", "6", "--stable", "--format", "json"),
        "13ce506d1d94be6edd15f9449e9660329be8a807af4feb8c17489323419113c8",
    ),
    (
        ("stable", "--terms", "12", "--format", "json"),
        "eca27974f6dbd1056bcecc3cf414c10851ca55e7575c6f3a255b916ede8b7942",
    ),
    (
        ("count", "--k", "40", "--terms", "8"),
        "ae3e51b3cd4b06b47f2e2c5bc3ff480952a5834e0e9bb611ace761f2a96a1736",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_is_byte_identical_to_pinned_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _counting_jump_builds(monkeypatch):
    """Count the calls of the two builders every row above base reads."""
    built = dict.fromkeys(["_rooted_trees", "_series"], 0)
    for name in built:
        def counting(*args, name=name, build=getattr(_jumps, name)):
            built[name] += 1
            return build(*args)

        monkeypatch.setattr(_jumps, name, counting)
    return built


def test_table_large_k_solves_each_stable_k_once(capsys, monkeypatch):
    calls = []

    def recording(k, order):
        calls.append(k)
        return count_ktrees(k, order)

    monkeypatch.setattr(engine, "count_ktrees", recording)
    built = _counting_jump_builds(monkeypatch)
    code, out, _ = run_cli(
        capsys, "table", "--max-k", "30", "--max-n", "6", "--stable", "--format", "csv"
    )
    assert code == 0
    rows = [[int(v) for v in line.split(",")] for line in out.strip().splitlines()]
    assert rows[:3] == [cli.REFERENCE_COUNTS[k][:7] for k in range(1, 4)]
    assert rows[3:] == [cli.STABLE_ROW[:7]] * 28  # k = 4..30 and the stable row
    assert calls == [1]
    # Every row above base = 1, k = 2..30 and the stable row, reads the
    # rooted trees and their series built once.
    assert built == {"_rooted_trees": 1, "_series": 1}


@pytest.mark.parametrize(
    "argv, builds",
    [
        (("table", "--max-k", "30", "--max-n", "16", "--stable"), 1),
        (("count", "--k", "5", "--terms", "81"), 0),
    ],
)
def test_all_rows_of_a_command_read_one_jump_build(capsys, monkeypatch, argv, builds):
    # The table's 20 rows above base = 11 share one build of the rooted
    # trees and their series; a row at or below base is its solve alone.
    built = _counting_jump_builds(monkeypatch)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert built == {"_rooted_trees": builds, "_series": builds}


@pytest.mark.parametrize(
    "argv, solves",
    [
        (("count", "--k", "40", "--terms", "8"), [(2, 7)]),
        (("count", "--k", "6", "--terms", "10"), [(4, 9)]),
        (("count", "--k", "5", "--terms", "81"), [(5, 80)]),
        (("table", "--max-k", "8", "--max-n", "9", "--stable"), [(k, 9) for k in range(1, 5)]),
        (("stable", "--terms", "17"), [(11, 16)]),
        (("stable", "--terms", "4"), [(1, 3)]),
    ],
)
def test_the_stable_row_is_solved_one_k_below_the_stable_range(capsys, monkeypatch, argv, solves):
    # Every row above k = N-5, the stable row too, is U_{N-5} plus the jumps
    # read off the rooted trees: no row solves at k = N-4 or above, and none
    # solves a second k.
    calls = []

    def recording(k, order):
        calls.append((k, order))
        return count_ktrees(k, order)

    monkeypatch.setattr(engine, "count_ktrees", recording)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == solves


def test_stable_csv(capsys):
    code, out, _ = run_cli(capsys, "stable", "--terms", "10", "--format", "csv")
    assert code == 0
    assert out == "1,1,1,2,5,15,64,342,2344,19137\n"


def test_verify_reference_mode_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--mode", "reference")
    assert code == 0
    assert "60/60 grid cells match" in out
    assert "FAIL" not in out


def test_the_reference_stable_row_is_the_library_stable_row(capsys, monkeypatch):
    # The suite's rows k = 1..5 are its own solves, and its stable row is
    # stable_counts(9), the library's one row path: the (4, 9) solve plus
    # the jumps read off the rooted trees.
    rows, solves = [], []

    def stable(order):
        rows.append(order)
        return engine.stable_counts(order)

    def recording(k, order):
        solves.append((k, order))
        return count_ktrees(k, order)

    monkeypatch.setattr(cli, "stable_counts", stable)
    monkeypatch.setattr(engine, "count_ktrees", recording)
    code, out, _ = run_cli(capsys, "verify", "--mode", "reference")
    assert code == 0
    assert "PASS reference: stable row matches embedded table (10/10 cells)\n" in out
    assert (rows, solves) == ([9], [(4, 9)])


def _zeroed_reference_row(monkeypatch):
    monkeypatch.setitem(cli.REFERENCE_COUNTS, 1, [0] * 10)


def _tree_count_off_at_7(monkeypatch):
    def bumped(k, order):
        bundle = count_ktrees(k, order)
        if k != 1:
            return bundle
        u = [u + (n == 7) for n, u in enumerate(bundle.U)]
        return engine.ResultBundle(k, order, u, bundle.B, bundle.C, bundle.E)

    monkeypatch.setattr(cli, "count_ktrees", bumped)


def _identity_fixes_one_more_at_k3_n5(monkeypatch):
    def bumped(k, n, perm):
        return oracle.fixed_count(k, n, perm) + ((k, n, tuple(perm)) == (3, 5, (1, 2, 3, 4)))

    monkeypatch.setattr(cli, "fixed_count", bumped)


def _one_tree_formula_one_term_long(monkeypatch):
    monkeypatch.setattr(cli, "otter_U", lambda order: otter_U(order) + [0])


# Each fault, the suite that sees it, and every FAIL line that suite prints.
FAILURE_LINES = [
    (
        _zeroed_reference_row,
        "reference",
        [
            "FAIL reference: row k=1 matches embedded table (0/10 cells)"
            " [got [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]]",
            "FAIL reference: 50/60 grid cells match",
        ],
    ),
    (
        _tree_count_off_at_7,
        "stability",
        ["FAIL stability: last jump equals tree count (4<=n<=12) [n=8: 23 != 24]"],
    ),
    (
        _identity_fixes_one_more_at_k3_n5,
        "oracle",
        ["FAIL oracle: Burnside identity for k=3, n<=6 [n=5: sum fix = 361, orbits = 15]"],
    ),
    (
        _one_tree_formula_one_term_long,
        "closedform",
        ["FAIL closedform: 1-tree formula == engine through order 30 [first difference at n=31]"],
    ),
]


@pytest.mark.parametrize("plant, mode, fails", FAILURE_LINES)
def test_a_planted_fault_prints_exactly_its_fail_lines(capsys, monkeypatch, plant, mode, fails):
    plant(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--mode", mode)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == fails


def test_oracle_failures_each_name_their_own_detail(capsys, monkeypatch):
    # Both lines name the first failing n, not the last.
    def shifted(k, n):
        return oracle.orbit_count(k, n) + (k == 2 and n in (4, 5))

    monkeypatch.setattr(cli, "orbit_count", shifted)
    code, out, _ = run_cli(capsys, "verify", "--mode", "oracle")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails == [
        "FAIL oracle: orbit counts == engine for k=2, n<=6 [n=4: oracle 6 vs engine 5]",
        "FAIL oracle: Burnside identity for k=2, n<=6 [n=4: sum fix = 30, orbits = 6]",
    ]


def test_stability_failure_names_the_first_failing_cell(capsys, monkeypatch):
    def bumped(k, order):
        bundle = count_ktrees(k, order)
        if k != 9:
            return bundle
        u = [u + (n in (6, 8)) for n, u in enumerate(bundle.U)]
        return engine.ResultBundle(k, order, u, bundle.B, bundle.C, bundle.E)

    monkeypatch.setattr(cli, "count_ktrees", bumped)
    code, out, _ = run_cli(capsys, "verify", "--mode", "stability")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails == [
        "FAIL stability: counts constant for k >= n-1 (n<=12, k<=14) [n=6, k=9: 65 != 64]"
    ]


def test_twotree_pair_failure_names_the_series_and_degree(capsys, monkeypatch):
    def perturbed(order):
        d, s = twotree_rooted_series(order)
        return bumped(d, 7), bumped(s, 5)

    def bumped(f, degree):
        return [c + (n == degree) for n, c in enumerate(f)]

    monkeypatch.setattr(cli, "twotree_rooted_series", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--mode", "closedform")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails == [
        "FAIL closedform: 2-tree rooted pair == engine per-type series through order 30"
        " [D differs at degree 7; S differs at degree 5]"
    ]


def test_closedform_solves_each_k_once(capsys, monkeypatch):
    # The 2-tree formula and the rooted pair read one solve at (2, 30).
    calls = []
    solve = engine.solve_system

    def recording(k, order):
        calls.append((k, order))
        return solve(k, order)

    monkeypatch.setattr(engine, "solve_system", recording)
    monkeypatch.setattr(cli, "solve_system", recording)
    code, _, _ = run_cli(capsys, "verify", "--mode", "closedform")
    assert code == 0
    assert calls == [(2, 30), (1, 30), (3, 30), (4, 30)]


def test_a_closed_form_of_the_wrong_length_names_where_it_ends(capsys, monkeypatch):
    monkeypatch.setattr(cli, "otter_U", lambda order: otter_U(order)[:-1])
    code, out, _ = run_cli(capsys, "verify", "--mode", "closedform")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails == [
        "FAIL closedform: 1-tree formula == engine through order 30 [first difference at n=30]"
    ]


def _negative_at_degree_3(monkeypatch):
    # E grows by 10^6 at degree 3, so U[3] = B + C - E drops below zero.
    compute_e = engine.compute_E
    monkeypatch.setattr(
        engine,
        "compute_E",
        lambda cache: [e + 10**6 * (n == 3) for n, e in enumerate(compute_e(cache))],
    )


def test_negative_count_is_a_dissymmetry_failure(capsys, monkeypatch):
    _negative_at_degree_3(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--mode", "dissymmetry")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 6
    for k, line in enumerate(fails, start=1):
        assert line.startswith(f"FAIL dissymmetry: U = B + C - E for k={k}, N=40 ["), line
        assert "negative k-tree count U[3] = " in line and line.endswith(f" for k={k}]"), line


def test_negative_count_exits_3(capsys, monkeypatch):
    # At N = 7 the row k = 2 is its own solve (at N - 5, it reads no jump).
    _negative_at_degree_3(monkeypatch)
    code, out, err = run_cli(capsys, "count", "--k", "2", "--terms", "8")
    assert code == 3
    assert out == ""
    assert err == "internal error: negative k-tree count U[3] = -999998 for k=2\n"


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["count"],                                 # missing --k
        ["count", "--k", "0", "--terms", "5"],     # k out of range
        ["count", "--k", "2", "--terms", "0"],     # terms out of range
        ["count", "--k", "2", "--format", "xml"],  # unknown format
        ["table", "--max-k", "2"],                 # missing --max-n
        ["verify", "--mode", "nonsense"],          # unknown mode
        ["frobnicate"],                            # unknown command
        [],                                        # no command
        ["count", "--k=0"],                        # k out of range, after '='
        ["count", "--k"],                          # missing value
        ["count", "--k", "2", "--bogus", "1"],     # unknown flag
        ["count", "--k", "2", "--ter", "5"],       # abbreviated flag
        ["table", "--max-k", "1", "--max-n", "1", "--stable=yes"],  # value to a switch
        ["stable", "extra"],                       # stray word
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage:"), argv
        assert captured.err.splitlines()[-1].startswith("ktrees: error:"), argv


def test_flags_take_values_after_equals_in_any_order(capsys):
    canonical = run_cli(capsys, "count", "--k", "2", "--terms", "10")
    assert canonical[0] == 0
    for argv in (
        ["count", "--k=2", "--terms=10"],
        ["count", "--terms", "10", "--k", "2"],
        ["count", "--terms=10", "--k", "2"],
    ):
        assert run_cli(capsys, *argv) == canonical, argv
    table = run_cli(capsys, "table", "--max-k", "2", "--max-n", "4", "--stable", "--format", "csv")
    assert run_cli(capsys, "table", "--format=csv", "--stable", "--max-n=4", "--max-k", "2") == table


def test_a_repeated_flag_keeps_its_last_value(capsys):
    assert run_cli(capsys, "count", "--k", "1", "--terms", "3", "--terms", "6") == (
        0, "1 1 1 2 3 6\n", ""
    )


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["count", "--help"], ["verify", "-h"]])
def test_help_names_every_command_and_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage:")
    for word in ("count", "table", "stable", "verify", "--k", "--terms", "--format",
                 "--max-k", "--max-n", "--stable", "--mode", "--help"):
        assert word in out, word


def test_integrality_violation_exits_3(capsys, monkeypatch):
    def broken(k, order):
        raise IntegralityError("coefficient of x^1 is 1/2, not an integer")

    monkeypatch.setattr(engine, "count_ktrees", broken)
    code, out, err = run_cli(capsys, "count", "--k", "2", "--terms", "4")
    assert code == 3
    assert out == ""
    assert "non-integer" in err


def test_located_integrality_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        engine, "_divisor_table", lambda n: [[1] if j else [] for j in range(n + 1)]
    )
    code, out, err = run_cli(capsys, "count", "--k", "2", "--terms", "8")
    assert code == 3
    assert out == ""
    assert "k=2, mu=(2,), degree 2" in err


# With more than one suite and more than one usable CPU, verify runs every
# suite but the last in a forked child; the children inherit monkeypatches.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def _raise_integrality():
    raise IntegralityError("k=1, degree 2: 1/2 is not an integer")


def _no_fork():
    raise AssertionError("this run must not fork")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_usable_cpus_is_at_least_one_and_at_most_the_cpu_count():
    assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_all_prints_the_pinned_bytes_forked_or_not(capsys, monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    if cpus == 1:
        monkeypatch.setattr(os, "fork", _no_fork)
    code, out, _ = run_cli(capsys, "verify", "--mode", "all")
    assert code == 0
    assert _sha256(out) == dict(PINNED_OUTPUTS)[("verify", "--mode", "all")]
    _assert_no_child_left()


def test_a_single_mode_forks_nothing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    code, out, _ = run_cli(capsys, "verify", "--mode", "closedform")
    assert code == 0
    assert out.endswith("OK: 0 failing check(s)\n")


def test_a_process_with_a_second_thread_forks_nothing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        code, out, _ = run_cli(capsys, "verify", "--mode", "all")
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert code == 0
    assert _sha256(out) == dict(PINNED_OUTPUTS)[("verify", "--mode", "all")]


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_an_integrality_error_in_the_first_suite_exits_3(capsys, monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setitem(cli._SUITES, "reference", _raise_integrality)
    code, out, err = run_cli(capsys, "verify", "--mode", "all")
    assert (code, out) == (3, "")
    assert err == "internal error: non-integer count (k=1, degree 2: 1/2 is not an integer)\n"
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_raising_closedform_suite_exits_3_after_the_reference_lines(capsys, monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    if cpus == 1:
        monkeypatch.setattr(os, "fork", _no_fork)
    _, reference, _ = run_cli(capsys, "verify", "--mode", "reference")
    monkeypatch.setitem(cli._SUITES, "closedform", _raise_integrality)
    code, out, err = run_cli(capsys, "verify", "--mode", "all")
    assert code == 3
    assert out + "OK: 0 failing check(s)\n" == reference
    assert err.startswith("internal error: non-integer count")
    _assert_no_child_left()


@needs_fork
def test_every_child_is_reaped_when_the_last_suite_raises(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(cli._SUITES, "stability", _raise_integrality)
    code, out, _ = run_cli(capsys, "verify", "--mode", "all")
    assert code == 3
    assert out.count("PASS ") == 24 and "stability" not in out
    _assert_no_child_left()


@needs_fork
def test_a_child_that_dies_without_a_result_is_an_error_naming_its_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(cli._SUITES, "oracle", lambda: os._exit(7))
    died = r"suite 'oracle' ended without a result \(exit status 7\)"
    with pytest.raises(RuntimeError, match=died):
        cli.main(["verify", "--mode", "all"])
    out = capsys.readouterr().out
    assert "PASS closedform" in out and "oracle" not in out
    assert "OK" not in out
    _assert_no_child_left()


def test_queries_over_the_work_budget_exit_2(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a refused query must not be solved")

    monkeypatch.setattr(engine, "count_ktrees", never)
    monkeypatch.setattr(engine, "solve_system", never)
    for argv in (
        ["count", "--k", "40", "--terms", "200"],
        ["count", "--k", "99", "--terms", "101"],  # p(99) ~ 1.7e8 partitions
        ["count", "--k", "100000", "--terms", "100001"],
        ["table", "--max-k", "40", "--max-n", "200"],
        ["stable", "--terms", "200"],
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert err.count("\n") == 1 and "budget" in err, argv


def test_work_budget_edge():
    # At k = 1 the estimate is 4 * N^2 * (1 + 2N / 4096): N = 1958 is just
    # under 3 * 10^7, N = 1959 just over.
    engine._check_budget([1], 1958)
    with pytest.raises(engine._QueryTooLarge):
        engine._check_budget([1], 1959)
    # A table's estimate sums its solves: p(30) * 31^2 alone fits the
    # budget, (p(1) + ... + p(30)) * 31^2 does not.
    engine._check_budget([30], 31)
    with pytest.raises(engine._QueryTooLarge):
        engine._check_budget(list(range(1, 31)), 31)


def test_the_stable_row_budget_edge():
    # stable --terms 36 solves (30, 35) alone and fits; --terms 37 would
    # solve (31, 36) and is refused.  Nothing is solved here.
    engine._check_budget(_jumps._solves([36], 35), 35)
    with pytest.raises(engine._QueryTooLarge):
        engine._check_budget(_jumps._solves([37], 36), 36)


def test_work_budget_decision_is_the_summed_estimate_of_the_distinct_solves():
    # The direct sum, with p(m) counted by enumeration, over single and
    # table queries on both sides of the budget.
    p = [len(partitions_of(m)) for m in range(32)]

    def estimate(k, n):
        return (p[k + 1] + 2 * p[k]) * n * n * (1 + n * (k.bit_length() + 1) / 4096)

    decisions = set()
    for n in [*range(0, 61, 3), 300, 1958, 1959, 5000]:
        for top in range(1, 31):
            for ks in ([top], list(range(1, top + 1)), [1, top, top]):
                fits = sum(estimate(k, n) for k in sorted(set(ks))) <= engine.WORK_BUDGET
                try:
                    engine._check_budget(ks, n)
                except engine._QueryTooLarge:
                    assert not fits, (ks, n)
                else:
                    assert fits, (ks, n)
                decisions.add(fits)
    assert decisions == {True, False}


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_a_command_runs_no_collection_and_restores_the_collector(capsys, monkeypatch, collecting):
    # main pauses the cyclic collector while a command runs.  The probe
    # counts the collections that start while main is on the stack; with
    # the generation-0 threshold at 1, any allocation main made with the
    # collector running would start one.  The caller's setting comes back
    # on every exit: 0, a usage error, an over-budget refusal and a planted
    # engine bug.
    def broken(k, order):
        raise IntegralityError("k=2, mu=(2,), degree 2: 1/2 is not an integer")

    inside = []

    def probe(phase, info):
        frame = sys._getframe()
        while frame is not None and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    cases = [
        (["stable", "--terms", "17"], 0),
        (["count", "--k", "0"], 2),
        (["stable", "--terms", "200"], 2),
        (["count", "--k", "2", "--terms", "4"], 3),
    ]
    before, threshold = gc.isenabled(), gc.get_threshold()
    gc.callbacks.append(probe)
    try:
        for argv, code in cases:
            if code == 3:
                monkeypatch.setattr(engine, "count_ktrees", broken)
            (gc.enable if collecting else gc.disable)()
            gc.set_threshold(1, *threshold[1:])
            try:
                got = cli.main(argv)
            except SystemExit as exc:
                got = exc.code
            finally:
                gc.set_threshold(*threshold)
            assert (got, gc.isenabled(), inside) == (code, collecting, []), argv
    finally:
        gc.callbacks.remove(probe)
        gc.set_threshold(*threshold)
        (gc.enable if before else gc.disable)()
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ktrees", "count", "--k", "1", "--terms", "6", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,1,1,2,3,6\n"


def test_cli_import_loads_no_dataclasses_inspect_json_or_ast():
    # Every CLI run pays for what importing ktrees.cli and parsing its
    # command line load; the first four modules cost about 14 ms of start-up
    # and no command needs them there, argparse with gettext and locale
    # cost about 3 ms, and only verify's runner, once it forks, needs
    # pickle.  Each command below runs in-process, so none forks.
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
        "import contextlib, io, ktrees.cli\n"
        "for argv in (['count', '--k', '2', '--terms', '5'], ['table', '--max-k', '2',\n"
        "             '--max-n', '3'], ['stable', '--terms', '4'], ['verify', '--mode',\n"
        "             'reference']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert ktrees.cli.main(argv) == 0, argv\n"
        "heavy = {'dataclasses', 'inspect', 'json', 'ast', 'pickle', 'argparse', 'gettext',\n"
        "         'locale'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"

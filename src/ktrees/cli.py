"""Command-line front end: count k-trees, print tables, run verifications.

Subcommands
    count   U coefficients for one k
    table   grid of counts for k = 1..max_k, optionally with the stable row
    stable  the k-independent tail values
    verify  consistency suites against embedded reference data, the closed
            forms, the brute-force oracle, and the structural identities;
            when the process may use more than one CPU, ``--mode all``
            runs the suites concurrently in forked workers and prints the
            same lines in the same order

Counts are indexed by the number of hedra n; a k-tree with n hedra has
n + k vertices.  For cross-reference, the rows k = 1..5 and the stable row
correspond to OEIS A000055, A054581, A078792, A078793, A201702 and A224917
(each offset by the n -> n+k vertex shift).  The reference grid below is
embedded so every check runs offline and byte-for-byte reproducibly.

Exit codes: 0 success, 1 verification failure, 2 usage error or a query
over the work budget, 3 a non-integer or negative count (an engine bug,
never bad input).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import pairwise, permutations
from math import factorial
from typing import Callable, Iterator, NoReturn, Sequence, TextIO

from .closedforms import fourtree_U, otter_U, threetree_U, twotree_U, twotree_rooted_series
from .engine import _stable_k, count_ktrees, solve_system, stable_counts
from .oracle import MAX_K, MAX_N, fixed_count, orbit_count
from .partitions import partition_numbers
from .series import IntegralityError

# Reference values: number of k-trees with n hedra, k = 1..5 and n = 0..9,
# plus the stable tail (the common value of all rows with k >= n-1).
REFERENCE_COUNTS: dict[int, list[int]] = {
    1: [1, 1, 1, 2, 3, 6, 11, 23, 47, 106],
    2: [1, 1, 1, 2, 5, 12, 39, 136, 529, 2171],
    3: [1, 1, 1, 2, 5, 15, 58, 275, 1505, 9003],
    4: [1, 1, 1, 2, 5, 15, 64, 331, 2150, 15817],
    5: [1, 1, 1, 2, 5, 15, 64, 342, 2321, 18578],
}
STABLE_ROW: list[int] = [1, 1, 1, 2, 5, 15, 64, 342, 2344, 19137]

# Largest work estimate, summed over a query's solves, that count, table
# and stable accept.  A solve at (k, N) grows its p(k+1) + 2 * p(k) series
# (every B_lam, Bbar_mu and C_mu) by one exponential step per degree, about
# (p(k+1) + 2 * p(k)) * N^2 integer multiply-adds.  Its coefficients stay
# under N * (k.bit_length() + 1) bits, and a multiply-add costs more as they
# grow, so the estimate weighs each by f = 1 + bits / 4096.  On a 2-core
# host with Python 3.11, solves on the budget's edge took 4-11 s: (1, 1958)
# 6.9 s, (2, 1443) 10.8 s, (5, 816) 7.3 s and (12, 294) 4.3 s; (30, 31)
# costs 1.8 * 10^7 and took 4.0 s.
WORK_BUDGET = 3 * 10**7

# One verification check: (name, passed, detail-for-failures)
Check = tuple[str, bool, str]


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


class _QueryTooLarge(Exception):
    """A query whose work estimate exceeds WORK_BUDGET (exit code 2)."""


def _check_budget(ks: list[int], order: int) -> None:
    """Refuse, before any solve, the solves of ``ks`` at ``order`` if their
    summed (p(k+1) + 2 * p(k)) * order^2 * f exceeds WORK_BUDGET.

    The estimate only grows with k, so every k not yet reached costs at
    least the current one; the scan stops once that lower bound is over,
    long before a large k.
    """
    pending = sorted(ks)
    work = 0.0
    for m, (p, p_next) in enumerate(pairwise(partition_numbers())):
        growth = 1 + order * (m.bit_length() + 1) / 4096
        unit = (p_next + 2 * p) * order * order * growth
        while pending and pending[0] == m:
            work += unit
            pending.pop(0)
        if work + len(pending) * unit > WORK_BUDGET:
            raise _QueryTooLarge(
                "query refused: its work estimate (p(k+1)+2p(k))*N^2*f"
                f" (N = {order}, k up to {max(ks)}) exceeds the budget of {WORK_BUDGET}"
            )
        if not pending:
            return


# ---------------------------------------------------------------- output


def _print_counts(k: int | str, counts: list[int], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        out.write(",".join(str(c) for c in counts) + "\n")
    elif fmt == "json":
        import json  # here, not at the top: only --format json runs pay for it

        out.write(json.dumps({"k": k, "counts": counts}) + "\n")
    else:
        out.write(" ".join(str(c) for c in counts) + "\n")


def _print_table(rows: list[tuple[int | str, list[int]]], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        for _, counts in rows:
            out.write(",".join(str(c) for c in counts) + "\n")
        return
    if fmt == "json":
        import json

        out.write(json.dumps([{"k": k, "counts": counts} for k, counts in rows]) + "\n")
        return
    n_cols = len(rows[0][1])
    labels = [str(k) for k, _ in rows]
    label_width = max(len("k\\n"), max(len(s) for s in labels))
    col_widths = [
        max(len(str(n)), max(len(str(counts[n])) for _, counts in rows))
        for n in range(n_cols)
    ]
    header = "k\\n".ljust(label_width) + "".join(
        f"  {str(n).rjust(col_widths[n])}" for n in range(n_cols)
    )
    out.write(header + "\n")
    for label, counts in zip(labels, (counts for _, counts in rows)):
        out.write(
            label.ljust(label_width)
            + "".join(f"  {str(c).rjust(col_widths[n])}" for n, c in enumerate(counts))
            + "\n"
        )


# ---------------------------------------------------------------- commands


# U_k[n] is constant for k >= n-1, so count and table serve a larger k from
# k = _stable_k(order); the engine cannot clamp, as B, C and E still vary.
def _cmd_count(args: argparse.Namespace, out: TextIO) -> int:
    order = args.terms - 1
    k = min(args.k, _stable_k(order))
    _check_budget([k], order)
    counts = count_ktrees(k, order).U
    _print_counts(args.k, counts, args.format, out)
    return 0


def _cmd_table(args: argparse.Namespace, out: TextIO) -> int:
    cap = _stable_k(args.max_n)
    ks = list(range(1, min(args.max_k, cap) + 1))
    if args.stable and cap > args.max_k:
        ks.append(cap)  # the stable row is the k = cap row
    _check_budget(ks, args.max_n)
    by_k = {k: count_ktrees(k, args.max_n).U for k in ks}
    rows: list[tuple[int | str, list[int]]] = [
        (k, by_k[min(k, cap)]) for k in range(1, args.max_k + 1)
    ]
    if args.stable:
        rows.append(("stable", by_k[cap]))
    _print_table(rows, args.format, out)
    return 0


def _cmd_stable(args: argparse.Namespace, out: TextIO) -> int:
    order = args.terms - 1
    _check_budget([_stable_k(order)], order)
    counts = stable_counts(order)
    _print_counts("stable", counts, args.format, out)
    return 0


# ---------------------------------------------------------------- verify


def _verify_reference() -> list[Check]:
    checks: list[Check] = []
    cells_ok = 0
    for k, expected in REFERENCE_COUNTS.items():
        got = count_ktrees(k, 9).U
        matches = sum(1 for a, b in zip(got, expected) if a == b)
        cells_ok += matches
        checks.append(
            (f"reference: row k={k} matches embedded table ({matches}/10 cells)",
             got == expected,
             f"got {got}")
        )
    got_stable = stable_counts(9)
    matches = sum(1 for a, b in zip(got_stable, STABLE_ROW) if a == b)
    cells_ok += matches
    checks.append(
        (f"reference: stable row matches embedded table ({matches}/10 cells)",
         got_stable == STABLE_ROW,
         f"got {got_stable}")
    )
    checks.append(
        (f"reference: {cells_ok}/60 grid cells match", cells_ok == 60, "")
    )
    return checks


def _verify_closedform(order: int = 30) -> list[Check]:
    checks: list[Check] = []
    for name, fn, k in (
        ("1-tree formula", otter_U, 1),
        ("2-tree formula", twotree_U, 2),
        ("3-tree formula", threetree_U, 3),
        ("4-tree formula", fourtree_U, 4),
    ):
        closed = fn(order)
        eng = count_ktrees(k, order).U
        checks.append(
            (f"closedform: {name} == engine through order {order}",
             closed == eng,
             f"first difference at n={_first_difference(closed, eng)}")
        )
    d, s = twotree_rooted_series(order)
    cache = solve_system(2, order)
    pair_details = [
        f"{label} differs at degree {_first_difference(closed, eng)}"
        for label, closed, eng in (
            ("D", d, cache.c[(1, 1)]),
            ("S", s, cache.c[(2,)]),
        )
        if closed != eng
    ]
    checks.append(
        (f"closedform: 2-tree rooted pair == engine per-type series through order {order}",
         not pair_details,
         "; ".join(pair_details))
    )
    return checks


def _first_difference(a: Sequence, b: Sequence) -> int:
    """The first index where ``a`` and ``b`` differ: where their common
    prefix ends, so the shorter length if one is a prefix of the other."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _verify_oracle() -> list[Check]:
    checks: list[Check] = []
    for k in range(1, MAX_K + 1):
        engine_u = count_ktrees(k, MAX_N).U
        perms = list(permutations(range(1, k + 2)))
        # Each detail names the first failing n; an empty detail is a pass.
        orbit_detail = ""
        burnside_detail = ""
        for n in range(MAX_N + 1):
            orbits = orbit_count(k, n)
            if orbits != engine_u[n] and not orbit_detail:
                orbit_detail = f"n={n}: oracle {orbits} vs engine {engine_u[n]}"
            fixed_total = sum(fixed_count(k, n, pi) for pi in perms)
            if fixed_total != orbits * factorial(k + 1) and not burnside_detail:
                burnside_detail = f"n={n}: sum fix = {fixed_total}, orbits = {orbits}"
        checks.append(
            (f"oracle: orbit counts == engine for k={k}, n<={MAX_N}",
             not orbit_detail, orbit_detail)
        )
        checks.append(
            (f"oracle: Burnside identity for k={k}, n<={MAX_N}",
             not burnside_detail, burnside_detail)
        )
    return checks


def _verify_dissymmetry(max_k: int = 6, order: int = 40) -> list[Check]:
    checks: list[Check] = []
    for k in range(1, max_k + 1):
        try:
            bundle = count_ktrees(k, order)  # raises on a non-integer or negative count
        except (IntegralityError, ArithmeticError) as exc:
            checks.append((f"dissymmetry: U = B + C - E for k={k}, N={order}", False, str(exc)))
            continue
        ok = all(
            bundle.U[n] == bundle.B[n] + bundle.C[n] - bundle.E[n] for n in range(order + 1)
        )
        checks.append((f"dissymmetry: U = B + C - E for k={k}, N={order}", ok, ""))
    return checks


def _verify_stability(max_k: int = 14, max_n: int = 12) -> list[Check]:
    checks: list[Check] = []
    u = {k: count_ktrees(k, max_n).U for k in range(1, max_k + 1)}
    # Each detail names the first failing cell; an empty detail is a pass.
    detail = ""
    for n in range(max_n + 1):
        for k in range(max(n - 1, 2), max_k + 1):
            if u[k][n] != u[k - 1][n] and not detail:
                detail = f"n={n}, k={k}: {u[k][n]} != {u[k - 1][n]}"
    checks.append(
        (f"stability: counts constant for k >= n-1 (n<={max_n}, k<={max_k})",
         not detail, detail)
    )
    detail = ""
    for n in range(4, max_n + 1):
        lhs = u[n - 2][n] - u[n - 3][n]
        rhs = u[1][n - 1]
        if lhs != rhs and not detail:
            detail = f"n={n}: {lhs} != {rhs}"
    checks.append(
        (f"stability: last jump equals tree count (4<=n<={max_n})", not detail, detail)
    )
    return checks


_SUITES: dict[str, Callable[[], list[Check]]] = {
    "reference": _verify_reference,
    "closedform": _verify_closedform,
    "oracle": _verify_oracle,
    "dissymmetry": _verify_dissymmetry,
    "stability": _verify_stability,
}


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _suite_results(modes: list[str]) -> Iterator[list[Check]]:
    """Yield the checks of each suite in ``modes``, in order; a suite that
    raised has its exception raised in its place.

    The suites share no results, so with more than one suite and more than
    one usable CPU every suite but the last runs in a forked child while
    this process runs the last.  Each child sends back its checks, or the
    exception it raised, pickled over a pipe.  A child that ends without a
    result raises RuntimeError naming its suite.  Every child is reaped
    before this returns or raises.  A process with a second thread never
    forks: the child could inherit a lock held by a thread it lacks.
    """
    threading = sys.modules.get("threading")
    if (
        len(modes) == 1
        or not hasattr(os, "fork")
        or _usable_cpus() == 1
        or (threading is not None and threading.active_count() > 1)
    ):
        for mode in modes:
            yield _SUITES[mode]()
        return
    import pickle  # here, not at the top: only a forking run needs it

    workers: list[tuple[str, int, int]] = []  # (mode, pid, read end of its pipe)
    try:
        for mode in modes[:-1]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _serve_suite(mode, write_fd)
            os.close(write_fd)
            workers.append((mode, pid, read_fd))
        own = _outcome(modes[-1])
        while workers:
            mode, pid, read_fd = workers.pop(0)
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise RuntimeError(
                    f"verify suite {mode!r} ended without a result (exit status {status})"
                )
            yield _raise_if_exception(pickle.loads(payload))
        yield _raise_if_exception(own)
    finally:
        for _, pid, read_fd in workers:
            os.close(read_fd)
            os.waitpid(pid, 0)


def _serve_suite(mode: str, write_fd: int) -> NoReturn:
    """In a forked child: run one suite, pickle its checks or its exception
    to ``write_fd``, and leave without returning to the caller's stack.
    The exit status is 0 only once the result is written."""
    import pickle

    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            pickle.dump(_outcome(mode), pipe)
        status = 0
    finally:
        os._exit(status)


def _outcome(mode: str) -> list[Check] | Exception:
    """The checks of one suite, or the exception it raised."""
    try:
        return _SUITES[mode]()
    except Exception as exc:
        return exc


def _raise_if_exception(outcome: list[Check] | Exception) -> list[Check]:
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    modes = list(_SUITES) if args.mode == "all" else [args.mode]
    failures = 0
    for checks in _suite_results(modes):
        for name, passed, detail in checks:
            if passed:
                out.write(f"PASS {name}\n")
            else:
                failures += 1
                out.write(f"FAIL {name}" + (f" [{detail}]" if detail else "") + "\n")
    out.write(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)\n")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktrees",
        description="Exact counts of unlabeled k-trees by number of hedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print counts for one k")
    p_count.add_argument("--k", type=_int_at_least(1), required=True, help="k-tree parameter")
    p_count.add_argument("--terms", type=_int_at_least(1), default=10,
                         help="number of coefficients (n = 0..terms-1)")
    p_count.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_count.set_defaults(func=_cmd_count)

    p_table = sub.add_parser("table", help="print the counts grid for k = 1..max-k")
    p_table.add_argument("--max-k", type=_int_at_least(1), required=True)
    p_table.add_argument("--max-n", type=_int_at_least(0), required=True)
    p_table.add_argument("--stable", action="store_true", help="append the stable row")
    p_table.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_table.set_defaults(func=_cmd_table)

    p_stable = sub.add_parser("stable", help="print the k-independent tail values")
    p_stable.add_argument("--terms", type=_int_at_least(1), default=10)
    p_stable.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_stable.set_defaults(func=_cmd_stable)

    p_verify = sub.add_parser("verify", help="run consistency suites")
    p_verify.add_argument("--mode", choices=(*_SUITES, "all"), default="all")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except _QueryTooLarge as exc:
        print(f"ktrees: {exc}", file=sys.stderr)
        return 2
    except IntegralityError as exc:
        print(f"internal error: non-integer count ({exc})", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

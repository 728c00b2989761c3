"""Command-line front end: count k-trees, print tables, run verifications.

Subcommands
    count   U coefficients for one k
    table   grid of counts for k = 1..max_k, optionally with the stable row
    stable  the k-independent tail values
    verify  consistency suites against embedded reference data, the closed
            forms, the brute-force oracle, and the structural identities;
            when the process may fork and use more than one CPU,
            ``--mode all`` runs every suite but the last in a forked
            worker, and otherwise runs every suite in-process; either way
            each suite has run before the first line is printed, and the
            lines and their order are the same

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

import gc
import os
import sys
from itertools import permutations, zip_longest
from math import factorial
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from .closedforms import fourtree_U, otter_U, threetree_U, twotree_U, twotree_rooted_series
from .engine import _count_from, _QueryTooLarge, _u_rows, count_ktrees, solve_system, stable_counts
from .oracle import MAX_K, MAX_N, fixed_count, orbit_count
from .series import IntegralityError

# Reference values: number of k-trees with n hedra, k = 1..5 and n = 0..9,
# plus the stable tail (the common value of all rows with k >= n-2).
REFERENCE_COUNTS: dict[int, list[int]] = {
    1: [1, 1, 1, 2, 3, 6, 11, 23, 47, 106],
    2: [1, 1, 1, 2, 5, 12, 39, 136, 529, 2171],
    3: [1, 1, 1, 2, 5, 15, 58, 275, 1505, 9003],
    4: [1, 1, 1, 2, 5, 15, 64, 331, 2150, 15817],
    5: [1, 1, 1, 2, 5, 15, 64, 342, 2321, 18578],
}
STABLE_ROW: list[int] = [1, 1, 1, 2, 5, 15, 64, 342, 2344, 19137]

# One verification check: (name, passed, detail-for-failures)
Check = tuple[str, bool, str]
# One printed row of counts: (k, or "stable", its U coefficients)
Row = tuple[int | str, list[int]]


# ---------------------------------------------------------------- output


def _print_counts(k: int | str, counts: list[int], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        out.write(",".join(str(c) for c in counts) + "\n")
    elif fmt == "json":
        import json  # here, not at the top: only --format json runs pay for it

        out.write(json.dumps({"k": k, "counts": counts}) + "\n")
    else:
        out.write(" ".join(str(c) for c in counts) + "\n")


def _print_table(rows: list[Row], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        for _, counts in rows:
            out.write(",".join(str(c) for c in counts) + "\n")
        return
    if fmt == "json":
        import json

        out.write(json.dumps([{"k": k, "counts": counts} for k, counts in rows]) + "\n")
        return
    grid = [["k\\n", *map(str, range(len(rows[0][1])))]]
    grid += [[str(label), *map(str, counts)] for label, counts in rows]
    widths = [max(map(len, column)) for column in zip(*grid)]
    for label, *cells in grid:
        out.write(
            label.ljust(widths[0])
            + "".join(f"  {cell.rjust(width)}" for cell, width in zip(cells, widths[1:]))
            + "\n"
        )


# ---------------------------------------------------------------- commands


def _rows(ks: Sequence[int], order: int, stable: bool) -> list[Row]:
    """The U rows through ``order``: one per k in ``ks``, labelled k, then
    the stable row, labelled "stable", if ``stable`` is set.

    The stable row is the row k = N + 1, and every row comes from one
    engine._u_rows call, which refuses the query before any solve if its
    solves are over the work budget.
    """
    wanted = [*ks, *([order + 1] if stable else [])]
    return list(zip([*ks, *(["stable"] if stable else [])], _u_rows(wanted, order)))


def _cmd_count(args: SimpleNamespace, out: TextIO) -> int:
    _print_counts(*_rows([args.k], args.terms - 1, False)[0], args.format, out)
    return 0


def _cmd_table(args: SimpleNamespace, out: TextIO) -> int:
    _print_table(_rows(range(1, args.max_k + 1), args.max_n, args.stable), args.format, out)
    return 0


def _cmd_stable(args: SimpleNamespace, out: TextIO) -> int:
    _print_counts(*_rows([], args.terms - 1, True)[0], args.format, out)
    return 0


# ---------------------------------------------------------------- verify


def _check(name: str, failures: Iterable[str]) -> Check:
    """The check ``name``: it passes when ``failures`` yields nothing and
    otherwise fails with the first item as its detail.

    ``failures`` yields one detail for each failing cell, in the order the
    cells are checked, so a FAIL line's bracketed detail names the first
    failing cell; an empty detail prints no brackets.  The one exception is
    the 2-tree rooted pair, whose single failure names the first differing
    degree of each series.
    """
    detail = next(iter(failures), None)
    return (name, detail is None, detail or "")


def _mismatches(a: Sequence, b: Sequence) -> list[int]:
    """The indices where ``a`` and ``b`` differ, a missing term differing
    from every term: the shorter list mismatches from its own length on."""
    return [i for i, (x, y) in enumerate(zip_longest(a, b)) if x != y]


def _verify_reference() -> list[Check]:
    rows = [(f"row k={k}", count_ktrees(k, 9).U, row) for k, row in REFERENCE_COUNTS.items()]
    rows.append(("stable row", stable_counts(9), STABLE_ROW))
    matches = [sum(a == b for a, b in zip(got, expected)) for _, got, expected in rows]
    checks = [
        _check(f"reference: {name} matches embedded table ({m}/10 cells)",
               [f"got {got}"] if got != expected else [])
        for (name, got, expected), m in zip(rows, matches)
    ]
    cells_ok = sum(matches)
    checks.append(
        _check(f"reference: {cells_ok}/60 grid cells match", [""] if cells_ok != 60 else [])
    )
    return checks


def _verify_closedform() -> list[Check]:
    order = 30
    cache = solve_system(2, order)  # read by the 2-tree formula and the rooted pair
    checks = [
        _check(f"closedform: {name} == engine through order {order}",
               (f"first difference at n={n}" for n in _mismatches(fn(order), bundle.U)))
        for name, fn, bundle in (
            ("1-tree formula", otter_U, count_ktrees(1, order)),
            ("2-tree formula", twotree_U, _count_from(cache)),
            ("3-tree formula", threetree_U, count_ktrees(3, order)),
            ("4-tree formula", fourtree_U, count_ktrees(4, order)),
        )
    ]
    d, s = twotree_rooted_series(order)
    pair = [
        f"{label} differs at degree {at[0]}"
        for label, at in (("D", _mismatches(d, cache.c[(1, 1)])),
                          ("S", _mismatches(s, cache.c[(2,)])))
        if at
    ]
    checks.append(
        _check(f"closedform: 2-tree rooted pair == engine per-type series through order {order}",
               ["; ".join(pair)] if pair else [])
    )
    return checks


def _verify_oracle() -> list[Check]:
    checks: list[Check] = []
    for k in range(1, MAX_K + 1):
        engine_u = count_ktrees(k, MAX_N).U
        perms = list(permutations(range(1, k + 2)))
        orbits = [orbit_count(k, n) for n in range(MAX_N + 1)]
        fixed = [sum(fixed_count(k, n, pi) for pi in perms) for n in range(MAX_N + 1)]
        checks += [
            _check(f"oracle: orbit counts == engine for k={k}, n<={MAX_N}",
                   (f"n={n}: oracle {orbits[n]} vs engine {engine_u[n]}"
                    for n in _mismatches(orbits, engine_u))),
            _check(f"oracle: Burnside identity for k={k}, n<={MAX_N}",
                   (f"n={n}: sum fix = {total}, orbits = {orbits[n]}"
                    for n, total in enumerate(fixed) if total != orbits[n] * factorial(k + 1))),
        ]
    return checks


def _verify_dissymmetry() -> list[Check]:
    max_k, order = 6, 40
    checks: list[Check] = []
    for k in range(1, max_k + 1):
        try:
            bundle = count_ktrees(k, order)  # raises on a non-integer or negative count
        except (IntegralityError, ArithmeticError) as exc:
            failures = [str(exc)]
        else:
            failures = ["" for n in range(order + 1)
                        if bundle.U[n] != bundle.B[n] + bundle.C[n] - bundle.E[n]]
        checks.append(_check(f"dissymmetry: U = B + C - E for k={k}, N={order}", failures))
    return checks


def _verify_stability() -> list[Check]:
    max_k, max_n = 14, 12
    u = {k: count_ktrees(k, max_n).U for k in range(1, max_k + 1)}
    jump = {n: u[n - 2][n] - u[n - 3][n] for n in range(4, max_n + 1)}
    return [
        _check(f"stability: counts constant for k >= n-1 (n<={max_n}, k<={max_k})",
               (f"n={n}, k={k}: {u[k][n]} != {u[k - 1][n]}"
                for n in range(max_n + 1)
                for k in range(max(n - 1, 2), max_k + 1)
                if u[k][n] != u[k - 1][n])),
        _check(f"stability: last jump equals tree count (4<=n<={max_n})",
               (f"n={n}: {j} != {u[1][n - 1]}" for n, j in jump.items() if j != u[1][n - 1])),
    ]


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


def _outcome(mode: str) -> list[Check] | Exception:
    """The checks of one suite, or the exception it raised."""
    try:
        return _SUITES[mode]()
    except Exception as exc:
        return exc


def _outcomes(modes: list[str]) -> Iterator[list[Check] | Exception]:
    """Yield the outcome of each suite in ``modes``, in order: its checks,
    or the exception it raised.  Every suite has run before the first
    outcome is yielded.

    The suites share no results.  When this process may fork (``os.fork``
    exists, it may use more than one CPU, and it runs no second thread)
    every suite but the last runs in a forked child while this process
    runs the last; otherwise this process runs every suite itself.  Each
    child sends back its outcome pickled over a pipe, and exits 0 only once
    it is written; a child that ends without one raises RuntimeError naming
    its suite.  Every child is reaped before this returns, raises or is
    closed, as it is when the caller drops it to raise an outcome.  A
    process with a second thread never forks: the child could inherit a
    lock held by a thread it lacks.
    """
    threading = sys.modules.get("threading")
    may_fork = (
        hasattr(os, "fork")
        and _usable_cpus() > 1
        and (threading is None or threading.active_count() == 1)
    )
    forked = modes[:-1] if may_fork else []
    if forked:
        import pickle  # here, not at the top: only a forking run needs it
    workers: list[tuple[str, int, int]] = []  # (mode, pid, read end of its pipe)
    try:
        for mode in forked:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child never returns to the caller's stack
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_outcome(mode), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            workers.append((mode, pid, read_fd))
        own = [_outcome(mode) for mode in modes[len(forked):]]
        while workers:
            mode, pid, read_fd = workers.pop(0)
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise RuntimeError(
                    f"verify suite {mode!r} ended without a result (exit status {status})"
                )
            yield pickle.loads(payload)
        yield from own
    finally:
        for _, pid, read_fd in workers:
            os.close(read_fd)
            os.waitpid(pid, 0)


def _cmd_verify(args: SimpleNamespace, out: TextIO) -> int:
    modes = list(_SUITES) if args.mode == "all" else [args.mode]
    failures = 0
    for outcome in _outcomes(modes):
        if isinstance(outcome, Exception):
            raise outcome
        for name, passed, detail in outcome:
            if passed:
                out.write(f"PASS {name}\n")
            else:
                failures += 1
                out.write(f"FAIL {name}" + (f" [{detail}]" if detail else "") + "\n")
    out.write(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)\n")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- parser


_Handler = Callable[[SimpleNamespace, TextIO], int]
_FORMAT = {"--format": (("plain", "csv", "json"), "plain")}

# Each command: its handler and its flags.  A flag maps to (kind, default):
# kind is the least integer it takes, the tuple of the words it takes, or
# None for a switch; a default of None makes it required.
_COMMANDS: dict[str, tuple[_Handler, dict[str, tuple]]] = {
    "count": (_cmd_count, {"--k": (1, None), "--terms": (1, 10), **_FORMAT}),
    "table": (_cmd_table,
              {"--max-k": (1, None), "--max-n": (0, None), "--stable": (None, False), **_FORMAT}),
    "stable": (_cmd_stable, {"--terms": (1, 10), **_FORMAT}),
    "verify": (_cmd_verify, {"--mode": ((*_SUITES, "all"), "all")}),
}


def _usage(names: Iterable[str]) -> str:
    """The usage lines of the commands ``names``, read off the flag table."""
    lines = []
    for name in names:
        words = [name, "[--help]"]
        for flag, (kind, default) in _COMMANDS[name][1].items():
            if isinstance(kind, tuple):
                flag += " {" + ",".join(kind) + "}"
            elif kind is not None:
                flag += " " + flag[2:].upper().replace("-", "_")
            words.append(flag if default is None else f"[{flag}]")
        lines.append(" ".join(words))
    return "usage: ktrees " + "\n       ktrees ".join(lines) + "\n"


def _help(args: SimpleNamespace, out: TextIO) -> int:
    out.write(_usage(_COMMANDS) + "\nExact counts of unlabeled k-trees by number of hedra.\n")
    return 0


def _fail(name: str | None, message: str) -> NoReturn:
    """Write the usage of command ``name`` (of every command for None) and
    ``message`` to stderr, and exit with code 2."""
    sys.stderr.write(f"{_usage([name] if name else _COMMANDS)}ktrees: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: Sequence[str]) -> tuple[_Handler, SimpleNamespace]:
    """The handler ``argv`` names and its flag values, by attribute name.

    ``-h`` or ``--help`` anywhere selects the help text.  Otherwise the
    first word names a command, and each flag of it takes its value as the
    next word or after '='.  Flags come in any order, and a repeated flag
    keeps its last value.  The first word the table does not take (an
    unknown command or flag, an abbreviated flag, a value given to a switch,
    a stray word, a missing or bad value) is a usage error, as is a missing
    required flag.
    """
    if "-h" in argv or "--help" in argv:
        return _help, SimpleNamespace()
    name, *words = argv or [""]
    if name not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r}" if name
              else "the following arguments are required: command")
    handler, flags = _COMMANDS[name]
    values = {flag: default for flag, (_, default) in flags.items()}
    words = iter(words)
    for word in words:
        flag, given, text = word.partition("=")
        if flag not in flags or given and flags[flag][0] is None:
            _fail(name, f"unrecognized arguments: {word}")
        kind = flags[flag][0]
        if kind is None:
            values[flag] = True
            continue
        if not given and (text := next(words, None)) is None:
            _fail(name, f"argument {flag}: expected one argument")
        try:
            value = text if isinstance(kind, tuple) else int(text)
        except ValueError:
            value = None
        if value is None or (value not in kind if isinstance(kind, tuple) else value < kind):
            wanted = (f"one of {', '.join(kind)}" if isinstance(kind, tuple)
                      else f"an integer >= {kind}")
            _fail(name, f"argument {flag}: expected {wanted}, got {text!r}")
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is None]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{f[2:].replace("-", "_"): v for f, v in values.items()})


def main(argv: Sequence[str] | None = None) -> int:
    # A command builds only acyclic lists and tuples of ints, which the cyclic
    # collector's passes would scan and never free: it is paused while the
    # command runs, and the caller's setting is restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args, sys.stdout)
    except _QueryTooLarge as exc:
        print(f"ktrees: {exc}", file=sys.stderr)
        return 2
    except IntegralityError as exc:
        print(f"internal error: non-integer count ({exc})", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()

"""The benchmark's workloads, what each is expected to move, and its output check.

Every workload is one fixed, exact CLI query.  Nothing in it is random: the
run seed only orders the samples (see run.py).  The checks here are the
only judge of a sample's output, and they feed the ``failed`` count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    why: str
    # For row workloads: the embedded reference row its first terms must
    # equal, how many terms it prints, and the SHA-256 of the whole output
    # as the seed engine printed it.
    reference: str | None = None
    terms: int = 0
    sha256: str = ""
    # For the verify workload: how many PASS lines a clean run prints.
    pass_lines: int = 0


WORKLOADS: dict[str, Workload] = {
    "deep": Workload(
        argv=("count", "--k", "5", "--terms", "81"),
        why="Deep order with only p(5)=7 cycle types: nearly all time is the"
        " solve's product and exp steps, which grow as N^3.",
        reference="REFERENCE_COUNTS[5]",
        terms=81,
        sha256="123186e580ceba576d1a4d6b022316a18b7b4e8cdec1eb93011fd89605171dd8",
    ),
    "wide": Workload(
        argv=("stable", "--terms", "17"),
        why="17 short solves up to k=15 (176 cycle types, 231 partitions of"
        " k+1 in compute_B), each using one coefficient: stresses aggregation"
        " and per-solve overhead.",
        reference="STABLE_ROW",
        terms=17,
        sha256="3884273ae5e29aa1ad7f7491e3dcddb514c23b24f8baf7c5e62c40fe8dd21022",
    ),
    "verify": Workload(
        argv=("verify", "--mode", "all"),
        why="The only workload that runs the oracle and the closed forms, which"
        " use the rational series on a second route.",
        pass_lines=26,
    ),
}

# Which end-to-end metric, on which workloads, each per-layer metric should
# move.  Written down before any optimisation, so a later change can be
# judged against it.
LAYER_MOVES: dict[str, str] = {
    "series.mul.*": "wall_s on wide (~65%), deep (~55%), verify (~45%)",
    "series.exp_series.*": "wall_s on deep (~38%), verify (~26%), wide (~20%)",
    "engine.solve_system.*, engine.cycle_types, engine.solve_degrees,"
    " engine.max_coeff_bits": "wall_s on deep and wide",
    "engine.aggregate_s, engine.compute_B_lambda.calls": "wall_s on wide",
    "engine.count_ktrees.calls, engine.coeffs_used_ratio": "wall_s on wide",
    "closedforms.s": "wall_s on verify only",
    "oracle.*": "wall_s on verify only; unchanged by an engine-only change",
    "partitions.*, cli.main.self_s": "each under 1% of wall_s today; kept so"
    " that work moved into these layers, or into setup_s, shows",
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}


def reference_rows() -> dict[str, list[int]]:
    """The embedded reference rows, read from the program's own CLI module."""
    from ktrees import cli

    return {"REFERENCE_COUNTS[5]": cli.REFERENCE_COUNTS[5], "STABLE_ROW": cli.STABLE_ROW}


def check_output(
    name: str, exit_code: int | None, stdout: str, references: dict[str, list[int]]
) -> list[str]:
    """Problems with one sample's result; an empty list means it passed."""
    workload = WORKLOADS[name]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if workload.pass_lines:
        lines = stdout.splitlines()
        passes = sum(1 for line in lines if line.startswith("PASS "))
        fails = [line for line in lines if line.startswith("FAIL ")]
        if passes != workload.pass_lines:
            problems.append(f"{passes} PASS lines, expected {workload.pass_lines}")
        problems.extend(fails)
        return problems
    try:
        row = [int(field) for field in stdout.split()]
    except ValueError:
        return problems + [f"output is not a row of integers: {stdout[:80]!r}"]
    expected = references[workload.reference]
    if row[: len(expected)] != expected:
        problems.append(f"first terms {row[:len(expected)]} != {workload.reference}")
    if len(row) != workload.terms:
        problems.append(f"{len(row)} terms, expected {workload.terms}")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != workload.sha256:
        problems.append(f"output sha256 {digest} != recorded {workload.sha256}")
    return problems

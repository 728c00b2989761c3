"""Exact enumeration of unlabeled k-trees by number of hedra.

The package computes the counting series for unlabeled k-trees (and the
rooted variants behind it) with exact arbitrary-precision arithmetic, and
cross-checks the results three independent ways: classical closed forms
for small k, brute-force enumeration of coding trees at desk scale, and
structural identities (dissymmetry, stability) that the counts must obey.
"""

from .closedforms import (
    fourtree_U,
    otter_U,
    rooted_trees,
    threetree_U,
    twotree_U,
    twotree_rooted_series,
)
from .engine import (
    ResultBundle,
    SeriesCache,
    compute_B,
    compute_C,
    compute_E,
    count_fixed_by_type,
    count_ktrees,
    solve_system,
    stable_counts,
)
from .oracle import enumerate_coding_trees, fixed_count, orbit_count
from .partitions import (
    Partition,
    cycle_power,
    drop_one_fixed_point,
    partitions_of,
    permutation_count,
    permutation_cycle_type,
    z_of,
)
from .series import (
    Coefficient,
    IntegralityError,
    Series,
    add,
    exp_series,
    integer_coeffs,
    monomial_x,
    mul,
    one,
    resized,
    scale,
    substitute_power,
    times_x,
    zero,
)

__version__ = "0.1.0"

__all__ = [
    "Coefficient",
    "IntegralityError",
    "Partition",
    "ResultBundle",
    "Series",
    "SeriesCache",
    "add",
    "compute_B",
    "compute_C",
    "compute_E",
    "count_fixed_by_type",
    "count_ktrees",
    "cycle_power",
    "drop_one_fixed_point",
    "enumerate_coding_trees",
    "exp_series",
    "fixed_count",
    "fourtree_U",
    "integer_coeffs",
    "monomial_x",
    "mul",
    "one",
    "orbit_count",
    "otter_U",
    "partitions_of",
    "permutation_count",
    "permutation_cycle_type",
    "resized",
    "rooted_trees",
    "scale",
    "solve_system",
    "stable_counts",
    "substitute_power",
    "threetree_U",
    "times_x",
    "twotree_U",
    "twotree_rooted_series",
    "z_of",
    "zero",
]

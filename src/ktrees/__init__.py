"""Exact enumeration of unlabeled k-trees by number of hedra.

The package computes the counting series for unlabeled k-trees (and the
rooted variants behind it) with exact arbitrary-precision arithmetic, and
cross-checks the results three independent ways: classical closed forms
for small k, brute-force enumeration of coding trees at desk scale, and
structural identities (dissymmetry, stability) that the counts must obey.

The package exports the counting API: :func:`count_ktrees` (with its
:class:`ResultBundle`) and :func:`stable_counts`, the closed forms for
k = 1..4, and the coding-tree oracle.  Every other name is importable from
its own module (``ktrees.engine``, ``ktrees.partitions``, ...).
"""

from .closedforms import fourtree_U, otter_U, threetree_U, twotree_U
from .engine import ResultBundle, count_ktrees, stable_counts
from .oracle import enumerate_coding_trees, fixed_count, orbit_count
from .series import IntegralityError

__version__ = "0.1.0"

__all__ = [
    "IntegralityError",
    "ResultBundle",
    "count_ktrees",
    "enumerate_coding_trees",
    "fixed_count",
    "fourtree_U",
    "orbit_count",
    "otter_U",
    "stable_counts",
    "threetree_U",
    "twotree_U",
]

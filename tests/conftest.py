"""Shared fixtures."""

from functools import cache

import pytest

from ktrees.oracle import fixed_count


@pytest.fixture(scope="session")
def fixed_counts():
    """The oracle's ``fixed_count(k, n, pi)``, computed once per (k, n, pi).

    Several tests sweep every permutation of k = 3 for n <= 6.  Each sweep
    tests all 1256 coding trees under 24 permutations, about 0.025 s on a
    2-core host with interned subtrees, the root-first invariance test and
    ``fixed_count``'s per-call memo, so the session shares one.
    """
    return cache(fixed_count)

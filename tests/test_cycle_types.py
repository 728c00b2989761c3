"""The tests' cycle-type reference, `cycle_types`: its contract on bad input."""

import pytest

from cycle_types import permutation_cycle_type


def test_permutation_cycle_type_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_cycle_type((1, 1, 3))

"""The package's public surface: the counting API and nothing more."""

import inspect

import ktrees
from ktrees import series


def test_the_package_exports_exactly_the_counting_api():
    assert sorted(ktrees.__all__) == [
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
    for name in ktrees.__all__:
        assert hasattr(ktrees, name), name


def test_the_series_module_defines_no_series_operation():
    # Only the error type and the value type of the engine's views; the
    # rational algebra is the tests' reference, in rational_series.
    defined = {
        name
        for name, value in vars(series).items()
        if getattr(value, "__module__", None) == series.__name__
    }
    assert defined == {"IntegralityError", "Series"}
    assert not [name for name, value in vars(series).items() if inspect.isfunction(value)]

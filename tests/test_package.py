"""The package's public surface: the counting API and nothing more."""

import ast
import inspect
from pathlib import Path

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


def test_every_exact_division_is_integrality_error_quotient():
    # One rule for exact division: no module calls divmod, and outside
    # series.py no module constructs or raises IntegralityError; it reads
    # the class only as IntegralityError.quotient, or to catch it.
    for path in sorted(Path(ktrees.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in nodes
            if isinstance(node, ast.Call)
        }
        assert "divmod" not in called, path.name
        if path.name == "series.py":
            continue
        raised = {getattr(node.exc, "id", None) for node in nodes if isinstance(node, ast.Raise)}
        assert "IntegralityError" not in called | raised, path.name
        read = {
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "IntegralityError"
        }
        assert read <= {"quotient"}, (path.name, read)

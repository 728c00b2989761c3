"""Per-layer trace of one ktrees CLI run, installed from outside the package.

``Tracer.install`` wraps every public function of the ktrees layers and puts
the wrapper under every name that refers to the original in the ktrees
modules.  That catches calls through the defining module and calls through
the names that ``engine``, ``closedforms`` and ``cli`` import with
``from .x import f``.  Each call appends one span ``[name, start_ns, end_ns,
parent, note]`` to an in-memory list; ``layer_metrics`` reduces the list
once the run has ended.

A span's self time is its duration minus the durations of its child spans.
Calls nest, so a span's children never overlap one another.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable

LAYERS = ("series", "partitions", "engine", "closedforms", "oracle", "cli")

NAME, START, END, PARENT, NOTE = range(5)


def _coeff_pairs(args: tuple, result: Any) -> int:
    """Coefficient pairs a truncated Cauchy product of order n visits."""
    n = args[0].order
    return (n + 1) * (n + 2) // 2


def _coeffs_returned(args: tuple, result: Any) -> int:
    """How many count coefficients an engine call hands back to its caller."""
    if isinstance(result, list):
        return len(result)
    if hasattr(result, "U"):
        return len(result.U)
    return result.order + 1


def _solved(args: tuple, result: Any) -> Any:
    """The solved SeriesCache itself, read once the run has ended."""
    return result


def _oracle_scale(args: tuple, result: Any) -> tuple[int, int]:
    return args[0], args[1]


# Extra facts recorded per call, computed from the call's arguments and
# result after its span has closed.
_NOTES: dict[str, Callable[[tuple, Any], Any]] = {
    "series.mul": _coeff_pairs,
    "engine.solve_system": _solved,
    "oracle.orbit_count": _oracle_scale,
    "oracle.fixed_count": _oracle_scale,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.originals: dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns
        layer = name.split(".", 1)[0]
        note = _NOTES.get(name, _coeffs_returned if layer == "engine" else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if note is not None:
                if kwargs:
                    args = tuple(inspect.signature(fn).bind(*args, **kwargs).arguments.values())
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every ktrees layer module in place."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "ktrees" or name.startswith("ktrees.")
        }
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = modules[f"ktrees.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    self.originals[name] = value
                    wrappers[id(value)] = self._wrap(name, value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def write(self, path: str, origin_ns: int) -> None:
        """Write the spans as TSV: index, name, start and end in ns from
        ``origin_ns``, parent index (-1 for none)."""
        with open(path, "w") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, span in enumerate(self.spans):
                out.write(
                    f"{i}\t{span[NAME]}\t{span[START] - origin_ns}\t"
                    f"{span[END] - origin_ns}\t{span[PARENT]}\n"
                )


def _outermost(spans: list[list], names: set[str]) -> list[list]:
    """The spans of ``names`` that no other span of ``names`` encloses."""
    inside = [False] * len(spans)
    found = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][NAME] in names)
        if span[NAME] in names and not inside[i]:
            found.append(span)
    return found


def _outermost_time(spans: list[list], names: set[str]) -> float:
    """Seconds spent inside spans of ``names``, counting nested ones once."""
    return sum(span[END] - span[START] for span in _outermost(spans, names)) / 1e9


def layer_metrics(tracer: Tracer) -> dict[str, float | int]:
    """Reduce the recorded spans to the per-layer metrics of the benchmark."""
    spans = tracer.spans
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list] = {}
    for span in spans:
        name, duration = span[NAME], span[END] - span[START]
        self_ns[name] = self_ns.get(name, 0) + duration
        calls[name] = calls.get(name, 0) + 1
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            self_ns[parent] = self_ns.get(parent, 0) - duration
        if span[NOTE] is not None:
            notes.setdefault(name, []).append(span[NOTE])

    def self_s(prefix: str) -> float:
        return sum(t for n, t in self_ns.items() if n == prefix or n.startswith(prefix + ".")) / 1e9

    engine_names = {n for n in tracer.originals if n.startswith("engine.")}
    caches = notes.get("engine.solve_system", [])
    solved = sum(cache.order + 1 for cache in caches)
    # The solve_system note is the SeriesCache, every other one a count.
    returned = sum(
        span[NOTE] if isinstance(span[NOTE], int) else span[NOTE].order + 1
        for span in _outermost(spans, engine_names)
    )
    max_bits = 0
    for cache in caches:
        for table in (cache.c_table, cache.bbar_table):
            for series in table.values():
                for c in series.coeffs:
                    max_bits = max(max_bits, c.numerator.bit_length(), c.denominator.bit_length())
    enumerate_codes = tracer.originals["oracle.enumerate_coding_trees"]
    oracle_scales = set(notes.get("oracle.orbit_count", []) + notes.get("oracle.fixed_count", []))

    return {
        "series.mul.self_s": self_s("series.mul"),
        "series.mul.calls": calls.get("series.mul", 0),
        "series.mul.coeff_pairs": sum(notes.get("series.mul", [])),
        "series.exp_series.self_s": self_s("series.exp_series"),
        "series.exp_series.calls": calls.get("series.exp_series", 0),
        "engine.solve_system.self_s": self_s("engine.solve_system"),
        "engine.solve_system.calls": calls.get("engine.solve_system", 0),
        "engine.cycle_types": sum(len(cache.c_table) for cache in caches),
        "engine.solve_degrees": sum(cache.order for cache in caches),
        "engine.max_coeff_bits": max_bits,
        "engine.aggregate_s": _outermost_time(
            spans, {"engine.compute_B", "engine.compute_C", "engine.compute_E"}
        ),
        "engine.compute_B_lambda.calls": calls.get("engine.compute_B_lambda", 0),
        "engine.count_ktrees.calls": calls.get("engine.count_ktrees", 0),
        "engine.coeffs_used_ratio": returned / solved if solved else 0.0,
        "closedforms.s": _outermost_time(
            spans, {n for n in tracer.originals if n.startswith("closedforms.")}
        ),
        "oracle.orbit_count.s": _outermost_time(spans, {"oracle.orbit_count"}),
        "oracle.fixed_count.s": _outermost_time(spans, {"oracle.fixed_count"}),
        "oracle.codes": sum(len(enumerate_codes(k, n)) for k, n in oracle_scales),
        "partitions.self_s": self_s("partitions"),
        "partitions.cycle_power.calls": calls.get("partitions.cycle_power", 0),
        "cli.main.self_s": self_s("cli.main"),
    }

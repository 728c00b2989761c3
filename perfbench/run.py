"""Benchmark of the ktrees CLI: time to solution on fixed exact queries.

Usage:
    python3 perfbench/run.py --workload {deep,wide,verify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its ``src``.  Standard library only.

A run is a closed loop of samples, one at a time, for ``--seconds``.  Each
sample is a fresh interpreter (sample.py) that imports ``ktrees.cli`` and
calls ``main(argv)`` once, because the oracle's caches last for the life of
a process and every CLI user pays them cold.  A sample is started only if
the slowest one so far would still end within the budget; the first always
runs.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` of the
samples (``main`` called to returned), the median ``setup_s`` (interpreter
start until ``ktrees.cli`` is imported, also taken from extra import-only
samples), and the median ``peak_rss_mb``.  ``--trace 1`` alternates traced
and untraced samples and reports the per-layer metrics of spans.py, medians
over the traced samples, plus ``trace.overhead_s``: traced minus untraced
median ``wall_s``, both unscaled (see below).  The sample count is ``attempted``; no percentile above
the median is reported, since no run holds ten samples beyond one.

The times are scaled to a reference host speed.  Every sample measures the
host's speed with sample.py's speed probe, and its times are multiplied by
REFERENCE_PROBE_S over its mean probe time before the medians are taken.
Traced samples are not probed, since the probe would land inside their
spans, so per-layer times and ``trace.overhead_s`` are not scaled.  The unscaled medians are kept in the run
record.

The workload's inputs are fixed; ``--seed`` only orders the samples (where
the set-up samples fall, and whether a traced or an untraced sample comes
first).  Every sample's output is checked (workloads.py), every sample must
have its own pid, and the host, the seed, the schedule and each sample are
written to ``perfbench/out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
OUT_DIR = HERE / "out"

# Import-only samples run next to each full sample, so set-up time is a
# median of many cheap measurements.
SETUPS_PER_SAMPLE = 4
# Reported times are in seconds on a host where sample.py's speed probe
# takes this long: each sample's times are scaled by this over its own mean
# probe time.  It is about the probe's mean on the 2-core Xeon host where
# the benchmark was written.
REFERENCE_PROBE_S = 0.0022
# Every sample is killed once the run has lasted this long, so the run
# always ends within the 180 s a run may take.
HARD_LIMIT_S = 170.0


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def host_facts() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_sample(kind: str, argv: tuple[str, ...], spans_file: str, timeout: float) -> dict:
    """Spawn one sample process and return its record (``problems`` lists
    what went wrong with the process itself)."""
    spawned_ns = _monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(SAMPLE), kind, str(ROOT), spans_file, *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"kind": kind, "pid": proc.pid, "problems": [f"killed after {timeout:.0f} s"]}
    finished_ns = _monotonic_ns()
    record = {"kind": kind, "pid": proc.pid, "elapsed_s": (finished_ns - spawned_ns) / 1e9}
    lines = stdout.splitlines()
    try:
        reported = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["problems"] = [f"sample exited {proc.returncode}: {stderr.strip()[-500:]}"]
        return record
    record.update(reported)
    record["setup_s"] = (reported.pop("ready_ns") - spawned_ns) / 1e9
    record["problems"] = []
    if proc.returncode != 0:
        record["problems"].append(f"sample exited {proc.returncode}: {stderr.strip()[-500:]}")
    if reported["pid"] != proc.pid:
        record["problems"].append(f"reported pid {reported['pid']} != spawned pid {proc.pid}")
    if reported.get("error"):
        record["problems"].append(reported["error"].strip().splitlines()[-1])
    return record


def plan(trace: bool, rng: random.Random):
    """Yield sample kinds in run order; the seed picks the interleaving.

    Full samples ("plain" or "traced") come from an endless cycle, so the
    caller stops when the time budget is spent; set-up samples are cheap
    and always run."""
    if trace:
        pair = ["traced", "plain"]
        rng.shuffle(pair)
        while True:
            yield from pair
    while True:
        setups_first = rng.random() < 0.5
        if setups_first:
            yield from ["setup"] * SETUPS_PER_SAMPLE
        yield "plain"
        if not setups_first:
            yield from ["setup"] * SETUPS_PER_SAMPLE


def collect(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run samples of workload ``name`` until the time budget is spent."""
    argv = workloads.WORKLOADS[name].argv
    rng = random.Random(seed)
    start = time.monotonic()
    slowest = {"plain": 0.0, "traced": 0.0}
    samples: list[dict] = []
    for kind in plan(trace, rng):
        elapsed = time.monotonic() - start
        if kind != "setup":
            needed = {"traced", "plain"} if trace else {"plain"}
            mandatory = not needed <= {s["kind"] for s in samples}
            if not mandatory and elapsed + 1.05 * slowest[kind] > seconds:
                break
        spans_file = "-"
        if kind == "traced":
            spans_file = str(OUT_DIR / f"{name}-seed{seed}-sample{len(samples)}.spans.tsv")
        sample = run_sample(kind, argv, spans_file, HARD_LIMIT_S - elapsed)
        samples.append(sample)
        if kind != "setup":
            slowest[kind] = max(slowest[kind], sample.get("elapsed_s", HARD_LIMIT_S))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ktrees" / "cli.py").is_file():
        print(f"error: no ktrees source at {ROOT / 'src' / 'ktrees'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(ROOT / "src"))
    references = workloads.reference_rows()
    OUT_DIR.mkdir(exist_ok=True)

    loadavg_start = _read("/proc/loadavg").strip()
    samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    loadavg_end = _read("/proc/loadavg").strip()

    pids = [s["pid"] for s in samples]
    if len(set(pids)) != len(pids):
        print(f"error: samples share a process: pids {pids}", file=sys.stderr)
        return 1
    full = [s for s in samples if s["kind"] != "setup"]
    for s in full:
        if "stdout" in s:
            s["problems"] += workloads.check_output(
                args.workload, s["exit_code"], s.pop("stdout"), references
            )
    failed = sum(1 for s in full if s["problems"])
    setup_problems = [p for s in samples if s["kind"] == "setup" for p in s["problems"]]
    if setup_problems:
        print(f"error: import-only sample failed: {setup_problems[0]}", file=sys.stderr)
        return 1

    def median_of(key: str, *kinds: str, scaled: bool = True) -> float:
        values = [
            s[key] * (REFERENCE_PROBE_S / s["probe_s"] if scaled else 1.0)
            for s in samples
            if s["kind"] in kinds and key in s
        ]
        if not values:
            raise SystemExit(f"error: no {' or '.join(kinds)} sample completed")
        return statistics.median(values)

    if args.trace:
        layers = [s["layers"] for s in full if "layers" in s]
        if not layers:
            raise SystemExit("error: no traced sample completed")
        values = {key: statistics.median(l[key] for l in layers) for key in layers[0]}
        values["trace.overhead_s"] = median_of("wall_s", "traced", scaled=False) - median_of(
            "wall_s", "plain", scaled=False
        )
    else:
        values = {
            "wall_s": median_of("wall_s", "plain"),
            "setup_s": median_of("setup_s", "setup", "plain"),
            "peak_rss_mb": median_of("peak_rss_mb", "plain", scaled=False),
        }
    if set(values) != set(wanted):
        raise SystemExit(f"error: measured {sorted(values)} but BENCHMARK.json declares {wanted}")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in wanted}

    record = {
        "workload": args.workload,
        "argv": list(workloads.WORKLOADS[args.workload].argv),
        "why": workloads.WORKLOADS[args.workload].why,
        "layer_moves": workloads.LAYER_MOVES,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "loadavg_start": loadavg_start,
        "loadavg_end": loadavg_end,
        "samples": samples,
        "failed_frac": failed / len(full),
        "unscaled_wall_s": median_of("wall_s", "plain", scaled=False),
        "unscaled_setup_s": median_of("setup_s", "setup", "plain", scaled=False),
        "metrics": metrics,
    }
    record_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    for s in full:
        status = "ok" if not s["problems"] else "FAILED: " + "; ".join(s["problems"])
        print(f"# {s['kind']} pid {s['pid']} wall_s {s.get('wall_s', float('nan')):.3f} {status}")
    print(f"# failed_frac {failed}/{len(full)}, {len(samples) - len(full)} set-up samples,"
          f" loadavg {loadavg_start} -> {loadavg_end}; record in {record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(full),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

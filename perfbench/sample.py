"""One benchmark sample: a fresh interpreter runs the ktrees CLI once.

Usage: python -I sample.py {setup|plain|traced} ROOT SPANS_FILE [CLI ARGS...]

The oracle's ``lru_cache``s live as long as the process, and every CLI user
pays them cold, so each sample is its own process.  The sample imports
``ktrees.cli`` from ROOT/src and notes the monotonic clock (the parent
started its clock just before spawning us, so the difference is set-up
time).  A ``setup`` sample stops there.  The others call
``ktrees.cli.main`` once with stdout captured; a ``traced`` sample first
wraps the ktrees layers (spans.py) and, once ``main`` has returned, writes
its spans to SPANS_FILE.  Untraced samples end with SPEED_PROBES firings
of the speed probe.  The result is one JSON line on the real stdout.
"""

import gc
import sys
import time

SPEED_PROBES = 5
PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Times a fixed piece of interpreter work, to measure the host's speed.

    The host is shared: the same query in a fresh process takes up to a
    third longer from one minute to the next, and that drift would swamp
    any change in the program.  The probe slows down with it, so run.py
    divides it out.  The work is exact rational arithmetic like the
    engine's; a probe of plain integer loops tracked the drift less well.
    Used as a context manager, it also fires from a SIGALRM handler every
    PROBE_INTERVAL_S, so that it sees the same moments as the code it
    interrupts; ``during_s`` is the time those firings took.

    The cyclic garbage collector is off while the probe runs, so that a
    collection the program's heap makes due never lands in the probe."""

    def __init__(self) -> None:
        self.durations_ns: list[int] = []
        self.during_s = 0.0

    def fire(self, *_signal) -> None:
        from fractions import Fraction

        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        # A miniature of the engine's arithmetic: a truncated product of
        # two 24-term rational series, then a 119-term harmonic sum.
        f = [Fraction(1, j) for j in range(1, 25)]
        g = [Fraction(j, j + 1) for j in range(1, 25)]
        product = [Fraction(0)] * 24
        for i in range(24):
            for j in range(24 - i):
                product[i + j] += f[i] * g[j]
        x = Fraction(0)
        for j in range(1, 120):
            x += Fraction(1, j)
        end = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.durations_ns.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        import signal

        signal.signal(signal.SIGALRM, self.fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.during_s = sum(self.durations_ns) / 1e9

    def mean_s(self) -> float:
        return sum(self.durations_ns) / len(self.durations_ns) / 1e9


def peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM).  ``ru_maxrss`` is
    not used: it keeps the parent's resident set at fork time across exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    kind, root, spans_file, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, root + "/src")
    import ktrees.cli as cli

    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    # Only what the timed call needs is imported before it, so that the
    # peak RSS is the program's own.
    import contextlib
    import io
    import os

    source = os.path.realpath(cli.__file__)
    if not source.startswith(os.path.realpath(root + "/src") + os.sep):
        print(f"ktrees.cli was imported from {source}, not from {root}/src", file=sys.stderr)
        return 2
    record = {"pid": os.getpid(), "ready_ns": ready_ns}
    probe = SpeedProbe()
    if kind != "setup":
        tracer = None
        if kind == "traced":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import spans

            tracer = spans.Tracer()
            tracer.install()
        # The probe would run inside the spans, so a traced sample is not
        # probed; its times are reported unscaled.
        interrupts = probe if kind == "plain" else contextlib.nullcontext()
        out = io.StringIO()
        exit_code, error = None, ""
        with contextlib.redirect_stdout(out), interrupts:
            start_ns = time.perf_counter_ns()
            try:
                exit_code = cli.main(cli_argv)
            except SystemExit as exc:
                exit_code = exc.code
            except Exception:
                import traceback

                error = traceback.format_exc()
            end_ns = time.perf_counter_ns()
        record.update(
            wall_s=(end_ns - start_ns) / 1e9 - probe.during_s,
            peak_rss_mb=peak_rss_mb(),
            exit_code=exit_code,
            error=error,
            stdout=out.getvalue(),
        )
        if tracer is not None:
            record["layers"] = spans.layer_metrics(tracer)
            tracer.write(spans_file, start_ns)
    if kind != "traced":
        for _ in range(SPEED_PROBES):
            probe.fire()
        record["probe_s"] = probe.mean_s()
        record["probes"] = len(probe.durations_ns)
    import json

    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

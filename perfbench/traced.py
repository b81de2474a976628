"""Run `mzkick.cli.main(argv)` in this process, optionally with layer spans.

Usage: python traced.py RESULT_JSON TRACE(0|1) -- ARGV...

With TRACE=1 the public mzkick functions are wrapped where the CLI sees them:
every mzkick function imported into `mzkick.cli`, plus `shift` and
`mean_momentum` as `mzkick.weak_measurement` sees them. Each call records a
span [name, start, end, parent]; spans and boundary counts stay in memory and
are written to RESULT_JSON, with the import and main() wall times, only after
main() returns. TRACE=0 runs the same path without wrappers, which gives the
untraced time the tracing overhead is measured against.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1]]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced


def _count_records(tracer: Tracer, args, result) -> None:
    tracer.count("ensemble.records", len(result))


def _count_csv_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("ensemble.csv_bytes", os.path.getsize(args[1]))


def _count_fft_points(tracer: Tracer, args, result) -> None:
    # Computed, not measured: a nonzero shift runs one forward and one
    # inverse FFT of grid.n points; a zero shift returns its input unchanged.
    state, kick = args[0], args[1]
    if kick != 0.0:
        tracer.count("pointer.fft_points", 2 * state.grid.n)


COUNTERS = {
    "ensemble.sample_runs": _count_records,
    "ensemble.write_records_csv": _count_csv_bytes,
    "pointer.shift": _count_fft_points,
}


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def install(tracer: Tracer, cli, weak_measurement) -> None:
    """Replace the traced functions at their import sites with span recorders."""
    sites = [
        (cli, name)
        for name, obj in vars(cli).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("mzkick.")
        and obj.__module__ != cli.__name__
    ]
    sites += [(weak_measurement, "shift"), (weak_measurement, "mean_momentum")]
    for module, attr in sites:
        fn = getattr(module, attr)
        name = f"{layer_of(fn)}.{fn.__name__}"
        setattr(module, attr, tracer.wrap(fn, name, COUNTERS.get(name)))


def main(args: list[str]) -> int:
    result_path, trace = args[0], args[1] == "1"
    argv = args[args.index("--") + 1:]
    start = time.perf_counter()
    import mzkick.cli as cli
    import mzkick.weak_measurement as weak_measurement

    imported = time.perf_counter()
    tracer = Tracer()
    run = cli.main
    if trace:
        install(tracer, cli, weak_measurement)
        run = tracer.wrap(cli.main, ROOT_SPAN)
    begin = time.perf_counter()
    rc = run(argv)
    end = time.perf_counter()
    sys.stdout.flush()
    with open(result_path, "w") as f:
        json.dump(
            {
                "exit_code": rc,
                "import_s": imported - start,
                "main_s": end - begin,
                "spans": tracer.spans,
                "counts": tracer.counts,
            },
            f,
        )
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""One switchcap CLI request in a fresh interpreter, as a user runs it.

Usage: ``python child.py MODE SPANS_PATH REQUEST_ID [CLI ARGS...]`` with the
package's ``src`` directory on ``PYTHONPATH``.  MODE is ``probe`` (import
only, to time set-up), ``plain`` (one untraced request) or ``traced`` (one
request with a span recorded at every layer boundary, written to SPANS_PATH
under REQUEST_ID).

The last line of standard output is a JSON record: the CLOCK_MONOTONIC
time at which ``switchcap.cli`` had been imported, the request's duration
from the call into ``switchcap.cli.main`` to its return, its exit code and
captured output, the peak resident memory of this process and the BLAS
thread count in effect.  Only ``sys``, ``time``, ``signal`` and
``contextlib`` are imported before the package, which imports them itself, so
the import time is what a user's own start-up pays.

The record also holds ``loop_rate``, how many times per second this process
ran a fixed reference loop, averaged over timings taken after the
import, every ``SAMPLE_INTERVAL_S`` during the request (from a timer signal)
and after it; and ``calibration_spent_s``, the time those timings took, which
is left out of ``request_s``.  The runner uses the rate to scale times to a
reference host speed: the host is shared, and the speed it gives a process
drifts by tens of percent within seconds and over minutes.
"""

import contextlib
import signal
import sys
import time

# The reference loop does Python integer arithmetic and then numpy rotations
# of two short complex vectors, the two kinds of work the package's requests
# are made of.  Nothing the package does changes its cost: only the speed the
# host gives this process.  One pass takes about 2 ms on a 2-vCPU cloud VM.
LOOP_ITERATIONS = 15_000
LOOP_ROTATIONS = 100
LOOP_VECTOR_LENGTH = 48
# Passes timed right after the import and right after the request.
EDGE_PASSES = 5
# While a request runs, one pass is timed per interval.
SAMPLE_INTERVAL_S = 0.2


class SpeedProbe:
    """Rates of the reference loop, in passes per second, sampled in this process."""

    def __init__(self) -> None:
        import numpy as np

        self.rates: list[float] = []
        self.spent_s = 0.0
        self.vectors = np.ones((2, LOOP_VECTOR_LENGTH), dtype=complex)
        self.phase = np.exp(0.3j)

    def sample(self, *_signal_args) -> None:
        began = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i
        v, w = self.vectors
        for _ in range(LOOP_ROTATIONS):
            # A unitary rotation, so the vectors keep their norm.
            x, y = v.copy(), w.copy()
            v = 0.6 * x + 0.8 * self.phase * y
            w = -0.8 * x + 0.6 * self.phase * y
        took = time.perf_counter() - began
        self.rates.append(1.0 / took)
        self.spent_s += took

    def edge(self) -> None:
        for _ in range(EDGE_PASSES):
            self.sample()

    @contextlib.contextmanager
    def during(self):
        """Sample once per ``SAMPLE_INTERVAL_S`` from SIGALRM while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def rate(self) -> float:
        return sum(self.rates) / len(self.rates)


def main(argv: list[str]) -> int:
    mode, spans_path, request_id, cli_argv = argv[0], argv[1], int(argv[2]), argv[3:]
    import switchcap.cli

    ready_ns = time.monotonic_ns()

    import io
    import json
    import resource

    record = {"ready_ns": ready_ns}
    probe = SpeedProbe()
    probe.edge()
    if mode != "probe":
        tracer = None
        # Traced requests are not sampled, so no span covers a sample.
        sampling = contextlib.nullcontext()
        if mode == "traced":
            from spans import Tracer

            tracer = Tracer(request_id)
            tracer.install()
        else:
            sampling = probe.during()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            spent_before = probe.spent_s
            with sampling:
                started = time.perf_counter_ns()
                rc = switchcap.cli.main(cli_argv)
                stopped = time.perf_counter_ns()
            sampled_s = probe.spent_s - spent_before
        probe.edge()
        if tracer is not None:
            tracer.save(spans_path)
        record.update(
            rc=rc,
            request_s=(stopped - started) / 1e9 - sampled_s,
            stdout=out.getvalue(),
            stderr=err.getvalue(),
        )
    record["loop_rate"] = probe.rate()
    record["calibration_spent_s"] = probe.spent_s
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["blas_threads"] = blas_threads()
    print(json.dumps(record))
    return 0


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

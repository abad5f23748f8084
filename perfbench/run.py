#!/usr/bin/env python3
"""Benchmark of the switchcap CLI: end-to-end workloads and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload verify-allorders --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One client drives the CLI in a closed loop: each request is a fresh
interpreter running ``switchcap.cli.main(argv)``, and the next starts only
after the previous one has exited, so no in-process state carries over.
Requests are issued until the next one would end past ``--seconds``
(at least one is always made).  Every request passes a correctness gate
(see ``workloads.py``) or counts as failed.

``--trace 0`` prints the end-to-end metrics, measured untraced.  Their
times are scaled to a reference host speed: the host is shared and its speed
drifts by tens of percent over minutes, which would swamp any change to the
program.  Each child times a fixed reference loop (Python integer steps and
numpy rotations of two short vectors) after its import, every 0.2 s during
its request and after it (see ``child.py``); a time measured in
that child is multiplied by its mean loop rate and by ``CALIBRATION_REF_S``.
So a value is the time the request would take on a host where one pass of
the loop takes 2 ms.  The loop does not touch the package, so a change to
the program moves the scaled times as it moves the raw ones; the raw median
is printed on a note line.
``--trace 1`` alternates untraced and traced requests and prints the
per-layer metrics from the traced ones (see ``spans.py``), with the tracing
overhead against the untraced ones.  Per-request values are medians over the
run's requests.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS threads for this process and every child before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The gates compare against switchcap's closed forms.
sys.path.insert(0, str(SRC))

# Set-up is measured this many times per run on import-only interpreters,
# on top of the one sample every request gives.
SETUP_PROBES = 7
# No new request starts once a run has used this much wall time, so a run
# ends well inside three minutes whatever --seconds says.
RUN_LIMIT_S = 150.0
SPANS_FILE = "spans.npz"
# Time of one pass of the reference loop in ``child.SpeedProbe`` on the
# reference host.
CALIBRATION_REF_S = 0.002

END_TO_END = {
    "setup_s": "s",
    "request_s_p50": "s",
    "request_s_tail": "s",
    "cases_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_request(
    argv: list[str], mode: str, env: dict, workdir: Path, timeout: float, request_id: int = 0
) -> dict:
    """Run one child interpreter and return its record, timed from spawn."""
    spans_path = workdir / SPANS_FILE
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(spans_path), str(request_id), *argv]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "rc": None, "wall_s": timeout, "error": "timed out"}
    wall_s = (time.monotonic_ns() - spawned) / 1e9
    try:
        record = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {
            "mode": mode,
            "rc": proc.returncode or -1,
            "wall_s": wall_s,
            "error": (proc.stderr.strip().splitlines() or ["no record"])[-1],
        }
    record.update(
        mode=mode,
        wall_s=wall_s - record["calibration_spent_s"],
        setup_s=(record["ready_ns"] - spawned) / 1e9,
        scale=CALIBRATION_REF_S * record["loop_rate"],
    )
    return record


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, then run the closed loop; returns (request records, setup samples)."""
    env = child_env()
    tmp_root = HERE / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        outdir = workdir / "out"
        outdir.mkdir()
        deadline = time.monotonic() + RUN_LIMIT_S
        gate = workload.gate(seed, outdir)
        argv = workload.argv(seed, outdir)
        probes = [run_request([], "probe", env, workdir, 60) for _ in range(SETUP_PROBES)]
        setup = [scaled(probe, "setup_s") for probe in probes]
        modes = ("plain", "traced") if trace else ("plain",)
        records: list[dict] = []
        iterations: list[float] = []
        started = time.monotonic()
        while True:
            began = time.monotonic()
            for mode in modes:
                record = run_request(
                    argv, mode, env, workdir, max(1.0, deadline - time.monotonic()), len(records)
                )
                if record["rc"] is None or "error" in record:
                    record["problems"] = [str(record["error"])]
                else:
                    record["output_bytes"] = len(record["stdout"].encode()) + sum(
                        f.stat().st_size for f in outdir.iterdir()
                    )
                    record["problems"] = gate.check(record)
                    if mode == "traced":
                        spans_path = workdir / SPANS_FILE
                        record["layers"] = spans.summarize(spans_path)
                        record["sites"] = spans.site_calls(spans_path)
                        spans_path.unlink()
                records.append(record)
            iterations.append(time.monotonic() - began)
            now = time.monotonic()
            typical = statistics.median(iterations)
            if now - started + typical > seconds or now + typical > deadline:
                break
        return records, setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def scaled(record: dict, key: str) -> float:
    """A time from one child, scaled to the reference host speed."""
    return record[key] * record["scale"]


def tail_latency(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, but at least p90.

    From 100 samples on, that percentile is p90 or higher.  With fewer, it
    would fall towards or below the median, so p90 is reported instead,
    interpolated between samples, and the label says how many lie beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 100:
        k = n - 10
        return ordered[k - 1], f"p{100.0 * k / n:.1f} of {n} samples (10 beyond it)"
    if n == 1:
        return ordered[0], "the only sample"
    value = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    beyond = sum(t > value for t in ordered)
    return value, f"p90 of {n} samples, interpolated ({beyond} beyond it, fewer than 10)"


def end_to_end(workload, records: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    plain = [r for r in records if r["mode"] == "plain"]
    measured = [r for r in plain if "scale" in r]
    if not measured:
        # Every request failed; the failures are reported, the times are not.
        return {name: 0.0 for name in END_TO_END}, ["no request returned a record"]
    times = [scaled(r, "request_s") for r in measured]
    wall = sum(scaled(r, "wall_s") for r in measured)
    rss = [r["maxrss_kb"] / 1024 for r in measured]
    raw = [r["request_s"] for r in measured]
    tail, tail_label = tail_latency(times)
    metrics = {
        "setup_s": statistics.median(setup + [scaled(r, "setup_s") for r in measured]),
        "request_s_p50": statistics.median(times),
        "request_s_tail": tail,
        "cases_per_s": len(measured) / wall,
        "points_per_s": len(measured) * workload.points_per_request / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = [
        f"times are scaled to a host where a reference loop pass takes {CALIBRATION_REF_S * 1e3:g} ms;"
        f" here it took {1e3 / statistics.median(r['loop_rate'] for r in measured):.3f} ms"
        f" (median), raw request_s_p50 {statistics.median(raw):.4f} s",
        f"request_s_tail is the {tail_label}",
        "request_s samples (scaled): " + " ".join(f"{t:.4f}" for t in times),
        "request_s samples (raw): " + " ".join(f"{t:.4f}" for t in raw),
        f"setup_s is the median of {len(setup)} import-only probes"
        f" and {len(measured)} requests",
    ]
    return metrics, notes


def per_layer(records: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in records if "layers" in r]
    plain = [r.get("request_s", r["wall_s"]) for r in records if r["mode"] == "plain"]
    metrics = {name: 0.0 for name in spans.METRICS}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["cli.output_bytes"] = statistics.median(r["output_bytes"] for r in traced)
        untraced_s = statistics.median(plain)
        traced_s = statistics.median(r["request_s"] for r in traced)
        metrics["trace.untraced_request_s"] = untraced_s
        metrics["trace.traced_request_s"] = traced_s
        metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced requests; "
        "tracing overhead = traced / untraced median request time - 1",
        "computed from argument shapes: " + ", ".join(spans.COMPUTED),
    ]
    if traced:
        silent = [f"{m}.{a}" for (m, a), c in traced[0]["sites"].items() if c == 0]
        notes.append("import sites with no calls: " + (", ".join(silent) or "none"))
    return metrics, notes


def environment(records: list[dict]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_seen": sorted({r.get("blas_threads") for r in records}, key=str),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    records, setup = measure(workload, seed, seconds, trace)
    if trace:
        values, notes = per_layer(records)
        units = spans.METRICS
    else:
        values, notes = end_to_end(workload, records, setup)
        units = END_TO_END
    failed = sum(1 for r in records if r["problems"])
    info = {"workload": workload.name, "seed": seed, "trace": int(trace)}
    if not workload.seeded:
        info["seed_note"] = f"{workload.name} has no random input; --seed does not change it"
    info.update(environment(records))
    lines = [f"info {json.dumps(info)}"]
    lines += [f"{workload.name} {name} = {values[name]:.6g} {units[name]}" for name in units]
    notes.append(f"failed_share {failed / len(records):.4g} ({failed} of {len(records)} requests)")
    lines += [f"{workload.name} note: {note}" for note in notes]
    for record in records:
        if record["problems"]:
            lines.append(f"{workload.name} FAILED request: {'; '.join(record['problems'])}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "switchcap" / "cli.py").is_file():
        print(f"perfbench: no switchcap sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the ``numsemi`` command line, with a traced mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One operation is one in-process
``numsemi.cli.main(argv)`` call with stdout captured in memory, driven by
one closed-loop client in one thread.  The seed and ``--seconds`` fix the
operation list (``ceil(seconds * ops_per_second)`` distinct argvs, at least
100), so a run does the same work on any host and takes about ``--seconds``
on the reference host.  Every output is checked outside the timed region;
an operation fails on a non-zero exit code or a failed check.

Times are reported at a reference host speed.  The shared host's speed
drifts by 10-40% within seconds to minutes, for the program and for any
other pure-Python code alike, so after every operation (outside its timed
region) the run times a fixed pure-Python loop, the host probe.  Each
latency is multiplied by ``REFERENCE_PROBE_S`` over the median time of the
probes taken within ``PROBE_WINDOW_S`` of it; a host on which the probe takes
``REFERENCE_PROBE_S`` reads its own wall-clock times.  A faster program
reads faster at any host speed, since the probe does not call it.  The
raw wall-clock figures are printed and kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
same operations untraced in a child process, then runs them with every
layer wrapped (see ``spans.py``) and prints the per-layer metrics.
``--workload all`` runs each workload in its own process and prints a
table.  The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's identity.  Full results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from workloads import WORKLOADS, CheckState  # noqa: E402

MIN_OPS = 100  # at least ten latency samples beyond p90
SETUP_REPEATS = 11
CALIB_REPEATS = 5
CHILD_TIMEOUT_S = 170
PROBE_ITERATIONS = 30_000
REFERENCE_PROBE_S = 2.5e-3  # probe time on the 2-core x86-64 reference host
PROBE_WINDOW_S = 4.0  # probes this close to an operation set its host speed


def host_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds a fixed pure-Python loop takes now; it does not call the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median time of a longer probe loop, in ms (host-speed diagnostic)."""
    return statistics.median(host_probe(200_000) for _ in range(CALIB_REPEATS)) * 1e3


def timed_probe() -> tuple[float, float]:
    """(when, seconds) of one host probe."""
    return time.perf_counter(), host_probe()


def at_reference_speed(times: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """Each time scaled to the reference host speed by the median of the
    probes taken within ``PROBE_WINDOW_S`` of it; ``probes[i]`` is the
    ``timed_probe()`` taken right after ``times[i]``."""
    stamps = [at for at, _ in probes]
    scaled = []
    for t, (at, _) in zip(times, probes):
        lo = bisect.bisect_left(stamps, at - PROBE_WINDOW_S)
        hi = bisect.bisect_right(stamps, at + PROBE_WINDOW_S)
        scaled.append(t * REFERENCE_PROBE_S / statistics.median(p for _, p in probes[lo:hi]))
    return scaled


def fresh_import():
    """Import ``numsemi.cli`` from scratch, keeping compiled extensions loaded
    (an extension module cannot be initialised twice in one process)."""
    for name in [n for n in sys.modules if n == "numsemi" or n.startswith("numsemi.")]:
        if not str(getattr(sys.modules[name], "__file__", "")).endswith(".py"):
            continue
        del sys.modules[name]
    return importlib.import_module("numsemi.cli")


def setup(workload, seed: int, count: int):
    """Import the program and generate the inputs, several times; returns
    the median set-up time (raw and at reference speed) with the last
    import and input list."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = fresh_import()
        ops = workload.generate(random.Random(seed), count)
        times.append(time.perf_counter() - t0)
        probes.append(timed_probe())
    scaled = at_reference_speed(times, probes)
    return statistics.median(times), statistics.median(scaled), cli, ops


def run_ops(cli, ops, check, tracer=None):
    """Run every operation once; returns latencies (s), the host probe
    after each operation, failure messages and total output bytes."""
    state = CheckState()
    latencies: list[float] = []
    probes: list[tuple[float, float]] = []
    failures: list[str] = []
    output_bytes = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception:
                err.write(traceback.format_exc())
            latencies.append(time.perf_counter() - t0)
        text = out.getvalue()
        output_bytes += len(text.encode())
        if code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        else:
            try:
                problem = check(op, text, state)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            failures.append(f"{' '.join(op.argv)}: {problem}")
        del text, out
        # each operation starts from a collected heap, like a fresh process
        gc.collect()
        probes.append(timed_probe())
    return latencies, probes, failures, output_bytes


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the program's Python and Cython sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "numsemi").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def identity(args, backend: str) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def untraced_loop_seconds(args) -> float:
    """Timed-loop seconds of the same run without tracing, in a child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced baseline run failed:\n{proc.stderr[-2000:]}")
    run_line = proc.stdout.strip().splitlines()[-2]
    return json.loads(run_line)["run"]["loop_s"]


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    count = max(MIN_OPS, math.ceil(args.seconds * workload.ops_per_second))
    calib_start = calibrate()
    baseline_s = untraced_loop_seconds(args) if args.trace else None

    raw_setup_s, setup_s, cli, ops = setup(workload, args.seed, count)
    import numsemi

    if Path(numsemi.__file__).resolve().parent != SRC / "numsemi":
        print(f"error: imported numsemi from {numsemi.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    raw_latencies, probes, failures, output_bytes = run_ops(cli, ops, workload.check, tracer)
    calib_end = calibrate()
    latencies = at_reference_speed(raw_latencies, probes)
    probe_ms = statistics.median(p for _, p in probes) * 1e3

    attempted = len(latencies)
    failed = len(failures)
    loop_s = sum(latencies)

    def end_to_end(lat: list[float]) -> dict[str, float]:
        return {
            "ops_per_s": (attempted - failed) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        }

    scaled, raw = end_to_end(latencies), end_to_end(raw_latencies)
    metrics: dict[str, tuple[float, str]]
    if tracer is None:
        metrics = {
            "ops_per_s": (scaled["ops_per_s"], "1/s"),
            "op_p50_ms": (scaled["op_p50_ms"], "ms"),
            "op_p90_ms": (scaled["op_p90_ms"], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = (output_bytes, "B")
        metrics["trace.overhead_ratio"] = (loop_s / baseline_s, "ratio")
        metrics["host.calib_ms"] = ((calib_start + calib_end) / 2, "ms")
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.json")

    run = identity(args, numsemi.BACKEND)
    run.update(
        ops=attempted,
        loop_s=loop_s,
        raw={**raw, "setup_s": raw_setup_s, "loop_s": sum(raw_latencies)},
        probe_ms_median=probe_ms,
        error_rate=failed / attempted,
        output_bytes=output_bytes,
        calib_ms_start=calib_start,
        calib_ms_end=calib_end,
        failures=failures[:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"run": {**run, "latencies_s": raw_latencies, "probes": probes}, **result}, fh, indent=2)

    for msg in failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload}: {attempted} ops, {failed} failed, backend {numsemi.BACKEND}, "
          f"host calib {calib_start:.2f}/{calib_end:.2f} ms, "
          f"probe median {probe_ms:.3f} ms (reference {REFERENCE_PROBE_S * 1e3:g})")
    print(f"  wall clock: {raw['ops_per_s']:.4g} ops/s, p50 {raw['op_p50_ms']:.4g} ms, "
          f"p90 {raw['op_p90_ms']:.4g} ms, setup {raw_setup_s:.4g} s")
    for k, (v, u) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {u}")
    if tracer is None:
        # printed but not a gated metric: it is 0 whenever every output checks out
        print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio")
    print(json.dumps({"run": run}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S + 60, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = m
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "numsemi" / "__init__.py").is_file():
        print(f"error: no numsemi sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

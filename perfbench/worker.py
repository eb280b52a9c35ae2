"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports numpy and modeport only after starting, so the parent's
clock from spawn to ``ready`` covers interpreter start, imports, input
generation and one warm-up op.  The last stdout line is a JSON report.

Modes:
  setup  set up and exit (a set-up time sample)
  run    set up, then run ``--seconds`` of ops with tracing off
  trace  set up, then alternate untraced and traced passes over a fixed
         set of ops for ``--seconds``; report per-layer counters
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can compare it with its own.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Op 0 is the warm-up; timed and traced ops start after it, so the warm-up
# never pre-computes a timed op's inputs.
FIRST_OP = 1
# Reference-kernel calls right after set-up, to scale the set-up time.
SETUP_REFERENCE_CALLS = 5


class Failures:
    """Ops that raised or failed verification; a failure never aborts the run."""

    def __init__(self):
        self.count = 0
        self.examples: list[str] = []

    def add(self, index: int, message: str) -> None:
        self.count += 1
        if len(self.examples) < 5:
            self.examples.append(f"op {index}: {message}")


def attempt(workload, index: int, failures: Failures, tracer=None):
    """Run and verify one op; return its (start, end) clock times, or None if it failed."""
    inp = workload.op_input(index)
    try:
        start = time.perf_counter()
        with tracer.op(index) if tracer else nullcontext():
            out = workload.run(inp)
        end = time.perf_counter()
        errors = workload.verify(inp, out)
    except Exception as exc:  # counted as a failed op, never fatal
        failures.add(index, f"{type(exc).__name__}: {exc}")
        return None
    if errors:
        failures.add(index, "; ".join(errors))
        return None
    return start, end


def tail(samples: list[float], block: int) -> tuple[float, float, int]:
    """Tail latency as (value, percentile, number of blocks).

    The run is cut into consecutive blocks of ``block`` ops (a shorter run is
    one block).  Each block gives its highest percentile with at least ten
    samples beyond it, its 11th-largest latency, and the value is the median
    over blocks.  A fixed block size keeps the percentile the same however
    many ops a run completes.  A block under 21 samples gives its median,
    since its tail percentile would fall below the median.
    """
    blocks = [samples[i : i + block] for i in range(0, len(samples) - block + 1, block)]
    blocks = blocks or [samples]
    n = len(blocks[0])
    if n < 21:
        return statistics.median(statistics.median(b) for b in blocks), 50.0, len(blocks)
    value = statistics.median(sorted(b)[n - 11] for b in blocks)
    return value, 100.0 * (n - 10) / n, len(blocks)


def timed_run(workload, seconds: float, failures: Failures, speed) -> dict:
    """Run ops for ``seconds``; times are scaled to the reference host speed.

    ``ops_per_s`` divides the verified ops by the scaled time of every
    attempt, input generation and verification included; the reference
    samples between attempts are left out.  The unscaled wall-clock figures
    are reported beside the scaled ones.
    """
    ops = []  # (start, end) of each verified op
    attempts = []  # (start, end) of each attempt
    index = FIRST_OP
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        speed.sample_due()
        start = time.perf_counter()
        span = attempt(workload, index, failures)
        attempts.append((start, time.perf_counter()))
        if span is not None:
            ops.append(span)
        index += 1
    wall = time.perf_counter() - begin
    speed.sample()  # so the last op has a sample after it
    raw = [end - start for start, end in ops]
    latencies = [(end - start) * speed.factor(start, end) for start, end in ops]
    busy = sum((end - start) * speed.factor(start, end) for start, end in attempts)
    value, pct, blocks = tail(latencies, workload.tail_block) if latencies else (None, None, 0)
    return {
        "attempted": index - FIRST_OP,
        "elapsed_s": wall,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "op_tail_ms": 1e3 * value if latencies else None,
        "op_tail_percentile": pct,
        "op_tail_blocks": blocks,
        "latency_samples": len(latencies),
        "wall_ops_per_s": len(latencies) / wall,
        "wall_op_p50_ms": 1e3 * statistics.median(raw) if raw else None,
        "reference_p50_ms": 1e3 * speed.median_s(),
        "latencies_ms": [1e3 * t for t in latencies],
        "wall_latencies_ms": [1e3 * t for t in raw],
    }


def traced_run(workload, seconds: float, failures: Failures, spans_path: str | None) -> dict:
    from tracer import BYTES_LAYERS, LAYERS, REPEAT_LAYERS, Tracer

    tracer = Tracer()
    indices = range(FIRST_OP, FIRST_OP + workload.trace_ops)

    def one_pass(active) -> float:
        start = time.perf_counter()
        for index in indices:
            attempt(workload, index, failures, active)
        return time.perf_counter() - start

    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(one_pass(None))
        # Repeats are counted within a pass, so every pass counts the same.
        tracer.reset_seen()
        tracer.record_spans = not traced
        with tracer.installed():
            traced.append(one_pass(tracer))
    ops = len(traced) * workload.trace_ops
    metrics = {}
    for layer in list(LAYERS) + ["op"]:
        if layer != "op":
            metrics[f"{layer}.calls_per_op"] = (tracer.calls[layer] / ops, "calls/op")
        metrics[f"{layer}.self_ms_per_op"] = (tracer.self_ns[layer] / 1e6 / ops, "ms/op")
    for layer in BYTES_LAYERS:
        metrics[f"{layer}.bytes"] = (tracer.bytes[layer] / ops, "computed_B/op")
    for layer in REPEAT_LAYERS:
        calls = tracer.calls[layer]
        metrics[f"{layer}.repeat_frac"] = (tracer.repeats[layer] / calls if calls else 0.0, "fraction")
    # Each traced pass is compared with the untraced pass just before it,
    # which ran under nearly the same machine load.
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "fraction")
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "note": "spans of the first traced pass; parent indexes this list, -1 is none",
                    "spans": tracer.spans,
                },
                fh,
            )
    return {
        "attempted": 2 * ops,
        "passes": len(traced),
        "ops_per_pass": workload.trace_ops,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "key_bookkeeping_ms_per_op": tracer.bookkeeping_ns / 1e6 / ops,
        "layer_metrics": metrics,
    }


def metadata(seed: int) -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="file for the first traced pass's spans")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    warmup = Failures()
    attempt(workload, 0, warmup)
    report = {"ready": monotonic(), "warmup_failures": warmup.examples}

    from hostspeed import REFERENCE_S, HostSpeed

    # The parent scales the set-up time by the host speed just after it.
    speed = HostSpeed()
    speed.sample(SETUP_REFERENCE_CALLS)
    report["setup_speed_factor"] = REFERENCE_S / speed.median_s()
    if args.mode != "setup":
        failures = Failures()
        if args.mode == "run":
            report.update(timed_run(workload, args.seconds, failures, speed))
        else:
            report.update(traced_run(workload, args.seconds, failures, args.spans))
        report["failed"] = failures.count
        report["failure_examples"] = failures.examples
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["metadata"] = metadata(args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

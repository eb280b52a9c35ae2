"""Run one workload of the modeport benchmark and print its result.

Run from the repository root:

    python3 perfbench/run.py --workload teleport_corpus --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` of the current directory.  With
``--trace 0`` the result holds the end-to-end metrics, and set-up is
measured in ``SETUP_SAMPLES`` fresh processes (the last one goes on to run
the workload) and reported as their median.  Its times are scaled to a
reference host speed measured as it runs (``hostspeed.py``), because the
speed of a shared host drifts more than a run can average out.  With
``--trace 1`` it holds the per-layer metrics of a traced run.  Lines before
the last are a readable summary; the last line is the JSON result.  The full
report, with run metadata, is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
# The workloads defined in workloads.py; listed here so that a bad name is
# refused before any process starts.
WORKLOAD_NAMES = ("teleport_corpus", "limit_scans", "wide_circuit")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_identity(root: Path) -> dict:
    """Git revision when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def spawn(args, mode: str, env: dict, deadline: float, spans: Path | None = None) -> dict:
    """Run one worker process to completion; return its report plus its set-up time."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_wall_s"] = report["ready"] - started
    report["setup_s"] = report["setup_wall_s"] * report["setup_speed_factor"]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "modeport" / "__init__.py").is_file():
        return fail(f"no modeport sources under {root / 'src'}; run from the repository root")

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One BLAS thread: a second gains about 5% on limit_scans but ties each
    # op to both cores, so host steal on either one slows it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # A traced run reports no setup_s, so it needs no set-up probes.
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn(args, "setup", env, deadline) for _ in range(probes)]
        mode = "trace" if args.trace else "run"
        spans = out_dir / f"spans-{stem}.json" if args.trace else None
        report = spawn(args, mode, env, deadline, spans)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(str(exc))
    setups = [probe["setup_s"] for probe in setups + [report]]

    setup_s = statistics.median(setups)
    attempted = report["attempted"]
    failed = report["failed"]
    correct = failed == 0 and not report["warmup_failures"]
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in report["layer_metrics"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": report["op_p50_ms"] or 0.0, "unit": "ms"},
            "op_tail_ms": {"value": report["op_tail_ms"] or 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }

    full = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": {**report.pop("metadata"), **source_identity(root)},
        "setup_samples_s": setups,
        "failed_ops_frac": failed / attempted if attempted else 1.0,
        "worker": report,
        "metrics": metrics,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(full, indent=1))

    meta = full["metadata"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} python={meta['python']} "
        f"numpy={meta['numpy']} blas={meta['blas']} blas_threads={meta['blas_threads']} "
        f"nproc={meta['nproc']} git={meta['git_revision']} src_sha256={meta['src_sha256'][:12]}"
    )
    print(f"# attempted={attempted} failed={failed} failed_ops_frac={full['failed_ops_frac']:.6g} (fraction)")
    for example in report["failure_examples"] + report["warmup_failures"]:
        print(f"# failure: {example}")
    if args.trace:
        print(f"# passes={report['passes']} ops_per_pass={report['ops_per_pass']}")
    else:
        print(
            f"# op_tail_ms is the median over {report['op_tail_blocks']} block(s) of the "
            f"p{report['op_tail_percentile']:.1f} latency, from {report['latency_samples']} samples"
        )
        print(
            f"# times are scaled to the reference host speed; unscaled: "
            f"wall_ops_per_s={report['wall_ops_per_s']:.6g} wall_op_p50_ms={report['wall_op_p50_ms'] or 0.0:.6g} "
            f"setup_wall_s={report['setup_wall_s']:.6g} reference_p50_ms={report['reference_p50_ms']:.6g}"
        )
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

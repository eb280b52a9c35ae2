"""Batch driver: run protocol executions and limit scans from the command line.

Commands emit JSON (protocol runs, dense coding, selftest) or CSV (scans)
and use exit codes suitable for CI: 0 on success, 1 when an invariant check
fails (with a machine-readable violation list on stderr), 2 on I/O or usage
errors.  Identical configurations, including the seed, produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

import numpy as np

from .fock import BYTES_BUDGET, MAX_REGISTER_DIM
from .hamiltonian import (
    MAX_SWAP_RATIO,
    hardcore_limit_scan,
    reservoir_resolved_rotation,
    rotation_modes,
)
from .protocol import (
    GENERATOR_NAME,
    SUCCESS_STATUS,
    UnknownStateSpec,
    random_spec_corpus,
    run_dense_coding,
    run_teleportation,
)
from .selftest import (
    HARDCORE_RATIOS,
    RESERVOIR_NBARS,
    decoded_exactly,
    is_monotone,
    run_acceptance_suite,
    teleport_violations,
)

MIN_GRID_POINTS = 15  # headroom over the worst Fourier order this circuit family produces


@dataclass
class RunConfig:
    command: str
    theta_prime: float = float(np.pi / 4)
    phi: float = 0.0
    grid_points: int = 16
    shared_reservoir: bool = False
    n: int = 100
    seed: int = 0
    out: str | None = None
    ratios: tuple[float, ...] = HARDCORE_RATIOS
    nbars: tuple[float, ...] = RESERVOIR_NBARS


def _grid_entries(config: RunConfig) -> int:
    """Gridded entries counted for ``config``'s command, which ``--grid`` bounds.

    The three-mode teleport state (dim 8) carries one grid axis per reservoir,
    so M**2 * 8 amplitudes (M * 8 with a shared reservoir); twirling the
    failure branch forms a (M, M, 4, 4) density, twice that.  Dense coding's
    two-mode states are pure on one grid, M * 4 amplitudes; M * 16 is counted.
    """
    m = config.grid_points
    if config.command == "densecoding":
        return 16 * m
    return 8 * m ** (1 if config.shared_reservoir else 2)


def _parse_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# RunConfig field -> (flag, parser of a config-file value or a flag argument).
FIELDS = {
    "theta_prime": ("--theta-prime", float),
    "phi": ("--phi", float),
    "grid_points": ("--grid", int),
    "shared_reservoir": ("--shared-reservoir", _parse_bool),
    "n": ("--n", int),
    "seed": ("--seed", int),
    "out": ("--out", str),
    "ratios": ("--ratios", _parse_list),
    "nbars": ("--nbars", _parse_list),
}

def _read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment, and a leading UTF-8 BOM is dropped."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeport",
        description="mode-entanglement teleportation runs and limit scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, allow_abbrev=False)  # "reservoir --n" is not "--nbars"
        # argparse's own pattern has no exponent, so "--phi -1e3" would read -1e3 as a flag.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--config", default=None, help="flat key = value file")
        for name in COMMANDS[command].fields:
            flag, cast = FIELDS[name]
            if cast is _parse_bool:
                p.add_argument(flag, dest=name, action="store_true", default=None)
            else:
                listed = "comma-separated, ascending" if cast is _parse_list else None
                p.add_argument(flag, dest=name, type=cast, default=None, help=listed)
    return parser


def _refuse(message: str) -> NoReturn:
    """A size or range past what a command can run: one stderr line, exit 2."""
    print(f"modeport: {message}", file=sys.stderr)
    raise SystemExit(2) from None


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Parse flags (and an optional config file; flags win) into a RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    names = COMMANDS[args.command].fields
    file_values: dict[str, str] = {}
    if args.config:
        try:
            file_values = _read_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    unknown = sorted(set(file_values) - set(names))
    if unknown:
        parser.error(
            f"{args.config}: unknown config key {', '.join(map(repr, unknown))} "
            f"for command {args.command!r}"
        )
    values = {}
    for name in names:
        value = getattr(args, name)
        if value is None and name in file_values:
            try:
                value = FIELDS[name][1](file_values[name])
            except ValueError:
                parser.error(f"{args.config}: {name} = {file_values[name]!r} is not a valid value")
        if value is not None:
            values[name] = value
    config = RunConfig(command=args.command, **values)
    if config.grid_points < MIN_GRID_POINTS:
        parser.error(
            f"--grid {config.grid_points} is too coarse; this circuit family "
            f"needs at least {MIN_GRID_POINTS} phase points"
        )
    if config.n < 1:
        parser.error("--n must be at least 1")
    if config.seed < 0:
        parser.error("--seed must be non-negative")
    for name in ("theta_prime", "phi"):
        if not math.isfinite(getattr(config, name)):
            parser.error(f"{FIELDS[name][0]} must be finite")
    for name, listed in (("ratios", config.ratios), ("nbars", config.nbars)):
        if not all(math.isfinite(v) for v in listed):
            parser.error(f"--{name} must be finite")
        if not listed or list(listed) != sorted(listed):
            parser.error(f"--{name} must be a non-empty ascending list")
        if any(v <= 0 for v in listed):
            parser.error(f"--{name} must be positive")
    entries = _grid_entries(config) if "grid_points" in names else 0
    if entries > MAX_REGISTER_DIM:  # refused before allocating
        _refuse(
            f"--grid {config.grid_points}: gridded state counts "
            f"{entries} entries, over {MAX_REGISTER_DIM}"
        )
    counted = config.n * COMMANDS[config.command].run_bytes
    if counted > BYTES_BUDGET:  # refused before the corpus is drawn
        _refuse(f"--n {config.n}: runs count as {counted} bytes, over {BYTES_BUDGET}")
    if config.command == "hardcore" and config.ratios[-1] > MAX_SWAP_RATIO:  # the largest is last
        _refuse(
            f"--ratios {config.ratios[-1]:g}: over {MAX_SWAP_RATIO:.12g}, "
            "where the swap pulse's phases overflow"
        )
    if config.command == "reservoir":  # refused before allocating; the largest nbar is last
        try:
            rotation_modes(config.nbars[-1])
        except ValueError as exc:
            _refuse(f"--nbars {config.nbars[-1]:g}: {exc}")
    return config


def _round12(value):
    """12 significant digits, round-half-even, applied recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _json_text(payload: dict) -> str:
    return json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"


def _run_teleport(config: RunConfig):
    spec = UnknownStateSpec(config.theta_prime, config.phi)
    reservoir_config = "shared" if config.shared_reservoir else "distinct"
    result = run_teleportation(spec, reservoir_config, config.grid_points)
    payload = {
        "spec": {"theta_prime": spec.theta_prime, "phi": spec.phi},
        "reservoirs": {
            "config": reservoir_config,
            "preparation": result.prep_symbol,
            "analysis": result.analysis_symbol,
            "grid_points": config.grid_points,
        },
        "outcomes": [
            {
                "n_a": rec.n_a,
                "n_A": rec.n_A,
                "classification": rec.classification,
                "probability": rec.probability,
                "fidelity_min": rec.fidelity_min,
                "fidelity_mean": rec.fidelity_mean,
            }
            for rec in result.outcomes
        ],
        "success_probability": result.success_probability,
        "ssr_compliant": result.ssr_compliant,
    }
    return _json_text(payload), teleport_violations(result, "teleport")


def _run_sweep(config: RunConfig):
    specs = random_spec_corpus(config.n, config.seed)
    reservoir_config = "shared" if config.shared_reservoir else "distinct"
    runs = []
    violations: list[str] = []
    for i, spec in enumerate(specs):
        result = run_teleportation(spec, reservoir_config, config.grid_points)
        violations += teleport_violations(result, f"sweep[{i}]")
        success = [rec.fidelity_min for rec in result.outcomes if rec.status == SUCCESS_STATUS]
        runs.append(
            {
                "theta_prime": spec.theta_prime,
                "phi": spec.phi,
                "success_probability": result.success_probability,
                "fidelity_min_success": float(np.min(success)),
                "failure_mode_a_distance": result.failure_mode_a_distance,
                "ssr_compliant": result.ssr_compliant,
            }
        )
    # numpy's max and min carry a NaN through, wherever it sits; Python's drop it.
    worst_error = np.max([abs(r["success_probability"] - 0.5) for r in runs])
    worst_fidelity = np.min([r["fidelity_min_success"] for r in runs])
    payload = {
        "command": "sweep",
        "n": config.n,
        "seed": config.seed,
        "generator": GENERATOR_NAME,
        "grid_points": config.grid_points,
        "reservoirs": reservoir_config,
        "runs": runs,
        "aggregate": {
            "max_success_probability_error": float(worst_error),
            # Per-run fidelities can read 1 + 2e-16; the aggregate is clamped at 1.
            "min_success_fidelity": float(np.minimum(1.0, worst_fidelity)),
            "all_ssr_compliant": all(r["ssr_compliant"] for r in runs),
        },
    }
    return _json_text(payload), violations


# command -> (scan, RunConfig field it scans, CSV header, name of the scanned values)
_SCANS = {
    "hardcore": (hardcore_limit_scan, "ratios", "ratio,infidelity", "infidelities"),
    "reservoir": (reservoir_resolved_rotation, "nbars", "nbar,deviation", "deviations"),
}


def _run_scan(config: RunConfig):
    scan, field, header, quantity = _SCANS[config.command]
    rows = scan(list(getattr(config, field)))
    lines = [header] + [f"{x:.12g},{y:.12g}" for x, y in rows]
    ys = [y for _, y in rows]
    violations = [] if is_monotone(ys) else [f"{config.command}: {quantity} not monotone: {ys}"]
    return "\n".join(lines) + "\n", violations


def _run_densecoding(config: RunConfig):
    messages = []
    violations = []
    for message in range(4):
        result = run_dense_coding(message, grid_points=config.grid_points)
        if not decoded_exactly(result):
            violations.append(
                f"densecoding: message {message} decoded as {result.decoded} "
                f"(deterministic={result.deterministic})"
            )
        messages.append(
            {
                "message": message,
                "decoded": result.decoded,
                "deterministic": result.deterministic,
                "min_winning_probability": result.min_winning_probability,
                "outcomes": [
                    {
                        "n_alice": occ[0],
                        "n_bob": occ[1],
                        "mean_probability": outcome.mean_probability,
                    }
                    for occ, outcome in sorted(result.outcomes.items())
                ],
            }
        )
    payload = {
        "command": "densecoding",
        "grid_points": config.grid_points,
        "messages": messages,
    }
    return _json_text(payload), violations


def _run_selftest(config: RunConfig):
    results = run_acceptance_suite(
        n_specs=config.n, seed=config.seed, grid_points=config.grid_points
    )
    for result in results:
        print(result.line())
    violations = [result.line() for result in results if not result.passed]
    payload = {
        "command": "selftest",
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return _json_text(payload), violations


class Command(NamedTuple):
    fields: tuple[str, ...]  # the RunConfig fields it reads: its flags and config-file keys
    run: Callable[[RunConfig], tuple[str, list[str]]]  # -> (artifact text, violations)
    run_bytes: int = 0  # bytes counted per --n run against BYTES_BUDGET


# Bytes per run when --n is checked against BYTES_BUDGET (260 bytes per
# MAX_REGISTER_DIM state, about 1.1 GB).  A sweep keeps one JSON row per run,
# about 2.5 KB (39.4 MB peak at n = 200, 43.8 MB at n = 2,000): n <= 436,207.
# selftest judges each run as it is made and keeps none (43 MB peak at --grid 64
# for n = 20 and n = 400); the 51 KB its per-run records once took stays as its
# count, so n <= 21,299, which bounds run time to about a minute at grid 16.
COMMANDS = {
    "teleport": Command(
        ("theta_prime", "phi", "grid_points", "shared_reservoir", "out"), _run_teleport
    ),
    "sweep": Command(("n", "seed", "grid_points", "shared_reservoir", "out"), _run_sweep, 2_500),
    "hardcore": Command(("ratios", "out"), _run_scan),
    "reservoir": Command(("nbars", "out"), _run_scan),
    "densecoding": Command(("grid_points", "out"), _run_densecoding),
    "selftest": Command(("n", "seed", "grid_points", "out"), _run_selftest, 51_200),
}


def execute_and_report(config: RunConfig) -> int:
    """Run the configured command, write its artifact, return the exit code."""
    text, violations = COMMANDS[config.command].run(config)
    try:
        if config.out:
            Path(config.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"modeport: cannot write output: {exc}", file=sys.stderr)
        return 2
    if violations:
        print(json.dumps({"violations": violations}, indent=2), file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    config = parse_config(argv)
    return execute_and_report(config)


if __name__ == "__main__":
    raise SystemExit(main())

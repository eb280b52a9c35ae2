"""The benchmark's workloads: seeded inputs, one timed op, and its verification.

Every library call goes through an attribute of the ``modeport`` package at
call time (``modeport.run_teleportation(...)``), so the tracer's patches of
the package namespace are seen.  Inputs are made here from the seed; the
library receives only the generated values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import modeport

PINNED = json.loads((Path(__file__).with_name("pinned_limits.json")).read_text())


class TeleportCorpus:
    """One op is a distinct-reservoir teleportation of one corpus spec at grid 16."""

    name = "teleport_corpus"
    chunk = 1000  # specs drawn per corpus chunk
    trace_ops = 200  # ops in one traced pass
    tail_block = 250  # op_tail_ms is the p96 of each block of 250 ops

    def __init__(self, seed: int):
        self.seed = seed
        self._chunk_index = -1
        self._specs: list = []

    def op_input(self, i: int):
        # Chunk k comes from random_spec_corpus with its own derived seed, so a
        # run never wraps around and repeats a spec however fast the op gets.
        k, j = divmod(i, self.chunk)
        if k != self._chunk_index:
            self._chunk_index = k
            self._specs = modeport.random_spec_corpus(self.chunk, self.seed * 2**32 + k)
        return self._specs[j]

    def run(self, spec):
        return modeport.run_teleportation(spec, "distinct", 16)

    def verify(self, spec, result) -> list[str]:
        errors = []
        if abs(result.success_probability - 0.5) > 1e-9:
            errors.append(f"P(success) = {result.success_probability!r}")
        for rec in result.outcomes:
            if rec.status == "success" and rec.fidelity_min < 1.0 - 1e-9:
                errors.append(f"success fidelity {rec.fidelity_min!r} at {(rec.n_a, rec.n_A)}")
        if result.failure_mode_a_distance > 1e-9:
            errors.append(f"failure mode-a distance {result.failure_mode_a_distance!r}")
        if not result.ssr_compliant:
            errors.append("superselection check failed")
        return errors


class LimitScans:
    """One op is the default hard-core scan plus the resolved-reservoir scan at a seeded theta."""

    name = "limit_scans"
    ratios = [1.0, 10.0, 100.0, 1000.0]
    nbars = [4.0, 16.0, 64.0, 256.0]
    trace_ops = 2  # two thetas, so reuse across ops shows in repeat_frac
    # A 40 s run holds about 15 ops, too few for a tail: op_tail_ms is their median.
    tail_block = 100

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._thetas: list[float] = []

    def op_input(self, i: int) -> tuple[float, list[float]]:
        while len(self._thetas) <= i:
            self._thetas.append(float(self._rng.uniform(0.0, 2.0 * math.pi)))
        # The warm-up (op 0) stops at nbar = 16: that pays the first-call costs
        # of eigh and the scans, while leaving out the memory-bound nbar = 256
        # point, whose speed drifts by up to a third with host load and would
        # swamp setup_s.
        return self._thetas[i], self.nbars[:2] if i == 0 else self.nbars

    def run(self, inp):
        theta, nbars = inp
        hard = modeport.hardcore_limit_scan(self.ratios)
        res = modeport.reservoir_resolved_rotation(nbars, theta)
        return hard, res

    def verify(self, inp, result) -> list[str]:
        rel = PINNED["rel_tol"]
        errors = []
        for label, scan, params in (
            ("hardcore", result[0], self.ratios),
            ("reservoir", result[1], inp[1]),
        ):
            if [p for p, _ in scan] != params:
                errors.append(f"{label}: scan points {[p for p, _ in scan]}")
                continue
            values = [v for _, v in scan]
            if any(b > a for a, b in zip(values, values[1:])):
                errors.append(f"{label}: not monotone {values}")
            for p, v in scan:
                want = PINNED[label][repr(p)]
                if not abs(v - want) <= rel * abs(want):
                    errors.append(f"{label}({p}) = {v!r}, pinned {want!r}")
        return errors


@dataclass(frozen=True)
class Circuit:
    labels: tuple[str, ...]
    occupations: tuple[int, ...]
    gates: tuple[tuple, ...]  # (kind, modes, angle, symbol)
    measured: tuple[str, str]
    kept: tuple[str, str]


class WideCircuit:
    """One op is a seeded 24-gate circuit on 6 qubit modes, then measurement and twirl."""

    name = "wide_circuit"
    n_modes = 6
    n_gates = 24
    grid_points = 16
    symbols = ("r1", "r2")
    # Six of each kind; the six rotations split three per symbol, within the
    # seven a 16-point grid averages exactly ((16 - 1) // 2).
    kinds = ("phase", "rotation", "fswap", "hopping")
    trace_ops = 4
    # A 40 s run holds about 180 ops, so blocks of 50 give op_tail_ms as the
    # median of three or four p80s.  Blocks of 100 gave one, and spread more.
    tail_block = 50

    def __init__(self, seed: int):
        self.seed = seed

    def op_input(self, i: int) -> Circuit:
        rng = np.random.Generator(np.random.PCG64([self.seed, i]))
        # Labels are unique per op, so no gate's arguments (register included)
        # ever repeat: this is the no-reuse workload.
        labels = tuple(f"w{i}m{j}" for j in range(self.n_modes))
        occupations = tuple(int(v) for v in rng.integers(0, 2, self.n_modes))
        # Every op has the same gate mix in a seeded order, so op cost varies
        # with order and targets but not with how many gridded gates it has.
        kinds = list(self.kinds) * (self.n_gates // len(self.kinds))
        rotation_symbols = list(self.symbols) * (kinds.count("rotation") // len(self.symbols))
        rng.shuffle(kinds)
        rng.shuffle(rotation_symbols)
        pairs = [(labels[j], labels[k]) for j in range(self.n_modes) for k in range(j + 1, self.n_modes)]
        swaps = iter(pairs[int(p)] for p in rng.permutation(len(pairs)))
        gates: list[tuple] = []
        for kind in kinds:
            if kind == "phase":
                mode = labels[int(rng.integers(self.n_modes))]
                gates.append((kind, (mode,), float(rng.uniform(0.0, 2.0 * math.pi)), None))
            elif kind == "rotation":
                mode = labels[int(rng.integers(self.n_modes))]
                symbol = rotation_symbols.pop()
                gates.append((kind, (mode,), float(rng.uniform(0.0, math.pi / 2.0)), symbol))
            elif kind == "fswap":
                # Each pair is swapped at most once per op.
                gates.append((kind, next(swaps), None, None))
            else:
                j, k = sorted(int(v) for v in rng.choice(self.n_modes, 2, replace=False))
                gates.append((kind, (labels[j], labels[k]), float(rng.uniform(0.0, math.pi)), None))
        order = [labels[int(p)] for p in rng.permutation(self.n_modes)]
        return Circuit(labels, occupations, tuple(gates), tuple(order[:2]), tuple(order[2:4]))

    def run(self, c: Circuit):
        register = modeport.build_register([(label, 2) for label in c.labels])
        grids = {s: modeport.PhaseGrid(s, self.grid_points) for s in self.symbols}
        state = modeport.basis_state(register, c.occupations)
        for kind, modes, angle, symbol in c.gates:
            if kind == "phase":
                gate = modeport.phase_gate(register, modes[0], angle)
            elif kind == "rotation":
                gate = modeport.number_rotation_gate(register, modes[0], angle, grids[symbol])
            elif kind == "fswap":
                gate = modeport.fermionic_swap_gate(register, *modes)
            else:
                gate = modeport.hopping_gate(register, *modes, angle)
            state = modeport.embed_and_apply(state, gate)
        measurement = modeport.measure_number(state, c.measured)
        reports = [
            modeport.ssr_compliance_check(
                modeport.twirl_all(modeport.partial_trace(outcome.state, c.kept))
            )
            for outcome in measurement
        ]
        return state, measurement, reports

    def verify(self, c: Circuit, result) -> list[str]:
        state, measurement, reports = result
        errors = []
        total = sum(outcome.probability for outcome in measurement)
        gap = float(np.abs(total - state.norms() ** 2).max())
        if gap > 1e-10:
            errors.append(f"measurement probabilities miss the state norm by {gap:.3e}")
        for outcome, report in zip(measurement, reports):
            if not (report.compliant and report.max_offblock_norm <= 1e-12):
                errors.append(
                    f"outcome {outcome.occupations}: off-block norm {report.max_offblock_norm:.3e}"
                )
        return errors


WORKLOADS = {cls.name: cls for cls in (TeleportCorpus, LimitScans, WideCircuit)}

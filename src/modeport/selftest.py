"""Acceptance suite: executable checks of every headline protocol claim.

Each criterion is a pure function of the library; :func:`run_acceptance_suite`
evaluates all of them and reports one pass/fail result per criterion.  The
same suite backs the ``selftest`` CLI command and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fock import (
    LinearOperator,
    PhaseGrid,
    QuantumState,
    _require_unitary,
    basis_state,
    build_register,
    embed_and_apply,
    entanglement_entropy,
    from_amplitudes,
    ladder_operator,
)
from .gates import (
    fermionic_swap_gate,
    hopping_gate,
    number_rotation_gate,
    phase_gate,
)
from .hamiltonian import hardcore_limit_scan, reservoir_resolved_rotation
from .protocol import (
    ANALYSIS_RESERVOIR,
    PREP_RESERVOIR,
    SUCCESS_STATUS,
    DenseCodingResult,
    ProtocolResult,
    bell_state_analysis,
    encode_dense_message,
    prepare_entangled_pair,
    random_spec_corpus,
    run_dense_coding,
    run_teleportation,
)
from .reservoir import twirl_state


# Bounds of the teleportation claims (criteria 1-3); criterion 4 is
# reservoir.SSR_ATOL, the bound ssr_compliance_check applies.
P_SUCCESS_TOL = 1e-9  # |P(success) - 1/2|
FIDELITY_TOL = 1e-9  # 1 - per-point success-branch fidelity
MIXED_TOL = 1e-9  # trace distance of the failure-branch mode A from I/2
RANGE_SLACK = 1e-12  # round-off above 1 allowed in a fidelity
MONOTONE_SLACK = 1e-12  # round-off rise allowed between scan points


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({self.detail})"


def teleport_criteria(runs: Iterable[ProtocolResult]) -> list[CriterionResult]:
    """Criteria 1-4, judged on the worst of ``runs``.

    ``runs`` is read once, keeping only running worst values, so a generator
    of runs is judged in constant memory.  ``np.maximum`` and ``np.minimum``
    carry a NaN through, so a NaN in any run fails its criterion.
    """
    n_runs, compliant = 0, True
    worst_p = worst_dist = worst_off = -math.inf
    worst_fid = math.inf
    for r in runs:
        n_runs += 1
        worst_p = float(np.maximum(worst_p, abs(r.success_probability - 0.5)))
        for rec in r.outcomes:
            if rec.status == SUCCESS_STATUS:
                worst_fid = float(np.minimum(worst_fid, rec.fidelity_min))
        worst_dist = float(np.maximum(worst_dist, r.failure_mode_a_distance))
        worst_off = float(np.maximum(worst_off, r.ssr_report.max_offblock_norm))
        compliant = compliant and r.ssr_compliant
    if not n_runs:
        raise ValueError("teleport_criteria needs at least one run")
    return [
        CriterionResult(
            1,
            "teleportation succeeds with probability 1/2",
            worst_p <= P_SUCCESS_TOL,
            f"max |P(success) - 1/2| = {worst_p:.3e} over {n_runs} specs",
        ),
        CriterionResult(
            2,
            "success branches deliver the state with unit fidelity at every phase",
            worst_fid >= 1.0 - FIDELITY_TOL,
            f"min per-point success fidelity = {worst_fid:.12f}",
        ),
        CriterionResult(
            3,
            "failure branch leaves mode A maximally mixed after twirling",
            worst_dist <= MIXED_TOL,
            f"max trace distance from I/2 = {worst_dist:.3e}",
        ),
        CriterionResult(
            4,
            "every twirled terminal state is superselection compliant",
            compliant,
            f"max off-block coherence = {worst_off:.3e}",
        ),
    ]


def teleport_violations(result: ProtocolResult, context: str) -> list[str]:
    """Criteria 1-4 and the probability and fidelity ranges for one run.

    Returns one message per broken check, each prefixed with ``context``;
    an empty list means the run upholds every claim.
    """
    found = [f"{context}: {c.line()}" for c in teleport_criteria([result]) if not c.passed]
    for rec in result.outcomes:
        ranges = {
            "probability": (rec.probability, 1.0),
            "fidelity_min": (rec.fidelity_min, 1.0 + RANGE_SLACK),
            "fidelity_mean": (rec.fidelity_mean, 1.0 + RANGE_SLACK),
        }
        for key, (value, top) in ranges.items():
            if not 0.0 <= value <= top:
                found.append(f"{context}: ({rec.n_a},{rec.n_A}) {key} {value} outside [0, 1]")
    return found


def is_monotone(values: list[float]) -> bool:
    """True when ``values`` never rise by more than round-off (scans fall)."""
    return all(b <= a + MONOTONE_SLACK for a, b in zip(values, values[1:]))


def decoded_exactly(result: DenseCodingResult) -> bool:
    """A dense-coding round trip returns its message at every reservoir phase."""
    return result.deterministic and result.decoded == result.message


def _bell_truth_table(grid_points: int) -> CriterionResult:
    register = build_register([("a", 2), ("A", 2)])
    grid = PhaseGrid(ANALYSIS_RESERVOIR, grid_points)
    root = 1.0 / np.sqrt(2.0)
    cases = {
        "psi_plus": ({(0, 1): root, (1, 0): root}, (0, 0)),
        "psi_minus": ({(0, 1): root, (1, 0): -root}, (0, 1)),
    }
    worst = 0.0
    for amps, expected in cases.values():
        analysis = bell_state_analysis(from_amplitudes(register, amps), grid)
        prob = analysis.measurement.outcome(expected).probability
        worst = max(worst, float(np.abs(prob - 1.0).max()))
    for sign in (+1.0, -1.0):
        state = from_amplitudes(register, {(0, 0): root, (1, 1): sign * root})
        analysis = bell_state_analysis(state, grid)
        total = sum(
            out.probability
            for bell, out in analysis.outcomes
            if bell.n_a == 1
        )
        worst = max(worst, float(np.abs(total - 1.0).max()))
    return CriterionResult(
        5,
        "Bell analysis maps psi+ to (0,0), psi- to (0,1), phi+- to n_a = 1",
        worst <= 1e-12,
        f"max per-point probability deviation = {worst:.3e}",
    )


def _dense_coding_contrast(grid_points: int) -> CriterionResult:
    ok = True
    details = []
    for message in range(4):
        result = run_dense_coding(message, grid_points=grid_points)
        ok = ok and decoded_exactly(result)
        details.append(f"{message}->{result.decoded}")

    # Distinct reservoirs, evaluated with the gate primitives directly: the
    # two-particle (phi-sector) outcome probabilities must depend on the
    # phase difference, so decoding cannot be deterministic.
    encode_grid = PhaseGrid(PREP_RESERVOIR, grid_points)
    analysis_grid = PhaseGrid(ANALYSIS_RESERVOIR, grid_points)
    pair = prepare_entangled_pair()
    encoded = encode_dense_message(pair, 2, "A", encode_grid)
    analysis = bell_state_analysis(encoded, analysis_grid, modes=("A", "B"))
    spreads = [
        float(out.probability.max() - out.probability.min())
        for bell, out in analysis.outcomes
        if bell.n_a == 1
    ]
    spread = max(spreads) if spreads else 0.0
    phase_dependent = spread > 0.5
    return CriterionResult(
        6,
        "dense coding decodes all four messages only with a shared reservoir",
        ok and phase_dependent,
        f"shared: {', '.join(details)}; distinct phi-sector probability "
        f"spread = {spread:.3f}",
    )


# The limit scans' points: criteria 7 and 8, and the CLI's default --ratios and --nbars.
HARDCORE_RATIOS = (1.0, 10.0, 100.0, 1000.0)
RESERVOIR_NBARS = (4.0, 16.0, 64.0, 256.0)

# Criteria 7 and 8: (number, name, limit scan, scanned values, bound on the last value).
_SCAN_CRITERIA = (
    (7, "hard-core swap infidelity is monotone and < 1e-3 at U/J = 1000",
     hardcore_limit_scan, HARDCORE_RATIOS, 1e-3),
    (8, "resolved-reservoir rotation error is monotone and < 0.05 at nbar = 256",
     reservoir_resolved_rotation, RESERVOIR_NBARS, 0.05),
)


def _scan_check(number, name, scan, xs, bound) -> CriterionResult:
    rows = scan(xs)
    ys = [y for _, y in rows]
    detail = ", ".join(f"{x:g}:{y:.3e}" for x, y in rows)
    return CriterionResult(number, name, is_monotone(ys) and ys[-1] < bound, detail)


def _structural_checks(grid_points: int) -> CriterionResult:
    problems = []

    # Splitting two particles over two modes: amplitudes (1/2, sqrt2/2, 1/2)
    # on |20>, |11>, |02> and 1.5 bits of entanglement across the cut.
    register = build_register([("A", 3), ("B", 3)])
    split = LinearOperator(
        register,
        ladder_operator(register, "A", "create").matrix
        + ladder_operator(register, "B", "create").matrix,
    )
    state = basis_state(register, (0, 0))
    state = embed_and_apply(state, split, renormalize=True)
    state = embed_and_apply(state, split, renormalize=True)
    expected = {(2, 0): 0.5, (1, 1): np.sqrt(2.0) / 2.0, (0, 2): 0.5}
    for occ, amp in expected.items():
        got = state.data[register.index_of(occ)]
        if abs(got - amp) > 1e-12:
            problems.append(f"amplitude at {occ}: {got}")
    entropy = float(entanglement_entropy(state, ["A"]))
    if abs(entropy - 1.5) > 1e-9:
        problems.append(f"entropy {entropy}")

    # All gates unitary at every grid point (checked at construction by
    # _require_unitary; its residual is recorded here).
    qubits = build_register([("a", 2), ("A", 2)])
    grid = PhaseGrid(ANALYSIS_RESERVOIR, grid_points)
    gate_dev = 0.0
    for gate in (
        phase_gate(qubits, "a", 0.62),
        number_rotation_gate(qubits, "A", 0.41, grid),
        fermionic_swap_gate(qubits, "a", "A"),
        hopping_gate(qubits, "a", "A", np.pi / 4, convention="raw"),
        hopping_gate(qubits, "a", "A", np.pi / 4, convention="bell"),
    ):
        gate_dev = max(gate_dev, _require_unitary(gate.matrix))

    # Twirl idempotence: re-twirling an already twirled state (re-attached
    # to the same grid as a constant) changes nothing.
    single = build_register([("a", 2)])
    theta = grid.points
    data = np.stack(
        [np.full_like(theta, 1.0 / np.sqrt(2.0), dtype=complex),
         np.exp(1j * theta) / np.sqrt(2.0)],
        axis=-1,
    )
    gridded = QuantumState(single, data, grids=(grid,), fourier_order=(1,))
    once = twirl_state(gridded, grid.symbol)
    reattached = QuantumState(
        single,
        np.broadcast_to(once.data, (grid.n_points,) + once.data.shape).copy(),
        grids=(grid,),
        fourier_order=(0,),
    )
    twice = twirl_state(reattached, grid.symbol)
    twirl_dev = float(np.abs(twice.data - once.data).max())
    if twirl_dev > 1e-12:
        problems.append(f"twirl idempotence residual {twirl_dev:.3e}")

    return CriterionResult(
        9,
        "structural checks: split-pair amplitudes and entropy, gate unitarity, "
        "twirl idempotence",
        not problems,
        "; ".join(problems) if problems else
        f"entropy = {entropy:.9f} bits, unitarity <= {gate_dev:.1e}, "
        f"twirl residual <= {twirl_dev:.1e}",
    )


def run_acceptance_suite(
    n_specs: int = 100, seed: int = 0, grid_points: int = 16
) -> list[CriterionResult]:
    """Evaluate all acceptance criteria; returns one result per criterion."""
    corpus = random_spec_corpus(n_specs, seed)
    results = teleport_criteria(run_teleportation(s, "distinct", grid_points) for s in corpus)
    results.append(_bell_truth_table(grid_points))
    results.append(_dense_coding_contrast(grid_points))
    results.extend(_scan_check(*criterion) for criterion in _SCAN_CRITERIA)
    results.append(_structural_checks(grid_points))
    return results

"""Acceptance suite: executable checks of every headline protocol claim.

Each criterion is a pure function of the library; :func:`run_acceptance_suite`
evaluates all of them and reports one pass/fail result per criterion.  The
same suite backs the ``selftest`` CLI command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    LinearOperator,
    PhaseGrid,
    QuantumState,
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
    SUCCESS_STATUS,
    bell_state_analysis,
    encode_dense_message,
    prepare_entangled_pair,
    random_spec_corpus,
    run_dense_coding,
    run_teleportation,
)
from .reservoir import twirl_state


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({self.detail})"


def _corpus_checks(n_specs: int, seed: int, grid_points: int) -> list[CriterionResult]:
    corpus = random_spec_corpus(n_specs, seed)
    runs = [run_teleportation(spec, "distinct", grid_points) for spec in corpus]

    worst_p = max(abs(r.success_probability - 0.5) for r in runs)
    c1 = CriterionResult(
        1,
        "teleportation succeeds with probability 1/2",
        worst_p <= 1e-9,
        f"max |P(success) - 1/2| = {worst_p:.3e} over {n_specs} specs",
    )

    worst_fid = min(
        rec.fidelity_min
        for r in runs
        for rec in r.outcomes
        if rec.status == SUCCESS_STATUS
    )
    c2 = CriterionResult(
        2,
        "success branches deliver the state with unit fidelity at every phase",
        worst_fid >= 1.0 - 1e-9,
        f"min per-point success fidelity = {worst_fid:.12f}",
    )

    worst_dist = max(r.failure_mode_a_distance for r in runs)
    c3 = CriterionResult(
        3,
        "failure branch leaves mode A maximally mixed after twirling",
        worst_dist <= 1e-9,
        f"max trace distance from I/2 = {worst_dist:.3e}",
    )

    worst_off = max(r.ssr_report.max_offblock_norm for r in runs)
    all_compliant = all(r.ssr_compliant for r in runs)
    c4 = CriterionResult(
        4,
        "every twirled terminal state is superselection compliant",
        all_compliant and worst_off <= 1e-12,
        f"max off-block coherence = {worst_off:.3e}",
    )
    return [c1, c2, c3, c4]


def _bell_truth_table(grid_points: int) -> CriterionResult:
    register = build_register([("a", 2), ("A", 2)])
    grid = PhaseGrid("alice", grid_points)
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
        if not (result.deterministic and result.decoded == message):
            ok = False
        details.append(f"{message}->{result.decoded}")

    # Distinct reservoirs, evaluated with the gate primitives directly: the
    # two-particle (phi-sector) outcome probabilities must depend on the
    # phase difference, so decoding cannot be deterministic.
    register = build_register([("A", 2), ("B", 2)])
    encode_grid = PhaseGrid("charlie", grid_points)
    analysis_grid = PhaseGrid("alice", grid_points)
    pair = prepare_entangled_pair(register)
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


def _hardcore_check() -> CriterionResult:
    scan = hardcore_limit_scan([1.0, 10.0, 100.0, 1000.0])
    infs = [i for _, i in scan]
    monotone = all(b <= a + 1e-12 for a, b in zip(infs, infs[1:]))
    passed = monotone and infs[-1] < 1e-3
    detail = ", ".join(f"{r:g}:{i:.3e}" for r, i in scan)
    return CriterionResult(
        7,
        "hard-core swap infidelity is monotone and < 1e-3 at U/J = 1000",
        passed,
        detail,
    )


def _reservoir_check() -> CriterionResult:
    scan = reservoir_resolved_rotation([4.0, 16.0, 64.0, 256.0])
    devs = [d for _, d in scan]
    monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    passed = monotone and devs[-1] < 0.05
    detail = ", ".join(f"{n:g}:{d:.3e}" for n, d in scan)
    return CriterionResult(
        8,
        "resolved-reservoir rotation error is monotone and < 0.05 at nbar = 256",
        passed,
        detail,
    )


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

    # All gates unitary at every grid point (checked at construction; the
    # explicit residual is recorded here).
    qubits = build_register([("a", 2), ("A", 2)])
    grid = PhaseGrid("alice", grid_points)
    gate_dev = 0.0
    for gate in (
        phase_gate(qubits, "a", 0.62),
        number_rotation_gate(qubits, "A", 0.41, grid),
        fermionic_swap_gate(qubits, "a", "A"),
        hopping_gate(qubits, "a", "A", np.pi / 4, convention="raw"),
        hopping_gate(qubits, "a", "A", np.pi / 4, convention="bell"),
    ):
        prod = np.einsum("...ji,...jk->...ik", gate.matrix.conj(), gate.matrix)
        gate_dev = max(gate_dev, float(np.abs(prod - np.eye(gate.register.dim)).max()))
    if gate_dev > 1e-12:
        problems.append(f"gate unitarity residual {gate_dev:.3e}")

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
    results = _corpus_checks(n_specs, seed, grid_points)
    results.append(_bell_truth_table(grid_points))
    results.append(_dense_coding_contrast(grid_points))
    results.append(_hardcore_check())
    results.append(_reservoir_check())
    results.append(_structural_checks(grid_points))
    return results

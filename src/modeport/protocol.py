"""Teleportation of an unknown spatial-mode qubit state, plus dense coding.

The circuit uses three qubit modes.  A third party rotates mode ``a`` out of
the vacuum into an unknown superposition whose relative phase is tied to a
preparation reservoir; a single particle is split across modes ``A`` and
``B`` to form the shared entangled pair; Bell-state analysis on ``a`` and
``A`` (two reservoir-assisted rotations sandwiching a fermionic swap,
followed by number readout) picks one of four outcomes; a classical message
then selects the correction on mode ``B``.

Finding zero particles in mode ``a`` heralds success and the corrected mode
``B`` carries the unknown state exactly, at every reservoir phase.  Finding
one particle leaves the remaining information hidden in phases correlated
with the analysis reservoir, so once that phase is averaged out no
correction can recover the state: the protocol succeeds exactly half of the
time.  Dense coding on two modes does not suffer this: the encoding phase
and the analysis phase come from the same reservoir and cancel, making all
four messages distinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    PROB_FLOOR,
    MeasurementOutcome,
    MeasurementResult,
    ModeRegister,
    PhaseGrid,
    QuantumState,
    basis_state,
    build_register,
    embed_and_apply,
    fidelity,
    measure_number,
    partial_trace,
    phase_average,
    trace_distance,
)
from .gates import (
    fermionic_swap_gate,
    hopping_gate,
    number_rotation_gate,
    phase_gate,
)
from .reservoir import SsrReport, ssr_compliance_check, twirl_all

PSI_PLUS = "psi_plus"
PSI_MINUS = "psi_minus"
FAILURE = "failure"

SUCCESS_STATUS = "success"
FAILED_STATUS = "failed"

# Phase symbols of the preparation and analysis reservoirs.
PREP_RESERVOIR = "charlie"
ANALYSIS_RESERVOIR = "alice"

# Named pseudo-random bit generator for reproducible preparation corpora.
GENERATOR_NAME = "pcg64"

# Built once: the three-mode register every teleportation run uses, its
# starting state |0>_a |1>_A |0>_B, and the maximally mixed mode-A reference.
# Runs reuse the register's tables and memoized sub-registers.
_TELEPORT_REGISTER = build_register([("a", 2), ("A", 2), ("B", 2)])
_TELEPORT_START = basis_state(_TELEPORT_REGISTER, (0, 1, 0))
_MIXED_MODE_A = QuantumState(_TELEPORT_REGISTER.restricted(["A"]), np.eye(2) / 2.0)


@dataclass(frozen=True)
class UnknownStateSpec:
    """Preparation settings for the unknown single-mode state.

    The prepared state is cos(theta') |0> - i sin(theta') e^{i(theta + phi)}
    |1>, where theta is the preparation reservoir's phase; it is normalized
    by construction.
    """

    theta_prime: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_prime) and math.isfinite(self.phi)):
            raise ValueError("preparation angles must be finite")

    @property
    def alpha(self) -> complex:
        return complex(math.cos(self.theta_prime))

    @property
    def beta(self) -> complex:
        return -1j * math.sin(self.theta_prime)


@dataclass(frozen=True)
class BellOutcome:
    """Number-readout pair (n_a, n_A) with its Bell classification."""

    n_a: int
    n_A: int

    def __post_init__(self):
        if self.n_a not in (0, 1) or self.n_A not in (0, 1):
            raise ValueError("Bell readout occupations must be 0 or 1")

    @property
    def classification(self) -> str:
        if self.n_a == 1:
            return FAILURE
        return PSI_PLUS if self.n_A == 0 else PSI_MINUS


def prepare_unknown_state(
    spec: UnknownStateSpec, grid: PhaseGrid, state: QuantumState | None = None
) -> QuantumState:
    """Rotate mode ``a`` of ``state`` from vacuum into the requested unknown state.

    ``state`` defaults to vacuum on a register holding mode ``a`` alone.
    Applies the reservoir-assisted rotation by theta' and then the bias
    phase phi; the rotation draws its phase from ``grid``.
    """
    if state is None:
        state = basis_state(build_register([("a", 2)]), (0,))
    register = state.register
    state = embed_and_apply(
        state, number_rotation_gate(register, "a", spec.theta_prime, grid)
    )
    return embed_and_apply(state, phase_gate(register, "a", spec.phi))


def unknown_state_target(
    spec: UnknownStateSpec, register: ModeRegister, grid: PhaseGrid
) -> QuantumState:
    """Closed-form prepared state on a single qubit mode, per grid point."""
    if register.n_modes != 1 or register.dims[0] != 2:
        raise ValueError("target register must hold a single qubit mode")
    theta = grid.points
    data = np.empty((grid.n_points, 2), dtype=np.complex128)
    data[:, 0] = spec.alpha
    # Two factors, as the circuit applies them: at large |phi| the sum theta + phi
    # would round the grid phase away.
    data[:, 1] = spec.beta * np.exp(1j * theta) * np.exp(1j * spec.phi)
    return QuantumState(register, data, grids=(grid,), fourier_order=(1,))


def prepare_entangled_pair(state: QuantumState | None = None) -> QuantumState:
    """Split one particle across modes A and B: (|10> + |01>)/sqrt(2).

    ``state`` holds |1>_A |0>_B and may carry other modes; it defaults to
    that state on a register of A and B alone.  A quarter-period tunneling
    pulse in the ``bell`` phase convention produces the symmetric pair exactly.
    """
    if state is None:
        state = basis_state(build_register([("A", 2), ("B", 2)]), (1, 0))
    return embed_and_apply(
        state, hopping_gate(state.register, "A", "B", np.pi / 4, convention="bell")
    )


@dataclass
class BellAnalysisResult:
    """Post-rotation state and classified readout of a Bell-state analysis."""

    state: QuantumState
    measurement: MeasurementResult
    outcomes: list[tuple[BellOutcome, MeasurementOutcome]]


def bell_state_analysis(
    state: QuantumState,
    grid: PhaseGrid,
    modes: tuple[str, str] = ("a", "A"),
) -> BellAnalysisResult:
    """Bell-basis readout of two qubit modes using one analysis reservoir.

    Rotates the second mode by a quarter rotation, applies the fermionic
    swap, rotates both modes back toward the number basis, and measures the
    occupations.  The analysis reservoir may, but need not, coincide with
    the reservoir used during preparation; pass the corresponding grid.
    """
    first, second = modes
    register = state.register
    out = embed_and_apply(
        state, number_rotation_gate(register, second, np.pi / 4, grid)
    )
    out = embed_and_apply(out, fermionic_swap_gate(register, first, second))
    out = embed_and_apply(out, number_rotation_gate(register, first, np.pi / 4, grid))
    out = embed_and_apply(out, number_rotation_gate(register, second, np.pi / 4, grid))
    measurement = measure_number(out, [first, second])
    classified = [(BellOutcome(*o.occupations), o) for o in measurement.outcomes]
    return BellAnalysisResult(state=out, measurement=measurement, outcomes=classified)


def feed_forward(
    outcome: BellOutcome, state_b: QuantumState
) -> tuple[QuantumState, str]:
    """Apply the classically selected correction to mode B.

    psi_plus needs nothing, psi_minus needs the Z phase flip (a plain bias
    pulse, no reservoir).  On failure the state is returned unmodified with
    a failed status: averaged over the unknown analysis phase, no choice
    between the two candidate corrections is possible even in principle.
    """
    if outcome.classification == FAILURE:
        return state_b, FAILED_STATUS
    if outcome.classification == PSI_MINUS:
        if state_b.register.n_modes != 1:
            raise ValueError("feed-forward expects the conditional state of mode B")
        label = state_b.register.labels[0]
        state_b = embed_and_apply(
            state_b, phase_gate(state_b.register, label, np.pi)
        )
    return state_b, SUCCESS_STATUS


@dataclass
class OutcomeRecord:
    """One Bell-readout branch of a teleportation run."""

    n_a: int
    n_A: int
    classification: str
    status: str
    probability: float
    probability_grid: np.ndarray
    fidelity_min: float
    fidelity_mean: float
    state: QuantumState


@dataclass
class ProtocolResult:
    """Full audit of one teleportation run."""

    spec: UnknownStateSpec
    reservoir_config: str
    prep_symbol: str
    analysis_symbol: str
    grid_points: int
    outcomes: list[OutcomeRecord]
    success_probability: float
    failure_mode_a_distance: float
    failure_mode_b: QuantumState
    failure_fidelity_mean: float
    unconditional_b: QuantumState
    ssr_report: SsrReport

    @property
    def ssr_compliant(self) -> bool:
        return self.ssr_report.compliant


def run_teleportation(
    spec: UnknownStateSpec,
    reservoir_config: str = "distinct",
    grid_points: int = 16,
) -> ProtocolResult:
    """Execute preparation, Bell analysis and feed-forward over the grid.

    The preparation reservoir is :data:`PREP_RESERVOIR`.  With
    ``reservoir_config='shared'`` the analysis reuses it (one phase symbol);
    with ``'distinct'`` it uses :data:`ANALYSIS_RESERVOIR`.
    Success branches reproduce the prepared state with unit fidelity at
    every grid point; the failure branch leaves mode A maximally mixed once
    the phases are averaged.
    """
    if reservoir_config not in ("shared", "distinct"):
        raise ValueError(f"unknown reservoir config {reservoir_config!r}")
    prep_grid = PhaseGrid(PREP_RESERVOIR, grid_points)
    analysis_grid = (
        prep_grid if reservoir_config == "shared" else PhaseGrid(ANALYSIS_RESERVOIR, grid_points)
    )

    state = prepare_entangled_pair(prepare_unknown_state(spec, prep_grid, _TELEPORT_START))

    analysis = bell_state_analysis(state, analysis_grid, modes=("a", "A"))
    b_register = _TELEPORT_REGISTER.restricted(["B"])
    target = unknown_state_target(spec, b_register, prep_grid)

    records: list[OutcomeRecord] = []
    success_probability = 0.0
    ssr_states: list[QuantumState] = []
    for bell, outcome in analysis.outcomes:
        corrected, status = feed_forward(bell, outcome.state)
        fid = np.asarray(fidelity(corrected, target))
        valid = outcome.probability > PROB_FLOOR
        kept = fid[valid]
        fid_min = float(kept.min())
        fid_mean = float(kept.sum() / kept.size)  # as np.mean computes it
        ssr_states.append(phase_average(corrected, outcome.probability))
        record = OutcomeRecord(
            n_a=bell.n_a,
            n_A=bell.n_A,
            classification=bell.classification,
            status=status,
            probability=outcome.mean_probability,
            probability_grid=outcome.probability,
            fidelity_min=fid_min,
            fidelity_mean=fid_mean,
            state=corrected,
        )
        records.append(record)
        if status == SUCCESS_STATUS:
            success_probability += record.probability

    # Failure diagnostics condition on mode a alone: mode A is still a
    # quantum system at that point and its phase-averaged state is what the
    # readout of A could at best reveal.
    res_a = measure_number(analysis.state, ["a"])
    fail = res_a.outcome((1,))
    fail_joint = fail.phase_averaged_state()
    fail_mode_a = partial_trace(fail_joint, ["A"])
    fail_distance = float(trace_distance(fail_mode_a, _MIXED_MODE_A))
    fail_mode_b = partial_trace(fail_joint, ["B"])
    fail_fid = float(np.mean(np.asarray(fidelity(target, fail_mode_b))))

    unconditional_b = twirl_all(partial_trace(analysis.state, ["B"]))

    ssr_states.extend([fail_joint, fail_mode_a, fail_mode_b, unconditional_b])
    reports = [ssr_compliance_check(s) for s in ssr_states]
    ssr_report = SsrReport(
        compliant=all(r.compliant for r in reports),
        max_offblock_norm=max(r.max_offblock_norm for r in reports),
    )

    return ProtocolResult(
        spec=spec,
        reservoir_config=reservoir_config,
        prep_symbol=prep_grid.symbol,
        analysis_symbol=analysis_grid.symbol,
        grid_points=grid_points,
        outcomes=records,
        success_probability=success_probability,
        failure_mode_a_distance=fail_distance,
        failure_mode_b=fail_mode_b,
        failure_fidelity_mean=fail_fid,
        unconditional_b=unconditional_b,
        ssr_report=ssr_report,
    )


def random_spec_corpus(n: int, seed: int) -> list[UnknownStateSpec]:
    """Reproducible corpus of preparation settings.

    theta' is uniform on [0, pi/2], phi uniform on [0, 2*pi), drawn from the
    named bit generator (:data:`GENERATOR_NAME`) so corpora are identical
    across platforms for a given seed.
    """
    if n < 1:
        raise ValueError("corpus size must be at least 1")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    theta = rng.uniform(0.0, np.pi / 2.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return [UnknownStateSpec(float(t), float(p)) for t, p in zip(theta, phi)]


# -- dense coding ------------------------------------------------------------

# Readout pair -> message, fixed by the encoding conventions below.
DENSE_DECODE_TABLE = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}


def encode_dense_message(
    state: QuantumState, message: int, mode: str, grid: PhaseGrid
) -> QuantumState:
    """Encode two classical bits on one mode of a shared pair.

    0 leaves the pair alone, 1 applies the Z phase flip, 2 applies the
    reservoir-assisted half rotation (occupation exchange, imprinting
    e^{+-2 i theta} on the two-particle sector), 3 applies both.  The four
    encoded states are mutually orthogonal at every fixed reservoir phase.
    """
    if message not in (0, 1, 2, 3):
        raise ValueError("message must be 0, 1, 2 or 3")
    register = state.register
    out = state
    if message in (2, 3):
        out = embed_and_apply(
            out, number_rotation_gate(register, mode, np.pi / 2, grid)
        )
    if message in (1, 3):
        out = embed_and_apply(out, phase_gate(register, mode, np.pi))
    return out


@dataclass
class DenseCodingResult:
    """Outcome trace of one dense-coding round trip."""

    message: int
    decoded: int
    deterministic: bool
    min_winning_probability: float
    outcomes: dict[tuple[int, int], MeasurementOutcome]


def run_dense_coding(message: int, grid_points: int = 16) -> DenseCodingResult:
    """Encode a two-bit message on a shared pair and decode by Bell analysis.

    Encoding and analysis draw on one reservoir: the two-particle encoded
    states carry its phase, and only analysis pulses from the same reservoir
    pick up the matching phase to cancel it.  With distinct encode and
    analysis reservoirs the imprinted phase has nothing to cancel against,
    the two-particle outcomes stay correlated with the unknowable phase
    difference and decoding becomes phase dependent (selftest criterion 6
    shows this), so only the shared configuration is offered.  Mean outcome
    probabilities are checked against the grid: the encoded state has
    Fourier order up to 4, so ``grid_points`` must be at least 9.
    """
    if message not in (0, 1, 2, 3):
        raise ValueError("message must be 0, 1, 2 or 3")
    grid = PhaseGrid("bec", grid_points)
    pair = prepare_entangled_pair()
    encoded = encode_dense_message(pair, message, "A", grid)
    analysis = bell_state_analysis(encoded, grid, modes=("A", "B"))

    outcomes = {o.occupations: o for o in analysis.measurement.outcomes}
    best_occ = max(outcomes, key=lambda occ: outcomes[occ].mean_probability)
    min_winning = float(np.min(outcomes[best_occ].probability))
    deterministic = min_winning >= 1.0 - 1e-12
    return DenseCodingResult(
        message=message,
        decoded=DENSE_DECODE_TABLE[best_occ],
        deterministic=deterministic,
        min_winning_probability=min_winning,
        outcomes=outcomes,
    )

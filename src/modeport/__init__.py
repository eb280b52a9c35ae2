"""Fock-space simulation of mode-entanglement teleportation.

A single massive particle coherently split over two spatial modes serves as
the entangled resource for teleporting an unknown qubit state of a third
mode.  The particle-number superselection rule is lifted locally by a BEC
phase reference; ignorance of the reference phase is handled by exact phase
grids and twirling.
"""

from .fock import (
    LinearOperator,
    ModeRegister,
    PhaseGrid,
    QuantumState,
    basis_state,
    build_register,
    embed_and_apply,
    entanglement_entropy,
    fidelity,
    from_amplitudes,
    ladder_operator,
    measure_number,
    partial_trace,
    trace_distance,
)
from .gates import (
    fermionic_swap_gate,
    hopping_gate,
    number_rotation_gate,
    number_rotation_matrix,
    phase_gate,
)
from .hamiltonian import (
    HamiltonianParams,
    build_hamiltonian,
    evolve,
    hardcore_limit_scan,
    reservoir_resolved_rotation,
)
from .protocol import (
    BellOutcome,
    DenseCodingResult,
    ProtocolResult,
    UnknownStateSpec,
    bell_state_analysis,
    feed_forward,
    prepare_entangled_pair,
    prepare_unknown_state,
    random_spec_corpus,
    run_dense_coding,
    run_teleportation,
)
from .reservoir import (
    ReservoirSpec,
    SsrReport,
    coherent_state,
    ssr_compliance_check,
    twirl_all,
    twirl_state,
)

__version__ = "0.1.0"

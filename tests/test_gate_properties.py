"""Random gate sequences: against the elementwise embedding oracle, grid point by grid point,
and through measurement, partial trace and twirling."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modeport.fock import (
    NORM_ATOL,
    PhaseGrid,
    QuantumState,
    basis_state,
    build_register,
    embed_and_apply,
    measure_number,
    partial_trace,
)
from modeport.gates import fermionic_swap_gate, hopping_gate, number_rotation_gate, phase_gate
from modeport.reservoir import ssr_compliance_check, twirl_all
from test_fock import naive_embedding

# Not in sorted order, so the state's grid axes (sorted by symbol) differ from draw order.
SYMBOLS = ("zeta", "alpha", "mu")


def qubit_register(n_modes):
    return build_register([(f"m{i}", 2) for i in range(n_modes)])


@lru_cache(maxsize=None)
def entry_map(n_modes, targets):
    """``naive_embedding`` of a matrix of entry labels: 1 + each placed entry's flat index, else 0.

    ``naive_embedding`` only places entries of the small matrix, so the full
    matrix at a grid point is the small matrix there, gathered through this map.
    """
    d = 2 ** len(targets)
    labels = np.arange(1, d * d + 1).reshape(d, d)
    return naive_embedding(qubit_register(n_modes), targets, labels).real.astype(int)


def oracle_matrices(n_modes, targets, small):
    """Full-register matrix per grid point of ``small`` (shape ``(*grid, d, d)``)."""
    index = entry_map(n_modes, targets)
    flat = small.reshape(small.shape[:-2] + (-1,))
    return np.where(index > 0, flat[..., index - 1], 0.0)


@st.composite
def circuits(draw):
    n_modes = draw(st.integers(2, 6))
    points = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    angle = st.floats(0.0, 2.0 * np.pi, allow_nan=False)
    mode = st.integers(0, n_modes - 1).map(lambda m: (m,))
    pair = st.lists(st.integers(0, n_modes - 1), min_size=2, max_size=2, unique=True).map(tuple)
    symbol = st.integers(0, len(points) - 1)
    gate = st.one_of(
        st.tuples(st.just("phase"), mode, angle),
        st.tuples(st.just("rotation"), mode, angle, symbol),
        st.tuples(st.just("fswap"), pair),
        st.tuples(st.just("hopping"), pair, angle, st.sampled_from(["raw", "bell"])),
    )
    # The state starts on at most the first symbol, so a leading rotation on
    # the last one always adds a symbol (to a gridded state when it has one).
    start_gridded = len(points) > 1 and draw(st.booleans())
    first = ("rotation", draw(mode), draw(angle), len(points) - 1)
    gates = [first] + draw(st.lists(gate, max_size=7))
    return n_modes, points, start_gridded, gates, draw(st.integers(0, 2**32 - 1))


def build_gate(register, grids, spec):
    kind, targets, *args = spec
    labels = [f"m{i}" for i in targets]
    if kind == "phase":
        return phase_gate(register, *labels, args[0])
    if kind == "rotation":
        return number_rotation_gate(register, *labels, args[0], grids[args[1]])
    if kind == "fswap":
        return fermionic_swap_gate(register, *labels)
    return hopping_gate(register, *labels, args[0], convention=args[1])


@settings(max_examples=40, deadline=None)
@given(circuit=circuits())
def test_random_gate_sequences_match_oracle_and_keep_norm(circuit):
    n_modes, points, start_gridded, gates, seed = circuit
    rng = np.random.default_rng(seed)
    register = qubit_register(n_modes)
    grids = [PhaseGrid(s, m) for s, m in zip(SYMBOLS, points)]
    start = grids[:1] if start_gridded else []
    psi = rng.standard_normal((*(g.n_points for g in start), register.dim, 2)) @ [1.0, 1j]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    state = QuantumState(register, psi, grids=start, fourier_order=[0] * len(start))
    expected = {(): psi} if not start else {(p,): psi[p] for p in range(start[0].n_points)}

    added_symbol = False
    for spec in gates:
        gate = build_gate(register, grids, spec)
        targets = tuple(f"m{i}" for i in spec[1])
        full = oracle_matrices(n_modes, targets, gate.matrix)
        out = embed_and_apply(state, gate)
        symbols = tuple(sorted(set(state.phase_symbols) | set(gate.phase_symbols)))
        assert out.phase_symbols == symbols
        added_symbol |= len(symbols) > len(state.phase_symbols)

        step = {}
        for point in np.ndindex(*out.grid_shape):
            at = dict(zip(symbols, point))
            before = expected[tuple(at[s] for s in state.phase_symbols)]
            matrix = full[at[gate.phase_symbols[0]]] if gate.grids else full
            step[point] = matrix @ before
            np.testing.assert_allclose(out.data[point], step[point], rtol=0, atol=1e-12)
            assert abs(np.linalg.norm(out.data[point]) - 1.0) <= NORM_ATOL
        state, expected = out, step
    assert added_symbol


@settings(max_examples=30, deadline=None)
@given(circuit=circuits(), data=st.data())
def test_measurement_sums_to_norm_and_twirled_branches_keep_superselection(circuit, data):
    n_modes, points, start_gridded, gates, seed = circuit
    # A number eigenstate start and one grid size for every symbol: shifting
    # all phases by one grid step then only rotates each conditional state by
    # e^{i phi N}, so twirling removes every coherence between sectors.  The
    # grid resolves the largest Fourier order and every number difference.
    rotations = [spec[3] for spec in gates if spec[0] == "rotation"]
    m = max(2 * max(rotations.count(s) for s in rotations) + 1, n_modes + 2)
    register = qubit_register(n_modes)
    grids = [PhaseGrid(s, m) for s in SYMBOLS[: len(points)]]
    state = basis_state(register, np.random.default_rng(seed).integers(0, 2, n_modes))
    if start_gridded:
        constant = np.broadcast_to(state.data, (m, register.dim)).copy()
        state = QuantumState(register, constant, grids=grids[:1], fourier_order=[0])
    for spec in gates:
        state = embed_and_apply(state, build_gate(register, grids, spec))

    labels = list(register.labels)
    measured = data.draw(
        st.lists(st.sampled_from(labels), min_size=1, max_size=n_modes - 1, unique=True)
    )
    rest = [label for label in labels if label not in measured]
    kept = data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
    result = measure_number(state, measured)
    total = sum(outcome.probability for outcome in result)
    np.testing.assert_allclose(total, state.norms() ** 2, rtol=0, atol=1e-12)
    for outcome in result:
        report = ssr_compliance_check(twirl_all(partial_trace(outcome.state, kept)))
        assert report.compliant, (outcome.occupations, report.max_offblock_norm)

"""Random gate sequences: against the elementwise embedding oracle, grid point by grid point,
bit for bit against the targets-last contractions, on density states, and through
measurement, partial trace and twirling."""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeport.fock import (
    NORM_ATOL,
    TRACE_ATOL,
    LinearOperator,
    PhaseGrid,
    QuantumState,
    _expand_axes,
    _modes_last,
    basis_state,
    build_register,
    embed_and_apply,
    measure_number,
    partial_trace,
    phase_average,
)
from modeport.gates import fermionic_swap_gate, hopping_gate, number_rotation_gate, phase_gate
from modeport.hamiltonian import HamiltonianParams, build_hamiltonian, propagator
from modeport.reservoir import ssr_compliance_check, twirl_all, twirl_state
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


# Covers one- and two-mode gates, targets on the first and the last mode, and
# a leading rotation that adds a second symbol to a gridded state.
EDGE_CIRCUIT = (
    3,
    [3, 2],
    True,
    [
        ("rotation", (2,), 0.4, 1),
        ("rotation", (0,), 1.1, 0),
        ("fswap", (0, 2)),
        ("hopping", (2, 0), 0.7, "bell"),
        ("hopping", (1, 2), 2.3, "raw"),
        ("phase", (1,), 2.0),
    ],
    5,
)

# Six modes on three 4-point grids: once both rotations have added their
# symbols, each grid-free gate contracts over 1,024 (two-mode) or 2,048
# (one-mode) columns, past fock.RUN_MIN_COLUMNS, so it is applied run by run.
LONG_CIRCUIT = (
    6,
    [4, 4, 4],
    True,
    [
        ("rotation", (5,), 0.4, 2),
        ("rotation", (0,), 1.1, 1),
        ("fswap", (0, 5)),
        ("hopping", (5, 1), 0.7, "bell"),
        ("hopping", (2, 3), 2.3, "raw"),
        ("phase", (4,), 2.0),
        ("phase", (3,), np.pi),
        ("rotation", (2,), 0.9, 0),
    ],
    11,
)


def random_start(register, grids, rng):
    """Random unit amplitudes per point of ``grids``, with Fourier order 0."""
    psi = rng.standard_normal((*(g.n_points for g in grids), register.dim, 2)) @ [1.0, 1j]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    return QuantumState(register, psi, grids=grids, fourier_order=[0] * len(grids))


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
    state = random_start(register, start, rng)
    psi = state.data
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


def permute_modes(data, dims, order, copies):
    """Reorder the modes inside each of the last ``copies`` basis axes of ``data``.

    Each basis axis is viewed as one axis per mode (sizes ``dims``), the mode
    axes are put in ``order`` and merged back, so the shape is unchanged.
    """
    lead = data.ndim - copies
    n = len(dims)
    split = data.reshape(data.shape[:lead] + tuple(dims) * copies)
    axes = [*range(lead), *(lead + c * n + p for c in range(copies) for p in order)]
    return split.transpose(axes).reshape(data.shape)


def targets_last_apply(state, gate, symbols):
    """Pure-state gate application as one einsum with the gate's modes last."""
    register = state.register
    order = _modes_last(register, gate.register)
    mat = _expand_axes(gate.matrix, gate.phase_symbols, symbols)
    data = _expand_axes(state.data, state.phase_symbols, symbols)
    data = permute_modes(data, register.dims, order, 1)
    data = data.reshape(data.shape[: len(symbols)] + (-1, gate.register.dim))
    out = np.einsum("...ij,...rj->...ri", mat, data)
    out = out.reshape(out.shape[: len(symbols)] + (register.dim,))
    return permute_modes(out, [register.dims[p] for p in order], np.argsort(order), 1)


def targets_last_partial_trace(state, keep):
    """Pure-state partial trace as one einsum with the kept modes last."""
    register = state.register
    sub = register.restricted(keep)
    data = permute_modes(state.data, register.dims, _modes_last(register, sub), 1)
    data = data.reshape(state.grid_shape + (-1, sub.dim))
    return np.einsum("...ri,...rj->...ij", data, data.conj())


@example(circuit=EDGE_CIRCUIT)
@example(circuit=LONG_CIRCUIT)
@settings(max_examples=40, deadline=None)
@given(circuit=circuits())
def test_kernels_match_targets_last_contractions_bit_for_bit(circuit):
    n_modes, points, start_gridded, gates, seed = circuit
    rng = np.random.default_rng(seed)
    register = qubit_register(n_modes)
    grids = [PhaseGrid(s, m) for s, m in zip(SYMBOLS, points)]
    state = random_start(register, grids[:1] if start_gridded else [], rng)
    for spec in gates:
        gate = build_gate(register, grids, spec)
        out = embed_and_apply(state, gate)
        assert out.data.flags.c_contiguous
        # Bytes, so that a -0.0 against a +0.0 counts as a difference.
        expected = targets_last_apply(state, gate, out.phase_symbols)
        assert (out.data.shape, out.data.tobytes()) == (expected.shape, expected.tobytes())
        keep = list(rng.permutation(register.labels)[: rng.integers(1, n_modes + 1)])
        reduced = partial_trace(out, keep)
        assert reduced.data.flags.c_contiguous
        expected = targets_last_partial_trace(out, keep)
        assert (reduced.data.shape, reduced.data.tobytes()) == (expected.shape, expected.tobytes())
        state = out


def shape_and_bytes(array):
    """Shape and C-order bytes, which tell -0.0 from 0.0 where ``np.array_equal`` does not."""
    array = np.ascontiguousarray(array)
    return array.shape, array.tobytes()


def test_gates_keep_a_conditional_states_memory_layout():
    # measure_number gathers each branch along the basis axis, which leaves
    # that axis outermost in memory; later grid means sum in an order that
    # depends on the layout, so gates keep it until they add a grid.
    # The start lacks the basis states |x11> at every point, so the conditional
    # state and every gate's output hold exact zeros, whose signs the byte
    # compares below see.
    register = qubit_register(3)
    zeta, alpha = PhaseGrid("zeta", 4), PhaseGrid("alpha", 3)
    psi = random_start(register, [zeta], np.random.default_rng(3)).data.copy()
    psi[..., [3, 7]] = 0.0
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    state = QuantumState(register, psi, grids=[zeta], fourier_order=[0])
    cond = measure_number(state, ["m0"]).outcome([0]).state
    assert (cond.data[..., 3] == 0).all()
    assert not cond.data.flags.c_contiguous
    sub = cond.register
    for gate in (
        phase_gate(sub, "m1", 0.3),
        phase_gate(sub, "m2", 0.3),
        hopping_gate(sub, "m1", "m2", 0.7),
        number_rotation_gate(sub, "m2", 1.0, zeta),
        number_rotation_gate(sub, "m1", 1.0, alpha),
    ):
        out = embed_and_apply(cond, gate)
        expected = targets_last_apply(cond, gate, out.phase_symbols)
        assert shape_and_bytes(out.data) == shape_and_bytes(expected)
        if gate.grids and gate.grids[0] == alpha:
            assert out.data.flags.c_contiguous
        else:
            assert out.data.strides == cond.data.strides
    # A number-conserving pulse stored as sector blocks takes the dense layout
    # too, so its storage cannot move a twirl's bits.
    bias, hop = HamiltonianParams(e={"m1": 0.4}), HamiltonianParams(hops={("m1", "m2"): 1.3})
    for pulse in (
        propagator(build_hamiltonian(build_register([("m1", 2)]), bias), 0.9),
        propagator(build_hamiltonian(sub, hop), 0.9),
    ):
        out = embed_and_apply(cond, pulse)
        dense = embed_and_apply(cond, LinearOperator(pulse.register, pulse.matrix, kind="unitary"))
        assert out.data.strides == cond.data.strides
        assert shape_and_bytes(out.data) == shape_and_bytes(dense.data)
        assert shape_and_bytes(twirl_all(out).data) == shape_and_bytes(twirl_all(dense).data)


@example(circuit=EDGE_CIRCUIT)
@settings(max_examples=30, deadline=None)
@given(circuit=circuits())
def test_density_gate_sequences_keep_unit_trace_and_follow_their_pure_mixture(circuit):
    n_modes, points, start_gridded, gates, seed = circuit
    rng = np.random.default_rng(seed)
    register = qubit_register(n_modes)
    grids = [PhaseGrid(s, m) for s, m in zip(SYMBOLS, points)]
    start = grids[:1] if start_gridded else []
    pures = [random_start(register, start, rng) for _ in range(2)]
    mixture = 0.5 * (pures[0].density_data() + pures[1].density_data())
    rho = QuantumState(register, mixture, grids=start, fourier_order=[0] * len(start))
    for spec in gates:
        gate = build_gate(register, grids, spec)
        rho = embed_and_apply(rho, gate)
        pures = [embed_and_apply(psi, gate) for psi in pures]
        traces = np.real(np.trace(rho.data, axis1=-2, axis2=-1))
        assert np.abs(traces - 1.0).max() <= TRACE_ATOL
        mixture = 0.5 * (pures[0].density_data() + pures[1].density_data())
        np.testing.assert_allclose(rho.data, mixture, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(circuit=circuits())
def test_twirl_is_the_zero_fourier_mode(circuit):
    n_modes, points, start_gridded, gates, seed = circuit
    rng = np.random.default_rng(seed)
    register = qubit_register(n_modes)
    # Each grid resolves the Fourier order its rotations give the state.
    rotations = [spec[3] for spec in gates if spec[0] == "rotation"]
    sizes = [max(m, 2 * rotations.count(s) + 1) for s, m in enumerate(points)]
    grids = [PhaseGrid(s, m) for s, m in zip(SYMBOLS, sizes)]
    state = random_start(register, grids[:1] if start_gridded else [], rng)
    for spec in gates:
        state = embed_and_apply(state, build_gate(register, grids, spec))
    for axis, grid in enumerate(state.grids):
        spectrum = np.fft.fft(state.density_data(), axis=axis)
        zero_mode = np.take(spectrum, 0, axis=axis) / grid.n_points
        twirled = twirl_state(state, grid.symbol)
        np.testing.assert_allclose(twirled.data, zero_mode, rtol=0, atol=1e-12)
    # One mean over every grid equals twirling the grids one at a time.
    one_at_a_time = state
    for symbol in state.phase_symbols:
        one_at_a_time = twirl_state(one_at_a_time, symbol)
    np.testing.assert_allclose(twirl_all(state).data, one_at_a_time.data, rtol=0, atol=1e-15)


@st.composite
def measured_circuits(draw):
    """A circuit, the modes it measures, and the unmeasured modes it keeps."""
    circuit = draw(circuits())
    labels = [f"m{i}" for i in range(circuit[0])]
    measured = draw(
        st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels) - 1, unique=True)
    )
    rest = [label for label in labels if label not in measured]
    kept = draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
    return circuit, measured, kept


# Branch (0,) has probability 3.1e-33 at some grid points, where its conditional
# state is stored as zero; a uniform twirl of it would have trace 0.75.
@example(
    case=(
        (2, [4, 4], False, [("rotation", (0,), 1.0, 1), ("rotation", (0,), 1.0, 0)], 0),
        ["m0"],
        ["m1"],
    )
)
@settings(max_examples=30, deadline=None)
@given(case=measured_circuits())
def test_measurement_sums_to_norm_and_twirled_branches_keep_superselection(case):
    (n_modes, points, start_gridded, gates, seed), measured, kept = case
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

    result = measure_number(state, measured)
    total = sum(outcome.probability for outcome in result)
    np.testing.assert_allclose(total, state.norms() ** 2, rtol=0, atol=1e-12)
    # Twirl each branch as the protocol does: weighted by its probability per point.
    for outcome in result:
        reduced = partial_trace(outcome.state, kept)
        report = ssr_compliance_check(phase_average(reduced, outcome.probability))
        assert report.compliant, (outcome.occupations, report.max_offblock_norm)

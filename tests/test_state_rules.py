"""The per-grid-point rules of the state layer, bit for bit against reference copies.

Each reference below is the rule as it was written inline, once per caller,
before the callers shared one helper: branch normalisation in
``embed_and_apply(renormalize=True)`` and ``measure_number``, and grid
alignment in ``fidelity`` and ``trace_distance``.  The grid mean is checked
against ``np.mean``, whose sum-then-divide it spells out, and the kept norms
and grid bookkeeping against fresh computations.  Random pure and density
circuits go through both; arrays must match in bytes and memory layout, and
scalars in their hex digits.  The reference measurement gathers its groups by
a plain comparison per outcome, against which the register's readout table
is also checked.  The partial trace, pure and density, and the embedding are
checked against their rules as written with one generic mode permutation.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeport.fock import (
    PROB_FLOOR,
    LinearOperator,
    ModeRegister,
    PhaseGrid,
    QuantumState,
    _clip_spectrum,
    _contract,
    _expand_axes,
    _maybe_scalar,
    _merge_grids,
    _modes_last,
    _psd_sqrt,
    _check_grids,
    basis_state,
    embed_and_apply,
    embed_matrix,
    fidelity,
    ladder_operator,
    measure_number,
    partial_trace,
    phase_average,
    trace_distance,
)
from test_gate_properties import (
    SYMBOLS,
    build_gate,
    circuits,
    measured_circuits,
    permute_modes,
    qubit_register,
    random_start,
)


def reference_renormalized_apply(state, op):
    register = state.register
    grids, orders = _merge_grids(state.grids, state.fourier_order, op.grids, op.fourier_order)
    symbols = tuple(g.symbol for g in grids)
    data = state.data if state.is_pure else np.swapaxes(state.data, -1, -2)
    out = _contract(op, data, register, state.phase_symbols, symbols)
    if not state.is_pure:
        out = _contract(op, np.swapaxes(out, -1, -2), register, symbols, symbols, conj=True)
    if state.is_pure:
        norm = np.sqrt(np.sum(np.abs(out) ** 2, axis=-1, keepdims=True))
        if norm.max() <= PROB_FLOOR:
            raise ValueError("operator annihilated the state everywhere")
        out = np.where(norm > PROB_FLOOR, out / np.maximum(norm, PROB_FLOOR), 0.0)
    else:
        tr = np.real(np.trace(out, axis1=-2, axis2=-1))[..., None, None]
        if tr.max() <= PROB_FLOOR:
            raise ValueError("operator annihilated the state everywhere")
        out = np.where(tr > PROB_FLOOR, out / np.maximum(tr, PROB_FLOOR), 0.0)
    return out


def reference_readout(register, modes):
    """``register.readout(modes)`` by the plain per-outcome rule: one comparison
    of the measured modes' occupations per outcome, without the register's table."""
    positions = [register.position(mode) for mode in modes]
    occupations = list(np.ndindex(*(register.dims[p] for p in positions)))
    measured = register.occupations[:, positions]
    groups = [np.flatnonzero((measured == occ).all(axis=1)) for occ in occupations]
    rest = [label for label in register.labels if label not in modes]
    return (register.restricted(rest) if rest else None), occupations, groups


def reference_measurement(state, modes):
    """(occupations, probability, conditional data or None) per retained outcome."""
    sub_register, occupations, groups = reference_readout(state.register, modes)
    outcomes = []
    for occ_m, group in zip(occupations, groups):
        if state.is_pure:
            sub = state.data[..., group]
            prob = np.sum(np.abs(sub) ** 2, axis=-1)
        else:
            sub = state.data[..., group[:, None], group[None, :]]
            prob = np.real(np.trace(sub, axis1=-2, axis2=-1))
        if prob.max() <= PROB_FLOOR:
            continue
        if sub_register is None:
            cond = None
        elif state.is_pure:
            norm = np.sqrt(prob)[..., None]
            cond = np.where(norm > PROB_FLOOR, sub / np.maximum(norm, PROB_FLOOR), 0.0)
        else:
            p = prob[..., None, None]
            cond = np.where(p > PROB_FLOOR, sub / np.maximum(p, PROB_FLOOR), 0.0)
        outcomes.append((occ_m, prob, cond))
    return outcomes


def reference_symbols(x, y):
    if x.register != y.register:
        raise ValueError("states live on different registers")
    grids, _ = _merge_grids(x.grids, x.fourier_order, y.grids, y.fourier_order)
    return grids, tuple(g.symbol for g in grids)


def reference_fidelity(x, y):
    grids, symbols = reference_symbols(x, y)
    if x.is_pure and y.is_pure:
        xd = _expand_axes(x.data, x.phase_symbols, symbols)
        yd = _expand_axes(y.data, y.phase_symbols, symbols)
        overlap = np.einsum("...i,...i->...", xd.conj(), yd)
        return _maybe_scalar(np.abs(overlap) ** 2, bool(grids))
    if x.is_pure or y.is_pure:
        pure, mixed = (x, y) if x.is_pure else (y, x)
        pd = _expand_axes(pure.data, pure.phase_symbols, symbols)
        md = _expand_axes(mixed.data, mixed.phase_symbols, symbols)
        value = np.real(np.einsum("...i,...ij,...j->...", pd.conj(), md, pd))
        return _maybe_scalar(value, bool(grids))
    xd = _expand_axes(x.data, x.phase_symbols, symbols)
    yd = _expand_axes(y.data, y.phase_symbols, symbols)
    xd, yd = np.broadcast_arrays(xd, yd)
    root = _psd_sqrt(xd)
    inner = root @ yd @ root
    w = np.linalg.eigvalsh(inner)
    value = np.sum(np.sqrt(_clip_spectrum(w)), axis=-1) ** 2
    return _maybe_scalar(value, bool(grids))


def reference_trace_distance(x, y):
    grids, symbols = reference_symbols(x, y)
    xd = _expand_axes(x.density_data(), x.phase_symbols, symbols)
    yd = _expand_axes(y.density_data(), y.phase_symbols, symbols)
    w = np.linalg.eigvalsh(xd - yd)
    return _maybe_scalar(0.5 * np.sum(np.abs(w), axis=-1), bool(grids))


def assert_same_array(got, want):
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def assert_same_value(got, want):
    if isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex()
    else:
        assert_same_array(got, want)


def outcome_of(call):
    """``call()``'s result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


# Branch (0,) has probability 3.1e-33 at some grid points, where it is stored as zero.
@example(
    case=(
        (2, [4, 4], False, [("rotation", (0,), 1.0, 1), ("rotation", (0,), 1.0, 0)], 0),
        ["m0"],
        ["m1"],
    ),
    mixed=False,
    basis_start=True,
)
# The annihilator leaves norm exactly PROB_FLOOR at every grid point: refused as annihilated.
@example(
    case=(
        (
            2,
            [2],
            False,
            [("rotation", (0,), 0.0, 0), ("rotation", (0,), 1e-14, 0), ("phase", (0,), 0.0)],
            1,
        ),
        ["m0"],
        ["m1"],
    ),
    mixed=False,
    basis_start=True,
)
@settings(max_examples=25, deadline=None)
@given(case=measured_circuits(), mixed=st.booleans(), basis_start=st.booleans())
def test_branch_and_metric_rules_match_their_references_bit_for_bit(case, mixed, basis_start):
    (n_modes, points, start_gridded, gates, seed), measured, kept = case
    rng = np.random.default_rng(seed)
    register = qubit_register(n_modes)
    grids = [PhaseGrid(s, m) for s, m in zip(SYMBOLS, points)]
    start = grids[:1] if start_gridded else []
    # A number eigenstate start leaves some branches impossible at some grid points.
    if basis_start:
        state = basis_state(register, rng.integers(0, 2, n_modes))
        if start:
            constant = np.broadcast_to(state.data, (points[0], register.dim)).copy()
            state = QuantumState(register, constant, grids=start, fourier_order=[0])
    else:
        state = random_start(register, start, rng)
    if mixed:
        other = random_start(register, start, rng)
        rho = 0.75 * state.density_data() + 0.25 * other.density_data()
        state = QuantumState(register, rho, grids=start, fourier_order=[0] * len(start))

    states = [state]
    for spec in gates:
        gate = build_gate(register, grids, spec)
        # Non-unitary operators: an annihilator, which may empty some or all
        # grid points, and the gate scaled by one half.
        lowering = ladder_operator(register, f"m{rng.integers(n_modes)}", "annihilate")
        halved = LinearOperator(
            gate.register, 0.5 * gate.matrix, grids=gate.grids, fourier_order=gate.fourier_order
        )
        for op in (lowering, halved):
            got = outcome_of(lambda: embed_and_apply(state, op, renormalize=True))
            want = outcome_of(lambda: reference_renormalized_apply(state, op))
            if isinstance(want, str):
                assert got == want
            else:
                assert_same_array(got.data, want)
        state = embed_and_apply(state, gate)
        states.append(state)

    result = measure_number(state, measured)
    reference = reference_measurement(state, measured)
    assert [o.occupations for o in result] == [occ for occ, _, _ in reference]
    for outcome, (_, prob, cond) in zip(result, reference):
        assert_same_array(outcome.probability, prob)
        assert_same_array(outcome.state.data, cond)

    # Pairs with different symbol sets, pure and density in each slot.  Two
    # density matrices go through Uhlmann's fidelity, an eigh and two matrix
    # products per grid point, only on at most three kept modes.
    first, last = states[0], states[-1]
    reduced = tuple(partial_trace(s, kept[:3]) for s in (first, last))
    pairs = [(first, first), (first, last), (last, first)]
    pairs += [(last, first.to_density()), (first.to_density(), last)]
    for x, y in pairs + [reduced, reduced[::-1]]:
        if x.is_pure or y.is_pure or x.register.dim <= 8:
            assert_same_value(fidelity(x, y), reference_fidelity(x, y))
        assert_same_value(trace_distance(x, y), reference_trace_distance(x, y))


def same_measurement(state, modes):
    """``measure_number`` against the reference: outcomes, then each one's arrays by bytes and layout."""
    result = measure_number(state, modes)
    reference = reference_measurement(state, modes)
    assert [o.occupations for o in result] == [occ for occ, _, _ in reference]
    for outcome, (_, prob, cond) in zip(result, reference):
        assert type(outcome.probability) is type(prob)
        assert_same_array(outcome.probability, prob)
        if cond is None:
            assert outcome.state is None
        else:
            assert_same_array(outcome.state.data, cond)
    return result


@settings(max_examples=25, deadline=None)
@given(circuit=circuits(), mixed=st.booleans(), grid_free=st.booleans(), data=st.data())
def test_measurements_of_grid_free_and_fully_measured_states_match_the_reference(
    circuit, mixed, grid_free, data
):
    # The whole register may be measured, which leaves no conditional state.
    state = circuit_state(circuit, mixed, grid_free)
    labels = st.sampled_from(list(state.register.labels))
    same_measurement(state, data.draw(st.lists(labels, min_size=1, unique=True)))


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("gridded", [False, True])
def test_an_outcome_impossible_at_every_point_is_omitted_as_the_reference_omits_it(mixed, gridded):
    # m0 (most significant) holds its particle at every point, so no outcome
    # with m0 = 0 has a nonzero amplitude anywhere.
    rng = np.random.default_rng(7)
    grids = [PhaseGrid("zeta", 4)] if gridded else []
    rest = random_start(qubit_register(2), grids, rng)
    data = np.zeros(rest.data.shape[:-1] + (8,), dtype=np.complex128)
    data[..., 4:] = rest.data
    state = QuantumState(qubit_register(3), data, grids, [0] * len(grids))
    if mixed:
        state = QuantumState(state.register, state.density_data(), grids, [0] * len(grids))
    assert [o.occupations for o in same_measurement(state, ["m0"])] == [(1,)]
    result = same_measurement(state, ["m1", "m0"])
    assert [o.occupations for o in result] == [(0, 1), (1, 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_readout_table_matches_the_per_outcome_rule(data):
    cutoffs = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    register = ModeRegister((f"m{i}", d) for i, d in enumerate(cutoffs))
    labels = st.sampled_from(register.labels)
    modes = data.draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    rest, occupations, groups = readout = register.readout(modes)
    want_rest, want_occupations, want_groups = reference_readout(register, modes)
    assert rest == want_rest
    assert occupations == tuple(want_occupations)
    assert all(type(n) is int for occ in occupations for n in occ)
    assert groups.shape == (len(want_groups), register.dim // len(want_groups))
    for row, want in zip(groups, want_groups):
        assert row.tolist() == want.tolist()
    assert not groups.flags.writeable
    assert register.readout(list(modes)) is readout


def test_renormalize_refuses_by_the_norm_not_its_square():
    # The annihilator leaves norm 1e-10, over PROB_FLOOR, though its square is not.
    register = qubit_register(1)
    state = QuantumState(register, [np.sqrt(1.0 - 1e-20), 1e-10])
    out = embed_and_apply(state, ladder_operator(register, "m0", "annihilate"), renormalize=True)
    assert out.data.tolist() == [1.0, 0.0]
    rho = QuantumState(register, np.diag([1.0 - 1e-20, 1e-20]))
    with pytest.raises(ValueError, match="annihilated the state everywhere"):
        embed_and_apply(rho, ladder_operator(register, "m0", "annihilate"), renormalize=True)


def reference_phase_average(state, probability=None, symbols=None):
    """The grid mean as ``np.mean`` computes it, weighted by ``probability`` if given."""
    rho = state.density_data()
    if not state.grids:
        return rho
    symbols = state.phase_symbols if symbols is None else symbols
    axes = tuple(state.phase_symbols.index(s) for s in symbols)
    if probability is None:
        return rho.mean(axis=axes)
    return (probability[..., None, None] * rho).mean(axis=axes) / float(np.mean(probability))


def reference_norms(state):
    if state.is_pure:
        parts = np.ascontiguousarray(state.data).view(np.float64)
        return np.sqrt(np.einsum("...i,...i->...", parts, parts))
    return np.real(np.trace(state.data, axis1=-2, axis2=-1))


def circuit_state(circuit, mixed, grid_free):
    """The circuit's final state, as a density matrix if ``mixed``, at its first
    grid point if ``grid_free``, with Fourier order 0 so any grid averages."""
    n_modes, points, start_gridded, gates, seed = circuit
    rng = np.random.default_rng(seed)
    register = qubit_register(n_modes)
    grids = [PhaseGrid(s, m) for s, m in zip(SYMBOLS, points)]
    state = random_start(register, grids[:1] if start_gridded else [], rng)
    for spec in gates:
        state = embed_and_apply(state, build_gate(register, grids, spec))
    if mixed:
        other = random_start(register, state.grids, rng)
        rho = 0.75 * state.density_data() + 0.25 * other.density_data()
        state = QuantumState(register, rho, grids=state.grids, fourier_order=state.fourier_order)
    if grid_free:
        return QuantumState(register, state.data[(0,) * len(state.grids)])
    return QuantumState(register, state.data, state.grids, [0] * len(state.grids))


@settings(max_examples=30, deadline=None)
@given(
    circuit=circuits(),
    mixed=st.booleans(),
    grid_free=st.booleans(),
    subset=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_grid_means_equal_np_mean_bit_for_bit(circuit, mixed, grid_free, subset):
    state = circuit_state(circuit, mixed, grid_free)
    symbols = [s for s, pick in zip(state.phase_symbols, subset) if pick]
    for chosen in (None, symbols):
        got = phase_average(state, symbols=chosen)
        assert_same_array(got.data, reference_phase_average(state, symbols=chosen))

    for outcome in measure_number(state, ["m0"]):
        p = outcome.probability
        assert_same_value(outcome.mean_probability, float(np.mean(p)))
        got = outcome_of(lambda: phase_average(outcome.state, p))
        if isinstance(got, str):
            assert "vanishing" in got and float(np.mean(p)) < PROB_FLOOR
        else:
            assert_same_array(got.data, reference_phase_average(outcome.state, p))


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("gridded", [False, True])
@pytest.mark.parametrize("validate", [False, True])
def test_norms_are_kept_and_equal_a_fresh_computation(mixed, gridded, validate):
    rng = np.random.default_rng(3)
    register = qubit_register(3)
    state = random_start(register, [PhaseGrid("theta", 5)] if gridded else [], rng)
    if mixed:
        state = state.to_density()
    state = QuantumState(register, state.data, state.grids, state.fourier_order, validate)
    first = state.norms()
    assert state.norms() is first
    want = np.asarray(reference_norms(state))
    assert np.asarray(first).dtype == want.dtype and np.asarray(first).tobytes() == want.tobytes()


def test_one_norm_computation_serves_validation_and_measurement(monkeypatch):
    calls = []  # (state, whether this call computed its norms), per norms() call
    norms = QuantumState.norms

    def spy(self):
        calls.append((self, self._norms is None))
        return norms(self)

    monkeypatch.setattr(QuantumState, "norms", spy)
    register = qubit_register(3)
    for grids in ([], [PhaseGrid("theta", 4)]):
        for mixed in (False, True):
            calls.clear()
            state = random_start(register, grids, np.random.default_rng(1))
            state = state.to_density() if mixed else state  # the density one is unvalidated
            result = measure_number(state, ["m0", "m2"])
            mine = [fresh for s, fresh in calls if s is state]
            assert mine == ([True] if mixed else [True, False])
            # Each conditional state computed its norms once, when it was validated.
            conditional = [fresh for s, fresh in calls if s.register != register]
            assert conditional == [True] * len(result)


def test_grid_free_sort_returns_at_once_and_a_stray_order_still_raises():
    assert _check_grids((), ()) == ((), ())
    assert _check_grids([], iter(())) == ((), ())
    with pytest.raises(ValueError, match="one entry per phase grid"):
        _check_grids((), (1,))


def test_grids_listed_out_of_symbol_order_are_refused():
    # The phase sits on axis 0, the axis the out-of-order list names first.
    register = qubit_register(1)
    grids = (PhaseGrid("b", 4), PhaseGrid("a", 4))
    vector = np.stack([np.ones(4), np.exp(1j * grids[0].points)], axis=-1) / np.sqrt(2.0)
    data = np.broadcast_to(vector[:, None, :], (4, 4, 2)).copy()
    message = re.escape("phase grids must be in symbol order ['a', 'b'], got ['b', 'a']")
    with pytest.raises(ValueError, match=message):
        QuantumState(register, data, grids=grids, fourier_order=(1, 0))
    eye = np.broadcast_to(np.eye(2), (4, 4, 2, 2))
    with pytest.raises(ValueError, match=message):
        LinearOperator(register, eye, kind="unitary", grids=grids, fourier_order=(0, 0))
    # Listed in symbol order, with the axes to match, the same state is kept as given.
    state = QuantumState(register, data.swapaxes(0, 1), grids=grids[::-1], fourier_order=(0, 1))
    assert state.grids == grids[::-1] and state.fourier_order == (0, 1)
    coherence = phase_average(state, symbols=["b"]).data[..., 0, 1]
    assert np.abs(coherence).max() < 1e-15


def reference_union(a_grids, a_orders, b_grids, b_orders):
    """Grids of both sets by symbol, sorted, with orders added per shared symbol."""
    union = {}
    for grid, order in [*zip(a_grids, a_orders), *zip(b_grids, b_orders)]:
        previous = union.get(grid.symbol, (grid, 0))[1]
        union[grid.symbol] = (grid, previous + order)
    merged = [union[s] for s in sorted(union)]
    return tuple(g for g, _ in merged), tuple(o for _, o in merged)


@pytest.mark.parametrize(
    "grids, orders",
    [((), ()), ((PhaseGrid("alpha", 3),), (1,)), ((PhaseGrid("a", 4), PhaseGrid("b", 2)), (0, 2))],
)
def test_merge_with_an_empty_side_equals_the_reference_union(grids, orders):
    for args in ((grids, orders, (), ()), ((), (), grids, orders)):
        assert _merge_grids(*args) == reference_union(*args)


def reference_density_trace(state, keep):
    """Density ``partial_trace`` as one diagonal sum over a copy with every mode
    reordered, untouched first: its rule before pure and density states shared a layout."""
    register = state.register
    sub = register.restricted(keep)
    data = permute_modes(state.data, register.dims, _modes_last(register, sub), 2)
    data = data.reshape(state.grid_shape + (register.dim // sub.dim, sub.dim) * 2)
    return np.einsum("...rirj->...ij", data)


def reference_embed_matrix(register, op_register, matrix):
    """``embed_matrix`` as written with the generic mode permutation."""
    order = _modes_last(register, op_register)
    eye = np.eye(register.dim // op_register.dim)
    big = np.einsum("...ij,kl->...kilj", matrix, eye)
    big = big.reshape(matrix.shape[:-2] + (register.dim, register.dim))
    return permute_modes(big, [register.dims[p] for p in order], np.argsort(order), 2)


def random_unitary(rng, shape, dim):
    z = rng.standard_normal(shape + (dim, dim, 2)) @ [1.0, 1j]
    return np.linalg.qr(z)[0]


@st.composite
def registers(draw):
    cutoffs = draw(st.lists(st.integers(2, 3), min_size=1, max_size=5))
    return ModeRegister((f"m{i}", d) for i, d in enumerate(cutoffs))


@settings(max_examples=60, deadline=None)
@given(
    register=registers(),
    n_grids=st.integers(0, 2),
    zeros=st.booleans(),
    gates=st.integers(0, 2),
    measure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_density_partial_trace_matches_its_reference_bit_for_bit(
    register, n_grids, zeros, gates, measure, seed, data
):
    # A mixture of two random pure states, maybe with exact zeros, then the
    # layouts the protocol hands to the trace: gates on one or two modes,
    # which may add a grid, and a measurement's conditional state.
    rng = np.random.default_rng(seed)
    pool = [PhaseGrid(s, int(rng.integers(2, 4))) for s in ("alpha", "zeta")]
    grids = pool[:n_grids]
    first, other = (random_start(register, grids, rng) for _ in range(2))
    rho = 0.75 * first.density_data() + 0.25 * other.density_data()
    if zeros:
        # Whole rows and columns set to zeros that keep their entries' signs.
        mask = rng.integers(0, 2, register.dim).astype(float)
        mask[rng.integers(register.dim)] = 1.0
        rho = rho * np.outer(mask, mask)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    state = QuantumState(register, rho, grids, [0] * n_grids)
    labels = list(register.labels)
    for _ in range(gates):
        targets = data.draw(st.permutations(labels))
        targets = targets[: data.draw(st.integers(1, min(2, len(labels))))]
        sub = ModeRegister((label, register.dims[register.position(label)]) for label in targets)
        on = data.draw(st.sampled_from([[], pool[:1], pool[1:]]))
        matrix = random_unitary(rng, tuple(g.n_points for g in on), sub.dim)
        op = LinearOperator(sub, matrix, kind="unitary", grids=on, fourier_order=[0] * len(on))
        state = embed_and_apply(state, op)
    if measure and len(labels) > 1:
        measured = data.draw(st.permutations(labels))
        measured = measured[: data.draw(st.integers(1, len(labels) - 1))]
        state = data.draw(st.sampled_from(list(measure_number(state, measured)))).state

    keep = data.draw(st.permutations(list(state.register.labels)))
    keep = keep[: data.draw(st.integers(1, len(keep)))]
    reduced = partial_trace(state, keep).data
    want = reference_density_trace(state, keep)
    assert reduced.flags.c_contiguous
    assert (reduced.shape, reduced.tobytes()) == (want.shape, want.tobytes())


def reference_pure_trace(state, keep):
    """Pure ``partial_trace`` as one product of the mode-reordered amplitudes,
    untouched modes first, with their conjugate, grid points leading."""
    register = state.register
    sub = register.restricted(keep)
    data = permute_modes(state.data, register.dims, _modes_last(register, sub), 1)
    data = data.reshape(state.grid_shape + (register.dim // sub.dim, sub.dim))
    return np.einsum("...ri,...rj->...ij", data, data.conj())


@settings(max_examples=60, deadline=None)
@given(
    register=registers(),
    n_grids=st.integers(0, 2),
    suffix=st.booleans(),
    gates=st.integers(0, 2),
    measure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pure_partial_trace_matches_its_reference_bit_for_bit(
    register, n_grids, suffix, gates, measure, seed, data
):
    # Random amplitudes, the gates and measurement branches of the density
    # test, then a kept set.  Kept modes that end the register in its own
    # order (a suffix) make the (untouched, kept, grid) reshape a strided
    # view rather than a copy: the layout of the protocol's trace of B.
    rng = np.random.default_rng(seed)
    pool = [PhaseGrid(s, int(rng.integers(2, 5))) for s in ("alpha", "zeta")]
    state = random_start(register, pool[:n_grids], rng)
    labels = list(register.labels)
    for _ in range(gates):
        targets = data.draw(st.permutations(labels))
        targets = targets[: data.draw(st.integers(1, min(2, len(labels))))]
        sub = ModeRegister((label, register.dims[register.position(label)]) for label in targets)
        on = data.draw(st.sampled_from([[], pool[:1], pool[1:]]))
        matrix = random_unitary(rng, tuple(g.n_points for g in on), sub.dim)
        op = LinearOperator(sub, matrix, kind="unitary", grids=on, fourier_order=[0] * len(on))
        state = embed_and_apply(state, op)
    if measure and len(labels) > 1:
        measured = data.draw(st.permutations(labels))
        measured = measured[: data.draw(st.integers(1, len(labels) - 1))]
        state = data.draw(st.sampled_from(list(measure_number(state, measured)))).state

    labels = list(state.register.labels)
    count = data.draw(st.integers(1, len(labels)))
    keep = labels[-count:] if suffix else data.draw(st.permutations(labels))[:count]
    reduced = partial_trace(state, keep).data
    want = reference_pure_trace(state, keep)
    assert reduced.flags.c_contiguous
    assert (reduced.shape, reduced.tobytes()) == (want.shape, want.tobytes())


@pytest.mark.parametrize(
    "dims, points, keep",
    [
        ((2, 2, 2), (256,), ["m2"]),  # the protocol's trace of B after the Bell analysis
        ((2, 2, 2), (16, 16), ["m2"]),
        ((2, 3, 2, 2), (4,), ["m2", "m3"]),
        ((3, 2), (5, 3), ["m1"]),
    ],
)
def test_pure_traces_of_strided_views_match_the_reference_bit_for_bit(dims, points, keep):
    register = ModeRegister((f"m{i}", d) for i, d in enumerate(dims))
    grids = [PhaseGrid(s, n) for s, n in zip(("alpha", "zeta"), points)]
    state = random_start(register, grids, np.random.default_rng(len(dims) + sum(points)))
    reduced = partial_trace(state, keep).data
    want = reference_pure_trace(state, keep)
    assert reduced.flags.c_contiguous
    assert (reduced.shape, reduced.tobytes()) == (want.shape, want.tobytes())


@settings(max_examples=40, deadline=None)
@given(register=registers(), leading=st.integers(0, 2), zeros=st.booleans(), data=st.data())
def test_embedding_matches_its_reference_bit_for_bit(register, leading, zeros, data):
    targets = data.draw(st.permutations(list(register.labels)))
    targets = targets[: data.draw(st.integers(1, min(3, len(targets))))]
    sub = ModeRegister((label, register.dims[register.position(label)]) for label in targets)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    matrix = random_unitary(rng, (2,) * leading, sub.dim)
    if zeros:
        matrix = matrix * rng.integers(0, 2, matrix.shape)
    assert_same_array(
        embed_matrix(register, sub, matrix), reference_embed_matrix(register, sub, matrix)
    )

"""Sector-block Hamiltonians and propagators against dense oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeport.fock import (
    LinearOperator,
    QuantumState,
    basis_state,
    build_register,
    embed_and_apply,
    ladder_operator,
)
from modeport.hamiltonian import HamiltonianParams, build_hamiltonian, evolve, propagator


def dense_hamiltonian(register, params):
    """The Hamiltonian as one dense matrix of ladder-operator products, term by term."""

    def op(label, which):
        return ladder_operator(register, label, which).matrix

    h = np.zeros((register.dim, register.dim), dtype=np.complex128)

    def add_hop(coupling, left, right):
        term = -0.5 * coupling * (op(left, "create") @ op(right, "annihilate"))
        h[...] += term
        h[...] += term.conj().T

    for (left, right), coupling in params.hops.items():
        add_hop(coupling, left, right)
    for label, u_i in params.u.items():
        n = op(label, "number")
        h += u_i * (n @ n - n)
    for label, e_i in params.e.items():
        h += e_i * op(label, "number")
    return h


def gathered_blocks(register, matrix):
    return [matrix[idx[:, :, None], idx[:, None, :]] for idx in register.sectors]


def random_params(rng, register):
    x = [float(v) for v in rng.uniform(-3.0, 3.0, size=5)]
    if "res" in register.labels:
        return HamiltonianParams(
            u={"res": x[0]}, e={"probe": x[1], "res": x[2]}, hops={("probe", "res"): x[3]}
        )
    if "C" in register.labels:
        # Entanglement swapping's B-C tunneling next to the a-A hop.
        return HamiltonianParams(
            hops={("B", "C"): x[0], ("a", "A"): x[1]}, u={"B": x[2], "C": x[3]}, e={"a": x[4]}
        )
    return HamiltonianParams(
        hops={("A", "B"): x[0]}, u={"A": x[1], "B": x[2]}, e={"A": x[3], "B": x[4]}
    )


BUILD_REGISTERS = pytest.mark.parametrize(
    "modes",
    [[("A", 3), ("B", 3)], [("probe", 2), ("res", 24)], [("a", 2), ("A", 2), ("B", 3), ("C", 3)]],
    ids=["hardcore", "reservoir", "four_mode_bc_hop"],
)


class TestRegisterTables:
    @pytest.mark.parametrize(
        "dims", [(2, 2, 2), (2, 416), (3, 3), (2,) * 6], ids=["3q", "probe_res", "3x3", "6q"]
    )
    def test_occupations_equal_ndindex_enumeration(self, dims):
        reg = build_register([(f"m{i}", d) for i, d in enumerate(dims)])
        want = np.array(list(np.ndindex(*dims)), dtype=np.int64)
        assert reg.occupations.dtype == want.dtype
        np.testing.assert_array_equal(reg.occupations, want)
        np.testing.assert_array_equal(reg.total_numbers, want.sum(axis=1))

    @pytest.mark.parametrize(
        "modes",
        [[("a", 3), ("A", 2), ("B", 3)], [("probe", 2), ("res", 12)], [("q", 2), ("r", 2)]],
    )
    def test_sectors_partition_the_basis_by_total_number(self, modes):
        reg = build_register(modes)
        tables = reg.sectors
        assert [t.shape[1] for t in tables] == sorted({t.shape[1] for t in tables})
        flat = np.concatenate([t.ravel() for t in tables])
        assert sorted(flat.tolist()) == list(range(reg.dim))
        for table in tables:
            totals = reg.total_numbers[table]
            assert np.all(totals == totals[:, :1])
            assert np.all(np.diff(totals[:, 0]) > 0)
            assert np.all(np.diff(table, axis=1) > 0)


class TestBlockBuild:
    @BUILD_REGISTERS
    def test_blocks_equal_dense_build(self, modes):
        rng = np.random.default_rng(2024)
        reg = build_register(modes)
        off = reg.total_numbers[:, None] != reg.total_numbers
        for _ in range(40):
            params = random_params(rng, reg)
            h = build_hamiltonian(reg, params)
            dense = dense_hamiltonian(reg, params)
            assert np.all(dense[off] == 0.0)
            for block, want in zip(h.blocks, gathered_blocks(reg, dense), strict=True):
                np.testing.assert_array_equal(block, want)
            np.testing.assert_array_equal(h.matrix, dense)

    def test_non_hermitian_block_rejected(self):
        reg = build_register([("A", 2), ("B", 2)])
        blocks = [np.zeros((len(t),) + t.shape[1:] * 2) for t in reg.sectors]
        blocks[-1][0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            LinearOperator(reg, blocks=blocks, kind="hermitian")

    def test_block_shapes_checked(self):
        reg = build_register([("A", 2), ("B", 2)])
        with pytest.raises(ValueError, match="sector blocks need shapes"):
            LinearOperator(reg, blocks=[np.zeros((1, 1, 1))], kind="hermitian")
        with pytest.raises(ValueError, match="either a matrix or sector blocks"):
            LinearOperator(reg, np.eye(4), blocks=gathered_blocks(reg, np.eye(4)))


def random_conserving(rng, reg):
    z = rng.standard_normal((reg.dim, reg.dim)) + 1j * rng.standard_normal((reg.dim, reg.dim))
    h = z + z.conj().T
    h[reg.total_numbers[:, None] != reg.total_numbers] = 0.0
    return h


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    n_idle=st.integers(0, 2),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-4.0, 4.0, allow_nan=False),
)
def test_block_and_dense_propagators_agree(dims, n_idle, data, seed, t):
    rng = np.random.default_rng(seed)
    sub = build_register([(f"m{i}", d) for i, d in enumerate(dims)])
    h = random_conserving(rng, sub)
    w, v = np.linalg.eigh(h)
    dense = (v * np.exp(-1j * w * t)) @ v.conj().T
    from_blocks = propagator(
        LinearOperator(sub, blocks=gathered_blocks(sub, h), kind="hermitian"), t
    )
    assert from_blocks.blocks is not None
    np.testing.assert_allclose(from_blocks.matrix, dense, rtol=0, atol=1e-12)
    # Applied sector by sector, to a pure state and to a density matrix, on a
    # register with 0-2 idle qubit modes at drawn places and the operator's
    # modes in any order.
    modes = data.draw(st.permutations(sub.modes + tuple((f"q{i}", 2) for i in range(n_idle))))
    reg = build_register(modes)
    unitary = LinearOperator(sub, from_blocks.matrix, kind="unitary")
    psi = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
    z = rng.standard_normal((reg.dim, 3)) + 1j * rng.standard_normal((reg.dim, 3))
    rho = z @ z.conj().T
    pure = QuantumState(reg, psi / np.linalg.norm(psi))
    mixed = QuantumState(reg, rho / np.trace(rho).real)
    for state in (pure, mixed):
        got = embed_and_apply(state, from_blocks)
        want = embed_and_apply(state, unitary)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)


class TestNoDenseAllocation:
    def test_build_propagate_evolve_stay_below_dim_squared(self):
        reg = build_register([("probe", 2), ("res", 1000)])
        params = HamiltonianParams(hops={("probe", "res"): -1.0}, e={"res": 0.1})
        state = basis_state(reg, (1, 500))
        dense_bytes = 16 * reg.dim**2
        tracemalloc.start()
        try:
            h = build_hamiltonian(reg, params)
            u = propagator(h, 0.3)
            out = evolve(state, h, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.blocks is not None and u.blocks is not None
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12
        assert peak < dense_bytes / 20

    def test_pulse_on_some_modes_stays_below_dim_squared(self):
        sub = build_register([("probe", 2), ("res", 1000)])
        reg = build_register([("a", 2), ("probe", 2), ("res", 1000)])
        params = HamiltonianParams(hops={("probe", "res"): -1.0}, e={"res": 0.1})
        pulse = propagator(build_hamiltonian(sub, params), 0.3)
        state = basis_state(reg, (1, 1, 500))
        tracemalloc.start()
        try:
            out = embed_and_apply(state, pulse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The idle mode a stays in |1>.
        assert abs(np.linalg.norm(out.data[reg.occupations[:, 0] == 1]) - 1.0) < 1e-12
        assert peak < 16 * reg.dim**2 / 20

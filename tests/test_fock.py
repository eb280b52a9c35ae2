import math
import tracemalloc

import numpy as np
import pytest

from modeport.fock import (
    MAX_REGISTER_DIM,
    LinearOperator,
    ModeRegister,
    PhaseGrid,
    QuantumState,
    basis_state,
    build_register,
    embed_and_apply,
    embed_matrix,
    entanglement_entropy,
    fidelity,
    from_amplitudes,
    ladder_operator,
    measure_number,
    partial_trace,
    trace_distance,
)
from modeport.gates import hopping_gate


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, d):
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


class TestRegister:
    def test_dimensions(self):
        reg = build_register([("a", 2), ("A", 2), ("B", 2)])
        assert reg.dim == 8
        assert reg.labels == ("a", "A", "B")

    def test_basis_order_first_mode_most_significant(self):
        reg = build_register([("A", 3), ("B", 3)])
        assert reg.dim == 9
        head = [reg.occupation_of(i) for i in range(4)]
        assert head == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert reg.index_of((1, 2)) == 5

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_register([("A", 2), ("A", 2)])

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            build_register([("A", 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_register([])

    def test_unknown_label(self):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="unknown"):
            reg.position("B")

    def test_tables_built_on_first_read(self):
        reg = build_register([("a", 2), ("A", 3), ("B", 2)])
        assert "occupations" not in vars(reg) and "total_numbers" not in vars(reg)
        want = np.indices(reg.dims, dtype=np.int64).reshape(3, -1).T
        np.testing.assert_array_equal(reg.occupations, want)
        np.testing.assert_array_equal(reg.total_numbers, want.sum(axis=1))
        assert reg.occupations is reg.occupations

    def test_register_at_size_bound_allocates_no_table(self):
        tracemalloc.start()
        try:
            reg = ModeRegister([("probe", 2), ("res", MAX_REGISTER_DIM // 2)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reg.dim == MAX_REGISTER_DIM
        assert peak < 100_000  # the occupation table alone would be 64 MB

    def test_restricted_returns_same_instance(self):
        reg = build_register([("a", 2), ("A", 2), ("B", 2)])
        sub = reg.restricted(["B", "a"])
        assert sub.labels == ("a", "B")
        assert reg.restricted(["B", "a"]) is sub
        assert reg.restricted(("B", "a")) is sub


class TestLadder:
    def test_create_on_vacuum(self):
        reg = build_register([("m", 2)])
        a_dag = ladder_operator(reg, "m", "create").matrix
        out = a_dag @ basis_state(reg, (0,)).data
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_create_sqrt_factor(self):
        reg = build_register([("m", 3)])
        a_dag = ladder_operator(reg, "m", "create").matrix
        out = a_dag @ basis_state(reg, (1,)).data
        np.testing.assert_allclose(out, [0.0, 0.0, np.sqrt(2.0)], atol=1e-15)

    def test_top_occupation_annihilated(self):
        reg = build_register([("m", 3)])
        a_dag = ladder_operator(reg, "m", "create").matrix
        out = a_dag @ basis_state(reg, (2,)).data
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_number_eigenvalue(self):
        reg = build_register([("m", 4)])
        n_op = ladder_operator(reg, "m", "number").matrix
        for n in range(4):
            vec = basis_state(reg, (n,)).data
            np.testing.assert_allclose(n_op @ vec, n * vec, atol=1e-15)

    def test_annihilate_is_adjoint_of_create(self):
        reg = build_register([("m", 5), ("k", 3)])
        for mode in ("m", "k"):
            a = ladder_operator(reg, mode, "annihilate").matrix
            a_dag = ladder_operator(reg, mode, "create").matrix
            np.testing.assert_allclose(a, a_dag.conj().T, atol=1e-15)

    def test_number_equals_create_annihilate(self):
        reg = build_register([("m", 4)])
        a = ladder_operator(reg, "m", "annihilate").matrix
        a_dag = ladder_operator(reg, "m", "create").matrix
        n_op = ladder_operator(reg, "m", "number").matrix
        np.testing.assert_allclose(a_dag @ a, n_op, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_truncated_commutator(self, d):
        # [a, a+] = I on occupations 0..d-2; the top diagonal entry is 1 - d.
        reg = build_register([("m", d)])
        a = ladder_operator(reg, "m", "annihilate").matrix
        a_dag = ladder_operator(reg, "m", "create").matrix
        comm = a @ a_dag - a_dag @ a
        expected = np.eye(d)
        expected[-1, -1] = 1.0 - d
        np.testing.assert_allclose(comm, expected, atol=1e-14)

    def test_unknown_mode(self):
        reg = build_register([("m", 2)])
        with pytest.raises(ValueError, match="unknown"):
            ladder_operator(reg, "x", "create")

    def test_unknown_kind(self):
        reg = build_register([("m", 2)])
        with pytest.raises(ValueError, match="ladder"):
            ladder_operator(reg, "m", "destroy")


def naive_embedding(register, op_labels, small):
    """Elementwise embedding oracle: <i|Op|j> from occupation tuples."""
    positions = [register.position(l) for l in op_labels]
    sub_dims = [register.dims[p] for p in positions]
    full = np.zeros((register.dim, register.dim), dtype=complex)
    for i in range(register.dim):
        occ_i = register.occupation_of(i)
        sub_i = np.ravel_multi_index([occ_i[p] for p in positions], sub_dims)
        rest_i = [occ_i[p] for p in range(register.n_modes) if p not in positions]
        for j in range(register.dim):
            occ_j = register.occupation_of(j)
            rest_j = [occ_j[p] for p in range(register.n_modes) if p not in positions]
            if rest_i != rest_j:
                continue
            sub_j = np.ravel_multi_index([occ_j[p] for p in positions], sub_dims)
            full[i, j] = small[sub_i, sub_j]
    return full


class TestEmbedding:
    def test_identity_leaves_state(self):
        reg = build_register([("a", 2), ("A", 3)])
        state = from_amplitudes(reg, {(0, 1): 0.6, (1, 2): 0.8})
        op = LinearOperator(reg, np.eye(reg.dim), kind="unitary")
        out = embed_and_apply(state, op)
        np.testing.assert_allclose(out.data, state.data, atol=1e-15)

    @pytest.mark.parametrize(
        "modes,target",
        [
            ([("a", 2), ("b", 2), ("c", 2), ("d", 2)], ("d", "b")),
            ([("a", 2), ("b", 3), ("c", 2)], ("b",)),
            ([("a", 2), ("b", 2), ("c", 3)], ("c", "a")),
        ],
    )
    def test_embedding_matches_naive_oracle(self, modes, target):
        rng = np.random.default_rng(11)
        reg = build_register(modes)
        sub = ModeRegister((l, reg.dims[reg.position(l)]) for l in target)
        small = rng.standard_normal((sub.dim, sub.dim)) + 1j * rng.standard_normal(
            (sub.dim, sub.dim)
        )
        embedded = embed_matrix(reg, sub, small)
        oracle = naive_embedding(reg, target, small)
        # Exact: each entry is one of small's, or +0.0.
        assert (embedded.shape, embedded.tobytes()) == (oracle.shape, oracle.tobytes())

    @pytest.mark.parametrize(
        "modes,target",
        [
            ([("a", 2), ("b", 2), ("c", 2), ("d", 2)], ("d", "b")),
            ([("a", 2), ("b", 3), ("c", 2)], ("b",)),
            ([("a", 2), ("b", 2), ("c", 3)], ("c", "a")),
        ],
    )
    def test_application_matches_naive_oracle(self, modes, target):
        rng = np.random.default_rng(12)
        reg = build_register(modes)
        sub = ModeRegister((l, reg.dims[reg.position(l)]) for l in target)
        op = LinearOperator(sub, random_unitary(rng, sub.dim), kind="unitary")
        full = naive_embedding(reg, target, op.matrix)
        pure = random_pure(rng, reg.dim)
        out = embed_and_apply(QuantumState(reg, pure), op)
        np.testing.assert_allclose(out.data, full @ pure, atol=1e-12)
        rho = random_density(rng, reg.dim)
        out = embed_and_apply(QuantumState(reg, rho), op)
        np.testing.assert_allclose(out.data, full @ rho @ full.conj().T, atol=1e-12)

    def test_gridded_application_matches_naive_oracle(self):
        # The operator carries "phi" and the state "theta": the result runs
        # over both grids, sorted by symbol, and matches the oracle pointwise.
        rng = np.random.default_rng(14)
        reg = build_register([("a", 2), ("b", 2), ("c", 3)])
        target = ("c", "a")
        sub = ModeRegister((l, reg.dims[reg.position(l)]) for l in target)
        phi, theta = PhaseGrid("phi", 3), PhaseGrid("theta", 4)
        op = LinearOperator(
            sub,
            np.stack([random_unitary(rng, sub.dim) for _ in range(3)]),
            kind="unitary",
            grids=(phi,),
            fourier_order=(1,),
        )
        full = np.stack([naive_embedding(reg, target, m) for m in op.matrix])
        pure = np.stack([random_pure(rng, reg.dim) for _ in range(4)])
        rho = np.stack([random_density(rng, reg.dim) for _ in range(4)])
        for data, expected in (
            (pure, np.einsum("pij,tj->pti", full, pure)),
            (rho, np.einsum("pij,tjk,plk->ptil", full, rho, full.conj())),
        ):
            state = QuantumState(reg, data, grids=(theta,), fourier_order=(1,))
            out = embed_and_apply(state, op)
            assert out.phase_symbols == ("phi", "theta")
            assert out.fourier_order == (1, 1)
            np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_split_pair_state(self):
        # ((a+_A + a+_B)/sqrt(2))^2 on vacuum, normalized per application:
        # amplitudes (1/2, sqrt(2)/2, 1/2) on |20>, |11>, |02>.
        reg = build_register([("A", 3), ("B", 3)])
        split = LinearOperator(
            reg,
            ladder_operator(reg, "A", "create").matrix
            + ladder_operator(reg, "B", "create").matrix,
        )
        state = basis_state(reg, (0, 0))
        state = embed_and_apply(state, split, renormalize=True)
        state = embed_and_apply(state, split, renormalize=True)
        expected = np.zeros(9, dtype=complex)
        expected[reg.index_of((2, 0))] = 0.5
        expected[reg.index_of((1, 1))] = np.sqrt(2.0) / 2.0
        expected[reg.index_of((0, 2))] = 0.5
        np.testing.assert_allclose(state.data, expected, atol=1e-14)
        mixed = basis_state(reg, (0, 0)).to_density()
        mixed = embed_and_apply(mixed, split, renormalize=True)
        mixed = embed_and_apply(mixed, split, renormalize=True)
        np.testing.assert_allclose(mixed.data, state.to_density().data, rtol=0, atol=1e-14)
        # Creation on the top occupation of both modes leaves nothing to renormalize.
        full = basis_state(reg, (2, 2))
        for start in (full, full.to_density()):
            with pytest.raises(ValueError, match="annihilated the state everywhere"):
                embed_and_apply(start, split, renormalize=True)

    def test_sign_flip_on_second_mode(self):
        reg = build_register([("A", 2), ("B", 2)])
        bell = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        z = LinearOperator(
            ModeRegister([("B", 2)]), np.diag([1.0, -1.0]).astype(complex), kind="unitary"
        )
        out = embed_and_apply(bell, z)
        expected = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): -1.0}, normalize=True)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-15)

    def test_density_application_matches_pure_route(self):
        rng = np.random.default_rng(13)
        reg = build_register([("A", 2), ("B", 3)])
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = QuantumState(reg, vec / np.linalg.norm(vec))
        op = LinearOperator(reg, random_unitary(rng, reg.dim), kind="unitary")
        via_pure = embed_and_apply(state, op).to_density()
        via_density = embed_and_apply(state.to_density(), op)
        np.testing.assert_allclose(via_pure.data, via_density.data, atol=1e-13)

    def test_non_unitary_without_renormalize_rejected(self):
        reg = build_register([("A", 3)])
        create = ladder_operator(reg, "A", "create")
        state = basis_state(reg, (1,))
        with pytest.raises(ValueError, match="norm"):
            embed_and_apply(state, create)

    def test_mode_mismatch(self):
        reg = build_register([("A", 2)])
        other = ModeRegister([("X", 2)])
        op = LinearOperator(other, np.eye(2), kind="unitary")
        with pytest.raises(ValueError, match="unknown"):
            embed_and_apply(basis_state(reg, (0,)), op)

    def test_dimension_mismatch(self):
        reg = build_register([("A", 2)])
        other = ModeRegister([("A", 3)])
        op = LinearOperator(other, np.eye(3), kind="unitary")
        with pytest.raises(ValueError, match="dim"):
            embed_and_apply(basis_state(reg, (0,)), op)


class TestPartialTrace:
    def test_bell_pair_marginal(self):
        reg = build_register([("A", 2), ("B", 2)])
        bell = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        reduced = partial_trace(bell, ["A"])
        np.testing.assert_allclose(reduced.data, np.eye(2) / 2.0, atol=1e-14)

    def test_product_state_stays_pure(self):
        reg = build_register([("A", 2), ("B", 2)])
        state = basis_state(reg, (1, 0))
        reduced = partial_trace(state, ["A"])
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(reduced.data, expected, atol=1e-15)

    def test_split_pair_reduction_matches_loop_oracle(self):
        reg = build_register([("A", 3), ("B", 3)])
        amps = {(2, 0): 0.5, (1, 1): np.sqrt(2.0) / 2.0, (0, 2): 0.5}
        state = from_amplitudes(reg, amps)
        reduced = partial_trace(state, ["A"])

        # Independent oracle: rho_A[m, m'] = sum_n psi[m, n] conj(psi[m', n]).
        psi = np.zeros((3, 3), dtype=complex)
        for (m, n), amp in amps.items():
            psi[m, n] = amp
        oracle = np.zeros((3, 3), dtype=complex)
        for m in range(3):
            for mp in range(3):
                for n in range(3):
                    oracle[m, mp] += psi[m, n] * np.conj(psi[mp, n])
        np.testing.assert_allclose(reduced.data, oracle, atol=1e-14)
        np.testing.assert_allclose(np.diag(reduced.data), [0.25, 0.5, 0.25], atol=1e-14)

    def test_keep_all_is_identity(self):
        reg = build_register([("A", 2), ("B", 3)])
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = QuantumState(reg, vec / np.linalg.norm(vec))
        kept = partial_trace(state, ["A", "B"])
        np.testing.assert_allclose(kept.data, state.to_density().data, atol=1e-14)

    def test_trace_composes(self):
        reg = build_register([("a", 2), ("A", 2), ("B", 2)])
        rng = np.random.default_rng(4)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = QuantumState(reg, vec / np.linalg.norm(vec))
        once = partial_trace(partial_trace(state, ["a", "A"]), ["A"])
        direct = partial_trace(state, ["A"])
        np.testing.assert_allclose(once.data, direct.data, atol=1e-13)

    def test_trace_preserved(self):
        reg = build_register([("a", 2), ("A", 3)])
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = QuantumState(reg, vec / np.linalg.norm(vec))
        reduced = partial_trace(state, ["a"])
        assert abs(np.trace(reduced.data) - 1.0) < 1e-12

    def test_fourteen_mode_register(self):
        # One particle spread evenly over 14 qubit modes by 13 hops: hop k
        # leaves 1/14 of the population on mode k with phase i^k.  The
        # two-mode marginal is then analytic, and no dim^2 array is needed.
        labels = [f"m{k}" for k in range(14)]
        reg = build_register((label, 2) for label in labels)
        state = basis_state(reg, (1,) + (0,) * 13)
        for k in range(13):
            angle = np.arccos(np.sqrt(1.0 / (14 - k)))
            state = embed_and_apply(state, hopping_gate(reg, labels[k], labels[k + 1], angle))
        reduced = partial_trace(state, ["m9", "m3"])
        assert reduced.register.labels == ("m3", "m9")
        # Basis |00>, |01>, |10>, |11> of (m3, m9); <01|rho|10> = i^9 (-i)^3 / 14.
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 12.0 / 14.0
        expected[1, 1] = expected[2, 2] = 1.0 / 14.0
        expected[1, 2] = expected[2, 1] = -1.0 / 14.0
        np.testing.assert_allclose(reduced.data, expected, atol=1e-12)

    def test_density_matches_pure_route(self):
        reg = build_register([("a", 2), ("A", 3), ("B", 2)])
        state = QuantumState(reg, random_pure(np.random.default_rng(9), reg.dim))
        for keep in (["B", "a"], ["A"], ["a", "A", "B"]):
            via_pure = partial_trace(state, keep)
            via_density = partial_trace(state.to_density(), keep)
            np.testing.assert_allclose(via_pure.data, via_density.data, atol=1e-14)

    def test_empty_keep_rejected(self):
        reg = build_register([("a", 2), ("A", 2)])
        with pytest.raises(ValueError):
            partial_trace(basis_state(reg, (0, 0)), [])


class TestMeasurement:
    def test_eigenstate(self):
        reg = build_register([("a", 2), ("A", 2)])
        state = basis_state(reg, (0, 1))
        result = measure_number(state, ["a", "A"])
        assert len(result) == 1
        out = result.outcome((0, 1))
        assert abs(float(out.probability) - 1.0) < 1e-14
        assert out.state is None

    def test_bell_symmetric(self):
        reg = build_register([("A", 2), ("B", 2)])
        bell = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        result = measure_number(bell, ["A"])
        for occ in ((0,), (1,)):
            assert abs(float(result.outcome(occ).probability) - 0.5) < 1e-14

    def test_three_mode_single_measurement(self):
        # (|100> + |010>)/sqrt(2) on (a, A, B), measuring a.
        reg = build_register([("a", 2), ("A", 2), ("B", 2)])
        state = from_amplitudes(reg, {(1, 0, 0): 1.0, (0, 1, 0): 1.0}, normalize=True)
        result = measure_number(state, ["a"])

        # Brute-force Born oracle over the 8-dimensional space.
        probs = {0: 0.0, 1: 0.0}
        for i in range(reg.dim):
            occ = reg.occupation_of(i)
            probs[occ[0]] += abs(state.data[i]) ** 2
        for n_a, expected in probs.items():
            assert abs(float(result.outcome((n_a,)).probability) - expected) < 1e-14

        out1 = result.outcome((1,))
        np.testing.assert_allclose(
            out1.state.data,
            basis_state(build_register([("A", 2), ("B", 2)]), (0, 0)).data,
            atol=1e-14,
        )
        out0 = result.outcome((0,))
        expected_state = basis_state(build_register([("A", 2), ("B", 2)]), (1, 0))
        np.testing.assert_allclose(out0.state.data, expected_state.data, atol=1e-14)

    def test_density_state_measurement(self):
        reg = build_register([("A", 2), ("B", 2)])
        rho = np.zeros((4, 4), dtype=complex)
        rho[reg.index_of((0, 1)), reg.index_of((0, 1))] = 0.5
        rho[reg.index_of((1, 0)), reg.index_of((1, 0))] = 0.5
        state = QuantumState(reg, rho)
        result = measure_number(state, ["A"])
        out0 = result.outcome((0,))
        assert abs(float(out0.probability) - 0.5) < 1e-14
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0  # conditioned on empty A, the particle sits in B
        np.testing.assert_allclose(out0.state.data, expected, atol=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        reg = build_register([("a", 2), ("A", 3)])
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = QuantumState(reg, vec / np.linalg.norm(vec))
        result = measure_number(state, ["A"])
        total = sum(float(out.probability) for out in result)
        assert abs(total - 1.0) < 1e-12
        for out in result:
            assert abs(np.linalg.norm(out.state.data) - 1.0) < 1e-12

    def test_unknown_label(self):
        reg = build_register([("a", 2)])
        with pytest.raises(ValueError, match="unknown"):
            measure_number(basis_state(reg, (0,)), ["x"])

    def test_outcome_at_the_probability_floor_is_omitted(self):
        # Outcome a = 1 has probability exactly PROB_FLOOR, where its
        # conditional state would be stored as zero at every grid point.
        reg = build_register([("a", 2), ("b", 2)])
        state = QuantumState(reg, np.diag([1.0 - 1e-14, 0.0, 1e-14, 0.0]))
        result = measure_number(state, ["a"])
        assert [out.occupations for out in result] == [(0,)]

    def test_outcome_vanishing_after_the_average_raises(self):
        # Outcome a = 1 has probability 1e-13 at one of 16 points and 0 elsewhere:
        # kept by measurement, but its phase-averaged probability is under PROB_FLOOR.
        reg = build_register([("a", 2), ("A", 2)])
        data = np.zeros((16, 4), dtype=np.complex128)
        data[:, reg.index_of((0, 0))] = 1.0
        data[0, reg.index_of((0, 0))] = math.sqrt(1.0 - 1e-13)
        data[0, reg.index_of((1, 0))] = math.sqrt(1e-13)
        state = QuantumState(reg, data, grids=(PhaseGrid("phi", 16),), fourier_order=(0,))
        outcome = measure_number(state, ["a"]).outcome((1,))
        with pytest.raises(ValueError, match="outcome has vanishing phase-averaged probability"):
            outcome.phase_averaged_state()

    def test_measuring_every_mode_leaves_no_state(self):
        reg = build_register([("a", 2), ("A", 2)])
        state = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        for outcome in measure_number(state, ["a", "A"]):
            assert outcome.state is None
            assert outcome.phase_averaged_state() is None


class TestMetrics:
    def test_fidelity_self(self):
        reg = build_register([("A", 2), ("B", 2)])
        state = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0j}, normalize=True)
        assert abs(fidelity(state, state) - 1.0) < 1e-14

    def test_fidelity_pure_vs_density_consistent(self):
        reg = build_register([("A", 2)])
        rng = np.random.default_rng(7)
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s1 = QuantumState(reg, v1 / np.linalg.norm(v1))
        s2 = QuantumState(reg, v2 / np.linalg.norm(v2))
        pure = fidelity(s1, s2)
        mixed = fidelity(s1.to_density(), s2.to_density())
        assert abs(pure - mixed) < 1e-10
        assert abs(pure - fidelity(s1, s2.to_density())) < 1e-12

    def test_density_fidelity_equals_the_spectrum_of_their_product(self):
        # F = (sum_k sqrt(lambda_k))**2 with lambda_k the eigenvalues of rho sigma.
        reg = build_register([(f"m{i}", 2) for i in range(6)])
        grid = PhaseGrid("theta", 16)
        rng = np.random.default_rng(11)
        rho, sigma = (np.stack([random_density(rng, 64) for _ in range(16)]) for _ in range(2))
        x = QuantumState(reg, rho, grids=[grid], fourier_order=[0])
        y = QuantumState(reg, sigma, grids=[grid], fourier_order=[0])
        lam = np.linalg.eigvals(rho @ sigma)
        want = np.sqrt(lam).sum(axis=-1).real ** 2
        np.testing.assert_allclose(fidelity(x, y), want, rtol=0, atol=1e-10)

    def test_trace_distance_extremes(self):
        reg = build_register([("A", 2)])
        zero = basis_state(reg, (0,))
        one = basis_state(reg, (1,))
        assert trace_distance(zero, zero) < 1e-14
        assert abs(trace_distance(zero, one) - 1.0) < 1e-14

    def test_register_mismatch(self):
        a = basis_state(build_register([("A", 2)]), (0,))
        b = basis_state(build_register([("B", 2)]), (0,))
        with pytest.raises(ValueError, match="register"):
            fidelity(a, b)

    def test_bell_entropy_one_bit(self):
        reg = build_register([("A", 2), ("B", 2)])
        bell = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        assert abs(entanglement_entropy(bell, ["A"]) - 1.0) < 1e-12

    def test_split_pair_entropy(self):
        # Schmidt spectrum (1/4, 1/2, 1/4) across the cut: 1.5 bits.
        reg = build_register([("A", 3), ("B", 3)])
        state = from_amplitudes(
            reg, {(2, 0): 0.5, (1, 1): np.sqrt(2.0) / 2.0, (0, 2): 0.5}
        )
        spectrum = np.array([0.25, 0.5, 0.25])
        oracle = float(-(spectrum * np.log2(spectrum)).sum())
        assert abs(oracle - 1.5) < 1e-15
        assert abs(entanglement_entropy(state, ["A"]) - 1.5) < 1e-12
        assert abs(entanglement_entropy(state, ["B"]) - 1.5) < 1e-12
        for keep in (["A"], ["B"]):
            assert entanglement_entropy(state, keep).hex() == "0x1.8000000000000p+0"

    def test_product_state_entropy_is_positive_zero(self):
        # The zero eigenvalues' terms are -0.0, so a negated sum would read -0.0 bits.
        reg = build_register([("A", 3), ("B", 3)])
        plain = basis_state(reg, (0, 0))
        data = np.tile(basis_state(reg, (1, 2)).data, (4, 1))
        gridded = QuantumState(reg, data, grids=(PhaseGrid("th", 4),), fourier_order=(0,))
        assert math.copysign(1.0, entanglement_entropy(plain, ["A"])) == 1.0
        values = entanglement_entropy(gridded, ["A"])
        assert values.shape == (4,)
        assert [math.copysign(1.0, v) for v in values] == [1.0] * 4
        assert not values.any()


class TestStateInvariants:
    def test_unnormalized_rejected(self):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="norm"):
            QuantumState(reg, np.array([1.0, 1.0]))

    def test_non_hermitian_density_rejected(self):
        reg = build_register([("A", 2)])
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState(reg, bad)

    def test_negative_density_rejected(self):
        reg = build_register([("A", 2)])
        bad = np.array([[1.1, 0.0], [0.0, -0.1]], dtype=complex)
        with pytest.raises(ValueError, match="semidefinite"):
            QuantumState(reg, bad)

    def test_annihilated_state_rejected(self):
        reg = build_register([("m", 3)])
        lower = ladder_operator(reg, "m", "annihilate")
        with pytest.raises(ValueError, match="0 at every grid point"):
            embed_and_apply(basis_state(reg, (0,)), lower)

    def test_empty_amplitudes_rejected(self):
        reg = build_register([("m", 3)])
        with pytest.raises(ValueError, match="0 at every grid point"):
            from_amplitudes(reg, {})

    def test_random_unitaries_preserve_norm(self):
        rng = np.random.default_rng(8)
        reg = build_register([("A", 2), ("B", 3)])
        state = basis_state(reg, (1, 2))
        for _ in range(20):
            u = random_unitary(rng, reg.dim)
            op = LinearOperator(reg, u, kind="unitary")
            state = embed_and_apply(state, op)
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12

    def test_operator_unitary_check(self):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="unitary"):
            LinearOperator(reg, np.array([[1.0, 0.0], [0.0, 2.0]]), kind="unitary")

    def test_gridded_operator_unitary_at_every_point(self):
        # One bad grid point among 3 x 4 must be caught by the batched check.
        rng = np.random.default_rng(5)
        reg = build_register([("A", 3)])
        grids = (PhaseGrid("phi", 3), PhaseGrid("theta", 4))
        matrix = np.stack(
            [random_unitary(rng, 3) for _ in range(12)]
        ).reshape(3, 4, 3, 3)
        LinearOperator(reg, matrix, kind="unitary", grids=grids, fourier_order=(1, 1))
        matrix[2, 1, :, 0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="not unitary"):
            LinearOperator(reg, matrix, kind="unitary", grids=grids, fourier_order=(1, 1))


class TestPhaseGridStates:
    def test_grid_size_must_be_an_integer(self):
        for n_points in (2.5, 16.0, math.nan, math.inf, "16"):
            with pytest.raises(ValueError, match="not an integer"):
                PhaseGrid("theta", n_points)
        grid = PhaseGrid("theta", np.int64(16))
        assert grid.points.shape == (16,)

    def test_gridded_state_roundtrip(self):
        reg = build_register([("A", 2)])
        grid = PhaseGrid("theta", 16)
        theta = grid.points
        data = np.stack(
            [np.full_like(theta, 1 / np.sqrt(2), dtype=complex),
             np.exp(1j * theta) / np.sqrt(2)],
            axis=-1,
        )
        state = QuantumState(reg, data, grids=(grid,), fourier_order=(1,))
        assert state.phase_symbols == ("theta",)
        assert state.grid_shape == (16,)

    def test_grids_need_fourier_order(self):
        # Without an order the exact-average check would have nothing to test.
        reg = build_register([("A", 2)])
        grid = PhaseGrid("theta", 16)
        vacuum = np.broadcast_to(np.array([1.0, 0.0], dtype=complex), (16, 2))
        with pytest.raises(ValueError, match="fourier_order"):
            QuantumState(reg, vacuum, grids=(grid,))
        identity = np.broadcast_to(np.eye(2, dtype=complex), (16, 2, 2))
        with pytest.raises(ValueError, match="fourier_order"):
            LinearOperator(reg, identity, kind="unitary", grids=(grid,))

    def test_grid_mismatch_rejected(self):
        reg = build_register([("A", 2)])
        g16 = PhaseGrid("theta", 16)
        g32 = PhaseGrid("theta", 32)
        s = QuantumState(
            reg,
            np.broadcast_to(np.array([1.0, 0.0], dtype=complex), (16, 2)).copy(),
            grids=(g16,),
            fourier_order=(0,),
        )
        op = LinearOperator(
            reg,
            np.broadcast_to(np.eye(2, dtype=complex), (32, 2, 2)).copy(),
            kind="unitary",
            grids=(g32,),
            fourier_order=(0,),
        )
        with pytest.raises(ValueError, match="mismatch"):
            embed_and_apply(s, op)

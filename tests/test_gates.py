import tracemalloc

import numpy as np
import pytest

from modeport.fock import (
    PhaseGrid,
    basis_state,
    build_register,
    embed_and_apply,
    from_amplitudes,
)
from modeport import fock, gates
from modeport.gates import (
    fermionic_swap_gate,
    hopping_gate,
    number_rotation_gate,
    number_rotation_matrix,
    phase_gate,
)


@pytest.fixture
def pair():
    return build_register([("a", 2), ("A", 2)])


@pytest.fixture
def grid():
    return PhaseGrid("alice", 16)


class TestPhaseGate:
    def test_pi_is_z(self, pair):
        gate = phase_gate(pair, "A", np.pi)
        state = from_amplitudes(pair, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        out = embed_and_apply(state, gate)
        expected = from_amplitudes(pair, {(1, 0): 1.0, (0, 1): -1.0}, normalize=True)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-14)

    def test_zero_is_identity(self, pair):
        gate = phase_gate(pair, "a", 0.0)
        assert gate.register == build_register([("a", 2)])
        np.testing.assert_allclose(gate.matrix, np.eye(2), atol=1e-15)
        state = from_amplitudes(pair, {(1, 0): 0.6, (0, 1): 0.8j})
        out = embed_and_apply(state, gate)
        np.testing.assert_allclose(out.data, state.data, atol=1e-15)

    def test_half_pi(self):
        reg = build_register([("m", 2)])
        gate = phase_gate(reg, "m", np.pi / 2)
        np.testing.assert_allclose(gate.matrix, np.diag([1.0, 1.0j]), atol=1e-15)

    def test_non_qubit_rejected(self):
        reg = build_register([("m", 3)])
        with pytest.raises(ValueError, match="qubit"):
            phase_gate(reg, "m", 1.0)


class TestNumberRotation:
    def test_quarter_rotation_of_vacuum(self, grid):
        # |0> -> (|0> - i e^{i theta} |1>)/sqrt(2) at every grid point.
        reg = build_register([("m", 2)])
        gate = number_rotation_gate(reg, "m", np.pi / 4, grid)
        out = embed_and_apply(basis_state(reg, (0,)), gate)
        theta = grid.points
        expected = np.stack(
            [np.full_like(theta, 1 / np.sqrt(2), dtype=complex),
             -1j * np.exp(1j * theta) / np.sqrt(2)],
            axis=-1,
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-14)
        assert out.phase_symbols == ("alice",)
        assert out.fourier_order == (1,)

    def test_zero_angle_identity(self, grid):
        reg = build_register([("m", 2)])
        gate = number_rotation_gate(reg, "m", 0.0, grid)
        np.testing.assert_allclose(
            gate.matrix, np.broadcast_to(np.eye(2), (16, 2, 2)), atol=1e-15
        )

    def test_pi_rotation_is_overall_sign(self, grid):
        mats = number_rotation_matrix(np.pi, grid.points)
        np.testing.assert_allclose(
            mats, np.broadcast_to(-np.eye(2), (16, 2, 2)), atol=1e-14
        )

    def test_rotation_inverse(self, grid):
        for theta in grid.points[:4]:
            forward = number_rotation_matrix(0.7, theta)
            backward = number_rotation_matrix(-0.7, theta)
            np.testing.assert_allclose(backward @ forward, np.eye(2), atol=1e-14)

    def test_unitary_at_every_grid_point(self, pair, grid):
        gate = number_rotation_gate(pair, "A", 0.37, grid)
        prods = np.einsum("...ji,...jk->...ik", gate.matrix.conj(), gate.matrix)
        np.testing.assert_allclose(prods, np.broadcast_to(np.eye(2), (16, 2, 2)), atol=1e-13)
        # Applied to each pair basis state, the images are the columns of the
        # gate on the pair register: orthonormal at every grid point.
        columns = np.stack(
            [embed_and_apply(basis_state(pair, occ), gate).data
             for occ in ((0, 0), (0, 1), (1, 0), (1, 1))],
            axis=-1,
        )
        prods = np.einsum("...ji,...jk->...ik", columns.conj(), columns)
        np.testing.assert_allclose(prods, np.broadcast_to(np.eye(4), (16, 4, 4)), atol=1e-13)

    def test_fourier_order_accumulates(self, pair, grid):
        state = basis_state(pair, (0, 0))
        for _ in range(3):
            state = embed_and_apply(
                state, number_rotation_gate(pair, "A", np.pi / 4, grid)
            )
        assert state.fourier_order[state.phase_symbols.index("alice")] == 3


class TestFermionicSwap:
    def test_truth_table(self, pair):
        gate = fermionic_swap_gate(pair, "a", "A")
        table = {
            (0, 0): {(0, 0): 1.0},
            (0, 1): {(1, 0): 1.0},
            (1, 0): {(0, 1): 1.0},
            (1, 1): {(1, 1): -1.0},
        }
        for occ_in, image in table.items():
            out = embed_and_apply(basis_state(pair, occ_in), gate)
            expected = from_amplitudes(pair, image)
            np.testing.assert_allclose(out.data, expected.data, atol=1e-15)

    def test_symmetric_state_fixed(self, pair):
        gate = fermionic_swap_gate(pair, "a", "A")
        state = from_amplitudes(pair, {(0, 1): 1.0, (1, 0): 1.0}, normalize=True)
        out = embed_and_apply(state, gate)
        np.testing.assert_allclose(out.data, state.data, atol=1e-15)

    def test_self_inverse(self, pair):
        gate = fermionic_swap_gate(pair, "a", "A")
        np.testing.assert_allclose(gate.matrix @ gate.matrix, np.eye(4), atol=1e-14)

    def test_identical_modes_rejected(self, pair):
        with pytest.raises(ValueError, match="repeat"):
            fermionic_swap_gate(pair, "a", "a")


class TestHopping:
    def test_raw_quarter(self, pair):
        gate = hopping_gate(pair, "a", "A", np.pi / 4, convention="raw")
        out = embed_and_apply(basis_state(pair, (1, 0)), gate)
        expected = from_amplitudes(
            pair, {(1, 0): 1 / np.sqrt(2), (0, 1): 1j / np.sqrt(2)}
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-14)

    def test_bell_quarter(self, pair):
        gate = hopping_gate(pair, "a", "A", np.pi / 4, convention="bell")
        out = embed_and_apply(basis_state(pair, (1, 0)), gate)
        expected = from_amplitudes(
            pair, {(1, 0): 1 / np.sqrt(2), (0, 1): 1 / np.sqrt(2)}
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-14)

    def test_zero_angle_identity(self, pair):
        gate = hopping_gate(pair, "a", "A", 0.0, convention="raw")
        np.testing.assert_allclose(gate.matrix, np.eye(4), atol=1e-15)

    def test_unknown_convention(self, pair):
        with pytest.raises(ValueError, match="convention"):
            hopping_gate(pair, "a", "A", 0.5, convention="other")


class TestAnalysisComposite:
    def test_symmetric_bell_state_maps_to_empty_modes(self, pair, grid):
        # Quarter rotation on A, swap, quarter rotations on both: the
        # symmetric single-particle Bell state must land on |00> up to a
        # phase at every grid point.
        state = from_amplitudes(pair, {(0, 1): 1.0, (1, 0): 1.0}, normalize=True)
        state = embed_and_apply(state, number_rotation_gate(pair, "A", np.pi / 4, grid))
        state = embed_and_apply(state, fermionic_swap_gate(pair, "a", "A"))
        state = embed_and_apply(state, number_rotation_gate(pair, "a", np.pi / 4, grid))
        state = embed_and_apply(state, number_rotation_gate(pair, "A", np.pi / 4, grid))
        amp00 = state.data[..., pair.index_of((0, 0))]
        np.testing.assert_allclose(np.abs(amp00), 1.0, atol=1e-13)


# Each builder with its uncached body: (cached call, body call) on the pair register.
SHARED_BUILDERS = {
    "phase": (
        lambda reg, grid, x: phase_gate(reg, "a", x),
        lambda grid, x: gates._phase_gate(build_register([("a", 2)]), x),
    ),
    "rotation": (
        lambda reg, grid, x: number_rotation_gate(reg, "A", x, grid),
        lambda grid, x: gates._number_rotation_gate(build_register([("A", 2)]), x, grid),
    ),
    "hopping_raw": (
        lambda reg, grid, x: hopping_gate(reg, "A", "a", x),
        lambda grid, x: gates._hopping_gate(build_register([("A", 2), ("a", 2)]), x, "raw"),
    ),
    "hopping_bell": (
        lambda reg, grid, x: hopping_gate(reg, "a", "A", x, convention="bell"),
        lambda grid, x: gates._hopping_gate(build_register([("a", 2), ("A", 2)]), x, "bell"),
    ),
}


class TestSharedGates:
    @pytest.mark.parametrize("name", sorted(SHARED_BUILDERS))
    def test_bitwise_equal_to_uncached_build(self, pair, grid, name):
        cached, body = SHARED_BUILDERS[name]
        angles = [0.0, -0.0, float(np.random.default_rng(11).uniform(-np.pi, np.pi))]
        for angle in angles + angles[::-1]:  # each sign of zero both before and after the other
            gate, ref = cached(pair, grid, angle), body(grid, angle)
            assert gate.register == ref.register and gate.grids == ref.grids
            assert gate.matrix.tobytes() == ref.matrix.tobytes()

    def test_signed_zeros_are_distinct_entries(self, pair, grid):
        # The rotation's zeros carry the sign of theta', so a float-equality
        # key would hand one of these calls the other's matrix.
        plus = number_rotation_gate(pair, "A", 0.0, grid)
        minus = number_rotation_gate(pair, "A", -0.0, grid)
        assert plus is not minus
        assert plus.matrix.tobytes() != minus.matrix.tobytes()

    def test_fermionic_swap_equals_uncached_build(self, pair):
        gate = fermionic_swap_gate(pair, "A", "a")
        ref = gates._fermionic_swap_gate(build_register([("A", 2), ("a", 2)]))
        assert gate.register == ref.register
        assert gate.matrix.tobytes() == ref.matrix.tobytes()

    def test_repeated_call_returns_same_object(self, pair, grid):
        assert phase_gate(pair, "a", 0.3) is phase_gate(pair, "a", 0.3)
        assert fermionic_swap_gate(pair, "a", "A") is fermionic_swap_gate(pair, "a", "A")
        rotation = number_rotation_gate(pair, "A", np.pi / 4, grid)
        assert rotation is number_rotation_gate(pair, "A", np.pi / 4, grid)
        # The key is the targets, not the caller's register.
        wider = build_register([("a", 2), ("A", 2), ("B", 2)])
        assert rotation is number_rotation_gate(wider, "A", np.pi / 4, grid)

    def test_matrix_is_read_only(self, pair, grid):
        for gate in (
            phase_gate(pair, "a", 0.3),
            number_rotation_gate(pair, "A", 0.3, grid),
            fermionic_swap_gate(pair, "a", "A"),
            hopping_gate(pair, "a", "A", 0.3),
        ):
            with pytest.raises(ValueError, match="read-only"):
                gate.matrix[..., 0, 0] = 2.0

    def test_cache_is_bounded(self, pair):
        for angle in np.linspace(0.0, 1.0, 3 * fock.CACHE_SIZE):
            phase_gate(pair, "a", float(angle))
        assert len(fock._cache) <= fock.CACHE_SIZE

    def test_large_grid_gates_are_not_retained(self, pair):
        # Each gate on 2**16 points holds 4 MB; a full cache of them would keep 128 MB.
        grid = PhaseGrid("big", 2**16)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for k in range(fock.CACHE_SIZE):
                number_rotation_gate(pair, "A", 0.01 * (k + 1), grid)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8_000_000

    def test_bad_target_raises_on_every_call(self, pair, grid):
        phase_gate(pair, "a", 0.3)  # the good call is cached first
        qutrit = build_register([("a", 3), ("A", 2)])
        for _ in range(2):
            with pytest.raises(ValueError, match="qubit mode"):
                phase_gate(qutrit, "a", 0.3)
            with pytest.raises(ValueError, match="unknown mode"):
                number_rotation_gate(pair, "B", 0.3, grid)
            with pytest.raises(ValueError, match="repeat"):
                fermionic_swap_gate(pair, "a", "a")

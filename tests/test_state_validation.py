"""State and operator checks: PSD verdict near its bound, NaN rejection, unchecked to_density."""

import tracemalloc

import numpy as np
import pytest

from modeport.fock import (
    MIN_EIGVAL,
    NORM_ATOL,
    PROB_FLOOR,
    TRACE_ATOL,
    LinearOperator,
    PhaseGrid,
    QuantumState,
    build_register,
)
from modeport.gates import hopping_gate, number_rotation_gate, phase_gate

NAN = float("nan")
GRIDS = (PhaseGrid("phi", 16), PhaseGrid("theta", 16))


def densities_with_min_eigenvalue(rng, dim, lead, lam_min):
    """Unit-trace Hermitian matrices of shape ``(*lead, dim, dim)``, smallest eigenvalue ``lam_min``."""
    z = rng.standard_normal(lead + (dim, dim)) + 1j * rng.standard_normal(lead + (dim, dim))
    v, _ = np.linalg.qr(z)
    rest = rng.uniform(0.1, 1.0, lead + (dim - 1,))
    rest *= ((1.0 - lam_min) / rest.sum(axis=-1))[..., None]
    w = np.concatenate([np.full(lead + (1,), lam_min), rest], axis=-1)
    rho = np.einsum("...ij,...j,...kj->...ik", v, w, v.conj())
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


class TestToDensity:
    def test_pure_state_at_the_norm_bound_has_its_trace_past_the_trace_bound(self):
        # Why to_density skips validation: |psi| = 1 + 9e-13 passes the norm
        # check, but tr |psi><psi| = |psi|^2 = 1 + 1.8e-12 would fail the trace check.
        reg = build_register([("A", 2)])
        state = QuantumState(reg, np.array([1.0 + 9e-13, 0.0]))
        assert abs(state.norms() - 1.0) <= NORM_ATOL
        rho = state.to_density()
        assert abs(rho.norms() - 1.0) > TRACE_ATOL
        np.testing.assert_array_equal(rho.data, state.density_data())
        with pytest.raises(ValueError, match="trace"):
            QuantumState(reg, rho.data)


class TestPsdCheck:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("gridded", [False, True])
    @pytest.mark.parametrize("delta", [1e-11, -1e-11, 1e-12, -1e-12, 1e-13, -1e-13, 0.0])
    def test_verdict_matches_eigenvalue_rule(self, dim, gridded, delta):
        rng = np.random.default_rng([dim, gridded, int(delta * 1e13) + 100])
        reg = build_register([("A", dim)])
        grids = GRIDS if gridded else ()
        lead = tuple(g.n_points for g in grids)
        rho = densities_with_min_eigenvalue(rng, dim, lead, MIN_EIGVAL + delta)
        accepted = np.linalg.eigvalsh(rho).min() >= MIN_EIGVAL
        if accepted:
            QuantumState(reg, rho, grids=grids, fourier_order=(0,) * len(grids))
        else:
            with pytest.raises(ValueError, match="min eigenvalue"):
                QuantumState(reg, rho, grids=grids, fourier_order=(0,) * len(grids))

    def test_one_bad_grid_point_rejected(self):
        rng = np.random.default_rng(11)
        reg = build_register([("A", 4)])
        rho = densities_with_min_eigenvalue(rng, 4, (16, 16), 0.0)
        QuantumState(reg, rho, grids=GRIDS, fourier_order=(0, 0))
        rho[9, 4] = densities_with_min_eigenvalue(rng, 4, (), 2 * MIN_EIGVAL)
        with pytest.raises(ValueError, match="min eigenvalue -2.000e-10"):
            QuantumState(reg, rho, grids=GRIDS, fourier_order=(0, 0))

    def test_screen_retains_nothing(self):
        # The screen's shifted copy is freed with the check: no dim x dim identity stays.
        reg = build_register([(f"q{i}", 2) for i in range(10)])
        rho = np.eye(reg.dim, dtype=np.complex128) / reg.dim
        tracemalloc.start()
        try:
            QuantumState(reg, rho)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000


class TestNanRejected:
    def test_pure_state(self):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="norm"):
            QuantumState(reg, np.array([NAN, 0.0]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_density_matrix(self, entry):
        reg = build_register([("A", 2)])
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        rho[entry] = NAN
        with pytest.raises(ValueError):
            QuantumState(reg, rho)

    @pytest.mark.parametrize("kind", ["unitary", "hermitian"])
    def test_operator(self, kind):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="not unitary" if kind == "unitary" else "Hermitian"):
            LinearOperator(reg, np.full((2, 2), NAN, dtype=complex), kind=kind)

    @pytest.mark.parametrize(
        "build",
        [
            lambda reg: phase_gate(reg, "a", NAN),
            lambda reg: number_rotation_gate(reg, "a", NAN, PhaseGrid("phi", 16)),
            lambda reg: hopping_gate(reg, "a", "b", NAN),
        ],
        ids=["phase", "number_rotation", "hopping"],
    )
    def test_gate_angle(self, build):
        reg = build_register([("a", 2), ("b", 2)])
        with pytest.raises(ValueError, match="not unitary"):
            build(reg)


def verdict(build):
    """None if ``build()`` passes, else its ValueError message."""
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


class TestGridFreeMatchesGridded:
    """A grid-free state's norm/trace test, run on Python floats, gives the
    verdict and message of the same data tiled on a 2-point grid."""

    INF = float("inf")
    CASES = [
        (1.0, None),
        (1.0 + 2e-12, "worst deviation"),
        (NAN, "worst deviation nan"),
        (INF, "worst deviation inf"),
        (-0.5, "worst deviation 5.000e-01"),
        (0.0, "0 at every grid point"),
        (PROB_FLOOR * (1.0 - 1e-3), "0 at every grid point"),
        (PROB_FLOOR * (1.0 + 1e-3), None),
    ]

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("value, message", CASES)
    def test_same_verdict_and_message(self, pure, value, message):
        reg = build_register([("A", 2)])
        data = np.array([value, 0.0]) if pure else np.diag([value, 0.0])
        grid_free = verdict(lambda: QuantumState(reg, data))
        gridded = verdict(
            lambda: QuantumState(
                reg, np.stack([data, data]), grids=(PhaseGrid("phi", 2),), fourier_order=(0,)
            )
        )
        assert grid_free == gridded
        if message is None:
            assert grid_free is None
        else:
            assert message in grid_free

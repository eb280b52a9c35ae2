import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from modeport import fock, hamiltonian, reservoir
from modeport.fock import (
    PhaseGrid,
    QuantumState,
    basis_state,
    build_register,
    from_amplitudes,
    ladder_operator,
    phase_average,
)
from modeport.gates import number_rotation_gate
from modeport.reservoir import (
    ReservoirSpec,
    coherent_state,
    ssr_compliance_check,
    twirl_all,
    twirl_state,
)


def phase_superposition(grid, relative_order=1):
    """(|0> + e^{i k theta} |1>)/sqrt(2) on the grid."""
    reg = build_register([("m", 2)])
    theta = grid.points
    data = np.stack(
        [np.full_like(theta, 1 / np.sqrt(2), dtype=complex),
         np.exp(1j * relative_order * theta) / np.sqrt(2)],
        axis=-1,
    )
    return QuantumState(reg, data, grids=(grid,), fourier_order=(relative_order,))


class TestTwirl:
    def test_phase_average_kills_coherence(self):
        grid = PhaseGrid("theta", 16)
        state = phase_superposition(grid)
        out = twirl_state(state, "theta")
        np.testing.assert_allclose(out.data, np.eye(2) / 2.0, atol=1e-15)
        assert out.phase_symbols == ()

    def test_constant_state_unchanged(self):
        grid = PhaseGrid("theta", 16)
        reg = build_register([("m", 2)])
        vec = np.array([0.6, 0.8j], dtype=complex)
        data = np.broadcast_to(vec, (16, 2)).copy()
        state = QuantumState(reg, data, grids=(grid,), fourier_order=(0,))
        out = twirl_state(state, "theta")
        np.testing.assert_allclose(out.data, np.outer(vec, vec.conj()), atol=1e-15)

    def test_failure_branch_state_twirls_to_mixed(self):
        # ((1 +- e^{2 i theta})|0> + (1 -+ e^{2 i theta})|1>)/2 averages to I/2.
        grid = PhaseGrid("theta", 16)
        reg = build_register([("m", 2)])
        theta = grid.points
        for sign in (+1.0, -1.0):
            data = np.stack(
                [(1.0 + sign * np.exp(2j * theta)) / 2.0,
                 (1.0 - sign * np.exp(2j * theta)) / 2.0],
                axis=-1,
            )
            state = QuantumState(reg, data, grids=(grid,), fourier_order=(2,))
            out = twirl_state(state, "theta")
            np.testing.assert_allclose(out.data, np.eye(2) / 2.0, atol=1e-15)

    def test_symbol_absent(self):
        reg = build_register([("m", 2)])
        with pytest.raises(ValueError, match="symbol"):
            twirl_state(basis_state(reg, (0,)), "theta")

    def test_symbol_absent_from_a_gridded_state(self):
        state = phase_superposition(PhaseGrid("phi", 16))
        with pytest.raises(ValueError, match="symbol 'theta'"):
            twirl_state(state, "theta")
        with pytest.raises(ValueError, match="symbol 'theta'"):
            phase_average(state, symbols=["phi", "theta"])

    def test_grid_too_coarse(self):
        grid = PhaseGrid("theta", 4)
        state = phase_superposition(grid, relative_order=2)
        with pytest.raises(ValueError, match="Fourier order"):
            twirl_state(state, "theta")

    def test_only_averaged_grids_are_checked(self):
        # The kept "charlie" grid is too coarse for its Fourier order 2.
        coarse = PhaseGrid("charlie", 4)
        state = QuantumState(
            build_register([("m", 2)]),
            np.broadcast_to(phase_superposition(coarse, relative_order=2).data, (16, 4, 2)),
            grids=(PhaseGrid("alice", 16), coarse),
            fourier_order=(0, 2),
        )
        out = twirl_state(state, "alice")
        assert out.phase_symbols == ("charlie",)
        assert out.fourier_order == (2,)
        np.testing.assert_allclose(out.data, state.density_data()[0], rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="Fourier order"):
            twirl_state(state, "charlie")

    def test_branch_probability_needs_every_grid(self):
        grids = (PhaseGrid("alice", 16), PhaseGrid("charlie", 16))
        state = QuantumState(
            build_register([("m", 2)]),
            np.broadcast_to([1.0, 0.0], (16, 16, 2)),
            grids=grids,
            fourier_order=(0, 0),
        )
        with pytest.raises(ValueError, match="every phase grid"):
            phase_average(state, np.full((16, 16), 0.5), symbols=["alice"])

    def test_idempotent(self):
        grid = PhaseGrid("theta", 16)
        once = twirl_state(phase_superposition(grid), "theta")
        reattached = QuantumState(
            once.register,
            np.broadcast_to(once.data, (16,) + once.data.shape).copy(),
            grids=(grid,),
            fourier_order=(0,),
        )
        twice = twirl_state(reattached, "theta")
        np.testing.assert_allclose(twice.data, once.data, atol=1e-15)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(9)
        grid = PhaseGrid("theta", 16)
        reg = build_register([("m", 2), ("k", 2)])
        theta = grid.points
        for _ in range(5):
            base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            base /= np.linalg.norm(base)
            phases = np.exp(1j * np.outer(theta, rng.integers(-1, 2, size=4)))
            data = base * phases
            data /= np.linalg.norm(data, axis=-1, keepdims=True)
            state = QuantumState(reg, data, grids=(grid,), fourier_order=(1,))
            out = twirl_state(state, "theta")
            assert abs(np.trace(out.data) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.data).min() > -1e-12

    def test_doubling_grid_leaves_twirl_unchanged(self):
        results = []
        for n_points in (16, 32):
            grid = PhaseGrid("theta", n_points)
            results.append(twirl_state(phase_superposition(grid), "theta").data)
        np.testing.assert_allclose(results[0], results[1], atol=1e-14)

    def test_twirl_all_over_two_symbols(self):
        g1 = PhaseGrid("alice", 16)
        g2 = PhaseGrid("charlie", 16)
        reg = build_register([("m", 2)])
        t1 = g1.points[:, None]
        t2 = g2.points[None, :]
        data = np.stack(
            [np.broadcast_to(np.exp(1j * t1), (16, 16)) / np.sqrt(2),
             np.broadcast_to(np.exp(1j * t2), (16, 16)) / np.sqrt(2)],
            axis=-1,
        )
        state = QuantumState(reg, data, grids=(g1, g2), fourier_order=(1, 1))
        out = twirl_all(state)
        assert out.phase_symbols == ()
        np.testing.assert_allclose(out.data, np.eye(2) / 2.0, atol=1e-15)
        one_at_a_time = twirl_state(twirl_state(state, "alice"), "charlie")
        np.testing.assert_allclose(out.data, one_at_a_time.data, rtol=0, atol=1e-15)


class TestSsr:
    def test_single_sector_compliant(self):
        reg = build_register([("A", 2), ("B", 2)])
        state = from_amplitudes(reg, {(0, 1): 1.0, (1, 0): 1.0}, normalize=True)
        report = ssr_compliance_check(state)
        assert report.compliant
        assert report.max_offblock_norm < 1e-15

    def test_number_coherence_flagged(self):
        reg = build_register([("A", 2), ("B", 2)])
        state = from_amplitudes(reg, {(0, 0): 1.0, (1, 1): 1.0}, normalize=True)
        report = ssr_compliance_check(state)
        assert not report.compliant
        assert abs(report.max_offblock_norm - 0.5) < 1e-14

    def test_twirled_coherence_compliant(self):
        grid = PhaseGrid("theta", 16)
        reg = build_register([("A", 2), ("B", 2)])
        theta = grid.points
        data = np.zeros((16, 4), dtype=complex)
        data[:, reg.index_of((0, 0))] = 1 / np.sqrt(2)
        data[:, reg.index_of((1, 1))] = np.exp(2j * theta) / np.sqrt(2)
        state = QuantumState(reg, data, grids=(grid,), fourier_order=(2,))
        report = ssr_compliance_check(twirl_state(state, "theta"))
        assert report.compliant

    def test_unresolved_symbols_rejected(self):
        grid = PhaseGrid("theta", 16)
        state = phase_superposition(grid)
        with pytest.raises(ValueError, match="twirl"):
            ssr_compliance_check(state)

    def test_check_keeps_no_mask_on_the_register(self):
        # A dim x dim off-sector mask kept with the register would retain 1 MB here.
        reg = build_register([(f"m{i}", 2) for i in range(10)])
        state = basis_state(reg, (1,) + (0,) * 9)
        assert reg.total_numbers.size == reg.dim  # a per-state table, built before tracing
        tracemalloc.start()
        try:
            report = ssr_compliance_check(state)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.compliant and report.max_offblock_norm == 0.0
        assert retained < 64 * 1024


class TestCoherentState:
    def test_small_nbar_is_vacuum_like(self):
        spec = ReservoirSpec("res", 1e-8, cutoff=4)
        state, deficit = coherent_state(spec, 0.3)
        assert abs(abs(state.data[0]) - 1.0) < 1e-7
        assert deficit < 1e-7

    def test_mean_occupation(self):
        cutoff = 24
        spec = ReservoirSpec("res", 4.0, cutoff=cutoff)
        state, deficit = coherent_state(spec, 0.0)
        assert deficit < 1e-10
        n_op = ladder_operator(state.register, "res", "number").matrix
        mean_n = float(np.real(state.data.conj() @ n_op @ state.data))
        assert abs(mean_n - 4.0) < 1e-6

    def test_phase_shift_by_pi_alternates_signs(self):
        spec = ReservoirSpec("res", 4.0, cutoff=24)
        s0, _ = coherent_state(spec, 0.7)
        s1, _ = coherent_state(spec, 0.7 + np.pi)
        signs = np.array([(-1.0) ** n for n in range(24)])
        np.testing.assert_allclose(s1.data, signs * s0.data, atol=1e-12)

    def test_cutoff_invariant_enforced(self):
        with pytest.raises(ValueError, match="cutoff"):
            ReservoirSpec("res", 4.0, cutoff=10)

    def test_non_finite_nbar_rejected(self):
        for nbar in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ReservoirSpec("res", nbar)

    def test_non_finite_theta_rejected_before_allocating(self):
        spec = ReservoirSpec("res", 1e6)
        for theta in (math.inf, -math.inf, math.nan):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="theta"):
                    coherent_state(spec, theta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # The amplitudes alone would take 16 MB.
            assert peak < 1_000_000

    def test_non_integer_cutoff_rejected(self):
        for cutoff in (30.5, 30.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="not an integer"):
                ReservoirSpec("res", 4.0, cutoff=cutoff)
        assert ReservoirSpec("res", 4.0, cutoff=np.int64(30)).cutoff == 30

    def test_default_cutoff_is_smallest_allowed(self):
        assert ReservoirSpec("res", 4.0).cutoff == 24
        assert ReservoirSpec("res", 256.0).cutoff == 416
        assert ReservoirSpec("res", 1e-4).cutoff == 2

    def test_large_nbar_norm_retained(self):
        spec = ReservoirSpec("res", 256.0, cutoff=416)
        state, deficit = coherent_state(spec, 0.0)
        assert deficit < 1e-10
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12


def reference_coherent_state(spec, theta):
    """coherent_state's amplitudes and deficit, built from scratch with its formula."""
    theta = math.atan2(math.sin(theta), math.cos(theta))
    n = np.arange(spec.cutoff)
    log_mag = -spec.nbar / 2.0 + 0.5 * n * math.log(spec.nbar)
    log_mag -= 0.5 * np.fromiter(map(math.lgamma, (n + 1.0).tolist()), np.float64, n.size)
    amps = np.exp(log_mag) * np.exp(1j * theta * n)
    norm_sq = float((np.abs(amps) ** 2).sum())
    return amps / math.sqrt(norm_sq), 1.0 - norm_sq


def assert_matches_reference(spec, theta):
    state, deficit = coherent_state(spec, theta)
    amps, expected = reference_coherent_state(spec, theta)
    assert state.data.tobytes() == amps.tobytes()  # every bit, signed zeros included
    assert deficit.hex() == expected.hex()


def magnitudes_of(spec):
    return fock.shared(reservoir._magnitudes, spec.label, spec.nbar, spec.cutoff)


@pytest.fixture
def cache(monkeypatch):
    """The package's one cache, empty for this test."""
    cache = OrderedDict()
    monkeypatch.setattr(fock, "_cache", cache)
    return cache


def magnitude_tables(cache):
    """The cache's keys of magnitude tables, named by the build in each key."""
    return [key for key in cache if key[0] is reservoir._magnitudes]


class TestMagnitudeCache:
    # 20000 has 21,415 occupations, 42,830 entries past CACHE_ENTRIES, so it is never kept.
    NBARS = [1e-4, 4.0, 64.0, 256.0, 20000.0]
    THETAS = [0.0, 0.3, -2.5, 1e300]

    def test_equals_reference_cold_warm_and_alternating(self, cache):
        specs = [ReservoirSpec("res", nbar) for nbar in self.NBARS]
        for spec in specs:  # the first theta of each spec finds the cache cold
            for theta in self.THETAS:
                assert_matches_reference(spec, theta)
        for theta in reversed(self.THETAS):  # warm, theta by theta
            for spec in specs:
                assert_matches_reference(spec, theta)
        for k in range(12):  # kept and unkept specs in turn, thetas cycling
            assert_matches_reference(specs[[1, 4, 3, 0][k % 4]], self.THETAS[k % 3])
        assert len(magnitude_tables(cache)) == len(cache) == 4

    def test_cached_arrays_are_read_only_and_not_aliased(self, cache):
        spec = ReservoirSpec("res", 64.0)
        states = [coherent_state(spec, theta)[0] for theta in (0.0, 0.0, 1.1)]
        register, n, magnitudes = magnitudes_of(spec)
        assert magnitudes_of(spec)[2] is magnitudes
        assert all(state.register is register for state in states)
        for array in (n, magnitudes):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            assert not any(np.shares_memory(state.data, array) for state in states)
        assert not np.shares_memory(states[0].data, states[1].data)

    def test_spec_past_size_rule_is_not_retained(self, cache):
        limit = 2**14  # n and the magnitudes: 2 * 2**14 entries
        assert 2 * limit == fock.CACHE_ENTRIES
        assert ReservoirSpec("res", 20000.0).cutoff > limit
        for spec in (ReservoirSpec("res", 20000.0), ReservoirSpec("res", 4.0, cutoff=limit + 1)):
            for _ in range(2):
                assert_matches_reference(spec, 0.3)
            assert magnitudes_of(spec)[2] is not magnitudes_of(spec)[2]
        assert len(cache) == 0
        assert_matches_reference(ReservoirSpec("res", 4.0, cutoff=limit), 0.3)
        assert len(magnitude_tables(cache)) == len(cache) == 1

    def test_float32_and_int_nbar_get_their_own_entries(self, cache):
        specs = [
            ReservoirSpec("res", 4.0),
            ReservoirSpec("res", np.float32(4.0)),
            ReservoirSpec("res", 4),
        ]
        assert specs[0] == specs[1] == specs[2]  # one entry, had the spec been the key
        for spec in specs + specs[::-1]:
            for theta in (0.3, -2.5):
                assert_matches_reference(spec, theta)
        assert len(magnitude_tables(cache)) == len(cache) == 3


def split_register():
    return build_register([("A", 3), ("B", 3)])


SHARED_ARRAYS = {
    "occupations": lambda: split_register().occupations,
    "total_numbers": lambda: split_register().total_numbers,
    "sector-size-1": lambda: split_register().sectors[0],
    "sector-size-2": lambda: split_register().sectors[1],
    "sector-size-3": lambda: split_register().sectors[2],
    "readout-groups": lambda: split_register().readout(["B"])[2],
    "grid-points": lambda: PhaseGrid("th", 8).points,
    "gate-matrix": lambda: number_rotation_gate(
        build_register([("A", 2)]), "A", 0.3, PhaseGrid("th", 8)
    ).matrix,
    "pulse-block": lambda: fock.shared(hamiltonian._rotation_pulse, 9.0).blocks[-1],
    "magnitudes-n": lambda: magnitudes_of(ReservoirSpec("res", 9.0))[1],
    "magnitudes": lambda: magnitudes_of(ReservoirSpec("res", 9.0))[2],
}


@pytest.mark.parametrize("name", SHARED_ARRAYS)
def test_every_shared_array_is_read_only(name):
    array = SHARED_ARRAYS[name]()
    first = (0,) * array.ndim
    with pytest.raises(ValueError, match="read-only"):
        array[first] = array[first]  # a write of the value it holds


def test_register_tables_cannot_be_rewritten_to_hide_a_number_superposition():
    reg = build_register([("m", 2)])
    state = from_amplitudes(reg, {(0,): 1.0, (1,): 1.0}, normalize=True)
    before = ssr_compliance_check(state)
    assert not before.compliant and abs(before.max_offblock_norm - 0.5) < 1e-15
    # Writable, this zeroing made the check read the N = 0, 1 superposition as one sector.
    with pytest.raises(ValueError, match="read-only"):
        reg.total_numbers[:] = 0
    assert ssr_compliance_check(state) == before

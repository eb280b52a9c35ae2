import copy
import gc
import math
import re
import sys
import tracemalloc
import warnings
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeport import fock, hamiltonian, reservoir
from modeport.cli import RunConfig, main
from modeport.fock import (
    LinearOperator,
    PhaseGrid,
    QuantumState,
    basis_state,
    build_register,
    from_amplitudes,
    ladder_operator,
    shared,
)
from modeport.gates import number_rotation_gate, number_rotation_matrix, phase_gate
from modeport.hamiltonian import (
    MAX_SWAP_RATIO,
    HamiltonianParams,
    build_hamiltonian,
    evolve,
    hardcore_limit_scan,
    propagator,
    reservoir_resolved_rotation,
    rotation_deviation,
    rotation_modes,
    swap_process_fidelity,
)
from modeport.reservoir import ReservoirSpec, coherent_state

# Values pinned from the exact-diagonalization scans on first computation;
# the scan results are deterministic regressions against these.
HARDCORE_REGRESSION = {
    1.0: 2.000842652769068e-01,
    10.0: 6.714599111484421e-03,
    100.0: 6.174538211012326e-05,
    1000.0: 6.168563170261265e-07,
}
RESERVOIR_REGRESSION = {
    4.0: 1.208185862710015e-01,
    16.0: 3.132577965962589e-02,
    64.0: 7.902828562773197e-03,
    256.0: 1.980189325654901e-03,
}


def naive_two_mode_hamiltonian(g, u):
    """Loop-built H = -g (a+_A a_B + a+_B a_A) + u sum_i n_i (n_i - 1), dims (3, 3)."""
    occ = [(m, n) for m in range(3) for n in range(3)]
    index = {o: i for i, o in enumerate(occ)}
    h = np.zeros((9, 9), dtype=complex)
    for i, (m, n) in enumerate(occ):
        h[i, i] += u * (m * (m - 1) + n * (n - 1))
        if m < 2 and n > 0:
            h[index[(m + 1, n - 1)], i] += -g * np.sqrt((m + 1) * n)
        if n < 2 and m > 0:
            h[index[(m - 1, n + 1)], i] += -g * np.sqrt(m * (n + 1))
    return h


class TestBuild:
    def test_block_storage_past_budget_refused_before_allocating(self):
        # 2**20 states pass the register bound, but the blocks would need
        # 715,828,224 complex entries, 11.5 GB.
        reg = build_register([("A", 1024), ("B", 1024)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="need 11453251584 bytes, over 1090519040"):
                build_hamiltonian(reg, HamiltonianParams(hops={("A", "B"): 1.0}))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000_000

    def test_hopping_single_particle_eigenvalues(self):
        reg = build_register([("A", 2), ("B", 2)])
        h = build_hamiltonian(reg, HamiltonianParams(hops={("A", "B"): 1.0}))
        block_idx = [reg.index_of((0, 1)), reg.index_of((1, 0))]
        block = h.matrix[np.ix_(block_idx, block_idx)]
        np.testing.assert_allclose(
            np.linalg.eigvalsh(block), [-0.5, 0.5], atol=1e-14
        )

    def test_onsite_energy_of_double_occupation(self):
        reg = build_register([("A", 3)])
        h = build_hamiltonian(reg, HamiltonianParams(u={"A": 0.7}))
        vec = basis_state(reg, (2,)).data
        energy = np.real(vec.conj() @ h.matrix @ vec)
        assert abs(energy - 2 * 0.7) < 1e-14

    def test_zero_params_zero_matrix(self):
        reg = build_register([("A", 2), ("B", 2)])
        h = build_hamiltonian(reg, HamiltonianParams())
        np.testing.assert_allclose(h.matrix, 0.0, atol=1e-15)

    def test_matches_loop_oracle(self):
        reg = build_register([("A", 3), ("B", 3)])
        params = HamiltonianParams(hops={("A", "B"): 2.0}, u={"A": 0.5, "B": 0.5})
        h = build_hamiltonian(reg, params)
        np.testing.assert_allclose(
            h.matrix, naive_two_mode_hamiltonian(1.0, 0.5), atol=1e-14
        )

    def test_missing_mode_rejected(self):
        reg = build_register([("A", 2), ("B", 2)])
        with pytest.raises(ValueError, match="unknown"):
            build_hamiltonian(reg, HamiltonianParams(hops={("a", "A"): 1.0}))
        with pytest.raises(ValueError, match="unknown"):
            build_hamiltonian(reg, HamiltonianParams(u={"x": 1.0}))

    def test_hermitian(self):
        reg = build_register([("a", 2), ("A", 2), ("B", 2)])
        params = HamiltonianParams(
            hops={("A", "B"): 0.3, ("a", "A"): 1.1}, u={"a": 2.0}, e={"B": 0.4}
        )
        h = build_hamiltonian(reg, params)
        np.testing.assert_allclose(h.matrix, h.matrix.conj().T, atol=1e-14)

    def test_number_conserved_with_resolved_reservoir(self):
        reg = build_register([("m", 2), ("res", 24)])
        params = HamiltonianParams(hops={("m", "res"): 1.0})
        h = build_hamiltonian(reg, params)
        total_n = (
            ladder_operator(reg, "m", "number").matrix
            + ladder_operator(reg, "res", "number").matrix
        )
        comm = h.matrix @ total_n - total_n @ h.matrix
        assert np.abs(comm).max() < 1e-12

    @pytest.mark.parametrize("key", ["AB", ("A",), ("A", "A")], ids=["string", "one", "same"])
    def test_hop_key_must_be_two_distinct_labels(self, key):
        with pytest.raises(ValueError, match="two mode labels|itself"):
            HamiltonianParams(hops={key: 1.0})


class TestEvolve:
    def test_zero_time_identity(self):
        reg = build_register([("A", 2), ("B", 2)])
        h = build_hamiltonian(reg, HamiltonianParams(hops={("A", "B"): 1.0}))
        state = basis_state(reg, (1, 0))
        out = evolve(state, h, 0.0)
        np.testing.assert_allclose(out.data, state.data, atol=1e-15)

    def test_half_swap_closed_form(self):
        # J*t = pi/2 moves |10> to (|10> + i |01>)/sqrt(2).
        reg = build_register([("A", 2), ("B", 2)])
        j = 0.8
        h = build_hamiltonian(reg, HamiltonianParams(hops={("A", "B"): j}))
        out = evolve(basis_state(reg, (1, 0)), h, (np.pi / 2) / j)
        expected = from_amplitudes(
            reg, {(1, 0): 1 / np.sqrt(2), (0, 1): 1j / np.sqrt(2)}
        )
        np.testing.assert_allclose(out.data, expected.data, atol=1e-13)

    def test_bias_phase_flip(self):
        # A bias E for t = pi/E flips the sign of |1> relative to |0>.
        reg = build_register([("m", 2)])
        e = 1.7
        h = build_hamiltonian(reg, HamiltonianParams(e={"m": e}))
        state = from_amplitudes(reg, {(0,): 1.0, (1,): 1.0}, normalize=True)
        out = evolve(state, h, np.pi / e)
        expected = from_amplitudes(reg, {(0,): 1.0, (1,): -1.0}, normalize=True)
        np.testing.assert_allclose(
            out.to_density().data, expected.to_density().data, atol=1e-13
        )

    def test_unitarity_and_composition(self):
        rng = np.random.default_rng(12)
        reg = build_register([("A", 3), ("B", 3)])
        h = build_hamiltonian(
            reg, HamiltonianParams(hops={("A", "B"): 1.3}, u={"A": 0.2, "B": 0.9})
        )
        vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        state = QuantumState(reg, vec / np.linalg.norm(vec))
        t1, t2 = 0.37, 1.21
        stepped = evolve(evolve(state, h, t1), h, t2)
        direct = evolve(state, h, t1 + t2)
        assert abs(np.linalg.norm(stepped.data) - 1.0) < 1e-12
        np.testing.assert_allclose(stepped.data, direct.data, atol=1e-10)

    def test_hamiltonian_on_some_modes_matches_full_register_build(self):
        rng = np.random.default_rng(16)
        params = HamiltonianParams(
            hops={("probe", "res"): 1.1}, u={"res": 0.3}, e={"probe": 0.7, "res": -0.2}
        )
        sub = build_register([("probe", 2), ("res", 24)])
        reg = build_register([("a", 2), ("probe", 2), ("res", 24)])
        vec = rng.standard_normal(reg.dim) + 1j * rng.standard_normal(reg.dim)
        pure = QuantumState(reg, vec / np.linalg.norm(vec))
        for state in (pure, pure.to_density()):
            got = evolve(state, build_hamiltonian(sub, params), 0.83)
            want = evolve(state, build_hamiltonian(reg, params), 0.83)
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_hamiltonian_on_a_mode_the_state_lacks_rejected(self, t):
        h = build_hamiltonian(build_register([("A", 2), ("B", 2)]), HamiltonianParams(hops={("A", "B"): 1.0}))
        state = basis_state(build_register([("A", 2), ("C", 2)]), (1, 0))
        with pytest.raises(ValueError, match="unknown mode label 'B'"):
            evolve(state, h, t)

    def test_non_hermitian_rejected(self):
        reg = build_register([("m", 2)])
        bad = LinearOperator(reg, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(basis_state(reg, (0,)), bad, 1.0)


    def test_hermitian_matrix_of_general_kind_rejected(self):
        # Hermiticity is checked when an operator is built as kind="hermitian";
        # propagator relies on that check instead of repeating it.
        reg = build_register([("m", 2)])
        h = LinearOperator(reg, np.array([[1.0, 0.0], [0.0, -1.0]]), kind="general")
        with pytest.raises(ValueError, match="Hermitian"):
            propagator(h, 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(basis_state(reg, (0,)), h, 0.0)


def random_number_conserving_hermitian(rng, reg):
    """Random Hermitian matrix with every entry between total-n sectors zeroed."""
    z = rng.standard_normal((reg.dim, reg.dim)) + 1j * rng.standard_normal((reg.dim, reg.dim))
    h = z + z.conj().T
    h[reg.total_numbers[:, None] != reg.total_numbers] = 0.0
    return h


def sector_hamiltonian(reg, h):
    """Dense Hermitian ``h`` as an operator of the blocks gathered from ``reg.sectors``."""
    blocks = [h[idx[:, :, None], idx[:, None, :]] for idx in reg.sectors]
    return LinearOperator(reg, blocks=blocks, kind="hermitian")


SECTOR_REGISTERS = pytest.mark.parametrize(
    "modes",
    [[("a", 3), ("A", 2), ("B", 3)], [("probe", 2), ("res", 12)]],
    ids=["three_modes", "probe_reservoir"],
)

# Default `modeport hardcore`, `modeport reservoir` and `modeport densecoding`
# output, byte for byte.
HARDCORE_CSV = (
    "ratio,infidelity\n"
    "1,0.200084265277\n"
    "10,0.00671459911148\n"
    "100,6.17453821101e-05\n"
    "1000,6.16856317026e-07\n"
)
# `modeport hardcore --ratios 0.5,1,3,10,100,1000,10000`, byte for byte; the
# 10**4 row moves if the fidelity moves by one ulp.
HARDCORE_WIDE_CSV = (
    "ratio,infidelity\n"
    "0.5,0.315608933542\n"
    "1,0.200084265277\n"
    "3,0.0901945461964\n"
    "10,0.00671459911148\n"
    "100,6.17453821101e-05\n"
    "1000,6.16856317026e-07\n"
    "10000,6.16850392987e-09\n"
)
RESERVOIR_CSV = (
    "nbar,deviation\n"
    "4,0.120818586271\n"
    "16,0.0313257796596\n"
    "64,0.00790282856277\n"
    "256,0.00198018932565\n"
)
DENSECODING_JSON = """\
{
  "command": "densecoding",
  "grid_points": 16,
  "messages": [
    {
      "decoded": 0,
      "deterministic": true,
      "message": 0,
      "min_winning_probability": 1.0,
      "outcomes": [
        {
          "mean_probability": 1.0,
          "n_alice": 0,
          "n_bob": 0
        }
      ]
    },
    {
      "decoded": 1,
      "deterministic": true,
      "message": 1,
      "min_winning_probability": 1.0,
      "outcomes": [
        {
          "mean_probability": 1.0,
          "n_alice": 0,
          "n_bob": 1
        }
      ]
    },
    {
      "decoded": 2,
      "deterministic": true,
      "message": 2,
      "min_winning_probability": 1.0,
      "outcomes": [
        {
          "mean_probability": 1.0,
          "n_alice": 1,
          "n_bob": 1
        }
      ]
    },
    {
      "decoded": 3,
      "deterministic": true,
      "message": 3,
      "min_winning_probability": 1.0,
      "outcomes": [
        {
          "mean_probability": 1.0,
          "n_alice": 1,
          "n_bob": 0
        }
      ]
    }
  ]
}
"""


class TestSectorPropagator:
    @SECTOR_REGISTERS
    def test_matches_dense_eigh_oracle(self, modes):
        rng = np.random.default_rng(31)
        reg = build_register(modes)
        h = random_number_conserving_hermitian(rng, reg)
        for t in (0.0, 0.41, 3.7):
            w, v = np.linalg.eigh(h)
            oracle = (v * np.exp(-1j * w * t)) @ v.conj().T
            u = propagator(sector_hamiltonian(reg, h), t)
            np.testing.assert_allclose(u.matrix, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_number_changing_generator_rejected(self, t):
        # a + a^+ on one mode is Hermitian but couples sectors n and n + 1, so
        # it has no sector blocks; as a dense H it meets the dense-H refusal.
        reg = build_register([("m", 3), ("r", 2)])
        create = ladder_operator(reg, "m", "create").matrix
        h = LinearOperator(reg, create + create.conj().T, kind="hermitian")
        with pytest.raises(ValueError, match="particle number"):
            propagator(h, t)
        with pytest.raises(ValueError, match="particle number"):
            evolve(basis_state(reg, (0, 0)), h, t)

    def test_reservoir_self_coupling_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            HamiltonianParams(hops={("res", "res"): 1.0})

    def test_unitarity_checked_for_every_sector_size(self, monkeypatch):
        reg = build_register([("a", 3), ("A", 2), ("B", 3)])
        h = sector_hamiltonian(
            reg, random_number_conserving_hermitian(np.random.default_rng(5), reg)
        )
        sizes = sorted(set(np.bincount(reg.total_numbers).tolist()))
        assert len(sizes) > 2
        eigh = np.linalg.eigh
        for size in sizes:

            def scaled(a, size=size):
                w, v = eigh(a)
                return w, (v * (1.0 + 1e-9) if a.shape[-1] == size else v)

            monkeypatch.setattr(np.linalg, "eigh", scaled)
            with pytest.raises(ValueError, match="not unitary"):
                propagator(h, 0.41)

    @SECTOR_REGISTERS
    def test_exactly_zero_off_sector(self, modes):
        reg = build_register(modes)
        h = random_number_conserving_hermitian(np.random.default_rng(17), reg)
        off = reg.total_numbers[:, None] != reg.total_numbers
        for t in (0.41, 3.7):
            u = propagator(sector_hamiltonian(reg, h), t)
            assert np.all(u.matrix[off] == 0.0)

    @SECTOR_REGISTERS
    def test_dense_hamiltonian_refused_before_eigh(self, modes, monkeypatch):
        reg = build_register(modes)
        h = LinearOperator(
            reg, random_number_conserving_hermitian(np.random.default_rng(23), reg),
            kind="hermitian",
        )
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        with pytest.raises(ValueError, match="sector blocks .* not dense"):
            propagator(h, 0.41)
        with pytest.raises(ValueError, match="sector blocks .* not dense"):
            evolve(basis_state(reg, (0,) * len(modes)), h, 0.41)
        assert calls == []

    @pytest.mark.parametrize(
        "command,golden",
        [
            ("hardcore", HARDCORE_CSV),
            ("reservoir", RESERVOIR_CSV),
            ("densecoding", DENSECODING_JSON),
        ],
    )
    def test_default_scan_csv_bytes(self, tmp_path, command, golden):
        out = tmp_path / "scan.csv"
        assert main([command, "--out", str(out)]) == 0
        assert out.read_bytes() == golden.encode()

    def test_wide_ratio_csv_bytes(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["hardcore", "--ratios", "0.5,1,3,10,100,1000,10000", "--out", str(out)]) == 0
        assert out.read_bytes() == HARDCORE_WIDE_CSV.encode()


class TestHardcoreScan:
    def test_free_evolution_has_large_infidelity(self):
        # With U = 0 the swap-period evolution returns |11> with the wrong
        # relative sign, so the phase-sensitive fidelity caps at 1/2.
        infidelity = 1.0 - swap_process_fidelity(0.0)
        assert infidelity > 0.1
        assert abs(infidelity - 0.5) < 1e-9

    def test_free_evolution_matches_loop_oracle(self):
        # Exact 3-level evolution from the loop-built Hamiltonian.
        h = naive_two_mode_hamiltonian(1.0, 0.0)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * (np.pi / 2))) @ v.conj().T
        occ = [(m, n) for m in range(3) for n in range(3)]
        index = {o: i for i, o in enumerate(occ)}
        # |11> returns exactly to -|11>: all two-particle eigenphases hit -1.
        amp = u[index[(1, 1)], index[(1, 1)]]
        assert abs(amp - (-1.0)) < 1e-12
        # Single-particle block performs the full exchange with phase i.
        amp_swap = u[index[(0, 1)], index[(1, 0)]]
        assert abs(amp_swap - 1j) < 1e-12

    def test_single_particle_sector_exact_at_any_u(self):
        for ratio in (0.5, 7.0, 300.0):
            reg = build_register([("A", 3), ("B", 3)])
            params = HamiltonianParams(hops={("A", "B"): 2.0}, u={"A": ratio, "B": ratio})
            h = build_hamiltonian(reg, params)
            out = evolve(basis_state(reg, (1, 0)), h, np.pi / 2)
            amp = out.data[reg.index_of((0, 1))]
            assert abs(abs(amp) - 1.0) < 1e-10

    def test_scan_regression_and_monotone(self):
        scan = hardcore_limit_scan(sorted(HARDCORE_REGRESSION))
        infs = [i for _, i in scan]
        assert all(b <= a for a, b in zip(infs, infs[1:]))
        assert infs[-1] < 1e-3
        for ratio, infidelity in scan:
            assert infidelity == pytest.approx(HARDCORE_REGRESSION[ratio], rel=1e-6)

    def test_limit_law_infidelity_times_ratio_squared(self):
        # The infidelity falls as c' (J/U)**2 in the hard-core limit, c' = 0.6169
        # (0.61745 at U/J = 100, 0.616856 at 10**3 and 0.616850 at 10**4).
        for ratio, infidelity in hardcore_limit_scan([1e3, 1e4]):
            assert 0.6168 <= infidelity * ratio**2 <= 0.6170

    def test_nan_time_rejected(self):
        reg = build_register([("A", 3), ("B", 3)])
        h = build_hamiltonian(reg, HamiltonianParams(hops={("A", "B"): 1.0}, u={"A": 2.0, "B": 2.0}))
        with pytest.raises(ValueError, match="unitary"):
            propagator(h, float("nan"))
        with pytest.raises(ValueError, match="unitary"):
            evolve(basis_state(reg, (1, 0)), h, float("nan"))

    def test_invalid_ratios(self):
        with pytest.raises(ValueError, match="positive"):
            hardcore_limit_scan([-1.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            hardcore_limit_scan([10.0, 1.0])

    def test_ratio_bound_is_where_the_pulse_phase_overflows(self):
        # The top energy 4 U/J at |2,2> times t = pi/2 reaches the float limit.
        assert MAX_SWAP_RATIO * 4.0 * (np.pi / 2.0) <= sys.float_info.max
        assert math.nextafter(MAX_SWAP_RATIO, math.inf) * 4.0 * (np.pi / 2.0) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ratio in (1e307, MAX_SWAP_RATIO, -MAX_SWAP_RATIO):
                assert 0.0 <= 1.0 - swap_process_fidelity(ratio) < 1e-15

    @pytest.mark.parametrize("ratio", [3e307, 1e308, -1e308])
    def test_ratio_past_bound_names_the_ratio(self, ratio):
        with pytest.raises(ValueError, match=re.escape(f"U/J {ratio!r} is not finite or past")):
            swap_process_fidelity(ratio)
        with pytest.raises(ValueError, match="overflow"):
            hardcore_limit_scan([1.0, abs(ratio)])


def one_point_phase_search(
    w: complex, x: complex, y: complex, z: complex
) -> float:
    """max over phases a, b of |w + x e^{ia} + y e^{ib} + z e^{i(a+b)}|.

    For fixed a the optimal b aligns (y + z e^{ia}) with (w + x e^{ia}), so
    the objective reduces to |w + x e^{ia}| + |y + z e^{ia}|; that is scanned
    densely and refined by ternary search.
    """

    def value(a: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * a)
        return np.abs(w + x * phase) + np.abs(y + z * phase)

    grid = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    values = value(grid)
    i = int(np.argmax(values))
    lo = grid[i] - 2.0 * np.pi / 720
    hi = grid[i] + 2.0 * np.pi / 720
    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if value(np.array(m1)) < value(np.array(m2)):
            lo = m1
        else:
            hi = m2
    return float(value(np.array(0.5 * (lo + hi))))


def _amplitude(kind, magnitude, angle):
    if kind == "zero":
        return 0j
    return complex(np.complex128(magnitude * np.exp(1j * angle)))


_AMPLITUDE = st.builds(
    _amplitude,
    st.sampled_from(["zero", "free"]),
    st.floats(0.0, 2.0),
    st.floats(-4.0, 4.0),
)


@st.composite
def phase_points(draw):
    """(w, x, y, z) with zeros, equal magnitudes or a flat objective mixed in."""
    w, x, y, z = draw(st.tuples(_AMPLITUDE, _AMPLITUDE, _AMPLITUDE, _AMPLITUDE))
    shape = draw(st.sampled_from(["free", "flat", "equal"]))
    if shape == "flat":  # x = z = 0: every phase gives the same value
        x = z = 0j
    elif shape == "equal":  # |w| = |x| = |y| = |z|, phases drawn
        angles = draw(st.tuples(*[st.floats(-4.0, 4.0)] * 4))
        w, x, y, z = (_amplitude("free", abs(w) or 0.5, a) for a in angles)
    return w, x, y, z


class TestPhaseSearch:
    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(phase_points(), min_size=1, max_size=6))
    @example(points=[(1j, 0j, -1.0, 0j)])
    @example(points=[(0j, 0j, 0j, 0j), (1.0, 1.0, 1.0, -1.0)])
    @example(points=[(0.5, -0.5j, 0.5, 0.5j)] * 3)
    # Magnitudes the strategy never draws: tiny, huge, mixed scales and subnormals.
    @example(points=[(1e-300 + 2e-300j, 3e-300j, -1e-300, 1e-300)])
    @example(points=[(1e300, 1e300j, -1e300, 1e299 + 1e299j)])
    @example(points=[(1.0, 1e-200j, 1e200, -1e150j)])
    @example(points=[(5e-324, 5e-324j, 0j, 5e-324 + 5e-324j)])
    def test_lockstep_search_equals_one_point_search_bit_for_bit(self, points):
        batched = hamiltonian._max_abs_over_local_phases(points)
        oracle = [one_point_phase_search(*map(np.complex128, p)) for p in points]
        assert [v.hex() for v in batched] == [v.hex() for v in oracle]

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    def test_amplitudes_read_from_blocks_give_one_point_search_bits(self, ratio):
        pulse = shared_swap_pulse(ratio)
        register = hamiltonian._SWAP_REGISTER
        amps, dense = [], []
        for occ_in, (occ_out, sign) in hamiltonian._SWAP_TARGETS.items():
            i, out = register.index_of(occ_in), register.index_of(occ_out)
            amps.append(sign * fock.embed_and_apply(basis_state(register, occ_in), pulse).data[out])
            dense.append(sign * pulse.matrix[out, i])
        # The block entries the scan reads, and the dense view's entries.
        read = [sign * pulse.blocks[t][k, p, q] for t, k, p, q, sign in hamiltonian._SWAP_ENTRIES]
        hexes = [[(v.real.hex(), v.imag.hex()) for v in vs] for vs in (amps, read, dense)]
        assert hexes[0] == hexes[1] == hexes[2]  # signed zeros included
        fidelity = (one_point_phase_search(*amps) / 4.0) ** 2
        assert swap_process_fidelity(ratio).hex() == fidelity.hex()
        ((_, infidelity),) = hardcore_limit_scan([ratio])
        assert (1 - swap_process_fidelity(ratio)).hex() == infidelity.hex()

    def test_scan_equals_one_point_fidelities(self):
        ratios = [0.5, 1.0, 3.0, 10.0, 100.0, 1e3, 1e4]
        scan = hardcore_limit_scan(ratios)
        assert [v.hex() for _, v in scan] == [(1 - swap_process_fidelity(r)).hex() for r in ratios]

    def test_memory_does_not_grow_with_points(self):
        rng = np.random.default_rng(4)
        points = (rng.standard_normal((4096, 4)) + 1j * rng.standard_normal((4096, 4))).tolist()
        gc.collect()
        tracemalloc.start()
        try:
            values = hamiltonian._max_abs_over_local_phases(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) == 4096
        # A 4096 x 720 complex grid alone would take 47 MB.
        assert peak < 8_000_000


def per_input_rotation_deviation(nbar, theta=0.0):
    """``rotation_deviation`` with each probe input built as a basis state
    times the reservoir state, validated, evolved and compared on its own."""
    res_state, _ = coherent_state(ReservoirSpec("res", nbar), theta)
    pulse = shared(hamiltonian._rotation_pulse, nbar)
    register = pulse.register
    probe = register.restricted(["probe"])
    ideal = number_rotation_matrix(np.pi / 4, theta)
    worst = 0.0
    for occ in (0, 1):
        joint = QuantumState(register, np.kron(basis_state(probe, (occ,)).data, res_state.data))
        evolved = fock.embed_and_apply(joint, pulse)
        reduced = fock.partial_trace(evolved, ["probe"])
        target = QuantumState(probe, ideal[:, occ])
        worst = max(worst, float(fock.trace_distance(reduced, target)))
    return worst


# Log-uniform over [1e-4, 3e4], plus a band past 1,500, where the low
# occupations of the coherent state underflow to signed zeros.
_NBAR = st.one_of(
    st.floats(-4.0, math.log10(3e4)).map(lambda x: 10.0**x),
    st.floats(1500.0, 3e4),
)


class TestReservoirScan:
    @settings(max_examples=30, deadline=None)
    @given(
        nbars=st.lists(_NBAR, min_size=1, max_size=3).map(sorted),
        theta=st.floats(-2.0 * math.pi, 2.0 * math.pi, exclude_max=True),
    )
    @example(nbars=[1e-4, 4.0, 3e4], theta=-2.0 * math.pi)
    @example(nbars=[1500.0, 1500.0], theta=0.0)
    @example(nbars=[256.0], theta=-0.0)
    def test_one_pass_scan_equals_per_input_oracle_bit_for_bit(self, nbars, theta):
        scan = reservoir_resolved_rotation(nbars, theta)
        oracle = [per_input_rotation_deviation(n, theta) for n in nbars]
        assert [n for n, _ in scan] == nbars
        assert [d.hex() for _, d in scan] == [d.hex() for d in oracle]
        assert rotation_deviation(nbars[0], theta).hex() == oracle[0].hex()

    def test_warm_scan_equals_per_input_oracle_bit_for_bit(self):
        nbars = [1e-4, 4.0, 64.0, 256.0]
        reservoir_resolved_rotation(nbars)  # every magnitude, pulse and register now cached
        for theta in (0.0, 0.3, 2.0, -1.0, -2.5, 1e15, 0.3):
            scan = reservoir_resolved_rotation(nbars, theta)
            oracle = [per_input_rotation_deviation(n, theta) for n in nbars]
            assert [d.hex() for _, d in scan] == [d.hex() for d in oracle]

    def test_pulse_one_block_off_unitary_is_refused(self, monkeypatch):
        nbar = 4.0
        pulse = hamiltonian._rotation_pulse(nbar)
        # Scale the 2 x 2 block of sector N = 4, where the coherent state peaks.
        sector = int(np.argwhere(pulse.register.sectors[1] == pulse.register.index_of((0, 4)))[0, 0])
        blocks = [b.copy() for b in pulse.blocks]
        blocks[1][sector] *= 1.0 + 1e-9
        tampered = copy.copy(pulse)
        tampered.blocks = tuple(blocks)
        monkeypatch.setattr(hamiltonian, "_rotation_pulse", lambda n: tampered)
        with pytest.raises(ValueError, match="norm must be 1"):
            reservoir_resolved_rotation([nbar])
        with pytest.raises(ValueError, match="norm must be 1"):
            rotation_deviation(nbar, 0.7)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_names_theta(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta"):
                rotation_deviation(4.0, theta)
            with pytest.raises(ValueError, match="theta"):
                reservoir_resolved_rotation([4.0, 16.0], theta)

    def test_rotation_additivity(self):
        # Two quarter rotations compose to one half rotation.
        theta = 0.9
        quarter = number_rotation_matrix(np.pi / 4, theta)
        half = number_rotation_matrix(np.pi / 2, theta)
        np.testing.assert_allclose(quarter @ quarter, half, atol=1e-14)

    def test_scan_regression_and_monotone(self):
        scan = reservoir_resolved_rotation(sorted(RESERVOIR_REGRESSION))
        devs = [d for _, d in scan]
        assert all(b <= a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05
        for nbar, dev in scan:
            assert dev == pytest.approx(RESERVOIR_REGRESSION[nbar], rel=1e-6)

    def test_deviation_independent_of_reservoir_phase(self):
        assert rotation_deviation(4.0, 0.0) == pytest.approx(
            rotation_deviation(4.0, 1.1), abs=1e-10
        )

    def test_invalid_nbars(self):
        with pytest.raises(ValueError, match="positive"):
            reservoir_resolved_rotation([0.0, 4.0])
        with pytest.raises(ValueError, match="ascending"):
            reservoir_resolved_rotation([16.0, 4.0])

    def test_infinite_nbar_raises_value_error(self):
        with pytest.raises(ValueError, match="finite"):
            rotation_deviation(math.inf)
        with pytest.raises(ValueError, match="finite"):
            reservoir_resolved_rotation([4.0, math.inf])


# 60-digit mpmath references (ROADMAP items 14 and 2), each with a relative
# bound a few times the scan's error today; a more accurate scan only tightens them.
# U/J -> (1 - F, bound).
HARDCORE_REFERENCE = {
    1.0: (0.20008426527690676, 2e-13),
    10.0: (0.0067145991114845988, 2e-13),
    100.0: (6.1745382110338247e-5, 2e-11),
    1000.0: (6.1685631667396264e-7, 2e-9),
    1001.0: (1.6136088394887464e-6, 2e-9),
}
# nbar -> (deviation * nbar, bound).
RESERVOIR_REFERENCE = {
    1e4: (0.507301612956146, 1e-10),
    1e5: (0.507310438818315, 2e-9),
}


class TestReferenceAccuracy:
    def test_hardcore_scan_within_bounds_of_reference(self):
        for ratio, infidelity in hardcore_limit_scan(sorted(HARDCORE_REFERENCE)):
            want, bound = HARDCORE_REFERENCE[ratio]
            assert abs(infidelity - want) <= bound * want, ratio

    def test_reservoir_scan_within_bounds_of_reference(self):
        for nbar, deviation in reservoir_resolved_rotation(sorted(RESERVOIR_REFERENCE)):
            want, bound = RESERVOIR_REFERENCE[nbar]
            assert abs(deviation * nbar - want) <= bound * want, nbar


def shared_swap_pulse(u_over_j):
    return shared(hamiltonian._swap_pulse, u_over_j)


def shared_rotation_pulse(nbar):
    return shared(hamiltonian._rotation_pulse, nbar)


def rotation_gate_on(points):
    register = build_register([("A", 2)])
    return number_rotation_gate(register, "A", 0.3, PhaseGrid("big", points))


def magnitude_register(cutoff):
    """A coherent state's register: the one its cached magnitude table holds."""
    return coherent_state(ReservoirSpec("res", 4.0, cutoff=cutoff), 0.3)[0].register


def assert_same_blocks(got, want):
    """The same number of blocks, each with the same shape and bytes (which tell -0.0 from 0.0)."""
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


class TestPulseCache:
    @pytest.fixture
    def built(self, monkeypatch):
        """Each pulse the scans build from here on, as (argument, weakref to it)."""
        built = []
        for name in ("_swap_pulse", "_rotation_pulse"):

            def spy(arg, build=getattr(hamiltonian, name)):
                pulse = build(arg)
                built.append((arg, weakref.ref(pulse)))
                return pulse

            monkeypatch.setattr(hamiltonian, name, spy)
        return built

    def test_cached_pulse_equals_fresh_build(self):
        defaults = RunConfig("hardcore")
        for ratio in defaults.ratios:
            swap_process_fidelity(ratio)
            params = HamiltonianParams(hops={("A", "B"): 2.0}, u={"A": ratio, "B": ratio})
            reg = build_register([("A", 3), ("B", 3)])
            fresh = propagator(build_hamiltonian(reg, params), np.pi / 2.0)
            cached = shared_swap_pulse(ratio)
            assert cached.register == reg
            assert_same_blocks(cached, fresh)
        for nbar in defaults.nbars:
            rotation_deviation(nbar)
            params = HamiltonianParams(hops={("probe", "res"): -1.0})
            reg = build_register(rotation_modes(nbar))
            fresh = propagator(build_hamiltonian(reg, params), np.pi / (2.0 * math.sqrt(nbar)))
            cached = shared_rotation_pulse(nbar)
            assert cached.register == reg
            assert_same_blocks(cached, fresh)

    def test_repeat_call_returns_same_object(self, built):
        assert shared_swap_pulse(3.0) is shared_swap_pulse(3.0)
        assert shared_rotation_pulse(9.0) is shared_rotation_pulse(9.0)
        for _ in range(2):
            swap_process_fidelity(7.0)
            rotation_deviation(25.0, 0.4)
        assert [arg for arg, _ in built] == [3.0, 9.0, 7.0, 25.0]

    def test_blocks_are_read_only(self):
        for pulse in (shared_swap_pulse(3.0), shared_rotation_pulse(9.0)):
            for block in pulse.blocks:
                with pytest.raises(ValueError, match="read-only"):
                    block[0, 0, 0] = 2.0

    def test_signed_zero_gets_its_own_entry(self, built):
        positive = shared_swap_pulse(0.0)
        negative = shared_swap_pulse(-0.0)
        assert positive is not negative
        assert positive is shared_swap_pulse(0.0)
        assert negative is shared_swap_pulse(-0.0)
        assert [math.copysign(1.0, arg) for arg, _ in built] == [1.0, -1.0]

    def test_pulse_past_size_limit_is_not_retained(self, built):
        kept, large = 7330.0, 7340.0
        # A rotation pulse on 2c states holds 4c - 2 entries in its sector blocks.
        dims = [math.prod(d for _, d in rotation_modes(n)) for n in (kept, large)]
        assert [2 * dim - 2 for dim in dims] == [32_746, 32_786]
        assert 2 * dims[0] - 2 <= fock.CACHE_ENTRIES < 2 * dims[1] - 2
        rotation_deviation(kept)
        rotation_deviation(large)
        (_, kept_ref), (_, large_ref) = built
        assert kept_ref() is not None
        assert large_ref() is None

    def test_bad_input_raises_on_every_call(self):
        nan = float("nan")  # one object, so both calls have an equal key
        for _ in range(2):
            for ratio in (nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    swap_process_fidelity(ratio)
            for nbar in (nan, 0.0, -4.0):
                with pytest.raises(ValueError, match="positive"):
                    rotation_deviation(nbar)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each pulse build and coherent state the scans ask for from here on, as (name, args)."""
        monkeypatch.setattr(fock, "_cache", OrderedDict())  # no pulse comes cached
        calls = []
        for name in ("_swap_pulse", "_rotation_pulse", "coherent_state"):

            def recorder(*args, name=name, build=getattr(hamiltonian, name)):
                calls.append((name, args))
                return build(*args)

            monkeypatch.setattr(hamiltonian, name, recorder)
        return calls

    def test_bad_scan_point_refused_before_any_pulse_or_coherent_state(self, calls):
        nan = float("nan")
        cases = [
            (hardcore_limit_scan, [1.5, 1e308], "U/J 1e+308 is not finite or past"),
            (hardcore_limit_scan, [1.25, nan, 2.0], "interaction ratios must be positive"),
            (reservoir_resolved_rotation, [5.0, nan, 16.0], "nbar values must be positive"),
        ]
        for scan, points, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                scan(points)
        assert calls == []

    def test_empty_scans_return_empty_and_build_nothing(self, calls):
        assert hardcore_limit_scan([]) == []
        assert reservoir_resolved_rotation([]) == []
        assert reservoir_resolved_rotation([], 0.3) == []
        assert calls == []

    def test_gates_and_pulses_share_one_bound(self, built):
        first = swap_process_fidelity(3.0)
        ((_, pulse_ref),) = built
        assert pulse_ref() is not None
        filler = build_register([("filler", 2)])  # a label no other test caches
        for k in range(fock.CACHE_SIZE):
            phase_gate(filler, "filler", 100.0 + k)
        gc.collect()
        assert pulse_ref() is None
        assert swap_process_fidelity(3.0).hex() == first.hex()
        assert [arg for arg, _ in built] == [3.0, 3.0]

    def test_magnitude_tables_share_the_bound_with_gates_and_pulses(self, monkeypatch):
        cache = OrderedDict()
        monkeypatch.setattr(fock, "_cache", cache)
        spec = ReservoirSpec("res", 4.0)
        first = coherent_state(spec, 0.3)[0].data.tobytes()
        swap_process_fidelity(3.0)
        table, pulse = list(cache)
        assert table[0] is reservoir._magnitudes and pulse[0] is hamiltonian._swap_pulse
        filler = build_register([("filler", 2)])
        for k in range(fock.CACHE_SIZE - 2):
            phase_gate(filler, "filler", 100.0 + k)
        assert len(cache) == fock.CACHE_SIZE and table in cache
        phase_gate(filler, "filler", 99.0)  # the magnitude table is the oldest entry
        assert len(cache) == fock.CACHE_SIZE and table not in cache and pulse in cache
        phase_gate(filler, "filler", 98.0)
        assert pulse not in cache
        assert coherent_state(spec, 0.3)[0].data.tobytes() == first

    @pytest.mark.parametrize(
        "build, arg, kept",
        [
            (rotation_gate_on, 2**13, True),  # 4 entries a point: 32,768
            (rotation_gate_on, 2**14, False),
            (shared_rotation_pulse, 7330.0, True),  # cutoff 8,187: 32,746 entries
            (shared_rotation_pulse, 7340.0, False),  # cutoff 8,197: 32,786
            (magnitude_register, 2**14, True),  # n and the magnitudes: 32,768
            (magnitude_register, 2**14 + 1, False),
        ],
        ids=["gate-2^13", "gate-2^14", "pulse-7330", "pulse-7340", "table-2^14", "table-2^14+1"],
    )
    def test_retention_at_the_size_rule_boundaries(self, build, arg, kept):
        assert (build(arg) is build(arg)) is kept

    def test_retained_bytes_are_bounded(self):
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pulse = hamiltonian._rotation_pulse(7330.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # A pulse at the size limit, with its register's tables.
        entries = sum(block.size for block in pulse.blocks)
        assert 0.99 * fock.CACHE_ENTRIES < entries <= fock.CACHE_ENTRIES
        assert retained * fock.CACHE_SIZE <= 40_000_000

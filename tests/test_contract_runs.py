"""Dense operators applied run by run over their nonzero columns against one einsum,
byte for byte: signed zeros, grids, densities and all-zero rows included."""

import numpy as np
import pytest

from modeport import fock
from modeport.fock import (
    LinearOperator,
    PhaseGrid,
    QuantumState,
    build_register,
    embed_and_apply,
    ladder_operator,
)
from modeport.gates import fermionic_swap_gate, hopping_gate, number_rotation_gate, phase_gate

REGISTER = build_register([("a", 2), ("A", 3), ("b", 2), ("B", 3), ("c", 2)])
ZETA, ALPHA = PhaseGrid("zeta", 3), PhaseGrid("alpha", 4)
NEG_ZERO = complex(-0.0, -0.0)


def split_operator():
    """Self-test's create_A + create_B: its |00> row is all zero."""
    sub = build_register([("A", 3), ("B", 3)])
    matrix = ladder_operator(sub, "A", "create").matrix + ladder_operator(sub, "B", "create").matrix
    return LinearOperator(sub, matrix)


OPERATORS = {
    "phase": lambda: phase_gate(REGISTER, "b", 0.7),
    "z": lambda: phase_gate(REGISTER, "a", np.pi),
    "fswap": lambda: fermionic_swap_gate(REGISTER, "c", "a"),
    "hop_raw": lambda: hopping_gate(REGISTER, "a", "b", 0.4),
    "hop_bell": lambda: hopping_gate(REGISTER, "b", "c", np.pi / 4, convention="bell"),
    "rotation_own_grid": lambda: number_rotation_gate(REGISTER, "c", 0.3, ZETA),
    "rotation_new_grid": lambda: number_rotation_gate(REGISTER, "a", 1.1, ALPHA),
    "split": split_operator,
}


def random_state(pure, gridded, seed):
    """Random unit state with signed zeros: -0.0 amplitudes (pure), or -0.0 rows
    and columns (density), on the basis states with c = 1 and A = 0."""
    rng = np.random.default_rng(seed)
    lead = (ZETA.n_points,) if gridded else ()
    zeroed = (REGISTER.occupations[:, 4] == 1) & (REGISTER.occupations[:, 1] == 0)
    psi = rng.standard_normal((*lead, 2, REGISTER.dim, 2)) @ [1.0, 1j]
    psi[..., zeroed] = NEG_ZERO
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    if pure:
        data = psi[..., 0, :]
    else:
        data = np.einsum("...ki,...kj->...ij", psi, psi.conj()) / 2
        data[..., zeroed, :] = NEG_ZERO
        data[..., :, zeroed] = NEG_ZERO
    grids = [ZETA] if gridded else []
    return QuantumState(REGISTER, data, grids=grids, fourier_order=[0] * len(grids))


def applied(monkeypatch, state, op, min_columns):
    monkeypatch.setattr(fock, "RUN_MIN_COLUMNS", min_columns)
    return embed_and_apply(state, op, renormalize=op.kind == "general")


@pytest.mark.parametrize("name", OPERATORS)
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
@pytest.mark.parametrize("gridded", [False, True], ids=["grid_free", "gridded"])
def test_runs_give_the_bytes_of_one_einsum(monkeypatch, name, pure, gridded):
    op = OPERATORS[name]()
    state = random_state(pure, gridded, seed=len(name))
    assert np.signbit(state.data.real[state.data == 0]).any()
    by_runs = applied(monkeypatch, state, op, 1)
    one_einsum = applied(monkeypatch, state, op, 2**62)
    assert by_runs.data.tobytes() == one_einsum.data.tobytes()
    assert by_runs.data.strides == one_einsum.data.strides
    assert by_runs.phase_symbols == one_einsum.phase_symbols


@pytest.mark.parametrize(
    "name, runs",
    [
        ("phase", [(0, 1, 0, 1), (1, 2, 1, 2)]),
        ("fswap", [(0, 1, 0, 1), (1, 2, 2, 3), (2, 3, 1, 2), (3, 4, 3, 4)]),
        ("hop_raw", [(0, 1, 0, 1), (1, 3, 1, 3), (3, 4, 3, 4)]),
        ("rotation_own_grid", [(0, 2, 0, 2)]),
        # Row 3 nA + nB takes column 3 nA + nB - 3 (create_A) and - 1 (create_B).
        ("split", [(0, 1, 0, 0), (1, 2, 0, 1), (2, 3, 1, 2), (3, 4, 0, 1), (4, 5, 1, 4),
                   (5, 6, 2, 5), (6, 7, 3, 4), (7, 8, 4, 7), (8, 9, 5, 8)]),
    ],
)
def test_runs_group_rows_by_their_span_of_nonzero_columns(name, runs):
    spans = [(r.start, r.stop, c.start, c.stop) for r, c in OPERATORS[name]().runs]
    assert spans == runs

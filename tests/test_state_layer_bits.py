"""The state layer's short paths, bit for bit against the plain expressions they replace.

Each ``reference_*`` below is the expression the library computed before it
took a shorter path to the same bits: the gridded norm or trace rule of
``QuantumState._validate``, the unitarity residual ``|U+U - I|``, the
reservoir rotation and phase gate matrices, and the phase grid's points.
Arrays are compared by shape and bytes, which tell -0.0 from 0.0, floats by
their hex digits, and refusals by their message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeport.fock import (
    NORM_ATOL,
    PROB_FLOOR,
    TRACE_ATOL,
    ModeRegister,
    PhaseGrid,
    QuantumState,
    _require_unitary,
    build_register,
)
from modeport.gates import _phase_gate, number_rotation_gate, number_rotation_matrix, phase_gate
from test_gate_properties import shape_and_bytes
from test_state_rules import outcome_of


# -- the gridded norm and trace rule ------------------------------------------


def reference_norm_rule(state):
    """The norm or trace part of ``_validate``, as one expression over every point."""
    values = state.norms()
    off = np.minimum(np.abs(values - 1.0), values if state.is_pure else np.abs(values)).max()
    top = values.max()
    what = "norm" if state.is_pure else "trace"
    if not off <= (NORM_ATOL if state.is_pure else TRACE_ATOL):
        raise ValueError(
            f"state {what} must be 1 (or 0 on an impossible branch) per grid "
            f"point; worst deviation {off:.3e}"
        )
    if top < PROB_FLOOR:
        raise ValueError(f"state {what} is 0 at every grid point")


def steps(x, k):
    """``x`` moved ``k`` ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


def edge_values(tol):
    """Per-point norms or traces on both sides of each edge of the rule."""
    near_one = [steps(1.0, k) for k in range(-3, 4)]
    near_tol = [steps(1.0 + sign * tol, k) for sign in (1, -1) for k in (-1, 0, 1)]
    return near_one + near_tol + [0.0, PROB_FLOOR, math.nan, math.inf, -math.inf]


NEGATIVE_TRACES = [-0.0, -PROB_FLOOR, -1e-13, -TRACE_ATOL, steps(-TRACE_ATOL, -1), -1.0]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pure=st.booleans(), shape=st.sampled_from([(3,), (2, 3)]))
def test_gridded_norm_rule_matches_the_reference(data, pure, shape):
    tol = NORM_ATOL if pure else TRACE_ATOL
    pool = edge_values(tol) + ([] if pure else NEGATIVE_TRACES)
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=6, max_size=6)))
    values = values[: math.prod(shape)].reshape(shape)
    register = build_register([("m", 2)])
    # One nonzero amplitude v has norm sqrt(v * v) = |v|; diag(t, 0) has trace t.
    # Either passes every other check whenever the rule passes.
    if pure:
        array = np.zeros(shape + (2,), dtype=np.complex128)
        array[..., 0] = values
    else:
        array = np.zeros(shape + (2, 2), dtype=np.complex128)
        array[..., 0, 0] = values
    grids = [PhaseGrid(s, n) for s, n in zip("xy", shape)]
    orders = [0] * len(shape)
    unchecked = QuantumState(register, array, grids=grids, fourier_order=orders, validate=False)
    want = outcome_of(lambda: reference_norm_rule(unchecked))
    got = outcome_of(lambda: QuantumState(register, array, grids=grids, fourier_order=orders))
    assert (got if isinstance(got, str) else None) == want


# -- the unitarity residual -------------------------------------------------------


def reference_residual(matrix):
    prod = np.einsum("...ji,...jk->...ik", matrix.conj(), matrix)
    dev = float(np.abs(prod - np.eye(matrix.shape[-1])).max())
    if not dev <= NORM_ATOL:
        raise ValueError(f"operator is not unitary: max |U+U - I| = {dev:.3e}")
    return dev


def same_residual(matrix):
    got = outcome_of(lambda: _require_unitary(matrix))
    want = outcome_of(lambda: reference_residual(matrix))
    if isinstance(want, str):
        assert got == want
    else:
        assert type(got) is float and got.hex() == want.hex()


ENTRIES = [
    0.0,
    -0.0,
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    1.0,
    -1.0,
    1j,
    -1j,
    complex(1.0, -0.0),
    complex(-1.0, -0.0),
    0.6,
    -0.8,
    0.5**0.5,
    complex(0.5, -0.5),
    math.nan,
    math.inf,
]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), stack=st.sampled_from([(), (1,), (3,), (2, 2)]))
def test_unitarity_residual_matches_the_reference(data, n, stack):
    count = math.prod(stack) * n * n
    entries = data.draw(st.lists(st.sampled_from(ENTRIES), min_size=count, max_size=count))
    same_residual(np.array(entries, dtype=np.complex128).reshape(stack + (n, n)))


@pytest.mark.parametrize("seed", range(6))
def test_random_unitary_stacks_have_the_reference_residual(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 5
    z = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
    q, _ = np.linalg.qr(z)
    same_residual(q)
    same_residual(q * (1.0 + 1e-9))  # refused, with the same message
    q[1, 2, 0, 0] = math.nan
    same_residual(q)


def test_exact_unitaries_have_residual_plus_zero():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=np.complex128)
    signed = np.diag([complex(1.0, -0.0), complex(-1.0, -0.0), -1j, complex(-0.0, 1.0)])
    for matrix in (swap, signed, np.stack([swap, swap.conj()]), np.eye(3, dtype=np.complex128)):
        same_residual(matrix)
        assert _require_unitary(matrix).hex() == (0.0).hex()


# -- gate matrices ------------------------------------------------------------------


def reference_rotation(theta_prime, theta):
    theta = np.asarray(theta, dtype=np.float64)
    c = np.cos(theta_prime) * np.ones_like(theta)
    s = np.sin(theta_prime)
    mat = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = c
    mat[..., 1, 0] = -1j * np.exp(1j * theta) * s
    mat[..., 0, 1] = -1j * np.exp(-1j * theta) * s
    mat[..., 1, 1] = c
    return mat


ANGLES = [0.0, -0.0, 1e-300, np.pi / 4, 1e6]


@pytest.mark.parametrize("theta_prime", ANGLES)
@pytest.mark.parametrize(
    "theta",
    [0.0, -0.0, 2.1, PhaseGrid("x", 16).points, np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
    ids=["zero", "minus-zero", "scalar", "grid", "2d"],
)
def test_rotation_matrix_matches_the_reference(theta_prime, theta):
    got = number_rotation_matrix(theta_prime, theta)
    assert shape_and_bytes(got) == shape_and_bytes(reference_rotation(theta_prime, theta))


@pytest.mark.parametrize("theta_prime", ANGLES)
def test_rotation_gate_matches_the_reference(theta_prime):
    grid = PhaseGrid("x", 21)
    gate = number_rotation_gate(build_register([("m", 2)]), "m", theta_prime, grid)
    assert shape_and_bytes(gate.matrix) == shape_and_bytes(reference_rotation(theta_prime, grid.points))


@pytest.mark.parametrize("angle", ANGLES + [np.pi, -2.5, 2.0 * np.pi])
def test_phase_gate_matrix_matches_the_reference(angle):
    want = shape_and_bytes(np.diag([1.0, np.exp(1j * angle)]).astype(np.complex128))
    assert shape_and_bytes(_phase_gate(ModeRegister([("m", 2)]), angle).matrix) == want
    assert shape_and_bytes(phase_gate(build_register([("m", 2)]), "m", angle).matrix) == want


# -- phase grid points ----------------------------------------------------------------


GRID_SIZES = [2, 3, 16, 21, 64]


@pytest.mark.parametrize("n", GRID_SIZES)
def test_grid_points_are_unchanged(n):
    grid = PhaseGrid("x", n)
    assert shape_and_bytes(grid.points) == shape_and_bytes(2.0 * np.pi * np.arange(n) / n)


@pytest.mark.parametrize("n", GRID_SIZES)
def test_grid_points_are_computed_once_and_read_only(n):
    grid = PhaseGrid("x", n)
    points = grid.points
    assert grid.points is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0] = 1.0
    # The kept points are not a field: equal grids stay equal and hash alike.
    assert grid == PhaseGrid("x", n) and hash(grid) == hash(PhaseGrid("x", n))

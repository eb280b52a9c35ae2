"""Idealized gate set on qubit modes (occupation 0 or 1).

All gates are exact unitaries that act on their target modes: each is a
small matrix on a register of just those modes, and ``embed_and_apply``
leaves the state's other modes untouched.  The hopping gate comes in two
phase conventions, ``raw`` (exact tunneling evolution) and ``bell`` (raw
followed by a fixed local phase so the quarter hop lands exactly on the
symmetric Bell state); see :func:`hopping_gate`.  The reservoir-assisted rotation
carries the reservoir phase as a :class:`PhaseGrid` symbol and is
instantiated at every grid point.

Each builder returns a shared, read-only operator from the package's one
cache, :func:`modeport.fock.shared`, keyed on the target labels and
the builder's other arguments, so a circuit that repeats a gate builds it
once.  The key holds the labels, not the caller's register, so the cache keeps
no large register alive; the targets are checked on every call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fock import LinearOperator, ModeRegister, PhaseGrid, shared


def _on_qubits(build: Callable, labels: tuple[str, ...], *args) -> LinearOperator:
    return build(ModeRegister((label, 2) for label in labels), *args)


def _shared_gate(build: Callable, register: ModeRegister, labels: tuple[str, ...], *args):
    """``build(sub, *args)`` on the qubit sub-register of ``labels``, from the operator cache."""
    if len(set(labels)) != len(labels):
        raise ValueError(f"gate targets repeat a mode: {labels}")
    for label in labels:
        dim = register.dims[register.position(label)]
        if dim != 2:
            raise ValueError(f"mode {label!r} has cutoff {dim}; gate needs a qubit mode")
    return shared(_on_qubits, build, labels, *args)


def phase_gate(register: ModeRegister, mode: str, angle: float) -> LinearOperator:
    """diag(1, e^{i angle}) on one qubit mode.

    Realized physically by biasing the mode's energy for a fixed time;
    angle = pi gives the Z gate |1> -> -|1>.
    """
    return _shared_gate(_phase_gate, register, (mode,), angle)


def _phase_gate(sub: ModeRegister, angle: float) -> LinearOperator:
    small = np.zeros((2, 2), dtype=np.complex128)
    small[0, 0] = 1.0
    small[1, 1] = np.exp(1j * angle)
    return LinearOperator(sub, small, kind="unitary")


def number_rotation_matrix(theta_prime: float, theta: float | np.ndarray) -> np.ndarray:
    """Single-qubit rotation between |0> and |1> mediated by the reservoir.

    Columns are the images of |0> and |1>:

        |0> -> cos(theta') |0> - i e^{+i theta} sin(theta') |1>
        |1> -> cos(theta') |1> - i e^{-i theta} sin(theta') |0>

    ``theta`` may be an array of reservoir phases, in which case the result
    has shape (*theta.shape, 2, 2).
    """
    theta = np.asarray(theta, dtype=np.float64)
    c, s = np.cos(theta_prime), np.sin(theta_prime)
    mat = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = c
    mat[..., 1, 0] = -1j * np.exp(1j * theta) * s
    mat[..., 0, 1] = -1j * np.exp(-1j * theta) * s
    mat[..., 1, 1] = c
    return mat


def number_rotation_gate(
    register: ModeRegister, mode: str, theta_prime: float, grid: PhaseGrid
) -> LinearOperator:
    """Reservoir-assisted rotation of one qubit mode by half-angle theta'.

    The gate imprints the reservoir phase e^{+-i theta} on the rotated
    amplitudes, so it raises the state's Fourier order in ``grid.symbol``
    by one.
    """
    return _shared_gate(_number_rotation_gate, register, (mode,), theta_prime, grid)


def _number_rotation_gate(
    sub: ModeRegister, theta_prime: float, grid: PhaseGrid
) -> LinearOperator:
    small = number_rotation_matrix(theta_prime, grid.points)
    return LinearOperator(sub, small, kind="unitary", grids=(grid,), fourier_order=(1,))


def fermionic_swap_gate(
    register: ModeRegister, mode_j: str, mode_k: str
) -> LinearOperator:
    """Two-mode exchange with a minus sign on double occupation.

    Truth table: |00> -> |00>, |01> -> |10>, |10> -> |01>, |11> -> -|11>.
    This is the logical action of hard-core hopping for a half tunneling
    period, where the bosons behave like spinless fermions and exchanging
    the pair contributes the antisymmetric sign.
    """
    return _shared_gate(_fermionic_swap_gate, register, (mode_j, mode_k))


def _fermionic_swap_gate(sub: ModeRegister) -> LinearOperator:
    small = np.zeros((4, 4), dtype=np.complex128)
    small[0, 0] = 1.0
    small[2, 1] = 1.0  # |01> -> |10>
    small[1, 2] = 1.0  # |10> -> |01>
    small[3, 3] = -1.0
    return LinearOperator(sub, small, kind="unitary")


def hopping_gate(
    register: ModeRegister,
    mode_j: str,
    mode_k: str,
    angle: float,
    convention: str = "raw",
) -> LinearOperator:
    """Tunneling between two qubit modes for angle = J*t/2.

    ``raw`` is the exact evolution exp(-i H t) with
    H = -J/2 (a_j^+ a_k + a_k^+ a_j) restricted to the qubit subspace:

        |10> -> cos(angle) |10> + i sin(angle) |01>   (and symmetrically)

    with |00> and |11> left alone (|11> cannot tunnel within the qubit
    truncation).  ``bell`` composes ``raw`` with the local phase
    diag(1, -i) on ``mode_k``, which maps the angle = pi/4 image of |10>
    exactly to (|10> + |01>)/sqrt(2); use it when intermediate states should
    match the conventional Bell-state expressions with no stray phases.
    """
    if convention not in ("raw", "bell"):
        raise ValueError(f"unknown hopping convention {convention!r}")
    return _shared_gate(_hopping_gate, register, (mode_j, mode_k), angle, convention)


def _hopping_gate(sub: ModeRegister, angle: float, convention: str) -> LinearOperator:
    c, s = np.cos(angle), np.sin(angle)
    small = np.zeros((4, 4), dtype=np.complex128)
    small[0, 0] = 1.0
    small[3, 3] = 1.0
    small[1, 1] = c
    small[2, 2] = c
    small[1, 2] = 1j * s  # <01| U |10>
    small[2, 1] = 1j * s
    if convention == "bell":
        correction = np.diag([1.0, -1j, 1.0, -1j]).astype(np.complex128)
        small = correction @ small
    return LinearOperator(sub, small, kind="unitary")

"""Bose-Hubbard-style Hamiltonians on a mode register and exact evolution.

The Hamiltonian is one sum of hops between mode pairs plus on-site repulsion
U_i n_i (n_i - 1) and bias energies E_i n_i:

    H = -sum_(l,r) J_lr/2 (a_l^+ a_r + h.c.)
        + sum_i U_i n_i (n_i - 1) + sum_i E_i n_i

A hop is the paper's tunneling swap between two modes and, with r a resolved
reservoir mode, its reservoir-assisted rotation alike.

Units use hbar = 1 throughout; times are meaningful only as products with
the named couplings.  Hamiltonians and propagators are held as one block per
total-number sector (:attr:`ModeRegister.sectors`), never as dim x dim
matrices, so the generator must conserve particle number, and
:func:`propagator` refuses a dense Hamiltonian.  Evolution is exact by
eigendecomposition: sectors of equal size are diagonalized in one stacked
call, and the propagator's unitarity is checked block by block.

The two scans in this module quantify the two idealizations behind the gate
library: the hard-core limit that turns tunneling into a fermionic-style
swap, and the large-reservoir limit behind the ideal number rotation.  A scan
point's pulse depends only on U/J or nbar, so each is built once per process
and shared read-only from the package's one cache (:func:`~modeport.fock.shared`),
with the gates and coherent-state magnitudes; a pulse whose sector blocks hold more
than ``CACHE_ENTRIES`` entries (over 2**14 states) is built anew on every call.
The hard-core scan reads each ratio's four swap amplitudes from its cached
pulse's sector blocks, at block positions found once at import, and optimizes
the local phases of all ratios in one lockstep search, bit for bit the values
of a search run one ratio at a time; a ratio past ``MAX_SWAP_RATIO``, where the
pulse's phases overflow, is refused before any pulse is built.  The reservoir
scan, whose one-point case is :func:`rotation_deviation`, refuses a largest
register past ``MAX_REGISTER_DIM`` before it builds anything, and builds its
ideal outputs once, as density matrices.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .fock import (
    BYTES_BUDGET,
    LinearOperator,
    ModeRegister,
    QuantumState,
    _apply_blocks,
    build_register,
    check_register_size,
    embed_and_apply,
    partial_trace,
    shared,
    trace_distance,
)
from .gates import number_rotation_matrix
from .reservoir import ReservoirSpec, coherent_state


@dataclass(frozen=True)
class HamiltonianParams:
    """Couplings for :func:`build_hamiltonian`.

    ``hops`` maps a pair of distinct mode labels (left, right) to the energy
    J of the hop -J/2 (a_left^+ a_right + h.c.); ``u`` and ``e`` map mode
    labels to on-site interaction and bias energy.  Every value must be finite.
    """

    hops: Mapping[tuple[str, str], float] = field(default_factory=dict)
    u: Mapping[str, float] = field(default_factory=dict)
    e: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, table in (("hops", self.hops), ("u", self.u), ("e", self.e)):
            for key, value in table.items():
                if not math.isfinite(value):
                    raise ValueError(f"{name}[{key!r}] must be finite")
        for key in self.hops:
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"hop key {key!r} must be a tuple of two mode labels")
            if key[0] == key[1]:
                raise ValueError(f"hop {key!r} cannot couple a mode to itself")


def build_hamiltonian(
    register: ModeRegister, params: HamiltonianParams
) -> LinearOperator:
    """Assemble the Hermitian Hamiltonian on ``register`` as sector blocks.

    Every nonzero coupling must reference modes present in the register.
    Each term is scattered straight into the blocks of ``register.sectors``,
    so no dim x dim matrix is formed; a term entry between two total-number
    sectors is rejected, and Hermiticity is checked block by block.  Block
    storage past ``BYTES_BUDGET`` is refused before it is allocated.
    """
    entries = sum(idx.size * idx.shape[1] for idx in register.sectors)
    if 16 * entries > BYTES_BUDGET:
        raise ValueError(f"Hamiltonian blocks need {16 * entries} bytes, over {BYTES_BUDGET}")
    flat = np.zeros(entries, np.complex128)
    # Entry (i, j) of a sector's block is flat[row[i] + col[j]].
    row = np.empty(register.dim, dtype=np.intp)
    col = np.empty(register.dim, dtype=np.intp)
    blocks, offset = [], 0
    for idx in register.sectors:
        count, size = idx.shape
        blocks.append(flat[offset : offset + idx.size * size].reshape(count, size, size))
        row[idx] = offset + size * np.arange(idx.size).reshape(count, size)
        col[idx] = np.arange(size)
        offset += idx.size * size

    def add(dst: np.ndarray, src: np.ndarray, values: np.ndarray) -> None:
        crossing = register.total_numbers[dst] != register.total_numbers[src]
        if crossing.any():
            leak = np.abs(values[crossing]).max()
            raise ValueError(f"Hamiltonian changes particle number: off-sector entry {leak:.3e}")
        flat[row[dst] + col[src]] += values

    def add_hop(coupling: float, left: str, right: str) -> None:
        """Add -coupling/2 (a_left^+ a_right + h.c.)."""
        l, r = register.position(left), register.position(right)
        occ = register.occupations
        src = np.flatnonzero((occ[:, r] > 0) & (occ[:, l] < register.dims[l] - 1))
        stride = [int(np.prod(register.dims[p + 1 :], initial=1)) for p in (l, r)]
        dst = src + stride[0] - stride[1]
        values = -0.5 * coupling * (np.sqrt(occ[src, l] + 1.0) * np.sqrt(occ[src, r]))
        add(dst, src, values)
        add(src, dst, values)

    for (left, right), coupling in params.hops.items():
        if coupling != 0.0:
            add_hop(coupling, left, right)
    diagonal = np.arange(register.dim)
    for label, u_i in params.u.items():
        n = register.occupations[:, register.position(label)]
        add(diagonal, diagonal, u_i * (n * n - n))
    for label, e_i in params.e.items():
        n = register.occupations[:, register.position(label)]
        add(diagonal, diagonal, e_i * n)
    return LinearOperator(register, blocks=blocks, kind="hermitian")


def propagator(hamiltonian: LinearOperator, t: float) -> LinearOperator:
    """Unitary exp(-i H t) as sector blocks, exact by eigendecomposition.

    H must be ``kind="hermitian"`` (checked at construction) and held as the
    sector blocks :func:`build_hamiltonian` returns, which conserve particle
    number; a dense H is refused before any ``eigh``.  Each sector size is
    diagonalized in one stacked ``eigh`` call, and the ``kind="unitary"``
    result checks each block's unitarity at construction.
    """
    if hamiltonian.kind != "hermitian":
        raise ValueError(f"Hamiltonian must be a Hermitian operator, not {hamiltonian.kind!r}")
    if hamiltonian.blocks is None:
        raise ValueError("Hamiltonian must be sector blocks (fixed particle number), not dense")
    unitaries = []
    for block in hamiltonian.blocks:
        w, v = np.linalg.eigh(block)
        unitaries.append((v * np.exp(-1j * w * t)[:, None, :]) @ np.swapaxes(v.conj(), -1, -2))
    return LinearOperator(hamiltonian.register, blocks=unitaries, kind="unitary")


def evolve(state: QuantumState, hamiltonian: LinearOperator, t: float) -> QuantumState:
    """exp(-i H t) on H's modes, which the state must hold, in any order, at any place."""
    return embed_and_apply(state, propagator(hamiltonian, t))


def _scan_points(values: Sequence[float], name: str) -> list[float]:
    """``values`` as floats; ValueError unless they are positive and ascending."""
    points = [float(v) for v in values]
    if not all(p > 0 for p in points):  # a NaN is not positive
        raise ValueError(f"{name} must be positive")
    if sorted(points) != points:
        raise ValueError(f"{name} must be ascending")
    return points


# -- hard-core limit ---------------------------------------------------------

_PHASE_GRID = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
_GRID_PHASES = np.exp(1j * _PHASE_GRID)


def _phase_objective(
    points: Sequence[tuple[complex, ...]], angles: Sequence[float]
) -> list[float]:
    """|w + x e^{ia}| + |y + z e^{ia}| for each point (w, x, y, z) and its angle a.

    Each term is formed in Python complex arithmetic (``cmath.exp``, unfused
    products), and all magnitudes are taken with one ``np.abs``.
    """
    terms = []
    for (w, x, y, z), a in zip(points, angles):
        phase = cmath.exp(1j * a)
        terms += (w + x * phase, y + z * phase)
    size = np.abs(np.array(terms, dtype=np.complex128))
    return (size[0::2] + size[1::2]).tolist()


def _search_round(points: list, brackets: list, active: list[int]) -> list[int]:
    """One lockstep round: narrow each active bracket by its two inner-third probes,
    valued as in :func:`_phase_objective`; returns the brackets still wider than 1e-12."""
    terms = []
    for k in active:
        (lo, hi), (w, x, y, z) = brackets[k], points[k]
        third = (hi - lo) / 3.0
        pa, pb = cmath.rect(1.0, lo + third), cmath.rect(1.0, hi - third)
        terms += (w + x * pa, y + z * pa, w + x * pb, y + z * pb)
    size = np.abs(np.array(terms, dtype=np.complex128))
    values = (size[0::2] + size[1::2]).tolist()
    for j, k in enumerate(active):
        lo, hi = brackets[k]
        third = (hi - lo) / 3.0
        if values[2 * j] < values[2 * j + 1]:
            brackets[k][0] = lo + third
        else:
            brackets[k][1] = hi - third
    return [k for k in active if brackets[k][1] - brackets[k][0] > 1e-12]


def _max_abs_over_local_phases(
    points: Sequence[Sequence[complex]],
) -> list[float]:
    """max over phases a, b of |w + x e^{ia} + y e^{ib} + z e^{i(a+b)}|, per (w, x, y, z).

    For fixed a the optimal b aligns (y + z e^{ia}) with (w + x e^{ia}), so
    the objective reduces to |w + x e^{ia}| + |y + z e^{ia}|.  Each point is
    scanned on its own over 720 phases (array ops of 720 entries, so memory
    does not grow with the number of points), and the best phase +- one grid
    step brackets a ternary search.  The searches run in lockstep, one
    :func:`_search_round` call per round, until no bracket is wider than
    1e-12; the result is read at each bracket's midpoint.  Probes take
    :func:`_phase_objective`'s arithmetic (its ``cmath.exp(1j * a)`` equals
    ``cmath.rect(1.0, a)`` for every a but -0.0, which no probe is), whose
    bits equal those of a search run on one point with numpy scalars and 0-d
    arrays; a complex array product is FMA-fused and ``abs``/``math.hypot``
    round differently, so either would move the scan's last bits.  The round
    stays a short function: ``tracemalloc`` (CPython 3.11) finds each
    allocation's line by scanning its function's line table, and the same loop
    inlined here took a traced 4,096-point search from 5.1 to 8.5-9.2 s.
    """
    points = [tuple(map(complex, p)) for p in points]
    step = 2.0 * np.pi / 720
    brackets = []
    for w, x, y, z in points:
        i = int(np.argmax(np.abs(w + x * _GRID_PHASES) + np.abs(y + z * _GRID_PHASES)))
        brackets.append([float(_PHASE_GRID[i] - step), float(_PHASE_GRID[i] + step)])
    active = [k for k, (lo, hi) in enumerate(brackets) if hi - lo > 1e-12]
    while active:
        active = _search_round(points, brackets, active)
    return _phase_objective(points, [0.5 * (lo + hi) for lo, hi in brackets])


_SWAP_REGISTER = build_register([("A", 3), ("B", 3)])
# Swap targets per qubit-subspace input: occupation image and its sign.
_SWAP_TARGETS = {
    (0, 0): ((0, 0), 1.0),
    (0, 1): ((1, 0), 1.0),
    (1, 0): ((0, 1), 1.0),
    (1, 1): ((1, 1), -1.0),
}
# Occupation -> (sector table, sector, position) in the register's sector blocks.
_SWAP_POSITIONS = {
    _SWAP_REGISTER.occupation_of(i): (t, k, p)
    for t, idx in enumerate(_SWAP_REGISTER.sectors) for (k, p), i in np.ndenumerate(idx)
}
# Each target amplitude <out|P|in> as its block entry (table, sector, row, column) and sign.
_SWAP_ENTRIES = [
    (*_SWAP_POSITIONS[occ_out], _SWAP_POSITIONS[occ_in][2], sign)
    for occ_in, (occ_out, sign) in _SWAP_TARGETS.items()
]
# The pulse's largest eigenphase is t = pi/2 times its top energy: the on-site
# 4 U/J of |2,2> plus at most 2 from the hop (J = 2).  Past this ratio the
# phase overflows and the pulse turns NaN.
MAX_SWAP_RATIO = (sys.float_info.max / (np.pi / 2.0) - 2.0) / 4.0


def _swap_pulse(u_over_j: float) -> LinearOperator:
    """:func:`swap_process_fidelity`'s half-period pulse at ``u_over_j``."""
    g = 1.0
    params = HamiltonianParams(
        hops={("A", "B"): 2.0 * g}, u={"A": u_over_j * g, "B": u_over_j * g}
    )
    hamiltonian = build_hamiltonian(_SWAP_REGISTER, params)
    return propagator(hamiltonian, np.pi / (2.0 * g))


def _swap_fidelities(ratios: Sequence[float]) -> list[float]:
    """:func:`swap_process_fidelity` per ratio, all checked before any build; one phase search."""
    for ratio in ratios:
        if not abs(ratio) <= MAX_SWAP_RATIO:
            raise ValueError(
                f"U/J {ratio!r} is not finite or past {MAX_SWAP_RATIO!r}, "
                "where the swap pulse's phases overflow"
            )
    amplitudes = []
    for ratio in ratios:
        blocks = shared(_swap_pulse, ratio).blocks
        amplitudes.append([sign * blocks[t][k, p, q] for t, k, p, q, sign in _SWAP_ENTRIES])
    return [(best / 4.0) ** 2 for best in _max_abs_over_local_phases(amplitudes)]


def swap_process_fidelity(u_over_j: float) -> float:
    """Gate fidelity of the tunneling-realized swap against the ideal one.

    Two modes with occupation cutoff 3 evolve under tunneling plus on-site
    repulsion U for a half period of the single-particle exchange (hopping
    matrix element g, pulse time pi / (2 g); the Hamiltonian carries the
    tunneling energy as the A-B hop J = 2 g).  The evolved qubit-subspace amplitudes,
    read from the cached pulse's sector blocks, are compared with
    the fermionic swap truth table after optimizing the three free local
    phases:

        F = max_phases |(1/4) sum_s <target_s| P |out_s>|^2

    The coherent sum makes F sensitive to the phase structure, not just to
    population transfer; with U = 0 the doubly occupied state returns with
    the wrong relative sign and F = 1/2 even though nothing leaks.  |U/J|
    must be finite and at most ``MAX_SWAP_RATIO``.
    """
    return _swap_fidelities([u_over_j])[0]


def hardcore_limit_scan(
    u_over_j: Sequence[float],
) -> list[tuple[float, float]]:
    """Process infidelity of the realized swap for each interaction ratio.

    Ratios must be positive, ascending and at most ``MAX_SWAP_RATIO``.  The
    infidelity decreases toward zero as U/J grows, which is the executable
    form of the hard-core assumption behind the idealized swap gate.  All
    ratios share one lockstep phase search.
    """
    ratios = _scan_points(u_over_j, "interaction ratios")
    return [(r, 1.0 - f) for r, f in zip(ratios, _swap_fidelities(ratios))]


# -- reservoir limit ---------------------------------------------------------


def rotation_modes(nbar: float) -> list[tuple[str, int]]:
    """:func:`rotation_deviation`'s modes; ValueError past ``MAX_REGISTER_DIM``, no allocation."""
    modes = [("probe", 2), ("res", ReservoirSpec("res", nbar).cutoff)]
    check_register_size([dim for _, dim in modes])
    return modes


def _rotation_pulse(nbar: float) -> LinearOperator:
    """:func:`rotation_deviation`'s quarter-rotation pulse at ``nbar``."""
    register = build_register(rotation_modes(nbar))
    omega = 1.0
    params = HamiltonianParams(hops={("probe", "res"): -omega})
    hamiltonian = build_hamiltonian(register, params)
    t = np.pi / (2.0 * omega * math.sqrt(nbar))
    return propagator(hamiltonian, t)


def _rotation_point(nbar: float, theta: float, targets: list[QuantumState]) -> float:
    """One point of :func:`reservoir_resolved_rotation`; its arrays die on return."""
    # First, so that a bad nbar or theta is refused before the pulse is built; an
    # oversized register was refused by the scan before anything was allocated.
    res_state, _ = coherent_state(ReservoirSpec("res", nbar), theta)
    pulse = shared(_rotation_pulse, nbar)
    if not targets:  # the scan's ideal outputs for inputs |0> and |1>, once theta is accepted
        ideal = number_rotation_matrix(np.pi / 4, theta)
        probe = pulse.register.restricted(["probe"])
        targets += [QuantumState(probe, ideal[:, k]).to_density() for k in (0, 1)]
    amps, worst = res_state.data, 0.0
    for occ, target in enumerate(targets):
        joint = np.zeros(pulse.register.dim, np.complex128)  # |occ> (x) the coherent state
        joint[occ * amps.size : (occ + 1) * amps.size] = amps
        # Straight to the blocks: embed_and_apply's layout copies and second state check
        # made a limit_scans op 18% slower (timeit min, 1.35 vs 1.59 ms, 2-core Xeon).
        evolved = QuantumState(pulse.register, _apply_blocks(pulse, joint[:, None])[:, 0])
        worst = max(worst, float(trace_distance(partial_trace(evolved, ["probe"]), target)))
    return worst


def rotation_deviation(nbar: float, theta: float = 0.0) -> float:
    """:func:`reservoir_resolved_rotation` at the one point ``nbar``."""
    return reservoir_resolved_rotation([nbar], theta)[0][1]


def reservoir_resolved_rotation(
    nbars: Sequence[float], theta: float = 0.0
) -> list[tuple[float, float]]:
    """Deviation of the resolved-reservoir rotation from the ideal one, per nbar.

    A qubit mode exchanges particles with a truncated coherent reservoir at
    phase ``theta`` for the quarter-rotation time t = pi / (2 Omega
    sqrt(nbar)).  The reservoir is traced out and the outputs for inputs |0>
    and |1> are compared (trace distance) against the ideal rotation of
    :func:`number_rotation_matrix` at theta' = pi/4; the worst of the two is
    the deviation.  ``nbars`` must be positive and ascending, their largest
    register within ``MAX_REGISTER_DIM``, and ``theta`` finite.  The deviation
    shrinks as the mean occupation grows, which is the executable form of the
    large-reservoir assumption behind the idealized number rotation.

    The ideal rotation is generated by the exchange +|Omega|/2 (a^+ r +
    r^+ a); the Hamiltonian builder carries a hop as -J/2 (...), so the
    scan passes the (probe, res) hop J = -Omega.
    """
    values = _scan_points(nbars, "nbar values")
    if values:  # the largest register, refused before anything is built
        rotation_modes(values[-1])
    targets: list[QuantumState] = []
    return [(n, _rotation_point(n, theta, targets)) for n in values]

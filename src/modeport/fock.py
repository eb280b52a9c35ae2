"""Fock-space engine for small registers of bosonic modes.

A :class:`ModeRegister` fixes an ordered set of modes, each with its own
occupation cutoff.  Basis states are occupation tuples enumerated
lexicographically with the first-listed mode most significant, so the basis
of ``[(A, 3), (B, 3)]`` runs |00>, |01>, |02>, |10>, ...  An operator is a
dense matrix or, if it conserves the total particle number, one block per
total-number sector.

States are pure amplitude vectors or density matrices over that basis.  A
state may additionally depend on one or more reservoir phase angles; the
dependence is stored on a uniform grid of phase values per angle
(:class:`PhaseGrid`).  Every operation in this package produces amplitudes
that are trigonometric polynomials of bounded order in each angle, so a
sufficiently fine uniform grid represents the dependence exactly and phase
averages computed on the grid are exact integrals.  The bound is tracked per
angle as a Fourier order and checked whenever an average is taken.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# Construction-time tolerances for state and operator invariants.
NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
MIN_EIGVAL = -1e-10
# Measurement outcomes at or below this probability are dropped.
PROB_FLOOR = 1e-14
# Largest register, in basis states: the reservoir scan peaks near 260 bytes
# per state (520 MB at nbar = 10**6, 2,020,000 states), so about 1.1 GB here.
MAX_REGISTER_DIM = 2**22
# That 1.1 GB, the most one request may ask for in bytes: Hamiltonian blocks,
# or the runs a CLI command keeps.
BYTES_BUDGET = 260 * MAX_REGISTER_DIM


def check_register_size(dims: Sequence[int]) -> int:
    """Basis-state count for cutoffs ``dims``; ValueError past ``MAX_REGISTER_DIM``."""
    dim = math.prod(dims)
    if dim > MAX_REGISTER_DIM:
        raise ValueError(f"register {tuple(dims)} has {dim} states, over {MAX_REGISTER_DIM}")
    return dim


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: every array the package shares is."""
    array.flags.writeable = False
    return array


class ModeRegister:
    """Ordered collection of bosonic modes with per-mode occupation cutoffs.

    Each mode is a ``(label, dim)`` pair; occupations run 0 .. dim - 1.  The
    occupation, total-number and sector tables are built on first use, kept
    with the register and read-only, as are the tables ``readout`` returns;
    the sub-registers ``restricted`` returns are kept too.
    """

    def __init__(self, modes: Iterable[tuple[str, int]]):
        modes = tuple((str(label), int(dim)) for label, dim in modes)
        if not modes:
            raise ValueError("register needs at least one mode")
        labels = tuple(label for label, _ in modes)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode label in {labels}")
        for label, dim in modes:
            if not label.isidentifier():
                raise ValueError(f"mode label {label!r} is not an identifier")
            if dim < 2:
                raise ValueError(f"mode {label!r}: occupation cutoff {dim} < 2")
        self.modes = modes
        self.labels = labels
        self.dims = tuple(dim for _, dim in modes)
        self.dim = check_register_size(self.dims)
        self._positions = {label: i for i, label in enumerate(labels)}
        self._restricted: dict[tuple[str, ...], ModeRegister] = {}
        self._readouts: dict[tuple[str, ...], tuple] = {}

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dim, n_modes) table of occupation tuples in basis order."""
        return _read_only(np.indices(self.dims, dtype=np.int64).reshape(self.n_modes, -1).T)

    @cached_property
    def total_numbers(self) -> np.ndarray:
        return _read_only(self.occupations.sum(axis=1))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise ValueError(f"unknown mode label {label!r}") from None

    def index_of(self, occupation: Sequence[int]) -> int:
        occupation = tuple(int(n) for n in occupation)
        if len(occupation) != self.n_modes:
            raise ValueError(
                f"occupation {occupation} has {len(occupation)} entries, "
                f"register has {self.n_modes} modes"
            )
        for n, d in zip(occupation, self.dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {occupation} exceeds cutoffs {self.dims}")
        return int(np.ravel_multi_index(occupation, self.dims))

    def occupation_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(n) for n in self.occupations[index])

    @cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Basis indices of the total-number sectors: one ``(count, size)`` table
        per sector size, ascending, each row one sector's indices in ascending order."""
        order = np.argsort(self.total_numbers, kind="stable")
        sizes = np.bincount(self.total_numbers)
        starts = np.cumsum(sizes) - sizes
        present = np.flatnonzero(np.bincount(sizes))  # the sector sizes, ascending
        rows = (starts[sizes == s][:, None] + np.arange(s) for s in present)
        return tuple(_read_only(order[r]) for r in rows)

    def restricted(self, labels: Sequence[str]) -> "ModeRegister":
        """Sub-register containing ``labels``, kept in this register's order."""
        labels = tuple(labels)
        if labels not in self._restricted:
            positions = sorted(self.position(label) for label in labels)
            self._restricted[labels] = ModeRegister(self.modes[p] for p in positions)
        return self._restricted[labels]

    def readout(self, labels: Sequence[str]) -> tuple:
        """Number-readout tables of the modes ``labels``, in that order.

        Returns ``(rest, occupations, groups)``: the sub-register of the other
        modes (None if none is left); the outcomes' occupation tuples of
        Python ints, in row-major order of ``labels`` as ``np.ndindex`` yields
        them; and one read-only ``(outcomes, size)`` table whose row k holds
        the ascending basis indices that show outcome k.  Every row has the
        same size, as the register is the full product of its modes' ranges.
        """
        labels = tuple(labels)
        if labels not in self._readouts:
            if not labels:
                raise ValueError("measure at least one mode")
            if len(set(labels)) != len(labels):
                raise ValueError("measured modes repeat a label")
            positions = [self.position(label) for label in labels]
            shape = tuple(self.dims[p] for p in positions)
            # A stable sort of each state's outcome index keeps each row ascending.
            outcome = np.ravel_multi_index(self.occupations[:, positions].T, shape)
            groups = _read_only(np.argsort(outcome, kind="stable").reshape(math.prod(shape), -1))
            rest = [label for label in self.labels if label not in labels]
            rest = self.restricted(rest) if rest else None
            self._readouts[labels] = (rest, tuple(np.ndindex(*shape)), groups)
        return self._readouts[labels]

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeRegister) and self.modes == other.modes

    def __hash__(self) -> int:
        return hash(self.modes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}:{dim}" for label, dim in self.modes)
        return f"ModeRegister({inner})"


def build_register(specs: Iterable[tuple[str, int]]) -> ModeRegister:
    """Build a register from ``(label, dim)`` pairs."""
    return ModeRegister(specs)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid of reservoir phase values in [0, 2*pi).

    A grid of M points integrates e**(i*k*theta) exactly for all |k| < M, so
    it is exact for states whose density-matrix entries have Fourier order up
    to M - 1, i.e. amplitude order up to (M - 1) // 2.  ``n_points`` must be
    an integer of at least 2.
    """

    symbol: str
    n_points: int = 16

    def __post_init__(self):
        if not str(self.symbol).isidentifier():
            raise ValueError(f"phase symbol {self.symbol!r} is not an identifier")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"phase grid size {self.n_points!r} is not an integer")
        if self.n_points < 2:
            raise ValueError("phase grid needs at least 2 points")

    @cached_property
    def points(self) -> np.ndarray:
        """The grid's phase values, computed on first use; read-only, as grids are shared."""
        return _read_only(2.0 * np.pi * np.arange(self.n_points) / self.n_points)


def _check_grids(
    grids: Sequence[PhaseGrid], fourier_order: Sequence[int]
) -> tuple[tuple[PhaseGrid, ...], tuple[int, ...]]:
    """``grids`` and ``fourier_order`` as tuples; ValueError unless each symbol
    is listed once, in sorted order, with one Fourier order per grid."""
    grids, fourier_order = tuple(grids), tuple(fourier_order)
    if not grids and not fourier_order:
        return grids, fourier_order
    symbols = [g.symbol for g in grids]
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"repeated phase symbol in {symbols}")
    fourier_order = tuple(int(f) for f in fourier_order)
    if len(fourier_order) != len(grids):
        raise ValueError("fourier_order must have one entry per phase grid")
    if symbols != sorted(symbols):
        raise ValueError(f"phase grids must be in symbol order {sorted(symbols)}, got {symbols}")
    return grids, fourier_order


def _merge_grids(
    a_grids: Sequence[PhaseGrid],
    a_orders: Sequence[int],
    b_grids: Sequence[PhaseGrid],
    b_orders: Sequence[int],
) -> tuple[tuple[PhaseGrid, ...], tuple[int, ...]]:
    """Union of two sorted grid sets; Fourier orders add per shared symbol."""
    if not a_grids or not b_grids:
        return (tuple(a_grids), tuple(a_orders)) if a_grids else (tuple(b_grids), tuple(b_orders))
    by_symbol: dict[str, PhaseGrid] = {}
    orders: dict[str, int] = {}
    for grid, order in list(zip(a_grids, a_orders)) + list(zip(b_grids, b_orders)):
        if grid.symbol in by_symbol:
            if by_symbol[grid.symbol] != grid:
                raise ValueError(
                    f"phase grid mismatch for symbol {grid.symbol!r}: "
                    f"{by_symbol[grid.symbol].n_points} vs {grid.n_points} points"
                )
            orders[grid.symbol] += order
        else:
            by_symbol[grid.symbol] = grid
            orders[grid.symbol] = order
    symbols = sorted(by_symbol)
    return (
        tuple(by_symbol[s] for s in symbols),
        tuple(orders[s] for s in symbols),
    )


def _expand_axes(
    data: np.ndarray,
    own: Sequence[str],
    combined: Sequence[str],
) -> np.ndarray:
    """Insert singleton grid axes so ``data`` broadcasts over ``combined``.

    ``own`` names ``data``'s leading grid axes, in ``combined``'s order.
    """
    if own == combined:
        return data
    sizes = dict(zip(own, data.shape))
    return data.reshape(tuple(sizes.get(s, 1) for s in combined) + data.shape[len(own) :])


def _require_exact_average(grids: Sequence[PhaseGrid], orders: Sequence[int]) -> None:
    for grid, order in zip(grids, orders):
        if grid.n_points < 2 * order + 1:
            raise ValueError(
                f"phase grid for {grid.symbol!r} has {grid.n_points} points but the "
                f"state carries Fourier order {order}; need at least {2 * order + 1}"
            )


class QuantumState:
    """Pure vector or density matrix over a register's Fock basis.

    ``data`` has shape ``(*grid_shape, dim)`` for pure states and
    ``(*grid_shape, dim, dim)`` for density matrices, with one leading axis
    per phase grid; ``grids`` must be listed in symbol order.  Per grid
    point, pure vectors are unit norm and density matrices are Hermitian,
    positive semidefinite and unit trace; a measurement branch that is
    impossible at some grid point may store the zero vector (zero matrix)
    there instead, but not at every point.  ``fourier_order`` holds one
    amplitude Fourier order per grid.

    Treat instances as immutable; operations return new states.
    """

    def __init__(
        self,
        register: ModeRegister,
        data: np.ndarray,
        grids: Sequence[PhaseGrid] = (),
        fourier_order: Sequence[int] = (),
        validate: bool = True,
    ):
        self.register = register
        self.grids, self.fourier_order = _check_grids(grids, fourier_order)
        self.phase_symbols = tuple(g.symbol for g in self.grids)
        self.grid_shape = grid_shape = tuple(g.n_points for g in self.grids)
        data = np.asarray(data, dtype=np.complex128)
        n_grid = len(grid_shape)
        if data.ndim == n_grid + 1:
            self.is_pure = True
            expected = grid_shape + (register.dim,)
        elif data.ndim == n_grid + 2:
            self.is_pure = False
            expected = grid_shape + (register.dim, register.dim)
        else:
            raise ValueError(
                f"state data has shape {data.shape}, expected a vector or square "
                f"matrix over dimension {register.dim} with grid shape {grid_shape}"
            )
        if data.shape != expected:
            raise ValueError(f"state data has shape {data.shape}, expected {expected}")
        self.data = data
        self._norms = None
        if validate:
            self._validate()

    # -- representations ---------------------------------------------------

    def density_data(self) -> np.ndarray:
        """Density-matrix array, forming |psi><psi| per grid point if pure."""
        if self.is_pure:
            return np.einsum("...i,...j->...ij", self.data, self.data.conj())
        return self.data

    def to_density(self) -> "QuantumState":
        if not self.is_pure:
            return self
        return QuantumState(
            self.register,
            self.density_data(),
            grids=self.grids,
            fourier_order=self.fourier_order,
            # Unchecked: a norm NORM_ATOL off 1 is a trace 2 NORM_ATOL off, past TRACE_ATOL.
            validate=False,
        )

    def norms(self) -> np.ndarray:
        """Per-grid-point 2-norm (pure) or trace (density), computed on the
        first call and kept: the array is shared, so do not modify it."""
        if self._norms is None:
            if self.is_pure:
                # Real view: each amplitude as (re, im), so the norm is one dot product.
                parts = np.ascontiguousarray(self.data).view(np.float64)
                self._norms = np.sqrt(np.einsum("...i,...i->...", parts, parts))
            else:
                self._norms = self.data.trace(axis1=-2, axis2=-1).real
        return self._norms

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        # Each test reads "not (dev <= tol)", so a NaN deviation fails it.  A norm is
        # >= 0 or NaN, a trace < 0 if rho is not PSD.  Grid-free states are tested on
        # Python floats, where min keeps a NaN first argument, as np.minimum does.
        values = self.norms()
        tol = NORM_ATOL if self.is_pure else TRACE_ATOL
        if values.ndim:
            top = values.max()
            # Rounding is monotone, so these two bound every point's |value - 1|: within
            # tol, the rule passes.  Otherwise (NaN too) it runs and words the message.
            off = 0.0
            if not (top - 1.0 <= tol and 1.0 - values.min() <= tol):
                off = np.minimum(np.abs(values - 1.0), values if self.is_pure else np.abs(values)).max()
        else:
            top = float(values)
            off = min(abs(top - 1.0), top if self.is_pure else abs(top))
        what = "norm" if self.is_pure else "trace"
        if not off <= tol:
            raise ValueError(
                f"state {what} must be 1 (or 0 on an impossible branch) per grid "
                f"point; worst deviation {off:.3e}"
            )
        if top < PROB_FLOOR:
            raise ValueError(f"state {what} is 0 at every grid point")
        if not self.is_pure:
            herm = np.abs(self.data - self.data.swapaxes(-1, -2).conj()).max()
            if not herm <= HERM_ATOL:
                raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
            # PSD screen: Cholesky of rho + (|MIN_EIGVAL|/2) I succeeds only if
            # lambda_min > MIN_EIGVAL / 2 up to round-off, which the eigenvalue
            # rule accepts; the half-bound margin leaves eigvalsh, run only when
            # the screen fails, to decide every case near the bound.
            shifted = self.data.copy()  # C order, so the reshape below is a view
            diagonal = shifted.reshape(shifted.shape[:-2] + (-1,))[..., :: self.register.dim + 1]
            diagonal += 0.5 * abs(MIN_EIGVAL)
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                eigs = np.linalg.eigvalsh(self.data)
                if not eigs.min() >= MIN_EIGVAL:
                    raise ValueError(
                        f"density matrix not positive semidefinite: min eigenvalue "
                        f"{eigs.min():.3e}"
                    ) from None

    def __repr__(self) -> str:
        kind = "pure" if self.is_pure else "density"
        sym = ",".join(self.phase_symbols) or "-"
        return f"QuantumState({kind}, {self.register!r}, symbols={sym})"


def basis_state(register: ModeRegister, occupations: Sequence[int]) -> QuantumState:
    """Fock basis state |n_1 n_2 ...> for the given occupation tuple."""
    return from_amplitudes(register, {tuple(occupations): 1.0})


def from_amplitudes(
    register: ModeRegister,
    amplitudes: Mapping[tuple[int, ...], complex],
    normalize: bool = False,
) -> QuantumState:
    """Pure state from a sparse {occupation tuple: amplitude} mapping."""
    vec = np.zeros(register.dim, dtype=np.complex128)
    for occ, amp in amplitudes.items():
        vec[register.index_of(occ)] = amp
    if normalize:
        norm = np.linalg.norm(vec)
        if norm < PROB_FLOOR:
            raise ValueError("cannot normalize a zero state")
        vec = vec / norm
    return QuantumState(register, vec)


def _require_unitary(matrix: np.ndarray) -> float:
    """max |U+U - I| over a stack of square matrices; ValueError past NORM_ATOL or NaN.

    The package's one unitarity residual: operators of ``kind="unitary"`` are
    checked by it at construction, and self-test criterion 9 prints it.  I comes
    off U+U's diagonal in place: each entry is ``prod - I``'s (x - 0.0 is x, -0.0 too).
    """
    prod = np.einsum("...ji,...jk->...ik", matrix.conj(), matrix)
    diagonal = np.einsum("...ii->...i", prod)
    diagonal -= 1.0
    dev = float(np.abs(prod).max())
    if not dev <= NORM_ATOL:
        raise ValueError(f"operator is not unitary: max |U+U - I| = {dev:.3e}")
    return dev


class LinearOperator:
    """Matrix over a register's basis, optionally per phase-grid point.

    ``kind`` is one of ``unitary``, ``hermitian`` or ``general``; the first
    two are verified at construction.  A number-conserving operator may be
    given as ``blocks``, one ``(count, size, size)`` stack per table of
    ``register.sectors`` and no grids; its kind is verified block by block and
    ``matrix`` is then a dense view, built anew on each request, for
    inspection and tests: no apply path builds it.
    """

    KINDS = ("unitary", "hermitian", "general")

    def __init__(
        self,
        register: ModeRegister,
        matrix: np.ndarray | None = None,
        kind: str = "general",
        grids: Sequence[PhaseGrid] = (),
        fourier_order: Sequence[int] = (),
        blocks: Sequence[np.ndarray] | None = None,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        if (matrix is None) == (blocks is None):
            raise ValueError("an operator needs either a matrix or sector blocks")
        self.register = register
        self.kind = kind
        self.grids, self.fourier_order = _check_grids(grids, fourier_order)
        self.phase_symbols = tuple(g.symbol for g in self.grids)
        if blocks is not None:
            blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
            shapes = [(len(idx),) + idx.shape[1:] * 2 for idx in register.sectors]
            if self.grids or [b.shape for b in blocks] != shapes:
                raise ValueError(f"sector blocks need shapes {shapes} and no phase grids")
        else:
            matrix = np.asarray(matrix, dtype=np.complex128)
            expected = tuple(g.n_points for g in self.grids) + (register.dim, register.dim)
            if matrix.shape != expected:
                raise ValueError(f"operator matrix has shape {matrix.shape}, expected {expected}")
        self._matrix = matrix
        self.blocks = blocks
        self._validate()

    @property
    def matrix(self) -> np.ndarray:
        if self.blocks is None:
            return self._matrix
        dense = np.zeros((self.register.dim, self.register.dim), dtype=np.complex128)
        for idx, block in zip(self.register.sectors, self.blocks):
            dense[idx[:, :, None], idx[:, None, :]] = block
        return dense

    @cached_property
    def runs(self) -> list[tuple[slice, slice]]:
        """A dense operator's rows as ``(rows, cols)`` slices: runs of consecutive
        rows whose nonzero entries at every grid point lie in the one span ``cols``."""
        nonzero = (self._matrix != 0).any(axis=tuple(range(self._matrix.ndim - 2)))
        runs: list[tuple[slice, slice]] = []
        for row, flags in enumerate(nonzero.tolist()):
            cols = [col for col, flag in enumerate(flags) if flag]
            span = slice(cols[0], cols[-1] + 1) if cols else slice(0, 0)
            if runs and runs[-1][1] == span:
                runs[-1] = (slice(runs[-1][0].start, row + 1), span)
            else:
                runs.append((slice(row, row + 1), span))
        return runs

    def _validate(self) -> None:
        for matrix in self.blocks or (self._matrix,):
            if self.kind == "unitary":
                _require_unitary(matrix)
            elif self.kind == "hermitian":
                dev = np.abs(matrix - matrix.swapaxes(-1, -2).conj()).max()
                if not dev <= HERM_ATOL:
                    raise ValueError(f"operator is not Hermitian: deviation {dev:.3e}")

    def __repr__(self) -> str:
        sym = ",".join(self.phase_symbols) or "-"
        return f"LinearOperator({self.kind}, {self.register!r}, symbols={sym})"


# A value is kept while its arrays hold at most CACHE_ENTRIES entries: a
# rotation pulse at that limit holds about 1.05 MB with its register's tables,
# so the cache retains at most about 32 MB.
CACHE_SIZE = 32
CACHE_ENTRIES = 2**15
_cache: OrderedDict[tuple, LinearOperator | tuple] = OrderedDict()


def _exact_key(args: tuple) -> tuple:
    """``args`` with the type and sign of each real one: -0.0 == 0.0 and
    float32(x) == x, but they build different bits, so they get separate keys."""
    kinds = tuple((type(a), math.copysign(1.0, a)) for a in args if isinstance(a, numbers.Real))
    return args, kinds


def shared(build: Callable, *args):
    """``build(*args)`` with its arrays read-only, from the package's one bounded LRU cache.

    A value is a :class:`LinearOperator`, whose arrays are its blocks or
    matrix, or a tuple, whose arrays are its ndarray members.  It is kept only
    if those arrays hold at most ``CACHE_ENTRIES`` entries; a larger one, or a
    build that raises, leaves the cache as it was.
    """
    key = (build, _exact_key(args))
    value = _cache.get(key)
    if value is not None:
        _cache.move_to_end(key)
        return value
    value = build(*args)
    arrays = (value.blocks or (value._matrix,)) if isinstance(value, LinearOperator) else value
    arrays = [_read_only(a) for a in arrays if isinstance(a, np.ndarray)]
    if sum(a.size for a in arrays) <= CACHE_ENTRIES:
        _cache[key] = value
        if len(_cache) > CACHE_SIZE:
            _cache.popitem(last=False)
    return value


def ladder_operator(register: ModeRegister, mode: str, which: str) -> LinearOperator:
    """Creation, annihilation or number operator on one mode.

    Acts as the identity on all other modes.  The creation operator maps the
    top occupation dim - 1 to the zero vector rather than wrapping, so
    truncation error shows up as norm loss.
    """
    pos = register.position(mode)
    d = register.dims[pos]
    occ_n = register.occupations[:, pos]
    stride = int(np.prod(register.dims[pos + 1 :], initial=1))
    matrix = np.zeros((register.dim, register.dim), dtype=np.complex128)
    idx = np.arange(register.dim)
    if which == "create":
        mask = occ_n < d - 1
        matrix[idx[mask] + stride, idx[mask]] = np.sqrt(occ_n[mask] + 1.0)
        kind = "general"
    elif which == "annihilate":
        mask = occ_n > 0
        matrix[idx[mask] - stride, idx[mask]] = np.sqrt(occ_n[mask].astype(float))
        kind = "general"
    elif which == "number":
        matrix[idx, idx] = occ_n
        kind = "hermitian"
    else:
        raise ValueError(f"unknown ladder kind {which!r}; use create/annihilate/number")
    return LinearOperator(register, matrix, kind=kind)


def _modes_last(register: ModeRegister, sub: ModeRegister) -> list[int]:
    """Mode positions of ``register``, untouched modes first, then ``sub``'s in its order."""
    positions = []
    for label, dim in sub.modes:
        p = register.position(label)
        if register.dims[p] != dim:
            raise ValueError(
                f"mode {label!r} has dim {dim} in the operator register but "
                f"{register.dims[p]} in the state register"
            )
        positions.append(p)
    return [p for p in range(register.n_modes) if p not in positions] + positions


def embed_matrix(
    register: ModeRegister, op_register: ModeRegister, matrix: np.ndarray
) -> np.ndarray:
    """Embed a matrix on a sub-register into the full register's basis.

    ``matrix`` may carry leading grid axes; they are preserved.
    """
    order = _modes_last(register, op_register)
    eye = np.eye(register.dim // op_register.dim)
    big = np.einsum("...ij,kl->...kilj", matrix, eye)
    # Split each basis axis into modes in ``order``, then put them back in register order.
    lead, n = matrix.ndim - 2, register.n_modes
    big = big.reshape(matrix.shape[:-2] + tuple(register.dims[p] for p in order) * 2)
    axes = [lead + c * n + order.index(p) for c in range(2) for p in range(n)]
    return big.transpose([*range(lead), *axes]).reshape(matrix.shape[:-2] + (register.dim,) * 2)


def _apply_blocks(op: LinearOperator, data: np.ndarray, conj: bool = False) -> np.ndarray:
    """Sector-block ``op`` (or its conjugate) on axis -2 of ``data``: gather, multiply, scatter."""
    out = np.empty_like(data)
    for idx, block in zip(op.register.sectors, op.blocks):
        block = block.conj() if conj else block
        out[..., idx, :] = np.einsum("kij,...kjR->...kiR", block, data[..., idx, :])
    return out


# Long axes from this many columns are contracted run by run.  On a 2-vCPU
# x86-64 host (numpy 2.4.6) a 2x2 phase gate breaks even near 1,024 columns
# (12.4 against 12.2 us), 4x4 hops and swaps near 512.
RUN_MIN_COLUMNS = 1024


def _contract(
    op: LinearOperator,
    data: np.ndarray,
    register: ModeRegister,
    own: Sequence[str],
    symbols: tuple[str, ...],
    conj: bool = False,
) -> np.ndarray:
    """``op``, or its conjugate, on its own modes of the last basis axis of ``data``.

    ``data`` has one leading grid axis per symbol of ``own``, maybe another
    basis axis, and the contracted one last; the result has one grid axis per
    symbol of the merged set ``symbols``.  One copy orders ``data`` as
    (operator grid axes, operator modes, all other axes merged into one long
    axis ``R``), so the inner loop runs over ``R``.  A dense operator is one
    einsum on it or, from ``RUN_MIN_COLUMNS`` columns, one einsum per run of
    ``op.runs`` over that run's nonzero columns: each entry is the same sum in
    the same order without its +-0 terms, which cannot change the bits of a
    sum of finite terms that starts at +0.  Sector blocks go through :func:`_apply_blocks` on
    the same array.  A second copy writes the result back into the input's
    memory layout, C order once a grid is added, whatever the operator's
    storage.  Later grid means sum in an order that depends on that layout.
    """
    order = _modes_last(register, op.register)
    n_rest = register.n_modes - op.register.n_modes
    split = _expand_axes(data.reshape(data.shape[:-1] + register.dims), own, symbols)
    n_lead = split.ndim - register.n_modes
    op_axes = [symbols.index(s) for s in op.phase_symbols]
    axes = [
        *op_axes,
        *(n_lead + p for p in order[n_rest:] + order[:n_rest]),
        *(a for a in range(n_lead) if a not in op_axes),
    ]
    split = split.transpose(axes)
    x = split.reshape(split.shape[: len(op_axes)] + (op.register.dim, -1))
    if op.blocks is None:
        matrix = op.matrix.conj() if conj else op.matrix
        if x.shape[-1] < RUN_MIN_COLUMNS or len(op.runs) == 1:
            out = np.einsum("...ij,...jR->...iR", matrix, x)
        else:
            out = np.empty(matrix.shape[:-2] + x.shape[-2:], dtype=np.complex128)
            for rows, cols in op.runs:
                sub = matrix[..., rows, cols]
                np.einsum("...ij,...jR->...iR", sub, x[..., cols, :], out=out[..., rows, :])
    else:
        out = _apply_blocks(op, x, conj)
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    out = out.reshape(out.shape[:-2] + split.shape[len(op_axes) :]).transpose(inverse)
    result = np.empty_like(data, shape=out.shape[:n_lead] + (register.dim,))
    # Splitting the basis axis into modes is a view of ``result``, whatever its layout.
    result.reshape(out.shape)[...] = out
    return result


def _branch_probability(data: np.ndarray, pure: bool) -> np.ndarray:
    """Per-grid-point squared norm (pure) or trace (density) of a branch."""
    if pure:
        return (np.abs(data) ** 2).sum(axis=-1)
    return data.trace(axis1=-2, axis2=-1).real


def _normalized_branch(data: np.ndarray, prob: np.ndarray, pure: bool) -> np.ndarray:
    """``data`` over its norm (pure) or trace (density) ``prob`` per grid point,
    or 0 where that weight is at most ``PROB_FLOOR``."""
    weight = np.sqrt(prob)[..., None] if pure else prob[..., None, None]
    return np.where(weight > PROB_FLOOR, data / np.maximum(weight, PROB_FLOOR), 0.0)


def embed_and_apply(
    state: QuantumState, op: LinearOperator, renormalize: bool = False
) -> QuantumState:
    """Apply an operator to its own modes, as the identity on the others.

    Every operator goes through ``_contract``, which contracts only its modes;
    a full-register operator is the case with no other modes.  Phase-grid
    axes are aligned by symbol and applied pointwise.  A sector-block
    operator is applied sector by sector, on any of the state's modes, and its
    dense view is never built.  A density matrix gets the operator on its ket
    axis, then the conjugate on its bra axis: U rho U^+.  With
    ``renormalize`` the result is rescaled to unit norm per grid point, which
    is how norm loss from non-unitary operators (truncated creation, for
    instance) is absorbed explicitly; without it, a non-norm-preserving
    result fails state validation.
    """
    register = state.register
    grids, orders = _merge_grids(
        state.grids, state.fourier_order, op.grids, op.fourier_order
    )
    symbols = tuple(g.symbol for g in grids)
    data = state.data if state.is_pure else state.data.swapaxes(-1, -2)
    out = _contract(op, data, register, state.phase_symbols, symbols)
    if not state.is_pure:
        out = _contract(op, out.swapaxes(-1, -2), register, symbols, symbols, conj=True)
    if renormalize:
        prob = _branch_probability(out, state.is_pure)
        # At most PROB_FLOOR everywhere, every point would be stored as 0.
        if (np.sqrt(prob) if state.is_pure else prob).max() <= PROB_FLOOR:
            raise ValueError("operator annihilated the state everywhere")
        out = _normalized_branch(out, prob, state.is_pure)
    return QuantumState(register, out, grids=grids, fourier_order=orders)


def partial_trace(state: QuantumState, keep: Sequence[str]) -> QuantumState:
    """Reduced density matrix on ``keep``, in the register's mode order.

    A pure state is contracted with its conjugate directly, so the full
    density matrix is never formed and the register may have any number of
    modes.  Pure and density states share one layout: each basis axis (one
    or two) is split into modes and copied into (untouched modes, kept modes),
    then the grid points, so that einsum's inner loop runs over the grid
    points.  Each entry is still one sum over the untouched modes in the same
    order, so no bit moves.  Both are returned in C order, on which later
    grid means depend.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError("keep repeats a mode label")
    register = state.register
    sub = register.restricted(keep)
    order = _modes_last(register, sub)
    n_grid, n = len(state.grids), register.n_modes
    copies = 1 if state.is_pure else 2
    split = state.data.reshape(state.grid_shape + register.dims * copies)
    axes = [n_grid + c * n + p for c in range(copies) for p in order]
    x = split.transpose(axes + list(range(n_grid)))
    x = x.reshape((register.dim // sub.dim, sub.dim) * copies + (-1,))
    if state.is_pure:
        reduced = np.einsum("rig,rjg->ijg", x, x.conj())
    else:
        reduced = np.einsum("rirjg->ijg", x)
    reduced = np.ascontiguousarray(reduced.transpose(2, 0, 1))
    reduced = reduced.reshape(state.grid_shape + (sub.dim, sub.dim))
    return QuantumState(
        sub, reduced, grids=state.grids, fourier_order=state.fourier_order
    )


def phase_average(
    state: QuantumState,
    probability: np.ndarray | None = None,
    symbols: Sequence[str] | None = None,
) -> QuantumState:
    """Density matrix averaged uniformly over unknown reservoir phases: the twirl.

    ``symbols`` names the grids to average, by default all; the others are
    kept.  Each averaged grid must resolve the state's Fourier order along
    it, so the average is exact; a coarser grid, or a symbol the state does
    not carry, raises.

    With ``probability``, the per-point probability of the branch whose
    conditional ``state`` is normalized per point, every grid is averaged
    and the result is the probability-weighted mean renormalized by the mean
    probability: the conditional state once the phases are unknown.  The
    weighted matrix is a block of the pre-measurement density matrix, so
    this average is exact too.

    The mean is one sum over all averaged axes, divided by their point
    count, as ``np.mean`` computes it.  The sum runs in an order set by the
    state's memory layout, not only its values, so re-laying out the data or
    averaging one axis at a time moves bits.
    """
    symbols = state.phase_symbols if symbols is None else tuple(symbols)
    for symbol in symbols:
        if symbol not in state.phase_symbols:
            raise ValueError(f"state does not carry phase symbol {symbol!r}")
    if len(set(symbols)) != len(symbols):
        raise ValueError("symbols repeat a phase symbol")
    if not state.grids:
        return state.to_density()
    axes = tuple(state.phase_symbols.index(s) for s in symbols)
    kept = [i for i in range(len(state.grids)) if i not in axes]
    _require_exact_average(
        [state.grids[i] for i in axes], [state.fourier_order[i] for i in axes]
    )
    rho = state.density_data()
    count = math.prod(state.grid_shape[i] for i in axes)
    if probability is None:
        avg = rho.sum(axis=axes) / count
    else:
        if kept:
            raise ValueError("a branch probability is averaged over every phase grid")
        mean_p = float(probability.sum() / probability.size)
        if mean_p < PROB_FLOOR:
            raise ValueError("outcome has vanishing phase-averaged probability")
        avg = (probability[..., None, None] * rho).sum(axis=axes) / count / mean_p
    return QuantumState(
        state.register,
        avg,
        grids=[state.grids[i] for i in kept],
        fourier_order=[state.fourier_order[i] for i in kept],
    )


@dataclass(eq=False)
class MeasurementOutcome:
    """One projective number-measurement outcome.

    ``occupations`` is the outcome's occupation tuple of Python ints, in the
    order the modes were measured.  ``probability`` has the state's grid
    shape (0-dimensional when the state carries no phase symbols).  ``state``
    is the conditional state on the unmeasured modes, normalized per grid
    point, with the zero vector at grid points where the outcome is
    impossible; it is ``None`` when every mode was measured.  ``grids`` and
    ``fourier_order`` are the measured state's.
    """

    occupations: tuple[int, ...]
    probability: np.ndarray
    state: QuantumState | None
    grids: tuple[PhaseGrid, ...]
    fourier_order: tuple[int, ...]

    @property
    def mean_probability(self) -> float:
        """Probability averaged uniformly over the phase grids."""
        if self.grids:
            _require_exact_average(self.grids, self.fourier_order)
        return float(self.probability.sum() / self.probability.size)

    def phase_averaged_state(self) -> QuantumState | None:
        """Conditional state of the phase-averaged ensemble (see :func:`phase_average`)."""
        if self.state is None:
            return None
        return phase_average(self.state, self.probability)

    def __repr__(self) -> str:
        return (
            f"MeasurementOutcome({self.occupations}, "
            f"p~{float(np.mean(self.probability)):.4g})"
        )


@dataclass(eq=False)
class MeasurementResult:
    """All retained outcomes of a projective number measurement."""

    outcomes: list[MeasurementOutcome]

    def outcome(self, occupations: Sequence[int]) -> MeasurementOutcome:
        occupations = tuple(int(n) for n in occupations)
        for out in self.outcomes:
            if out.occupations == occupations:
                return out
        raise KeyError(f"outcome {occupations} not present (probability below floor?)")

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


def measure_number(state: QuantumState, modes: Sequence[str]) -> MeasurementResult:
    """Projective measurement of occupation numbers on ``modes``.

    Returns Born-rule probabilities and renormalized conditional states on
    the unmeasured modes, per phase-grid point.  Outcomes whose probability
    stays at or below ``PROB_FLOOR`` across the whole grid are omitted.
    All outcomes are gathered from the register's readout table (see
    :meth:`ModeRegister.readout`) and normalized as one stack, outcome axis
    first: each outcome's slices keep the bits and layout (basis axis
    outermost) of a gather of its group alone, and later grid means sum in
    that layout's order.
    """
    sub_register, occupations, groups = state.register.readout(modes)
    index = (groups,) if state.is_pure else (groups[:, :, None], groups[:, None, :])
    subs = np.moveaxis(state.data[(..., *index)], -1 - len(index), 0)
    probs = _branch_probability(subs, state.is_pure)
    conds = _normalized_branch(subs, probs, state.is_pure)

    outcomes: list[MeasurementOutcome] = []
    for occ_m, prob, data in zip(occupations, probs, conds):
        if prob.max() <= PROB_FLOOR:
            continue
        cond = None
        if sub_register is not None:
            cond = QuantumState(sub_register, data, state.grids, state.fourier_order)
        outcomes.append(
            MeasurementOutcome(occ_m, prob, cond, state.grids, state.fourier_order)
        )
    total = probs.sum(axis=0)
    if np.abs(total - state.norms() ** (2 if state.is_pure else 1)).max() > 1e-10:
        raise AssertionError("measurement probabilities do not sum to the state norm")
    return MeasurementResult(outcomes)


# -- metrics ---------------------------------------------------------------


def _aligned(x: QuantumState, y: QuantumState, xd: np.ndarray, yd: np.ndarray):
    """``xd`` and ``yd``, arrays of ``x`` and ``y``, with singleton grid axes so
    they broadcast by symbol, and whether the pair carries any phase grid."""
    if x.register != y.register:
        raise ValueError("states live on different registers")
    if not x.grids and not y.grids:
        return xd, yd, False
    grids, _ = _merge_grids(x.grids, x.fourier_order, y.grids, y.fourier_order)
    symbols = tuple(g.symbol for g in grids)
    xd = _expand_axes(xd, x.phase_symbols, symbols)
    return xd, _expand_axes(yd, y.phase_symbols, symbols), bool(grids)


def _maybe_scalar(value: np.ndarray, gridded: bool):
    return np.asarray(value) if gridded else float(value)


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues at the eigensolver noise floor.

    Square roots turn O(1e-16) eigenvalue noise into O(1e-8) errors, so
    anything below 1e-14 of the largest eigenvalue is treated as exactly 0.
    """
    w = np.clip(w, 0.0, None)
    floor = 1e-14 * w.max(axis=-1, keepdims=True)
    return np.where(w > floor, w, 0.0)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.sqrt(_clip_spectrum(w))
    return np.einsum("...ij,...j,...kj->...ik", v, w, v.conj())


def fidelity(x: QuantumState, y: QuantumState):
    """Uhlmann fidelity; equals |<x|y>|**2 for pure states.

    Returns a float for symbol-free inputs, otherwise an array over the
    combined phase grid (broadcast by symbol).
    """
    xd, yd, gridded = _aligned(x, y, x.data, y.data)
    if x.is_pure and y.is_pure:
        overlap = np.einsum("...i,...i->...", xd.conj(), yd)
        return _maybe_scalar(np.abs(overlap) ** 2, gridded)
    if x.is_pure or y.is_pure:
        pd, md = (xd, yd) if x.is_pure else (yd, xd)
        value = np.einsum("...i,...ij,...j->...", pd.conj(), md, pd).real
        return _maybe_scalar(value, gridded)
    xd, yd = np.broadcast_arrays(xd, yd)
    root = _psd_sqrt(xd)
    inner = root @ yd @ root
    w = np.linalg.eigvalsh(inner)
    value = np.sqrt(_clip_spectrum(w)).sum(axis=-1) ** 2
    return _maybe_scalar(value, gridded)


def trace_distance(x: QuantumState, y: QuantumState):
    """Trace distance (1/2)*tr|x - y|, per grid point when symbols are present."""
    xd, yd, gridded = _aligned(x, y, x.density_data(), y.density_data())
    w = np.linalg.eigvalsh(xd - yd)
    return _maybe_scalar(0.5 * np.abs(w).sum(axis=-1), gridded)


def entanglement_entropy(state: QuantumState, keep: Sequence[str]):
    """Von Neumann entropy, in bits, of the reduced state on ``keep``.

    For a pure state this is the entanglement entropy across the cut
    ``keep`` versus the rest of the register.  Eigenvalues are clipped at
    1e-15 before the logarithm.
    """
    reduced = partial_trace(state, keep)
    w = np.linalg.eigvalsh(reduced.data)
    w = np.clip(w, 0.0, None)
    logs = np.log2(np.clip(w, 1e-15, None))
    value = 0.0 - (w * logs).sum(axis=-1)  # not a unary minus: a product state's 0 stays +0.0
    return _maybe_scalar(value, bool(state.grids))

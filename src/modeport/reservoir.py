"""BEC phase reference and the particle-number superselection rule.

A large condensate acts as a phase reference that lets single-mode
operations rotate a mode between occupation eigenstates.  Ignorance of the
condensate phase is modeled by twirling: the uniform average of the state
over the phase, which removes all coherences between different total
particle numbers.  The phase dependence lives on :class:`PhaseGrid` points,
so the twirl is an exact integral whenever the grid satisfies the tracked
Fourier-order bound.  The twirl is :func:`modeport.fock.phase_average`;
``twirl_state`` and ``twirl_all`` name its one-symbol and all-symbol uses.

A reservoir whose state is not represented is just such a phase symbol.  A
resolved reservoir, a mode holding a truncated coherent state, is a
:class:`ReservoirSpec`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fock import ModeRegister, QuantumState, phase_average, shared

SSR_ATOL = 1e-12


@dataclass(frozen=True)
class ReservoirSpec:
    """A resolved condensate reservoir mode with mean occupation ``nbar``.

    Its truncated coherent state keeps occupations 0 .. cutoff - 1.  ``nbar``
    must be finite, and the cutoff an integer of at least nbar + 10*sqrt(nbar)
    so the truncated state retains essentially all of its norm; ``cutoff=None``
    takes the smallest integer the rule allows, and at least 2.
    """

    label: str
    nbar: float
    cutoff: int | None = None

    def __post_init__(self):
        if not str(self.label).isidentifier():
            raise ValueError(f"reservoir label {self.label!r} is not an identifier")
        if not (self.nbar > 0 and math.isfinite(self.nbar)):
            raise ValueError("reservoir mean occupation must be positive and finite")
        needed = self.nbar + 10.0 * math.sqrt(self.nbar)
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", max(2, math.ceil(needed)))
        elif not isinstance(self.cutoff, numbers.Integral):
            raise ValueError(f"reservoir cutoff {self.cutoff!r} is not an integer")
        elif self.cutoff < needed:
            raise ValueError(
                f"reservoir cutoff {self.cutoff} too small for nbar={self.nbar}; "
                f"need at least {needed:.1f}"
            )


def twirl_state(state: QuantumState, symbol: str) -> QuantumState:
    """Average the state over one reservoir phase (see :func:`phase_average`)."""
    return phase_average(state, symbols=[symbol])


def twirl_all(state: QuantumState) -> QuantumState:
    """Average the state over every phase symbol it carries."""
    return phase_average(state)


@dataclass(frozen=True)
class SsrReport:
    """Result of a superselection compliance check."""

    compliant: bool
    max_offblock_norm: float


def ssr_compliance_check(state: QuantumState) -> SsrReport:
    """Check that a state carries no coherence between total-number sectors.

    The density matrix is decomposed into total-particle-number sectors;
    the state is compliant iff every matrix element connecting different
    sectors has magnitude at most ``SSR_ATOL``.  States still carrying
    unresolved phase symbols must be twirled first.
    """
    if state.grids:
        raise ValueError(
            f"state carries unresolved phase symbols {state.phase_symbols}; "
            "twirl before checking superselection compliance"
        )
    n = state.register.total_numbers
    offsector = n[:, None] != n
    max_off = float(np.abs(state.density_data()[offsector]).max())
    return SsrReport(compliant=max_off <= SSR_ATOL, max_offblock_norm=max_off)


def _magnitudes(label: str, nbar: float, cutoff: int) -> tuple:
    """:func:`coherent_state`'s theta-free register, n and magnitudes."""
    # Built first, so a cutoff past MAX_REGISTER_DIM is refused before any allocation.
    register = ModeRegister([(label, cutoff)])
    n = np.arange(cutoff)
    # Log-space magnitudes: n! overflows floats long before the cutoff does.
    log_mag = -nbar / 2.0 + 0.5 * n * math.log(nbar)
    log_mag -= 0.5 * np.fromiter(map(math.lgamma, (n + 1.0).tolist()), np.float64, n.size)
    magnitudes = np.exp(log_mag, out=log_mag)  # in place: no second cutoff-long array
    return register, n, magnitudes


def coherent_state(spec: ReservoirSpec, theta: float) -> tuple[QuantumState, float]:
    """Truncated coherent state of a reservoir at phase ``theta``.

    Amplitudes are exp(-nbar/2) * (sqrt(nbar) e^{i theta})**n / sqrt(n!) on
    occupations 0 .. cutoff - 1, renormalized.  Returns the state together
    with the norm deficit of the truncated expansion before renormalization.
    ``theta`` must be finite; it is reduced to atan2(sin theta, cos theta), as
    exp(i theta) is, so rounding theta * n cannot scramble a large theta's phases.
    Its theta-free magnitudes come read-only from the package's one cache,
    :func:`modeport.fock.shared`, under that cache's size rule.
    """
    if not math.isfinite(theta):
        raise ValueError(f"reservoir phase theta {theta!r} must be finite")
    theta = math.atan2(math.sin(theta), math.cos(theta))
    register, n, magnitudes = shared(_magnitudes, spec.label, spec.nbar, spec.cutoff)
    amps = magnitudes * np.exp(1j * theta * n)
    norm_sq = float((np.abs(amps) ** 2).sum())
    return QuantumState(register, amps / math.sqrt(norm_sq)), 1.0 - norm_sq

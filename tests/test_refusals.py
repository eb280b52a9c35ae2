"""Refusals and failure reports that the protocol and scan tests never reach.

Each case builds one bad input and asserts the exception type and its whole
message; criterion 9's failure details are forced by monkeypatching, and the
CLI's config reader and stdout path are run directly.
"""

import re

import numpy as np
import pytest

from modeport import cli, selftest
from modeport.fock import (
    LinearOperator,
    ModeRegister,
    PhaseGrid,
    QuantumState,
    basis_state,
    from_amplitudes,
    measure_number,
    partial_trace,
    phase_average,
)
from modeport.hamiltonian import HamiltonianParams
from modeport.protocol import (
    BellOutcome,
    UnknownStateSpec,
    encode_dense_message,
    feed_forward,
    prepare_entangled_pair,
    random_spec_corpus,
    run_teleportation,
    unknown_state_target,
)
from modeport.reservoir import ReservoirSpec

PAIR = ModeRegister([("a", 2), ("b", 2)])
GRID = PhaseGrid("theta", 4)


def omitted_outcome():
    # |00> never shows a = 1, so that outcome is omitted from the result.
    return measure_number(basis_state(PAIR, (0, 0)), ["a"]).outcome((1,))


REFUSALS = [
    (lambda: ModeRegister([("1a", 2)]), ValueError, "mode label '1a' is not an identifier"),
    (lambda: PAIR.index_of((0,)), ValueError, "occupation (0,) has 1 entries, register has 2 modes"),
    (lambda: PAIR.index_of((0, 2)), ValueError, "occupation (0, 2) exceeds cutoffs (2, 2)"),
    (lambda: PhaseGrid("1x"), ValueError, "phase symbol '1x' is not an identifier"),
    (lambda: PhaseGrid("x", 1), ValueError, "phase grid needs at least 2 points"),
    (
        lambda: QuantumState(PAIR, np.ones((2, 2, 4)) / 2, grids=(GRID, GRID), fourier_order=(0, 0)),
        ValueError,
        "repeated phase symbol in ['theta', 'theta']",
    ),
    (
        lambda: QuantumState(PAIR, np.zeros((2, 2, 2))),
        ValueError,
        "state data has shape (2, 2, 2), expected a vector or square matrix "
        "over dimension 4 with grid shape ()",
    ),
    (lambda: QuantumState(PAIR, np.zeros(3)), ValueError, "state data has shape (3,), expected (4,)"),
    (
        lambda: from_amplitudes(PAIR, {(0, 0): 0.0}, normalize=True),
        ValueError,
        "cannot normalize a zero state",
    ),
    (lambda: LinearOperator(PAIR, np.eye(4), kind="odd"), ValueError, "unknown operator kind 'odd'"),
    (
        lambda: LinearOperator(PAIR, np.eye(3)),
        ValueError,
        "operator matrix has shape (3, 3), expected (4, 4)",
    ),
    (
        lambda: partial_trace(basis_state(PAIR, (0, 0)), ["a", "a"]),
        ValueError,
        "keep repeats a mode label",
    ),
    (
        lambda: phase_average(
            QuantumState(PAIR, np.full((4, 4), 0.5), grids=(GRID,), fourier_order=(0,)),
            symbols=["theta", "theta"],
        ),
        ValueError,
        "symbols repeat a phase symbol",
    ),
    (omitted_outcome, KeyError, "outcome (1,) not present (probability below floor?)"),
    (lambda: measure_number(basis_state(PAIR, (0, 0)), []), ValueError, "measure at least one mode"),
    (
        lambda: measure_number(basis_state(PAIR, (0, 0)), ["b", "b"]),
        ValueError,
        "measured modes repeat a label",
    ),
    (lambda: UnknownStateSpec(float("nan"), 0.0), ValueError, "preparation angles must be finite"),
    (lambda: BellOutcome(2, 0), ValueError, "Bell readout occupations must be 0 or 1"),
    (
        lambda: unknown_state_target(UnknownStateSpec(0.1, 0.2), PAIR, GRID),
        ValueError,
        "target register must hold a single qubit mode",
    ),
    (
        lambda: feed_forward(BellOutcome(0, 1), basis_state(PAIR, (0, 1))),
        ValueError,
        "feed-forward expects the conditional state of mode B",
    ),
    (
        lambda: run_teleportation(UnknownStateSpec(0.1, 0.2), reservoir_config="both"),
        ValueError,
        "unknown reservoir config 'both'",
    ),
    (lambda: random_spec_corpus(0, 7), ValueError, "corpus size must be at least 1"),
    (
        lambda: encode_dense_message(prepare_entangled_pair(), 4, "A", PhaseGrid("bec", 16)),
        ValueError,
        "message must be 0, 1, 2 or 3",
    ),
    (lambda: ReservoirSpec("1x", 4.0), ValueError, "reservoir label '1x' is not an identifier"),
    (
        lambda: HamiltonianParams(hops={("a", "b"): float("inf")}),
        ValueError,
        "hops[('a', 'b')] must be finite",
    ),
]


@pytest.mark.parametrize(
    "build, error, message", REFUSALS, ids=[message for _, _, message in REFUSALS]
)
def test_refusal_raises_its_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert info.value.args == (message,)


def test_structural_check_reports_a_wrong_amplitude_and_entropy(monkeypatch):
    # With every application a no-op, the split pair stays |00>, a product state of +0.0 bits.
    monkeypatch.setattr(selftest, "embed_and_apply", lambda state, op, renormalize=False: state)
    result = selftest._structural_checks(16)
    assert not result.passed
    assert result.detail == (
        "amplitude at (2, 0): 0j; amplitude at (1, 1): 0j; amplitude at (0, 2): 0j; entropy 0.0"
    )


def test_structural_check_reports_a_twirl_residual(monkeypatch):
    twirl = selftest.twirl_state
    calls = []

    def drifting(state, symbol):
        # The second twirl comes back with a Hermitian, trace-free offset.
        calls.append(symbol)
        out = twirl(state, symbol)
        offset = 2e-12 * (len(calls) - 1) * np.array([[0.0, 1.0], [1.0, 0.0]])
        return QuantumState(out.register, out.data + offset)

    monkeypatch.setattr(selftest, "twirl_state", drifting)
    result = selftest._structural_checks(16)
    assert not result.passed and len(calls) == 2
    assert re.fullmatch(r"twirl idempotence residual \d\.\d{3}e-12", result.detail)


def test_config_file_blank_lines_are_skipped(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ntheta_prime = 0.25\n\n   \n# note\nphi = 2.5\n", encoding="utf-8")
    config = cli.parse_config(["teleport", "--config", str(cfg)])
    assert (config.theta_prime, config.phi) == (0.25, 2.5)


def test_stdout_gets_the_bytes_out_writes(tmp_path, capsys):
    out = tmp_path / "dense.json"
    assert cli.main(["densecoding", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(["densecoding"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

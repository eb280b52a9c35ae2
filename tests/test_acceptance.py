"""Acceptance gate: every headline criterion at its stated tolerance.

Prints one pass/fail line per criterion (run pytest with -s to see them on
success; they also appear in failure reports).
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from modeport.fock import NORM_ATOL, PhaseGrid, _require_unitary, build_register, shared
from modeport.gates import fermionic_swap_gate, hopping_gate, number_rotation_gate, phase_gate
from modeport.hamiltonian import _rotation_pulse, _swap_pulse
from modeport.protocol import ANALYSIS_RESERVOIR, random_spec_corpus, run_teleportation
from modeport.selftest import _structural_checks, run_acceptance_suite, teleport_criteria

CRITERIA = {
    1: "success probability 1/2 within 1e-9 over the seeded corpus",
    2: "success-branch fidelity 1 within 1e-9 at every grid point",
    3: "twirled failure-branch mode A within 1e-9 of maximally mixed",
    4: "twirled terminal states superselection compliant within 1e-12",
    5: "Bell truth table exact within 1e-12 at every grid point",
    6: "dense coding deterministic iff the reservoir is shared",
    7: "hard-core swap infidelity monotone, < 1e-3 at U/J = 1000",
    8: "reservoir rotation deviation monotone, < 0.05 at nbar = 256",
    9: "split-pair amplitudes/entropy, gate unitarity, twirl idempotence",
}


@pytest.fixture(scope="module")
def suite():
    return {result.number: result for result in run_acceptance_suite()}


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(suite, number):
    result = suite[number]
    print(result.line())
    assert result.passed, result.line()


@pytest.fixture(scope="module")
def runs():
    return [run_teleportation(spec) for spec in random_spec_corpus(3, seed=5)]


def test_criteria_of_a_generator_equal_those_of_a_list(runs):
    assert teleport_criteria(iter(runs)) == teleport_criteria(runs)


def test_criteria_drop_each_run_once_judged():
    alive = []

    def produce():
        for spec in random_spec_corpus(4, seed=5):
            gc.collect()
            # At most the run being yielded and the one the loop still names.
            assert sum(ref() is not None for ref in alive) <= 1
            result = run_teleportation(spec)
            alive.append(weakref.ref(result))
            yield result

    assert all(c.passed for c in teleport_criteria(produce()))
    assert len(alive) == 4


def test_nan_in_a_later_run_fails_its_criterion(runs):
    broken = dataclasses.replace(runs[1], success_probability=math.nan)
    results = teleport_criteria([runs[0], broken, runs[2]])
    assert [c.passed for c in results] == [False, True, True, True]
    assert "nan" in results[0].detail


def test_criteria_need_a_run():
    with pytest.raises(ValueError, match="at least one run"):
        teleport_criteria(iter([]))


class TestOneUnitarityRule:
    """``fock._require_unitary``: the residual criterion 9 prints, met by every scan pulse."""

    @staticmethod
    def residual(m):
        prod = np.einsum("...ji,...jk->...ik", m.conj(), m)
        return float(np.abs(prod - np.eye(m.shape[-1])).max())

    def test_criterion_9_prints_the_library_residual(self):
        qubits = build_register([("a", 2), ("A", 2)])
        grid = PhaseGrid(ANALYSIS_RESERVOIR, 16)
        gates = (
            phase_gate(qubits, "a", 0.62),
            number_rotation_gate(qubits, "A", 0.41, grid),
            fermionic_swap_gate(qubits, "a", "A"),
            hopping_gate(qubits, "a", "A", np.pi / 4, convention="raw"),
            hopping_gate(qubits, "a", "A", np.pi / 4, convention="bell"),
        )
        devs = [_require_unitary(g.matrix) for g in gates]
        assert devs == [self.residual(g.matrix) for g in gates]
        assert all(type(d) is float for d in devs)
        assert f"unitarity <= {max(devs):.1e}," in _structural_checks(16).detail
        assert f"{max(devs):.1e}" == "0.0e+00"

    @pytest.mark.parametrize(
        "build,point",
        [(_swap_pulse, r) for r in (1.0, 10.0, 100.0, 1000.0)]
        + [(_rotation_pulse, n) for n in (4.0, 16.0, 64.0, 256.0)],
    )
    def test_default_scan_pulses_within_norm_atol(self, build, point):
        pulse = shared(build, point)
        for block in pulse.blocks:
            assert _require_unitary(block) <= NORM_ATOL

    def test_one_scaled_block_of_a_long_stack_refused(self):
        angles = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 10**5)
        c, s = np.cos(angles), np.sin(angles)
        stack = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(np.complex128)
        assert _require_unitary(stack) <= NORM_ATOL
        stack[61_803] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="not unitary"):
            _require_unitary(stack)

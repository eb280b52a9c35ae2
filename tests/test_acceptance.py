"""Acceptance gate: every headline criterion at its stated tolerance.

Prints one pass/fail line per criterion (run pytest with -s to see them on
success; they also appear in failure reports).
"""

import dataclasses
import gc
import math
import weakref

import pytest

from modeport.protocol import random_spec_corpus, run_teleportation
from modeport.selftest import run_acceptance_suite, teleport_criteria

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

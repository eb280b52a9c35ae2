"""Artifact bytes of the teleportation commands and of ``selftest``, pinned byte for byte.

Several fields sit at the round-off floor (``failure_mode_a_distance`` near
1e-16, failure-branch ``fidelity_min`` near 1e-33, the ``selftest`` criteria
1, 3, 4 and 5 details near 1e-16), so any change in the order
of the arithmetic behind a gate application shows up here.  Never regenerate
these strings to make a test pass.
"""

import pytest

from modeport.cli import main

TELEPORT_JSON = """\
{
  "outcomes": [
    {
      "classification": "psi_plus",
      "fidelity_mean": 1.0,
      "fidelity_min": 1.0,
      "n_A": 0,
      "n_a": 0,
      "probability": 0.25
    },
    {
      "classification": "psi_minus",
      "fidelity_mean": 1.0,
      "fidelity_min": 1.0,
      "n_A": 1,
      "n_a": 0,
      "probability": 0.25
    },
    {
      "classification": "failure",
      "fidelity_mean": 0.5,
      "fidelity_min": 6.60874676192e-35,
      "n_A": 0,
      "n_a": 1,
      "probability": 0.25
    },
    {
      "classification": "failure",
      "fidelity_mean": 0.5,
      "fidelity_min": 3.08148791102e-33,
      "n_A": 1,
      "n_a": 1,
      "probability": 0.25
    }
  ],
  "reservoirs": {
    "analysis": "alice",
    "config": "distinct",
    "grid_points": 16,
    "preparation": "charlie"
  },
  "spec": {
    "phi": 0.0,
    "theta_prime": 0.785398163397
  },
  "ssr_compliant": true,
  "success_probability": 0.5
}
"""

TELEPORT_SHARED_JSON = """\
{
  "outcomes": [
    {
      "classification": "psi_plus",
      "fidelity_mean": 1.0,
      "fidelity_min": 1.0,
      "n_A": 0,
      "n_a": 0,
      "probability": 0.25
    },
    {
      "classification": "psi_minus",
      "fidelity_mean": 1.0,
      "fidelity_min": 1.0,
      "n_A": 1,
      "n_a": 0,
      "probability": 0.25
    },
    {
      "classification": "failure",
      "fidelity_mean": 1.0,
      "fidelity_min": 1.0,
      "n_A": 0,
      "n_a": 1,
      "probability": 0.25
    },
    {
      "classification": "failure",
      "fidelity_mean": 8.08890576643e-33,
      "fidelity_min": 3.08148791102e-33,
      "n_A": 1,
      "n_a": 1,
      "probability": 0.25
    }
  ],
  "reservoirs": {
    "analysis": "charlie",
    "config": "shared",
    "grid_points": 16,
    "preparation": "charlie"
  },
  "spec": {
    "phi": 0.0,
    "theta_prime": 0.785398163397
  },
  "ssr_compliant": true,
  "success_probability": 0.5
}
"""

SWEEP_20_SEED_7_JSON = """\
{
  "aggregate": {
    "all_ssr_compliant": true,
    "max_success_probability_error": 5.55111512313e-17,
    "min_success_fidelity": 1.0
  },
  "command": "sweep",
  "generator": "pcg64",
  "grid_points": 16,
  "n": 20,
  "reservoirs": "distinct",
  "runs": [
    {
      "failure_mode_a_distance": 1.94289029309e-16,
      "fidelity_min_success": 1.0,
      "phi": 1.35282444926,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.981897662839
    },
    {
      "failure_mode_a_distance": 6.16803368712e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.00664189717,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.40934014291
    },
    {
      "failure_mode_a_distance": 1.66533453694e-16,
      "fidelity_min_success": 1.0,
      "phi": 3.84869984163,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.21844423298
    },
    {
      "failure_mode_a_distance": 2.22044604925e-16,
      "fidelity_min_success": 1.0,
      "phi": 0.276095778791,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.353754626805
    },
    {
      "failure_mode_a_distance": 1.94289029309e-16,
      "fidelity_min_success": 1.0,
      "phi": 0.224185803346,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.471500097766
    },
    {
      "failure_mode_a_distance": 1.03293460802e-16,
      "fidelity_min_success": 1.0,
      "phi": 3.23514187036,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.37217454329
    },
    {
      "failure_mode_a_distance": 1.94289029309e-16,
      "fidelity_min_success": 1.0,
      "phi": 2.92925884844,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.00827072107106
    },
    {
      "failure_mode_a_distance": 1.66533453694e-16,
      "fidelity_min_success": 1.0,
      "phi": 5.76273507674,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.28998258306
    },
    {
      "failure_mode_a_distance": 1.66533453694e-16,
      "fidelity_min_success": 1.0,
      "phi": 3.95354515711,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.25203373088
    },
    {
      "failure_mode_a_distance": 5.9791366093e-17,
      "fidelity_min_success": 1.0,
      "phi": 3.23029644328,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.735030505106
    },
    {
      "failure_mode_a_distance": 1.66533453694e-16,
      "fidelity_min_success": 1.0,
      "phi": 3.12194786879,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.476002222948
    },
    {
      "failure_mode_a_distance": 1.11022302463e-16,
      "fidelity_min_success": 1.0,
      "phi": 1.55518212139,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.437349928774
    },
    {
      "failure_mode_a_distance": 1.38777878078e-16,
      "fidelity_min_success": 1.0,
      "phi": 0.0741040480012,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.400348212099
    },
    {
      "failure_mode_a_distance": 4.65475153734e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.20889832416,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.699124226424
    },
    {
      "failure_mode_a_distance": 8.32667268469e-17,
      "fidelity_min_success": 1.0,
      "phi": 4.34816605402,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.792542551862
    },
    {
      "failure_mode_a_distance": 1.94289029309e-16,
      "fidelity_min_success": 1.0,
      "phi": 1.26044922068,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.869431607529
    },
    {
      "failure_mode_a_distance": 1.27188144864e-16,
      "fidelity_min_success": 1.0,
      "phi": 2.32186511725,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.56372818854
    },
    {
      "failure_mode_a_distance": 7.31932030602e-17,
      "fidelity_min_success": 1.0,
      "phi": 0.0234629347951,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.24511043109
    },
    {
      "failure_mode_a_distance": 5.81585287368e-17,
      "fidelity_min_success": 1.0,
      "phi": 5.21534370015,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.977316848214
    },
    {
      "failure_mode_a_distance": 6.20512815882e-17,
      "fidelity_min_success": 1.0,
      "phi": 0.970507595056,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.55345496733
    }
  ],
  "seed": 7
}
"""


SELFTEST_20_JSON = """\
{
  "command": "selftest",
  "criteria": [
    {
      "detail": "max |P(success) - 1/2| = 1.665e-16 over 20 specs",
      "name": "teleportation succeeds with probability 1/2",
      "number": 1,
      "passed": true
    },
    {
      "detail": "min per-point success fidelity = 1.000000000000",
      "name": "success branches deliver the state with unit fidelity at every phase",
      "number": 2,
      "passed": true
    },
    {
      "detail": "max trace distance from I/2 = 1.943e-16",
      "name": "failure branch leaves mode A maximally mixed after twirling",
      "number": 3,
      "passed": true
    },
    {
      "detail": "max off-block coherence = 9.665e-17",
      "name": "every twirled terminal state is superselection compliant",
      "number": 4,
      "passed": true
    },
    {
      "detail": "max per-point probability deviation = 4.441e-16",
      "name": "Bell analysis maps psi+ to (0,0), psi- to (0,1), phi+- to n_a = 1",
      "number": 5,
      "passed": true
    },
    {
      "detail": "shared: 0->0, 1->1, 2->2, 3->3; distinct phi-sector probability spread = 1.000",
      "name": "dense coding decodes all four messages only with a shared reservoir",
      "number": 6,
      "passed": true
    },
    {
      "detail": "1:2.001e-01, 10:6.715e-03, 100:6.175e-05, 1000:6.169e-07",
      "name": "hard-core swap infidelity is monotone and < 1e-3 at U/J = 1000",
      "number": 7,
      "passed": true
    },
    {
      "detail": "4:1.208e-01, 16:3.133e-02, 64:7.903e-03, 256:1.980e-03",
      "name": "resolved-reservoir rotation error is monotone and < 0.05 at nbar = 256",
      "number": 8,
      "passed": true
    },
    {
      "detail": "entropy = 1.500000000 bits, unitarity <= 0.0e+00, twirl residual <= 0.0e+00",
      "name": "structural checks: split-pair amplitudes and entropy, gate unitarity, twirl idempotence",
      "number": 9,
      "passed": true
    }
  ],
  "passed": true
}
"""


SWEEP_20_SEED_7_SHARED_JSON = """\
{
  "aggregate": {
    "all_ssr_compliant": true,
    "max_success_probability_error": 1.66533453694e-16,
    "min_success_fidelity": 1.0
  },
  "command": "sweep",
  "generator": "pcg64",
  "grid_points": 16,
  "n": 20,
  "reservoirs": "shared",
  "runs": [
    {
      "failure_mode_a_distance": 3.72602107589e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.35282444926,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.981897662839
    },
    {
      "failure_mode_a_distance": 7.05310789483e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.00664189717,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.40934014291
    },
    {
      "failure_mode_a_distance": 8.78570081891e-17,
      "fidelity_min_success": 1.0,
      "phi": 3.84869984163,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.21844423298
    },
    {
      "failure_mode_a_distance": 8.98327035417e-17,
      "fidelity_min_success": 1.0,
      "phi": 0.276095778791,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.353754626805
    },
    {
      "failure_mode_a_distance": 1.72109207256e-16,
      "fidelity_min_success": 1.0,
      "phi": 0.224185803346,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.471500097766
    },
    {
      "failure_mode_a_distance": 6.90339632428e-17,
      "fidelity_min_success": 1.0,
      "phi": 3.23514187036,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.37217454329
    },
    {
      "failure_mode_a_distance": 9.67965001295e-17,
      "fidelity_min_success": 1.0,
      "phi": 2.92925884844,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.00827072107106
    },
    {
      "failure_mode_a_distance": 9.39306848458e-17,
      "fidelity_min_success": 1.0,
      "phi": 5.76273507674,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.28998258306
    },
    {
      "failure_mode_a_distance": 9.24601943321e-17,
      "fidelity_min_success": 1.0,
      "phi": 3.95354515711,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.25203373088
    },
    {
      "failure_mode_a_distance": 3.80726206886e-17,
      "fidelity_min_success": 1.0,
      "phi": 3.23029644328,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.735030505106
    },
    {
      "failure_mode_a_distance": 4.38494978976e-17,
      "fidelity_min_success": 1.0,
      "phi": 3.12194786879,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.476002222948
    },
    {
      "failure_mode_a_distance": 6.82682656354e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.55518212139,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.437349928774
    },
    {
      "failure_mode_a_distance": 1.13739271986e-16,
      "fidelity_min_success": 1.0,
      "phi": 0.0741040480012,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.400348212099
    },
    {
      "failure_mode_a_distance": 4.44307270814e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.20889832416,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.699124226424
    },
    {
      "failure_mode_a_distance": 1.92923908853e-17,
      "fidelity_min_success": 1.0,
      "phi": 4.34816605402,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.792542551862
    },
    {
      "failure_mode_a_distance": 8.32667268469e-17,
      "fidelity_min_success": 1.0,
      "phi": 1.26044922068,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.869431607529
    },
    {
      "failure_mode_a_distance": 7.07521717553e-17,
      "fidelity_min_success": 1.0,
      "phi": 2.32186511725,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.56372818854
    },
    {
      "failure_mode_a_distance": 5.60638838154e-17,
      "fidelity_min_success": 1.0,
      "phi": 0.0234629347951,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.24511043109
    },
    {
      "failure_mode_a_distance": 3.52218158692e-17,
      "fidelity_min_success": 1.0,
      "phi": 5.21534370015,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 0.977316848214
    },
    {
      "failure_mode_a_distance": 1.12809249147e-16,
      "fidelity_min_success": 1.0,
      "phi": 0.970507595056,
      "ssr_compliant": true,
      "success_probability": 0.5,
      "theta_prime": 1.55345496733
    }
  ],
  "seed": 7
}
"""


SELFTEST_20_GRID_64_JSON = """\
{
  "command": "selftest",
  "criteria": [
    {
      "detail": "max |P(success) - 1/2| = 1.665e-16 over 20 specs",
      "name": "teleportation succeeds with probability 1/2",
      "number": 1,
      "passed": true
    },
    {
      "detail": "min per-point success fidelity = 1.000000000000",
      "name": "success branches deliver the state with unit fidelity at every phase",
      "number": 2,
      "passed": true
    },
    {
      "detail": "max trace distance from I/2 = 2.220e-16",
      "name": "failure branch leaves mode A maximally mixed after twirling",
      "number": 3,
      "passed": true
    },
    {
      "detail": "max off-block coherence = 6.939e-17",
      "name": "every twirled terminal state is superselection compliant",
      "number": 4,
      "passed": true
    },
    {
      "detail": "max per-point probability deviation = 7.772e-16",
      "name": "Bell analysis maps psi+ to (0,0), psi- to (0,1), phi+- to n_a = 1",
      "number": 5,
      "passed": true
    },
    {
      "detail": "shared: 0->0, 1->1, 2->2, 3->3; distinct phi-sector probability spread = 1.000",
      "name": "dense coding decodes all four messages only with a shared reservoir",
      "number": 6,
      "passed": true
    },
    {
      "detail": "1:2.001e-01, 10:6.715e-03, 100:6.175e-05, 1000:6.169e-07",
      "name": "hard-core swap infidelity is monotone and < 1e-3 at U/J = 1000",
      "number": 7,
      "passed": true
    },
    {
      "detail": "4:1.208e-01, 16:3.133e-02, 64:7.903e-03, 256:1.980e-03",
      "name": "resolved-reservoir rotation error is monotone and < 0.05 at nbar = 256",
      "number": 8,
      "passed": true
    },
    {
      "detail": "entropy = 1.500000000 bits, unitarity <= 0.0e+00, twirl residual <= 0.0e+00",
      "name": "structural checks: split-pair amplitudes and entropy, gate unitarity, twirl idempotence",
      "number": 9,
      "passed": true
    }
  ],
  "passed": true
}
"""


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["teleport"], TELEPORT_JSON),
        (["teleport", "--shared-reservoir"], TELEPORT_SHARED_JSON),
        (["sweep", "--n", "20", "--seed", "7"], SWEEP_20_SEED_7_JSON),
        (["selftest", "--n", "20"], SELFTEST_20_JSON),
        (
            ["sweep", "--n", "20", "--seed", "7", "--shared-reservoir"],
            SWEEP_20_SEED_7_SHARED_JSON,
        ),
        (["selftest", "--n", "20", "--grid", "64"], SELFTEST_20_GRID_64_JSON),
    ],
    ids=[
        "teleport",
        "teleport-shared",
        "sweep-n20-seed7",
        "selftest-n20",
        "sweep-n20-seed7-shared",
        "selftest-n20-grid64",
    ],
)
def test_protocol_artifact_bytes(tmp_path, argv, golden):
    out = tmp_path / "artifact.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == golden.encode()

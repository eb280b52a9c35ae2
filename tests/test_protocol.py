import json

import numpy as np
import pytest

from modeport.cli import main
from modeport.fock import (
    PhaseGrid,
    basis_state,
    build_register,
    fidelity,
    from_amplitudes,
    measure_number,
    partial_trace,
    trace_distance,
)
from modeport.protocol import (
    FAILED_STATUS,
    SUCCESS_STATUS,
    BellOutcome,
    UnknownStateSpec,
    bell_state_analysis,
    encode_dense_message,
    feed_forward,
    prepare_entangled_pair,
    prepare_unknown_state,
    random_spec_corpus,
    run_dense_coding,
    run_teleportation,
    unknown_state_target,
)
from modeport.reservoir import ssr_compliance_check


def bell_state(register, name):
    root = 1.0 / np.sqrt(2.0)
    amps = {
        "psi_plus": {(0, 1): root, (1, 0): root},
        "psi_minus": {(0, 1): root, (1, 0): -root},
        "phi_plus": {(0, 0): root, (1, 1): root},
        "phi_minus": {(0, 0): root, (1, 1): -root},
    }[name]
    return from_amplitudes(register, amps)


class TestPreparation:
    def test_zero_rotation_leaves_vacuum(self):
        grid = PhaseGrid("charlie", 16)
        state = prepare_unknown_state(UnknownStateSpec(0.0, 1.3), grid)
        np.testing.assert_allclose(np.abs(state.data[..., 0]), 1.0, atol=1e-14)
        np.testing.assert_allclose(state.data[..., 1], 0.0, atol=1e-14)

    def test_half_pi_moves_all_weight(self):
        grid = PhaseGrid("charlie", 16)
        state = prepare_unknown_state(UnknownStateSpec(np.pi / 2, 0.0), grid)
        expected = -1j * np.exp(1j * grid.points)
        np.testing.assert_allclose(state.data[..., 0], 0.0, atol=1e-14)
        np.testing.assert_allclose(state.data[..., 1], expected, atol=1e-14)

    def test_closed_form_with_bias(self):
        # theta' = pi/4, phi = pi/2: (|0> - i e^{i(theta + pi/2)} |1>)/sqrt(2).
        grid = PhaseGrid("charlie", 16)
        state = prepare_unknown_state(UnknownStateSpec(np.pi / 4, np.pi / 2), grid)
        theta = grid.points
        expected = np.stack(
            [np.full_like(theta, 1 / np.sqrt(2), dtype=complex),
             -1j * np.exp(1j * (theta + np.pi / 2)) / np.sqrt(2)],
            axis=-1,
        )
        np.testing.assert_allclose(state.data, expected, atol=1e-14)

    def test_matches_target_formula_everywhere(self):
        grid = PhaseGrid("charlie", 16)
        for spec in random_spec_corpus(10, seed=3):
            state = prepare_unknown_state(spec, grid)
            target = unknown_state_target(spec, state.register, grid)
            np.testing.assert_allclose(state.data, target.data, atol=1e-12)

    def test_rotates_mode_a_of_a_given_state(self):
        grid = PhaseGrid("charlie", 16)
        spec = UnknownStateSpec(0.9, 0.4)
        register = build_register([("a", 2), ("A", 2), ("B", 2)])
        state = prepare_unknown_state(spec, grid, basis_state(register, (0, 1, 0)))
        alone = prepare_unknown_state(spec, grid)
        np.testing.assert_allclose(
            state.data.reshape(16, 2, 4)[:, :, 2], alone.data, atol=1e-14
        )

    def test_entangled_pair(self):
        pair = prepare_entangled_pair()
        reg = pair.register
        expected = from_amplitudes(reg, {(1, 0): 1.0, (0, 1): 1.0}, normalize=True)
        np.testing.assert_allclose(pair.data, expected.data, atol=1e-14)
        reduced = partial_trace(pair, ["B"])
        np.testing.assert_allclose(reduced.data, np.eye(2) / 2, atol=1e-14)
        assert ssr_compliance_check(pair).compliant


class TestBellAnalysis:
    def test_symmetric_state_reads_empty(self):
        reg = build_register([("a", 2), ("A", 2)])
        grid = PhaseGrid("alice", 16)
        result = bell_state_analysis(bell_state(reg, "psi_plus"), grid)
        out = result.measurement.outcome((0, 0))
        np.testing.assert_allclose(out.probability, 1.0, atol=1e-13)

    def test_antisymmetric_state_reads_single(self):
        reg = build_register([("a", 2), ("A", 2)])
        grid = PhaseGrid("alice", 16)
        result = bell_state_analysis(bell_state(reg, "psi_minus"), grid)
        out = result.measurement.outcome((0, 1))
        np.testing.assert_allclose(out.probability, 1.0, atol=1e-13)

    def test_two_particle_sector_conditional_states(self):
        # Brute-force circuit evaluation fixes the detailed images of the
        # two-particle-sector Bell states (frozen oracle):
        #   phi+ -> |1>_a (sin(t) |0> - e^{it} cos(t) |1>)_A
        #   phi- -> |1>_a (cos(t) |0> + e^{it} sin(t) |1>)_A  (up to phase)
        # Occupation readout of a gives 1 with certainty either way.
        reg = build_register([("a", 2), ("A", 2)])
        grid = PhaseGrid("alice", 16)
        t = grid.points
        expected_vectors = {
            "phi_plus": np.stack([np.sin(t), -np.exp(1j * t) * np.cos(t)], axis=-1),
            "phi_minus": np.stack(
                [np.cos(t).astype(complex), np.exp(1j * t) * np.sin(t)], axis=-1
            ),
        }
        for name, vecs in expected_vectors.items():
            analysis = bell_state_analysis(bell_state(reg, name), grid)
            res_a = measure_number(analysis.state, ["a"])
            out = res_a.outcome((1,))
            np.testing.assert_allclose(out.probability, 1.0, atol=1e-13)
            got_rho = out.state.density_data()
            want_rho = np.einsum("...i,...j->...ij", vecs, vecs.conj())
            np.testing.assert_allclose(got_rho, want_rho, atol=1e-12)
            total_single = sum(
                o.probability for b, o in analysis.outcomes if b.n_a == 1
            )
            np.testing.assert_allclose(total_single, 1.0, atol=1e-13)

    def test_phi_outcomes_at_zero_phase(self):
        # At theta = 0 the readout of (a, A) is (1,1) for phi+ and (1,0)
        # for phi-; the split swaps as the phase moves through pi/2.
        reg = build_register([("a", 2), ("A", 2)])
        grid = PhaseGrid("alice", 16)
        plus = bell_state_analysis(bell_state(reg, "phi_plus"), grid)
        p11 = plus.measurement.outcome((1, 1)).probability
        assert abs(p11[0] - 1.0) < 1e-13
        minus = bell_state_analysis(bell_state(reg, "phi_minus"), grid)
        p10 = minus.measurement.outcome((1, 0)).probability
        assert abs(p10[0] - 1.0) < 1e-13


class TestFeedForward:
    def test_classification(self):
        assert BellOutcome(0, 0).classification == "psi_plus"
        assert BellOutcome(0, 1).classification == "psi_minus"
        assert BellOutcome(1, 0).classification == "failure"
        assert BellOutcome(1, 1).classification == "failure"

    def test_identity_branch(self):
        reg = build_register([("B", 2)])
        state = from_amplitudes(reg, {(0,): 0.6, (1,): 0.8}, normalize=True)
        corrected, status = feed_forward(BellOutcome(0, 0), state)
        assert status == SUCCESS_STATUS
        np.testing.assert_allclose(corrected.data, state.data, atol=1e-15)

    def test_z_branch(self):
        reg = build_register([("B", 2)])
        state = from_amplitudes(reg, {(0,): 0.6, (1,): 0.8}, normalize=True)
        corrected, status = feed_forward(BellOutcome(0, 1), state)
        assert status == SUCCESS_STATUS
        expected = from_amplitudes(reg, {(0,): 0.6, (1,): -0.8}, normalize=True)
        np.testing.assert_allclose(corrected.data, expected.data, atol=1e-14)

    def test_failure_branch_untouched(self):
        reg = build_register([("B", 2)])
        state = from_amplitudes(reg, {(0,): 0.6, (1,): 0.8}, normalize=True)
        for n_A in (0, 1):
            corrected, status = feed_forward(BellOutcome(1, n_A), state)
            assert status == FAILED_STATUS
            np.testing.assert_allclose(corrected.data, state.data, atol=1e-15)


class TestTeleportation:
    def test_success_probability_half(self):
        result = run_teleportation(UnknownStateSpec(0.9, 2.5))
        assert abs(result.success_probability - 0.5) < 1e-12

    def test_vacuum_input_teleports_trivially(self):
        result = run_teleportation(UnknownStateSpec(0.0, 0.7))
        for rec in result.outcomes:
            if rec.status == SUCCESS_STATUS:
                assert rec.fidelity_min > 1.0 - 1e-12

    def test_success_branches_unit_fidelity_both_configs(self):
        for config in ("distinct", "shared"):
            result = run_teleportation(UnknownStateSpec(0.61, 1.9), config)
            for rec in result.outcomes:
                if rec.status == SUCCESS_STATUS:
                    assert rec.fidelity_min > 1.0 - 1e-9

    def test_outcome_probabilities_quarter_each(self):
        result = run_teleportation(UnknownStateSpec(1.1, 0.3))
        for rec in result.outcomes:
            np.testing.assert_allclose(rec.probability_grid, 0.25, atol=1e-12)

    def test_failure_mode_a_maximally_mixed(self):
        result = run_teleportation(UnknownStateSpec(0.77, 4.0))
        assert result.failure_mode_a_distance < 1e-9

    def test_failure_mode_b_bounded_fidelity(self):
        # For the balanced input no correction-free readout of B can beat
        # 3/4; the actual value is 1/2.
        result = run_teleportation(UnknownStateSpec(np.pi / 4, 0.9))
        assert result.failure_fidelity_mean <= 0.75 + 1e-9
        assert result.failure_fidelity_mean == pytest.approx(0.5, abs=1e-9)

    def test_bloch_identity_on_cardinal_states(self):
        # The success branches implement the identity map (after correction)
        # on the six cardinal preparations, per grid point.
        cardinals = [
            UnknownStateSpec(0.0, 0.0),
            UnknownStateSpec(np.pi / 2, 0.0),
            UnknownStateSpec(np.pi / 4, 0.0),
            UnknownStateSpec(np.pi / 4, np.pi / 2),
            UnknownStateSpec(np.pi / 4, np.pi),
            UnknownStateSpec(np.pi / 4, 3 * np.pi / 2),
        ]
        for spec in cardinals:
            result = run_teleportation(spec)
            grid = PhaseGrid(result.prep_symbol, result.grid_points)
            for rec in result.outcomes:
                if rec.status != SUCCESS_STATUS:
                    continue
                target = unknown_state_target(spec, rec.state.register, grid)
                fid = np.asarray(fidelity(rec.state, target))
                assert float(fid.min()) > 1.0 - 1e-9

    def test_no_signalling_in_phi(self):
        # Bob's twirled unconditional state cannot depend on the bias phase.
        base = run_teleportation(UnknownStateSpec(0.83, 0.0))
        other = run_teleportation(UnknownStateSpec(0.83, 2.2))
        dist = trace_distance(base.unconditional_b, other.unconditional_b)
        assert dist < 1e-10
        np.testing.assert_allclose(base.unconditional_b.data, np.eye(2) / 2, atol=1e-12)

    def test_teleported_state_carries_preparation_phase(self):
        # With distinct reservoirs the success-branch output still matches
        # the preparation-phase-dependent target at every pair of phases,
        # which is only possible if the output tracks that phase exactly.
        spec = UnknownStateSpec(0.66, 1.1)
        result = run_teleportation(spec, "distinct")
        rec = next(r for r in result.outcomes if r.classification == "psi_plus")
        assert rec.state.phase_symbols == ("alice", "charlie")
        assert rec.fidelity_min > 1.0 - 1e-9

    def test_ssr_compliance(self):
        result = run_teleportation(UnknownStateSpec(1.3, 5.1))
        assert result.ssr_compliant
        assert result.ssr_report.max_offblock_norm < 1e-12

    def test_json_schema(self, tmp_path):
        artifact = tmp_path / "teleport.json"
        assert main(["teleport", "--theta-prime", "0.4", "--phi", "0.2", "--out", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert set(payload) == {
            "spec",
            "reservoirs",
            "outcomes",
            "success_probability",
            "ssr_compliant",
        }
        assert set(payload["spec"]) == {"theta_prime", "phi"}
        for out in payload["outcomes"]:
            assert set(out) == {
                "n_a",
                "n_A",
                "classification",
                "probability",
                "fidelity_min",
                "fidelity_mean",
            }

    def test_corpus_reproducible(self):
        a = random_spec_corpus(5, seed=42)
        b = random_spec_corpus(5, seed=42)
        assert a == b
        assert all(0 <= s.theta_prime <= np.pi / 2 for s in a)
        assert all(0 <= s.phi < 2 * np.pi for s in a)


class TestDenseCoding:
    def test_round_trip_all_messages(self):
        for message in range(4):
            result = run_dense_coding(message)
            assert result.decoded == message
            assert result.deterministic
            assert result.min_winning_probability > 1.0 - 1e-12

    def test_grid_must_resolve_encoded_state(self):
        # Message 2 carries Fourier order 4: 8 points cannot average it exactly.
        with pytest.raises(ValueError, match="Fourier order"):
            run_dense_coding(2, grid_points=8)
        for message in range(4):
            result = run_dense_coding(message, grid_points=9)
            assert result.decoded == message
            assert result.deterministic

    def test_invalid_message(self):
        with pytest.raises(ValueError, match="message"):
            run_dense_coding(5)

    def test_distinct_reservoir_outcomes_match_phase_difference_oracle(self):
        # Encoding with one reservoir and analyzing with another leaves the
        # two-particle outcomes depending only on the phase difference:
        # P(1,1) = cos^2(tc - ta) and P(1,0) = sin^2(tc - ta) for message 2.
        register = build_register([("A", 2), ("B", 2)])
        encode_grid = PhaseGrid("charlie", 16)
        analysis_grid = PhaseGrid("alice", 16)
        pair = prepare_entangled_pair(basis_state(register, (1, 0)))
        encoded = encode_dense_message(pair, 2, "A", encode_grid)
        analysis = bell_state_analysis(encoded, analysis_grid, modes=("A", "B"))

        # Sorted symbols put alice (analysis) on axis 0, charlie on axis 1.
        ta = analysis_grid.points[:, None]
        tc = encode_grid.points[None, :]
        expected = {
            (1, 1): np.cos(tc - ta) ** 2,
            (1, 0): np.sin(tc - ta) ** 2,
        }
        for occ, want in expected.items():
            got = analysis.measurement.outcome(occ).probability
            np.testing.assert_allclose(got, want, atol=1e-12)
        spread = float(
            analysis.measurement.outcome((1, 1)).probability.max()
            - analysis.measurement.outcome((1, 1)).probability.min()
        )
        assert spread > 0.9

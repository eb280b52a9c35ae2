"""The large-reservoir limit of the number rotation, and the register size bound."""

import math
import tracemalloc

import numpy as np
import pytest

from modeport import hamiltonian
from modeport.cli import main
from modeport.fock import MAX_REGISTER_DIM, ModeRegister, check_register_size
from modeport.hamiltonian import reservoir_resolved_rotation, rotation_deviation, rotation_modes
from modeport.reservoir import ReservoirSpec, coherent_state

# `modeport reservoir --nbars 1,2,4,8,16,32,64,128,256,400,1024`, byte for byte,
# as the dense-matrix propagator wrote it.
RESERVOIR_WIDE_CSV = (
    "nbar,deviation\n"
    "1,0.416700430213\n"
    "2,0.230088968852\n"
    "4,0.120818586271\n"
    "8,0.0618967000216\n"
    "16,0.0313257796596\n"
    "32,0.0157579503506\n"
    "64,0.00790282856277\n"
    "128,0.00395738868353\n"
    "256,0.00198018932565\n"
    "400,0.00126766575727\n"
    "1024,0.000495327792282\n"
)


def lgamma_loop_amplitudes(spec, theta):
    """coherent_state's amplitudes with one math.lgamma call per occupation."""
    n = np.arange(spec.cutoff)
    log_mag = -spec.nbar / 2.0 + 0.5 * n * math.log(spec.nbar)
    log_mag -= 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
    amps = np.exp(log_mag) * np.exp(1j * theta * n)
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


class TestCoherentAmplitudes:
    @pytest.mark.parametrize("nbar", [4.0, 256.0])
    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_equal_to_per_term_lgamma(self, nbar, theta):
        spec = ReservoirSpec("res", nbar)
        state, _ = coherent_state(spec, theta)
        np.testing.assert_array_equal(state.data, lgamma_loop_amplitudes(spec, theta))


class TestLargeReservoir:
    def test_regression_at_nbar_1e4(self):
        assert rotation_deviation(1e4, 0.3) == pytest.approx(5.073016129620782e-05, rel=1e-6)

    def test_limit_law_deviation_times_nbar(self):
        # The deviation falls as c / nbar with c = 0.5073 in the large-reservoir limit.
        assert 0.5072 <= rotation_deviation(1e4, 0.0) * 1e4 <= 0.5074

    @pytest.mark.parametrize("theta", [1e300, 1.2345678901234567e15, 1.2345678901234567e20, 3.5, -7.0])
    def test_large_theta_reduced_like_the_target(self, theta):
        # The reservoir phase follows exp(i theta), as the ideal rotation does,
        # so the deviation does not depend on theta however large it is.
        assert rotation_deviation(4.0, theta) == pytest.approx(rotation_deviation(4.0, 0.0), rel=1e-12)

    def test_wide_scan_csv_bytes(self, tmp_path):
        out = tmp_path / "scan.csv"
        nbars = "1,2,4,8,16,32,64,128,256,400,1024"
        assert main(["reservoir", "--nbars", nbars, "--out", str(out)]) == 0
        assert out.read_bytes() == RESERVOIR_WIDE_CSV.encode()


class TestSizeBound:
    def test_nbar_1e6_fits(self):
        dims = [d for _, d in rotation_modes(1e6)]
        assert check_register_size(dims) == 2 * 1_010_000 <= MAX_REGISTER_DIM

    def test_register_past_bound_rejected(self):
        with pytest.raises(ValueError, match="states, over"):
            ModeRegister([("probe", 2), ("res", MAX_REGISTER_DIM // 2 + 1)])

    def test_nbar_1e12_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="states, over"):
                rotation_deviation(1e12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_probe_and_reservoir_register_refused_before_building(self, monkeypatch):
        # At nbar = 3e6 the reservoir mode alone fits, but the (probe, res) register does not.
        assert ReservoirSpec("res", 3e6).cutoff <= MAX_REGISTER_DIM
        with pytest.raises(ValueError, match="states, over 4194304"):
            rotation_modes(3e6)
        calls = []
        for name in ("coherent_state", "_rotation_pulse"):
            monkeypatch.setattr(hamiltonian, name, lambda *args, name=name: calls.append(name))
        for scan in (lambda: rotation_deviation(3e6), lambda: reservoir_resolved_rotation([4.0, 3e6])):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="states, over 4194304"):
                    scan()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
        assert calls == []

    def test_cli_refuses_nbar_1e12_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        with pytest.raises(SystemExit) as exc:
            main(["reservoir", "--nbars", "4,1e12", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "modeport: --nbars 1e+12: register (2, 1000010000000) has 2000020000000 states, "
            "over 4194304\n"
        )
        assert not out.exists()

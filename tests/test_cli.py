import dataclasses
import json
import math
import tracemalloc

import pytest

from modeport import cli
from modeport.cli import main, parse_config

# The README's flag table: the flags each command takes besides --config.
README_FLAGS = {
    "teleport": ("--theta-prime", "--phi", "--grid", "--shared-reservoir", "--out"),
    "sweep": ("--n", "--seed", "--grid", "--shared-reservoir", "--out"),
    "hardcore": ("--ratios", "--out"),
    "reservoir": ("--nbars", "--out"),
    "densecoding": ("--grid", "--out"),
    "selftest": ("--n", "--seed", "--grid", "--out"),
}
# (command, RunConfig field) for every field whose flag the command does not take.
IGNORED_FIELDS = [
    (command, name)
    for command, flags in README_FLAGS.items()
    for name, (flag, _) in cli.FIELDS.items()
    if flag not in flags
]
# A valid argument for each flag, and the RunConfig value it parses to.
FLAG_VALUES = {
    "--theta-prime": ("0.5", 0.5),
    "--phi": ("-1e3", -1000.0),
    "--grid": ("21", 21),
    "--n": ("3", 3),
    "--seed": ("7", 7),
    "--out": ("run.out", "run.out"),
    "--ratios": ("1,10", (1.0, 10.0)),
    "--nbars": ("4,16", (4.0, 16.0)),
}


class TestParsing:
    def test_teleport_flags(self):
        config = parse_config(
            ["teleport", "--theta-prime", "0.7854", "--phi", "0.5"]
        )
        assert config.command == "teleport"
        assert config.theta_prime == pytest.approx(0.7854)
        assert config.phi == pytest.approx(0.5)
        assert config.grid_points == 16
        assert not config.shared_reservoir

    def test_sweep_flags(self):
        config = parse_config(["sweep", "--n", "100", "--seed", "7"])
        assert config.n == 100
        assert config.seed == 7

    def test_grid_too_coarse(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["teleport", "--grid", "8"])
        assert exc.value.code != 0

    # (command, largest grid whose counted gridded entries fit in MAX_REGISTER_DIM,
    # entries counted one point past it): M**2 * 8 <= 2**22 with two reservoirs,
    # M * 8 with one, M * 16 for dense coding.
    @pytest.mark.parametrize(
        "argv,largest,entries",
        [
            (["teleport"], 724, 4_205_000),
            (["teleport", "--shared-reservoir"], 2**19, 4_194_312),
            (["sweep"], 724, 4_205_000),
            (["sweep", "--shared-reservoir"], 2**19, 4_194_312),
            (["selftest"], 724, 4_205_000),
            (["densecoding"], 2**18, 4_194_320),
        ],
    )
    def test_grid_bound(self, argv, largest, entries, capsys):
        assert parse_config(argv + ["--grid", str(largest)]).grid_points == largest
        with pytest.raises(SystemExit) as exc:
            parse_config(argv + ["--grid", str(largest + 1)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"modeport: --grid {largest + 1}: gridded state counts {entries} entries, "
            "over 4194304\n"
        )

    def test_huge_grid_refused_before_allocating(self, tmp_path):
        out = tmp_path / "teleport.json"
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["teleport", "--grid", "100000", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert peak < 1_000_000
        assert not out.exists()

    # (command, largest --n whose runs fit in 260 * MAX_REGISTER_DIM bytes):
    # about 2.5 KB per sweep run and 51 KB per selftest run.
    @pytest.mark.parametrize(
        "argv,largest,counted",
        [
            (["sweep"], 436_207, 1_090_520_000),
            (["sweep", "--shared-reservoir"], 436_207, 1_090_520_000),
            (["selftest"], 21_299, 1_090_560_000),
        ],
    )
    def test_n_bound(self, argv, largest, counted, capsys):
        assert parse_config(argv + ["--n", str(largest)]).n == largest
        with pytest.raises(SystemExit) as exc:
            parse_config(argv + ["--n", str(largest + 1)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"modeport: --n {largest + 1}: runs count as {counted} bytes, over 1090519040\n"
        )

    def test_huge_n_refused_before_allocating(self, tmp_path):
        out = tmp_path / "sweep.json"
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--n", "1000000000000", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert peak < 1_000_000
        assert not out.exists()

    def test_ratio_bound(self, capsys):
        largest = cli.MAX_SWAP_RATIO
        assert parse_config(["hardcore", "--ratios", repr(largest)]).ratios == (largest,)
        past = math.nextafter(largest, math.inf)
        with pytest.raises(SystemExit) as exc:
            parse_config(["hardcore", "--ratios", f"1,{past!r}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            f"modeport: --ratios {past:g}: over 2.86111748576e+307, "
            "where the swap pulse's phases overflow\n"
        )

    def test_huge_ratio_below_bound_runs(self, tmp_path):
        out = tmp_path / "hardcore.csv"
        assert main(["hardcore", "--ratios", "1e307", "--out", str(out)]) == 0
        assert out.read_bytes() == b"ratio,infidelity\n1e+307,2.22044604925e-16\n"

    @pytest.mark.parametrize("ratio", ["3e307", "5e307", "1e308"])
    def test_ratio_past_bound_exits_2_before_running(self, tmp_path, ratio, capsys):
        out = tmp_path / "hardcore.csv"
        with pytest.raises(SystemExit) as exc:
            main(["hardcore", "--ratios", ratio, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"modeport: --ratios {float(ratio):g}: over ")
        assert not out.exists()

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["teleport", "--bogus", "1"])
        assert exc.value.code != 0

    def test_descending_ratios_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["hardcore", "--ratios", "10,1"])

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "theta_prime = 0.25  # preparation angle\n"
            "phi = 1.5\n"
            "grid_points = 16\n"
        )
        config = parse_config(
            ["teleport", "--config", str(cfg), "--phi", "2.5"]
        )
        assert config.theta_prime == pytest.approx(0.25)
        assert config.phi == pytest.approx(2.5)  # flag wins

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("teleport", "--theta-prime"),
            ("teleport", "--phi"),
            ("hardcore", "--ratios"),
            ("reservoir", "--nbars"),
        ],
    )
    def test_non_finite_flag_exits_2(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert f"{flag} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command,key",
        [
            ("teleport", "theta_prime"),
            ("teleport", "phi"),
            ("hardcore", "ratios"),
            ("reservoir", "nbars"),
        ],
    )
    def test_non_finite_config_value_exits_2(self, tmp_path, command, key, value, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("teleport", "theta_prime", "abc"),
            ("teleport", "grid_points", "16.5"),
            ("sweep", "n", "ten"),
            ("reservoir", "nbars", "4,x"),
        ],
    )
    def test_non_numeric_config_value_exits_2(self, tmp_path, command, key, value, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        assert f"{key} = {value!r} is not a valid value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["theta-prime = 1.0", "grid = 8"])
    def test_unknown_config_key_exits_2(self, tmp_path, line, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["teleport", "--config", str(cfg)])
        assert exc.value.code == 2
        key = line.split(" =")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag", [(command, flag) for command, flags in README_FLAGS.items() for flag in flags]
    )
    def test_flag_the_command_takes_parses(self, command, flag):
        name = next(name for name, (f, _) in cli.FIELDS.items() if f == flag)
        if flag == "--shared-reservoir":
            argv, expected = [command, flag], True
        else:
            text, expected = FLAG_VALUES[flag]
            argv = [command, flag, text]
        assert getattr(parse_config(argv), name) == expected

    @pytest.mark.parametrize(
        "command,flag", [(command, cli.FIELDS[name][0]) for command, name in IGNORED_FIELDS]
    )
    def test_flag_the_command_ignores_exits_2(self, command, flag):
        argv = [command, flag] if flag == "--shared-reservoir" else [command, flag, "16"]
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,key", IGNORED_FIELDS)
    def test_config_key_the_command_ignores_exits_2(self, tmp_path, command, key, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err
        assert repr(command) in err

    def test_config_file_with_utf8_bom(self, tmp_path):
        # Some editors write a byte-order mark first; it is not part of the first key.
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfgrid_points = 21\n")
        from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
        assert main(["teleport", "--config", str(cfg), "--out", str(from_file)]) == 0
        assert main(["teleport", "--grid", "21", "--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    @pytest.mark.parametrize(
        "value,expected", [("true", True), ("No", False), ("YES", True), ("0", False)]
    )
    def test_shared_reservoir_config_value(self, tmp_path, value, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shared_reservoir = {value}\n")
        assert parse_config(["teleport", "--config", str(cfg)]).shared_reservoir is expected

    def test_shared_reservoir_config_value_not_boolean_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shared_reservoir = maybe\n")
        with pytest.raises(SystemExit) as exc:
            main(["teleport", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "shared_reservoir = 'maybe' is not a valid value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--n", "0"], "--n must be at least 1"),
            (["selftest", "--n", "0"], "--n must be at least 1"),
            (["hardcore", "--ratios", "0"], "--ratios must be positive"),
            (["reservoir", "--nbars", "-4"], "--nbars must be positive"),
        ],
    )
    def test_out_of_range_value_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "selftest"])
    def test_negative_seed_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "1", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed must be non-negative" in err
        assert "Traceback" not in err

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(SystemExit):
            parse_config(["teleport", "--config", str(cfg)])


class TestExecution:
    def test_teleport_artifact(self, tmp_path):
        out = tmp_path / "teleport.json"
        code = main(["teleport", "--theta-prime", "0.7", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["success_probability"] == pytest.approx(0.5, abs=1e-9)
        assert payload["ssr_compliant"] is True
        assert {o["classification"] for o in payload["outcomes"]} == {
            "psi_plus",
            "psi_minus",
            "failure",
        }
        for o in payload["outcomes"]:
            assert 0.0 <= o["probability"] <= 1.0
            assert 0.0 <= o["fidelity_min"] <= 1.0 + 1e-12

    @pytest.mark.parametrize("config", [[], ["--shared-reservoir"]], ids=["distinct", "shared"])
    def test_teleport_large_phi(self, tmp_path, capsys, config):
        # At |phi| = 1e13 a target formed from exp(i (theta + phi)) loses the
        # grid phase theta to rounding and reads a spurious criterion-2 failure.
        out = tmp_path / "teleport.json"
        assert main(["teleport", "--phi", "1e13", *config, "--out", str(out)]) == 0, (
            capsys.readouterr().err
        )
        success = [o for o in json.loads(out.read_text())["outcomes"]
                   if o["classification"] != "failure"]
        assert min(o["fidelity_min"] for o in success) >= 1.0 - 1e-12

    def test_negative_angle_in_exponent_form(self, tmp_path):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["teleport", "--phi", "-1e3", "--out", str(spaced)]) == 0
        assert main(["teleport", "--phi=-1e3", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert main(["teleport", "--theta-prime", "-1e-3", "--out", str(tmp_path / "t.json")]) == 0

    def test_sweep_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["sweep", "--n", "3", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["generator"] == "pcg64"
        assert len(payload["runs"]) == 3

    def test_hardcore_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["hardcore", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "ratio,infidelity"
        assert len(lines) == 5
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_reservoir_csv_header(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["reservoir", "--nbars", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nbar,deviation"
        assert len(lines) == 2

    def test_reservoir_tiny_nbar(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["reservoir", "--nbars", "0.0001", "--out", str(out)])
        assert code == 0
        nbar, dev = out.read_text().strip().splitlines()[1].split(",")
        assert float(nbar) == 0.0001
        assert math.isfinite(float(dev))

    def test_densecoding_round_trip(self, tmp_path):
        out = tmp_path / "dense.json"
        code = main(["densecoding", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for entry in payload["messages"]:
            assert entry["decoded"] == entry["message"]
            assert entry["deterministic"] is True

    def test_unwritable_output(self, tmp_path):
        code = main(["hardcore", "--ratios", "1", "--out", str(tmp_path / "no" / "x.csv")])
        assert code == 2

    def test_selftest_small_corpus(self, tmp_path, capsys):
        out = tmp_path / "selftest.json"
        code = main(["selftest", "--n", "3", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 9
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["criteria"]) == 9


class TestViolations:
    """A broken invariant exits 1 with a JSON violation list on stderr."""

    @staticmethod
    def _mixed_off_by(monkeypatch, distance):
        real = cli.run_teleportation

        def run(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, failure_mode_a_distance=distance)

        monkeypatch.setattr(cli, "run_teleportation", run)

    @pytest.mark.parametrize(
        "argv,context",
        [(["teleport"], "teleport"), (["sweep", "--n", "2", "--seed", "7"], "sweep[1]")],
        ids=["teleport", "sweep"],
    )
    def test_failure_branch_not_mixed_exits_1(self, monkeypatch, capsys, tmp_path, argv, context):
        self._mixed_off_by(monkeypatch, 1e-6)
        assert main(argv + ["--out", str(tmp_path / "run.json")]) == 1
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert any(
            v.startswith(f"{context}: FAIL criterion 3:") and "1.000e-06" in v
            for v in violations
        )

    def test_wrong_decoding_exits_1_and_writes_the_artifact(self, monkeypatch, capsys, tmp_path):
        real = cli.run_dense_coding

        def run(message, **kwargs):
            result = real(message, **kwargs)
            return dataclasses.replace(result, decoded=3) if message == 2 else result

        monkeypatch.setattr(cli, "run_dense_coding", run)
        out = tmp_path / "dense.json"
        assert main(["densecoding", "--out", str(out)]) == 1
        (violation,) = json.loads(capsys.readouterr().err)["violations"]
        assert violation == "densecoding: message 2 decoded as 3 (deterministic=True)"
        assert json.loads(out.read_text())["messages"][2]["decoded"] == 3

    def test_non_monotone_scan_exits_1(self, monkeypatch, capsys, tmp_path):
        _, *rest = cli._SCANS["hardcore"]
        monkeypatch.setitem(
            cli._SCANS, "hardcore", (lambda xs: [(x, 1e-3 * x) for x in xs], *rest)
        )
        assert main(["hardcore", "--out", str(tmp_path / "scan.csv")]) == 1
        (violation,) = json.loads(capsys.readouterr().err)["violations"]
        assert violation.startswith("hardcore: infidelities not monotone")

    @pytest.mark.parametrize("field", ["success_probability", "fidelity_min"])
    def test_sweep_aggregate_carries_a_nan(self, monkeypatch, capsys, tmp_path, field):
        # Run 2 of 3 reads NaN: Python's max and min would drop it past the first run.
        real = cli.run_teleportation
        calls = []

        def run(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(result)
            if len(calls) != 2:
                return result
            if field == "success_probability":
                return dataclasses.replace(result, success_probability=math.nan)
            outcomes = [dataclasses.replace(rec, fidelity_min=math.nan) for rec in result.outcomes]
            return dataclasses.replace(result, outcomes=outcomes)

        monkeypatch.setattr(cli, "run_teleportation", run)
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--n", "3", "--seed", "7", "--out", str(out)]) == 1
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert violations and all(v.startswith("sweep[1]: ") for v in violations)
        payload = json.loads(out.read_text())
        aggregate = payload["aggregate"]
        if field == "success_probability":
            assert math.isnan(aggregate["max_success_probability_error"])
            assert aggregate["min_success_fidelity"] <= 1.0
        else:
            assert math.isnan(payload["runs"][1]["fidelity_min_success"])
            assert math.isnan(aggregate["min_success_fidelity"])
            assert not math.isnan(aggregate["max_success_probability_error"])

import json

import numpy as np
import pytest

from spinwitness.cli import _G, main
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import check_density_matrix, negativity


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_SCENARIO = {"separation_d": 350e-6, "dephasing_gamma": 0.3}


def run(args):
    return main(args)


class TestPea:
    def test_writes_expected_rows(self, tmp_path):
        cfg = write_config(tmp_path, {"pea": {"taus": [0.0, 1.0, 10.0]}})
        out = tmp_path / "out"
        assert run(["pea", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "pea.csv").read_text().splitlines()
        assert lines[0].startswith("tau_s,theta_magnitude,phase_correction_rad")
        assert len(lines) == 4
        # tau = 0 row has zero correction and unit factors
        row = lines[1].split(",")
        assert float(row[2]) == 0.0
        assert float(row[3]) == 1.0 and float(row[4]) == 1.0
        # tau = 10 row carries the ~4e-12 rad correction
        row10 = lines[3].split(",")
        assert float(row10[2]) == pytest.approx(4e-12, rel=0.15)

    def test_close_setup_correction(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": {"separation_d": 350e-6},
                                      "pea": {"taus": [1.0]}})
        out = tmp_path / "o"
        assert run(["pea", "--config", cfg, "--out", str(out)]) == 0
        row = (out / "pea.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(7.03e-14, rel=0.05)


class TestScan:
    def test_writes_scans_per_gamma(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": {"cp_scale": 0.0},
            "scan": {"gammas": [0.0, 0.03], "tau_max": 10.0, "points": 21}})
        out = tmp_path / "scan"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 0
        for gamma in ("0", "0.03"):
            for stem in ("witness_w0", "witness_w1", "negativity"):
                path = out / f"{stem}_gamma{gamma}.csv"
                assert path.exists()
                lines = path.read_text().splitlines()
                assert lines[0] == "tau_s,value,gamma"
                assert len(lines) == 22
        # tau = 0 rows: the initial product state gives W0 = 1 and W1 = 0
        for gamma in ("0", "0.03"):
            w0_first = (out / f"witness_w0_gamma{gamma}.csv").read_text() \
                .splitlines()[1].split(",")
            w1_first = (out / f"witness_w1_gamma{gamma}.csv").read_text() \
                .splitlines()[1].split(",")
            assert float(w0_first[1]) == pytest.approx(1.0, abs=1e-10)
            assert float(w1_first[1]) == pytest.approx(0.0, abs=1e-10)

    def test_scan_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "scan": {"gammas": [0.3], "tau_max": 5.0, "points": 6}})
        out = tmp_path / "scan"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "witness_w1_gamma0.3.csv").read_text().splitlines()
        assert lines[0] == "tau_s,value,gamma"
        assert len(lines) == 7
        assert lines[1] == "0,0,0.3"

    def test_negativity_rows_equal_point_by_point_at_benchmark_size(self, tmp_path):
        # the benchmark's grid; the command takes one negativity per gamma
        # over a state stack, which must print each single state's bits
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "scan": {"gammas": [0.03, 0.3], "tau_max": 30.0, "points": 4801}})
        out = tmp_path / "scan"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 0
        taus = np.linspace(0.0, 30.0, 4801)
        for gamma in (0.03, 0.3):
            pg = ScenarioParams(**{**SMALL_SCENARIO, "dephasing_gamma": gamma})
            lines = (out / f"negativity_gamma{_G(gamma)}.csv").read_text().splitlines()
            assert lines[1:] == [f"{_G(t)},{_G(negativity(spin_state(pg, t)))},{_G(gamma)}"
                                 for t in taus]


class TestMonteCarloCommands:
    def test_success_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "success": {"shots_per_observable": [20, 50], "alpha": 0.05,
                        "trials": 200, "lambda_trials": 500}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["success", "--config", cfg, "--seed", "7",
                    "--out", str(out1)]) == 0
        assert run(["success", "--config", cfg, "--seed", "7",
                    "--out", str(out2)]) == 0
        assert (out1 / "success.csv").read_bytes() == \
            (out2 / "success.csv").read_bytes()

    def test_success_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": {"dephasing_gamma": 0.03},
            "success": {"shots_per_observable": [30], "alpha": 0.01,
                        "trials": 200, "lambda_trials": 1000}})
        out = tmp_path / "s"
        assert run(["success", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        lines = (out / "success.csv").read_text().splitlines()
        assert lines[0] == "total_measurements,rate,lambda_min,trials,gamma,d_m"
        assert len(lines) == 2
        assert lines[1].startswith("90,")
        assert lines[1].endswith(",200,0.03,0.00045")

    def test_control_mode_flat_at_alpha(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "success": {"shots_per_observable": [30], "alpha": 0.05,
                        "trials": 400, "lambda_trials": 2000, "control": True}})
        out = tmp_path / "ctl"
        assert run(["success", "--config", cfg, "--out", str(out)]) == 0
        rate = float((out / "success.csv").read_text().splitlines()[1].split(",")[1])
        assert rate == pytest.approx(0.05, abs=0.05)

    def test_witneg(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "witneg": {"shots_per_observable": [30], "trials": 200}})
        out = tmp_path / "w"
        assert run(["witneg", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "witneg.csv").read_text().splitlines()
        assert lines[1].startswith("90,")

    def test_differential_writes_meta(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "differential": {"shots_per_observable": [50], "alpha": 0.05,
                             "trials": 100, "lambda_trials": 500}})
        out = tmp_path / "d"
        assert run(["differential", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "differential_meta.json").read_text())
        assert meta["matched_cp_scale"] == pytest.approx(1.087, abs=0.005)

    def test_tomo(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "tomo": {"totals": [90], "trials": 120, "batch_shots": 90,
                     "batch_trials": 10}})
        out = tmp_path / "t"
        assert run(["tomo", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "tomo_exceedance.csv").read_text().splitlines()
        assert lines[0] == "total_shots,rate,trials,gamma,d_m"
        assert (out / "tomo_batch_alt.csv").exists()
        assert (out / "tomo_batch_null.csv").exists()

    def test_batch_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": {"dephasing_gamma": 0.03},
            "tomo": {"totals": [9], "trials": 100, "batch_shots": 90,
                     "batch_trials": 10}})
        out = tmp_path / "t"
        assert run(["tomo", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "tomo_batch_alt.csv").read_text().splitlines()
        assert lines[0] == "shots,hypothesis,trial,negativity,fidelity_to_truth"
        assert len(lines) == 11
        assert lines[1].startswith("90,alt,0,")

    def test_loophole(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "loophole": {"shots_per_observable": 400, "restarts": 4}})
        out = tmp_path / "l"
        assert run(["loophole", "--config", cfg, "--seed", "1",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "loophole.json").read_text())
        verification = payload["verification"]
        assert list(payload) == ["state", "nll", "negativity", "constraint_satisfied",
                                 "nll_reference", "verification"]
        assert payload["nll_reference"] == verification["nll_rho_a"]
        state = np.array(payload["state"]["re"]) + 1j * np.array(payload["state"]["im"])
        check_density_matrix(state)
        assert negativity(state) == verification["negativity_result"]
        assert payload["negativity"] == pytest.approx(verification["negativity_result"])
        assert payload["constraint_satisfied"] is True
        assert payload["negativity"] < payload["verification"]["negativity_null"]
        assert payload["verification"]["negativity_null"] == pytest.approx(0.108,
                                                                           abs=2e-3)
        assert payload["verification"]["passed"] is True

    def test_trials_override(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "witneg": {"shots_per_observable": [10], "trials": 999}})
        out = tmp_path / "ovr"
        assert run(["witneg", "--config", cfg, "--trials", "50",
                    "--out", str(out)]) == 0
        assert ",50," in (out / "witneg.csv").read_text().splitlines()[1]


class TestErrors:
    def test_invalid_scenario_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": {"dephasing_gamma": -1.0}})
        assert run(["pea", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("name", ["half_split_delta", "dephasing_gamma",
                                      "cp_scale", "mean_occupation_nbar",
                                      "permittivity_eps"])
    def test_nan_scenario_field_exits_2(self, tmp_path, capsys, name):
        # Python's json parses the NaN literal
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"scenario": {"%s": NaN}}' % name)
        assert run(["pea", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", [
        ("pea", '{"taus": [NaN]}'), ("pea", '{"taus": [Infinity]}'),
        ("loophole", '{"tau": NaN}'), ("loophole", '{"tau": Infinity}')])
    def test_non_finite_fall_time_exits_2(self, tmp_path, capsys, command, section):
        cfg = tmp_path / "tau.json"
        cfg.write_text('{"%s": %s}' % (command, section))
        out = tmp_path / "x"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "tau must be finite and >= 0" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_infinite_separation_exits_2(self, tmp_path):
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"scenario": {"separation_d": Infinity}}')
        assert run(["pea", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"nonsense": {}})
        assert run(["pea", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_option_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"pea": {"tau_list": [1.0]}})
        assert run(["pea", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["pea", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_tomo_non_multiple_of_nine_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"tomo": {"totals": [100], "trials": 100,
                                               "batch_shots": 90,
                                               "batch_trials": 5}})
        assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        # a table is written only once all its rows are computed
        assert not (tmp_path / "x" / "tomo_exceedance.csv").exists()

    def test_infeasible_loophole_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "loophole": {"shots_per_observable": 100, "restarts": 2,
                         "constraint_margin": 1.0}})
        assert run(["loophole", "--config", cfg,
                    "--out", str(tmp_path / "x")]) == 3

import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwitness import cli, loophole, tomography, witnesses
from spinwitness.cli import (_CHUNK, _COMMANDS, _FLOAT, _G, _SECTION_NAME, _write_table,
                             main)
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import check_density_matrix, negativity
from spinwitness.witnesses import w0, w1, witness_expectation
from conftest import alive_at_each_call, traced_peak
from test_golden import CONFIG as GOLDEN_CONFIG
from test_stats import NEVER_WITNESSING


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_SCENARIO = {"separation_d": 350e-6, "dephasing_gamma": 0.3}


def run(args):
    return main(args)


#: (command, config, words the error message must contain)
MISTYPED = [
    ("scan-witness", {"scan": {"points": 2.5}},
     "scan.points must be an integer >= 1 and < 2**63, got 2.5"),
    # too large for numpy: it raised unnamed size errors, or exit 3 for N
    ("scan-witness", {"scan": {"points": 10**29}},
     f"scan.points must be an integer >= 1 and < 2**63, got {10**29}"),
    ("witneg", {"witneg": {"trials": 10**29}},
     f"witneg.trials must be an integer >= 1 and < 2**63, got {10**29}"),
    ("witneg", {"witneg": {"shots_per_observable": [10, 10**30]}},
     f"witneg.shots_per_observable[1] must be an integer >= 1 and < 2**63, got {10**30}"),
    ("witneg", {"witneg": {"shots_per_observable": [2**63]}},
     "witneg.shots_per_observable[0] must be an integer >= 1 and < 2**63"),
    ("scan-witness", {"scan": {"points": "7"}}, "scan.points must be an integer"),
    ("scan-witness", {"scan": {"points": 0}}, "scan.points must be an integer"),
    ("scan-witness", {"scan": {"gammas": 0.1}}, "scan.gammas must be a non-empty list"),
    ("scan-witness", {"scan": {"gammas": []}}, "scan.gammas must be a non-empty list"),
    ("scan-witness", {"scan": {"gammas": [None]}},
     "scan.gammas[0] must be a real number, got null"),
    ("pea", {"pea": {"taus": 1.0}}, "pea.taus must be a non-empty list"),
    ("pea", {"pea": []}, "config section pea must be a JSON object"),
    ("pea", {"scenario": "abc"}, "config section scenario must be a JSON object"),
    ("witneg", {"witneg": {"trials": 0}}, "witneg.trials must be an integer >= 1"),
    ("witneg", {"witneg": {"shots_per_observable": [0]}},
     "witneg.shots_per_observable[0] must be an integer >= 1"),
    ("success", {"success": {"control": 1}}, "success.control must be true or false"),
    ("success", {"success": {"alpha": "0.01"}}, "success.alpha must be a real number"),
    ("loophole", {"loophole": {"tau": "1"}}, "loophole.tau must be a real number or null"),
    ("loophole", {"loophole": {"restarts": True}}, "loophole.restarts must be an integer"),
    ("loophole", {"loophole": {"gradient_step": math.nan}},
     "gradient_step must be finite and > 0"),
    ("loophole", {"loophole": {"gradient_step": 4.0}}, "gradient_step must be "
     "finite and > 0 and < pi"),
    ("pea", {"scenario": {"gravity_on": "no"}},
     "scenario.gravity_on must be true or false, got \"no\""),
    ("pea", {"scenario": {"separation_d": True}},
     "scenario.separation_d must be a real number, got true"),
]


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

    @pytest.mark.parametrize("points", [511, 512, 513, 1025])
    def test_negativity_rows_equal_single_state_calls_at_block_edges(self, tmp_path, points):
        # grids one state short of, at and past a 512-state block, and two
        # blocks and a bit: the negativities are taken one block at a time
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "scan": {"gammas": [0.03, 0.3], "tau_max": 30.0, "points": points}})
        out = tmp_path / "scan"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 0
        taus = np.linspace(0.0, 30.0, points)
        for gamma in (0.03, 0.3):
            pg = ScenarioParams(**{**SMALL_SCENARIO, "dephasing_gamma": gamma})
            rows = ([REFERENCE_G(t), REFERENCE_G(negativity(spin_state(pg, t))),
                     REFERENCE_G(gamma)] for t in taus)
            assert (out / f"negativity_gamma{_G(gamma)}.csv").read_bytes() == \
                reference_table("tau_s,value,gamma", rows)

    def test_state_memory_does_not_grow_with_the_grid(self, tmp_path):
        # per added point the command keeps its time, its formatted time
        # cell and a few float columns, about 90 B; one whole-grid stack of
        # 4x4 complex states adds 256 B (the negativity of one built at
        # once peaked 620 B higher per point)
        def peak(points):
            opts = {"gammas": [0.3], "tau_max": 30.0, "points": points}
            return traced_peak(lambda: cli.cmd_scan_witness(
                ScenarioParams(**SMALL_SCENARIO), opts, tmp_path, 0))

        assert peak(24005) - peak(4801) < 16 * 16 * (24005 - 4801)

    def test_scans_drop_each_block_before_building_the_next(self, tmp_path, monkeypatch):
        # the negativity column's list comprehension, like the witness scans'
        # zip, held the last block while spin_state built the next one
        alive = alive_at_each_call(monkeypatch, witnesses, "spin_state")
        opts = {"gammas": [0.3], "tau_max": 30.0, "points": 1500}
        cli.cmd_scan_witness(ScenarioParams(**SMALL_SCENARIO), opts, tmp_path, 0)
        assert alive == [0] * 9  # three blocks each for W0, W1 and the negativity

    def test_invalid_tau_in_a_later_block_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # inf as point 1,025 of 1,025, past the first two 512-state blocks
        linspace = np.linspace

        def grid(*args, **kwargs):
            taus = linspace(*args, **kwargs)
            taus[-1] = np.inf
            return taus

        monkeypatch.setattr(np, "linspace", grid)
        cfg = write_config(tmp_path, {"scan": {"tau_max": 30.0, "points": 1025}})
        out = tmp_path / "x"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 2
        assert "tau must be finite and >= 0" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_witness_rows_equal_point_by_point_at_benchmark_size(self, tmp_path):
        # each witness scan is one call over the time grid, which must print
        # each single point's bits
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "scan": {"gammas": [0.03, 0.3], "tau_max": 30.0, "points": 4801}})
        out = tmp_path / "scan"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 0
        taus = np.linspace(0.0, 30.0, 4801)
        for gamma in (0.03, 0.3):
            pg = ScenarioParams(**{**SMALL_SCENARIO, "dephasing_gamma": gamma})
            for name, spec in (("w0", w0()), ("w1", w1())):
                lines = (out / f"witness_{name}_gamma{_G(gamma)}.csv").read_text().splitlines()
                assert lines[1:] == [
                    f"{_G(t)},{_G(witness_expectation(pg, t, spec))},{_G(gamma)}"
                    for t in taus]


#: the float format of every output cell up to v0.1.0, one value at a time
REFERENCE_G = "{:.12g}".format

#: signed zeros, infinities, NaN, the subnormal range, the largest double,
#: and both sides of %g's switches to exponent notation (below 1e-4, and
#: from 12 integer digits on, also where rounding carries into the 13th)
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                  1e-4, 9.9999999999999e-5, 9.99999999999949e-5, 9.99999999999951e-5,
                  -1e-4, 1e-5, 999999999999.0, 999999999999.4, 999999999999.5,
                  1e12, -1e12, 1e11, 123456789012.5, 0.1, 1 / 3, 2.5e-13]


def reference_table(header: str, rows) -> bytes:
    """A table as v0.1.0 wrote it: csv.writer over cells formatted one by one."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestTableWriter:
    def test_float_cells_equal_the_reference_format(self, tmp_path):
        values = np.array(SPECIAL_FLOATS)
        _write_table(tmp_path / "t.csv", "a,b,c,d", f"{_FLOAT},{_FLOAT},{_FLOAT},%d",
                     values, list(values), SPECIAL_FLOATS, range(len(values)))
        assert (tmp_path / "t.csv").read_bytes() == reference_table(
            "a,b,c,d", ([REFERENCE_G(x)] * 3 + [i] for i, x in enumerate(SPECIAL_FLOATS)))
        for x in SPECIAL_FLOATS:
            assert _G(x) == _G(np.float64(x)) == REFERENCE_G(x)

    def test_int64_cells_equal_the_reference_format(self, tmp_path):
        counts = np.array([0, 1, -7, 10**12, 2**53 + 1, 2**63 - 1, -2**63], dtype=np.int64)
        _write_table(tmp_path / "t.csv", "n,m", "%d,%d", counts, list(counts))
        assert (tmp_path / "t.csv").read_bytes() == reference_table(
            "n,m", ([n, n] for n in counts))

    @settings(max_examples=2000)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_float_template_equals_the_reference_format(self, x):
        assert _FLOAT % x == _FLOAT % np.float64(x) == REFERENCE_G(x)

    def test_lines_end_in_crlf_and_read_back_as_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_table(path, "shots,hypothesis,trial,value", f"90,alt,%d,{_FLOAT}",
                     range(3), np.array([0.5, -1e-20, math.inf]))
        lines = path.read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and len(lines) == 5
        assert not any(b"\n" in line or b"\r" in line for line in lines)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"shots": "90", "hypothesis": "alt", "trial": str(t), "value": v}
                        for t, v in enumerate(["0.5", "-1e-20", "inf"])]

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_chunked_table_equals_row_by_row_reference(self, tmp_path, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        taus = [_G(t) for t in np.linspace(0.0, 30.0, n)]
        _write_table(tmp_path / "t.csv", "tau_s,trial,value,gamma", f"%s,%d,{_FLOAT},0.03",
                     taus, range(n), values)
        assert (tmp_path / "t.csv").read_bytes() == reference_table(
            "tau_s,trial,value,gamma",
            ([t, i, REFERENCE_G(v), "0.03"] for i, (t, v) in enumerate(zip(taus, values))))


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

    @pytest.mark.parametrize("config, where", [
        ('{"scenario": {"mass": %s}}', "scenario.mass"),
        ('{"pea": {"taus": [1.0, %s]}}', "pea.taus[1]")], ids=["mass", "taus"])
    def test_integer_too_large_for_a_float_exits_2_naming_it(self, tmp_path, capsys,
                                                             config, where):
        cfg = tmp_path / "huge.json"
        cfg.write_text(config % ("9" * 401))
        out = tmp_path / "x"
        assert run(["pea", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{where} must be a real number, got an integer too large for a float" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_differential_without_witnessing_exits_2(self, tmp_path, capsys):
        # it used to exit 2 naming "tau ... 0.0", a fall time the config never set
        cfg = write_config(tmp_path, {"scenario": NEVER_WITNESSING, "differential": {
            "shots_per_observable": [50], "trials": 100, "lambda_trials": 100}})
        out = tmp_path / "x"
        assert run(["differential", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "W1 never goes negative in this scenario" in err and "tau must" not in err
        assert not any(out.iterdir())

    def test_success_with_coinciding_hypotheses_exits_2(self, tmp_path, capsys):
        # at tau* = 0 the control used to write a false-positive rate of 1
        cfg = write_config(tmp_path, {"scenario": {"dephasing_gamma": 1e6}, "success": {
            "shots_per_observable": [50], "trials": 100, "lambda_trials": 100,
            "control": True}})
        out = tmp_path / "x"
        assert run(["success", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "equal outcome probabilities" in err and "tau = 0.0 s" in err
        assert not any(out.iterdir())

    def test_infinite_separation_exits_2(self, tmp_path):
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"scenario": {"separation_d": Infinity}}')
        assert run(["pea", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"nonsense": {}})
        assert run(["pea", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_scenario_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": {"radius": 1e-6}})
        out = tmp_path / "x"
        assert run(["pea", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown scenario options: ['radius']" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_option_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"pea": {"tau_list": [1.0]}})
        assert run(["pea", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["pea", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_tomo_non_multiple_of_nine_exits_2(self, tmp_path, capsys, monkeypatch):
        # every shot total is checked before the first reconstruction runs
        def no_reconstruction(*args, **kwargs):
            raise AssertionError("mle_reconstruct ran before the shot totals were checked")

        monkeypatch.setattr(tomography, "mle_reconstruct", no_reconstruction)
        for name, bad in (("totals", {"totals": [100]}), ("batch", {"batch_shots": 10}),
                          ("last_total", {"totals": [9, 90, 900, 9001]})):
            cfg = write_config(tmp_path, {"tomo": {"totals": [9], "trials": 100,
                                                   "batch_shots": 90, "batch_trials": 5,
                                                   **bad}})
            out = tmp_path / name
            assert run(["tomo", "--config", cfg, "--out", str(out)]) == 2
            assert "must be a positive multiple of 9" in capsys.readouterr().err
            assert not any(out.iterdir())

    def test_invalid_scan_gamma_writes_nothing(self, tmp_path, capsys):
        # every gamma's scenario is checked before the first table is written
        cfg = write_config(tmp_path, {"scan": {"gammas": [0.0, -1.0], "points": 5}})
        out = tmp_path / "x"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 2
        assert "dephasing_gamma must be >= 0" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_infeasible_loophole_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": SMALL_SCENARIO,
            "loophole": {"shots_per_observable": 100, "restarts": 2,
                         "constraint_margin": 1.0}})
        assert run(["loophole", "--config", cfg,
                    "--out", str(tmp_path / "x")]) == 3

    def test_separable_null_exits_3_before_searching(self, tmp_path, capsys, monkeypatch):
        # at tau = 0 the null state is separable: the cap -margin admits no state
        def no_search(*args, **kwargs):
            raise AssertionError("searched under a cap that no state meets")

        monkeypatch.setattr(loophole, "minimize", no_search)
        cfg = write_config(tmp_path, {"scenario": SMALL_SCENARIO, "loophole": {"tau": 0.0}})
        out = tmp_path / "x"
        assert run(["loophole", "--config", cfg, "--out", str(out)]) == 3
        assert "no feasible state exists" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_overflowing_fall_time_exits_3(self, tmp_path, capsys):
        # tau ** 3 in pea_corrections overflows a float
        cfg = write_config(tmp_path, {"pea": {"taus": [1e200]}})
        assert run(["pea", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "1e+200" in err

    @pytest.mark.parametrize("command, config, message", MISTYPED,
                             ids=[json.dumps(c) for _, c, _ in MISTYPED])
    def test_mistyped_option_exits_2_naming_it(self, tmp_path, capsys, command, config,
                                                message):
        out = tmp_path / "x"
        assert run([command, "--config", write_config(tmp_path, config),
                    "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("gammas", [[0.1, 0.1000000000001], [0.03, 0.0, 0.03]])
    def test_gammas_sharing_a_file_name_exit_2(self, tmp_path, capsys, gammas):
        # a file is named by gamma's 12-digit tag; equal tags would overwrite
        cfg = write_config(tmp_path, {"scan": {"gammas": gammas, "points": 5}})
        out = tmp_path / "x"
        assert run(["scan-witness", "--config", cfg, "--out", str(out)]) == 2
        assert "scan.gammas must differ in their file name tags" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_trials_flag_exits_2(self, tmp_path, capsys, command):
        # trial counts come from the config file only
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run([command, "--trials", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
        assert not out.exists()


def golden_sections():
    """Each command's section at the golden-digest sizes, trials included."""
    sections = {}
    for command, (_, defaults) in _COMMANDS.items():
        name = _SECTION_NAME.get(command, command)
        sections[command] = (name, {**defaults, **GOLDEN_CONFIG.get(name, {})})
    return sections


GOLDEN_SECTIONS = golden_sections()
#: wrong types, zero, negative, non-finite and huge values; none is a valid
#: count, so no drawn value makes a command run larger than its golden size
BAD_SCALARS = st.sampled_from(["7", True, False, None, {}, 0, -1, 2.5, math.nan,
                               math.inf, -math.inf, 1e300])


def drawn_value(default):
    if isinstance(default, list):
        return st.one_of(BAD_SCALARS, st.just([]), st.just(default[0]),
                         BAD_SCALARS.map(lambda v: [v]))
    return st.one_of(BAD_SCALARS, st.just([default]))


def rates_in(out: Path) -> list:
    rates = []
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            rates += [float(row["rate"]) for row in csv.DictReader(fh) if "rate" in row]
    return rates


@settings(max_examples=200)
@given(st.data())
def test_fuzzed_option_exits_0_2_or_3(data):
    command = data.draw(st.sampled_from(sorted(GOLDEN_SECTIONS)), label="command")
    name, opts = GOLDEN_SECTIONS[command]
    key = data.draw(st.sampled_from(sorted(opts)), label="option")
    value = data.draw(drawn_value(opts[key]), label="value")
    config = {**GOLDEN_CONFIG, name: {**opts, key: value}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert not any(math.isnan(r) for r in rates_in(out))


def test_readme_config_block_equals_code_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    expected = {"scenario": dataclasses.asdict(ScenarioParams())}
    expected.update({_SECTION_NAME.get(c, c): defaults
                     for c, (_, defaults) in _COMMANDS.items()})
    assert json.loads(block) == expected


def test_readme_synopsis_lists_the_help_options(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.search(r"^spinwitness <command> .*$", readme, re.M).group(0)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[(--[\w-]+)", synopsis) == re.findall(r"\[(--[\w-]+)", usage)

"""Command-line driver: binds JSON configuration to the analysis pipelines
and writes every output file (figure/table data as CSV/JSON); the library
modules only return results.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import loophole as lh
from . import model, stats, tomography, witnesses
from .qstate import negativity

#: every float cell of the CSV tables, and _G for one value: 12 significant digits
_FLOAT = "%.12g"
_G = _FLOAT.__mod__

#: rows filled per formatting pass of _write_table
_CHUNK = 1024


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _typed(value, default, where: str):
    """``value`` checked against the JSON type of ``default``; a real number
    comes back as a float, and an integer must fit numpy's int64. Raises
    ValueError naming ``where``."""
    kind = type(default)
    if kind is list and type(value) is list and value:
        return [_typed(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if kind in (bool, int) and type(value) is kind and (kind is bool or 1 <= value < 2**63):
        return value
    real = type(value) in (int, float)
    if kind in (float, type(None)) and (real or (value is None and default is None)):
        try:
            return float(value) if real else None
        except OverflowError:
            raise ValueError(f"{where} must be a real number, got an integer too large "
                             "for a float") from None
    expected = {list: "a non-empty list", bool: "true or false",
                int: "an integer >= 1 and < 2**63",
                float: "a real number"}.get(kind, "a real number or null")
    raise ValueError(f"{where} must be {expected}, got {json.dumps(value)}")


def _section(config: dict, name: str, defaults: dict) -> dict:
    """Config section ``name`` over ``defaults``, each value of its default's type."""
    given = config.get(name, {})
    if type(given) is not dict:
        raise ValueError(f"config section {name} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name} options: {sorted(unknown)}")
    return {k: _typed(given.get(k, d), d, f"{name}.{k}") for k, d in defaults.items()}


def _write_table(path: Path, header: str, row: str, *columns) -> None:
    """One output table: the header line, then the printf template ``row``
    (``_FLOAT`` floats, ``%d`` counts, ``%s`` labels, the cells constant
    within the table already written in) once per entry of ``columns``. Each
    ``%`` pass fills ``_CHUNK`` rows from Python values. Lines end in CRLF,
    as ``csv.writer`` wrote them."""
    line = row + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(columns[0]), _CHUNK):
            cells = [c[start:start + _CHUNK] for c in columns]
            cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
            fh.write(line * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


def _rates_table(report: stats.SuccessRateReport, p: model.ScenarioParams, opts: dict):
    """The header, row template and columns of a success-rate table."""
    return ("total_measurements,rate,lambda_min,trials,gamma,d_m",
            f"%d,{_FLOAT},{_FLOAT},{opts['trials']},{_G(p.dephasing_gamma)},"
            f"{_G(p.separation_d)}",
            report.shots_axis, report.rates, report.lambda_min_used)


def cmd_pea(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    rows = [(tau, *astuple(model.pea_corrections(p, tau))) for tau in opts["taus"]]
    _write_table(out / "pea.csv", "tau_s,theta_magnitude,phase_correction_rad,"
                 "factor_zero_temperature,factor_thermal,kappa",
                 ",".join([_FLOAT] * 6), *zip(*rows))


def cmd_scan_witness(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    tags = [_G(gamma) for gamma in opts["gammas"]]
    if len(set(tags)) < len(tags):
        raise ValueError(f"scan.gammas must differ in their file name tags, got {tags}")
    scenarios = [replace(p, dephasing_gamma=gamma) for gamma in opts["gammas"]]
    with np.errstate(invalid="ignore"):  # an infinite tau_max fails in spin_state
        taus = np.linspace(0.0, opts["tau_max"], opts["points"])
    tau_cells = [_G(t) for t in taus.tolist()]  # formatted once: every table has them
    for pg, tag in zip(scenarios, tags):
        row = f"%s,{_FLOAT},{_G(pg.dephasing_gamma)}"
        for name, w in (("w0", witnesses.w0()), ("w1", witnesses.w1())):
            _write_table(out / f"witness_{name}_gamma{tag}.csv", "tau_s,value,gamma", row,
                         tau_cells, witnesses.witness_scan(pg, w, taus))
        _write_table(out / f"negativity_gamma{tag}.csv", "tau_s,value,gamma", row, tau_cells,
                     np.concatenate(list(map(negativity, witnesses._state_blocks(pg, taus)))))


def cmd_success(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    report = stats.distinction_success_rate(
        p, witnesses.W1_OBSERVABLES, opts["shots_per_observable"],
        opts["alpha"], opts["trials"], seed, lambda_trials=opts["lambda_trials"],
        data_from="null" if opts["control"] else "alt")
    _write_table(out / "success.csv", *_rates_table(report, p, opts))


def cmd_witneg(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    report = stats.witness_negative_probability(
        p, opts["shots_per_observable"], opts["trials"], seed)
    _write_table(out / "witneg.csv", *_rates_table(report, p, opts))


def cmd_differential(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    report = stats.differential_success_rate(
        p, opts["shots_per_observable"], opts["alpha"], opts["trials"], seed,
        lambda_trials=opts["lambda_trials"])
    _write_table(out / "differential.csv", *_rates_table(report, p, opts))
    (out / "differential_meta.json").write_text(json.dumps(
        {"tau_s": float(_G(report.tau)),
         "matched_cp_scale": float(_G(report.matched_cp_scale))}))


def cmd_tomo(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    trials, shots = opts["trials"], opts["batch_shots"]
    for total in (*opts["totals"], shots):  # before the first reconstruction
        tomography._check_total(total)
    rates = [tomography.negativity_exceedance(p, total, trials, seed)
             for total in opts["totals"]]
    batches = {hyp: tomography.reconstruction_batch(p, shots, opts["batch_trials"], seed,
                                                    hypothesis=hyp)
               for hyp in ("alt", "null")}
    _write_table(out / "tomo_exceedance.csv", "total_shots,rate,trials,gamma,d_m",
                 f"%d,{_FLOAT},{trials},{_G(p.dephasing_gamma)},{_G(p.separation_d)}",
                 opts["totals"], rates)
    for hyp, (negs, fids) in batches.items():
        _write_table(out / f"tomo_batch_{hyp}.csv",
                     "shots,hypothesis,trial,negativity,fidelity_to_truth",
                     f"{shots},{hyp},%d,{_FLOAT},{_FLOAT}", range(len(negs)), negs, fids)


def cmd_loophole(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    tau = opts["tau"]
    if tau is None:
        tau = witnesses.optimal_fall_time(p).tau
    rho_a = model.spin_state(p.with_hypothesis(True), tau)
    rho_0 = model.spin_state(p.with_hypothesis(False), tau)
    data = stats.simulate_measurements(rho_a, witnesses.W1_OBSERVABLES,
                                       opts["shots_per_observable"], seed)
    cfg = lh.OptimizationConfig(**{k: opts[k] for k in _SEARCH_DEFAULTS})
    result = lh.find_loophole_state(data, rho_0, cfg, seed)
    verification = lh.verify_loophole(result, rho_a, rho_0, data)
    payload = {
        "state": {"re": result.state.real.tolist(), "im": result.state.imag.tolist()},
        "nll": result.nll,
        "negativity": result.negativity,
        "constraint_satisfied": result.constraint_satisfied,
        "nll_reference": verification.nll_rho_a,
        "verification": {**asdict(verification), "passed": verification.passed},
    }
    (out / "loophole.json").write_text(json.dumps(payload, indent=2))


#: the scenario fields and the loophole search options, at their dataclass defaults
_SCENARIO_DEFAULTS = asdict(model.ScenarioParams())
_SEARCH_DEFAULTS = asdict(lh.OptimizationConfig())

_COMMANDS = {
    "pea": (cmd_pea, {"taus": [0.0, 1.0, 10.0]}),
    "scan-witness": (cmd_scan_witness,
                     {"gammas": [0.0, 0.01, 0.02, 0.03], "tau_max": 30.0,
                      "points": 601}),
    "success": (cmd_success,
                {"shots_per_observable": [10, 33, 100, 333, 1000],
                 "alpha": 0.01, "trials": 1000, "lambda_trials": 10000,
                 "control": False}),
    "witneg": (cmd_witneg,
               {"shots_per_observable": [10, 33, 100, 333, 1000],
                "trials": 1000}),
    "differential": (cmd_differential,
                     {"shots_per_observable": [100, 333, 1000, 2000, 3333],
                      "alpha": 0.01, "trials": 1000, "lambda_trials": 10000}),
    "tomo": (cmd_tomo,
             {"totals": [9, 90, 900, 9000], "trials": 1000,
              "batch_shots": 90, "batch_trials": 100}),
    "loophole": (cmd_loophole,
                 {"shots_per_observable": 1000, **_SEARCH_DEFAULTS, "tau": None}),
}

_SECTION_NAME = {"scan-witness": "scan"}
_CONFIG_KEYS = {_SECTION_NAME.get(c, c) for c in _COMMANDS} | {"scenario"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinwitness",
        description="Analysis pipelines for gravitationally induced spin "
                    "entanglement: witness scans, hypothesis tests, tomography "
                    "and loophole searches.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        unknown = set(config) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        scenario = model.ScenarioParams(**_section(config, "scenario", _SCENARIO_DEFAULTS))
        func, defaults = _COMMANDS[args.command]
        opts = _section(config, _SECTION_NAME.get(args.command, args.command), defaults)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        func(scenario, opts, out, args.seed)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

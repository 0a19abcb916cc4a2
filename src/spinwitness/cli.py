"""Command-line driver: binds JSON configuration to the analysis pipelines
and writes figure/table data as CSV/JSON.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import loophole as lh
from . import model, stats, tomography, witnesses
from .qstate import negativity

_G = "{:.12g}".format


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _section(config: dict, name: str, defaults: dict, trials_override) -> dict:
    opts = dict(defaults)
    opts.update(config.get(name, {}))
    unknown = set(opts) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name} options: {sorted(unknown)}")
    if trials_override is not None and "trials" in opts:
        opts["trials"] = trials_override
    return opts


def cmd_pea(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    taus = opts["taus"]
    with open(out / "pea.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau_s", "theta_magnitude", "phase_correction_rad",
                         "factor_zero_temperature", "factor_thermal", "kappa"])
        for tau in taus:
            r = model.pea_corrections(p, float(tau))
            writer.writerow([_G(tau), _G(r.theta_magnitude), _G(r.phase_correction),
                             _G(r.decoherence_factor_zeroT),
                             _G(r.decoherence_factor_thermal), _G(r.kappa)])


def cmd_scan_witness(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    taus = np.linspace(0.0, float(opts["tau_max"]), int(opts["points"]))
    for gamma in opts["gammas"]:
        pg = replace(p, dephasing_gamma=float(gamma))
        tag = _G(gamma)
        for name, w in (("w0", witnesses.w0()), ("w1", witnesses.w1())):
            scan = witnesses.witness_scan(pg, w, taus)
            witnesses.write_scan_csv(scan, out / f"witness_{name}_gamma{tag}.csv")
        negs = np.array([negativity(model.spin_state(pg, t)) for t in taus])
        witnesses.write_scan_csv(
            witnesses.WitnessScan(taus, negs, pg.dephasing_gamma),
            out / f"negativity_gamma{tag}.csv")


def cmd_success(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    report = stats.distinction_success_rate(
        p, witnesses.W1_OBSERVABLES, opts["shots_per_observable"],
        float(opts["alpha"]), int(opts["trials"]), seed,
        lambda_trials=int(opts["lambda_trials"]),
        data_from="null" if opts["control"] else "alt")
    stats.write_success_csv(report, out / "success.csv")


def cmd_witneg(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    report = stats.witness_negative_probability(
        p, opts["shots_per_observable"], int(opts["trials"]), seed)
    stats.write_success_csv(report, out / "witneg.csv")


def cmd_differential(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    tau = witnesses.optimal_fall_time(p, witnesses.w1()).tau
    scale = stats.match_alpha(p, tau)
    report = stats.differential_success_rate(
        p, opts["shots_per_observable"], float(opts["alpha"]),
        int(opts["trials"]), seed, lambda_trials=int(opts["lambda_trials"]))
    stats.write_success_csv(report, out / "differential.csv")
    (out / "differential_meta.json").write_text(json.dumps(
        {"tau_s": float(_G(tau)), "matched_cp_scale": float(_G(scale))}))


def cmd_tomo(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    trials = int(opts["trials"])
    with open(out / "tomo_exceedance.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["total_shots", "rate", "trials", "gamma", "d_m"])
        for total in opts["totals"]:
            rate = tomography.negativity_exceedance(p, int(total), trials, seed)
            writer.writerow([int(total), _G(rate), trials,
                             _G(p.dephasing_gamma), _G(p.separation_d)])
    shots = int(opts["batch_shots"])
    for hyp in ("alt", "null"):
        negs, fids = tomography.reconstruction_batch(
            p, shots, int(opts["batch_trials"]), seed, hypothesis=hyp)
        tomography.write_batch_csv(out / f"tomo_batch_{hyp}.csv", shots, hyp,
                                   negs, fids)


def cmd_loophole(p: model.ScenarioParams, opts: dict, out: Path, seed: int) -> None:
    tau = opts["tau"]
    if tau is None:
        tau = witnesses.optimal_fall_time(p, witnesses.w1()).tau
    rho_a = model.spin_state(p.with_hypothesis(True), tau)
    rho_0 = model.spin_state(p.with_hypothesis(False), tau)
    data = stats.simulate_measurements(rho_a, witnesses.W1_OBSERVABLES,
                                       int(opts["shots_per_observable"]), seed)
    cfg = lh.OptimizationConfig(
        max_iterations=int(opts["max_iterations"]),
        gradient_step=float(opts["gradient_step"]),
        constraint_margin=float(opts["constraint_margin"]),
        restarts=int(opts["restarts"]))
    result = lh.find_loophole_state(data, rho_0, cfg, seed, rho_reference=rho_a)
    verification = lh.verify_loophole(result, rho_a, rho_0, data)
    payload = json.loads(lh.result_to_json(result))
    payload["verification"] = {**asdict(verification), "passed": verification.passed}
    (out / "loophole.json").write_text(json.dumps(payload, indent=2))


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
                 {"shots_per_observable": 1000, "restarts": 32,
                  "constraint_margin": 1e-4, "gradient_step": 1e-6,
                  "max_iterations": 150, "tau": None}),
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
    parser.add_argument("--trials", type=int, default=None,
                        help="override the configured trial count")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        unknown = set(config) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        scenario = model.ScenarioParams.from_dict(config.get("scenario", {}))
        func, defaults = _COMMANDS[args.command]
        section = _SECTION_NAME.get(args.command, args.command)
        opts = _section(config, section, defaults, args.trials)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        func(scenario, opts, out, args.seed)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (lh.InfeasibleSearchError, RuntimeError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

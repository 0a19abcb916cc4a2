"""Workload definitions, result checks and exact trace-count formulas.

A workload is an ordered list of CLI commands run in one fresh process. Every
command option is spelled out, so a change of a CLI default does not silently
change what the benchmark measures. This module uses only the standard
library: the harness process never imports numpy, scipy or spinwitness.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

#: the paper's loophole point: 350 um separation, dephasing 0.3 1/s (SI units)
SCENARIO = {"separation_d": 350e-6, "dephasing_gamma": 0.3}

# Half the CLI default trial counts for hypothesis and tomography, so a
# 30-second run holds five to seven repetitions, for a steadier median on a
# shared 2-core machine; the layers and their shares of the work stay the same.
_SHOTS = [10, 33, 100, 333, 1000]
_SUCCESS = {"shots_per_observable": _SHOTS, "alpha": 0.01, "trials": 500,
            "lambda_trials": 5000, "control": False}
_WITNEG = {"shots_per_observable": _SHOTS, "trials": 500}
_DIFFERENTIAL = {"shots_per_observable": [100, 333, 1000, 2000, 3333],
                 "alpha": 0.01, "trials": 500, "lambda_trials": 5000}
_TOMO = {"totals": [9, 90, 900, 9000], "trials": 500,
         "batch_shots": 90, "batch_trials": 100}
# 16 restarts capped at 30 SLSQP iterations: nearly every restart runs to the
# cap, so the iteration count does not depend on the seed (line-search
# evaluations still do). At the CLI default cap (150) the time of 8 restarts
# ranged 1.8-5.1 s over seeds 0-7.
_LOOPHOLE = {"shots_per_observable": 1000, "restarts": 16,
             "constraint_margin": 1e-4, "gradient_step": 1e-6,
             "max_iterations": 30, "tau": None}
_PEA = {"taus": [0.0, 1.0, 10.0]}
_SCAN = {"gammas": [0.0, 0.03, 0.1, 0.3], "tau_max": 30.0, "points": 4801}

#: workload name -> [(command, options)], run in order in one process
WORKLOADS = {
    "hypothesis": [("success", _SUCCESS),
                   ("success", {**_SUCCESS, "control": True}),
                   ("witneg", _WITNEG),
                   ("differential", _DIFFERENTIAL)],
    "tomography": [("tomo", _TOMO)],
    "loophole": [("loophole", _LOOPHOLE)],
    "scan": [("pea", _PEA), ("scan-witness", _SCAN)],
}

#: reduced sizes for the harness smoke test, merged over the options above
SMOKE = {
    "success": {"trials": 200, "lambda_trials": 1000},
    "witneg": {"trials": 200},
    "differential": {"trials": 200, "lambda_trials": 1000},
    "tomo": {"trials": 100, "batch_trials": 20},
    "loophole": {"restarts": 3, "max_iterations": 30},
    "scan-witness": {"points": 61},
}

_SECTION = {"scan-witness": "scan"}


def commands(workload: str, smoke: bool = False) -> list:
    """[(command, options)] with the smoke reductions applied if asked."""
    return [(cmd, {**opts, **(SMOKE.get(cmd, {}) if smoke else {})})
            for cmd, opts in WORKLOADS[workload]]


def config(command: str, opts: dict) -> dict:
    """The JSON configuration file content for one command."""
    return {"scenario": SCENARIO, _SECTION.get(command, command): opts}


def expected_counts(cmds) -> dict:
    """Exact call counts the traced run must reproduce, from the sizes alone.

    Every Monte Carlo trial draws from one ``stats.trial_rng`` stream: the
    success-type commands draw ``lambda_trials`` null datasets per shot count
    for ``lambda_min`` and ``trials`` datasets for the rate, unless the
    ``lambda_min`` arguments repeat an earlier call (the control run repeats
    the alternative run's thresholds, which the module cache then answers).
    """
    rng = lam = lam_repeat = pauli = 0
    seen = set()
    for cmd, o in cmds:
        if cmd in ("success", "differential"):
            rng += len(o["shots_per_observable"]) * o["trials"]
            key = (cmd, json.dumps(o["shots_per_observable"]), o["alpha"],
                   o["lambda_trials"])
            lam += len(o["shots_per_observable"])
            if key in seen:
                lam_repeat += len(o["shots_per_observable"])
            else:
                rng += len(o["shots_per_observable"]) * o["lambda_trials"]
            seen.add(key)
        elif cmd == "witneg":
            rng += len(o["shots_per_observable"]) * o["trials"]
        elif cmd == "tomo":
            rng += 2 * len(o["totals"]) * o["trials"] + 2 * o["batch_trials"]
        elif cmd == "loophole":
            rng += o["restarts"]  # one data draw, restarts - 1 random starts
        elif cmd == "scan-witness":
            # W0 has 3 Pauli terms and W1 has 4, rebuilt at every scan point
            pauli += 7 * o["points"] * len(o["gammas"])
    return {"stats.trial_rng.calls": rng, "stats.lambda_min.calls": lam,
            "stats.lambda_min.repeat_calls": lam_repeat,
            "qstate.pauli_tensor.calls": pauli}


# --- result checks ---------------------------------------------------------
# Tolerances are wide enough to survive a deliberate change of the RNG stream
# layout, but not a wrong result. Each check returns a list of problems.

def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _col(rows, name) -> list:
    return [float(r[name]) for r in rows]


def _in(values, lo, hi) -> bool:
    return all(lo <= v <= hi for v in values)


def _rate_curve(path: Path, o: dict, per: int) -> tuple:
    rows = _rows(path)
    problems = []
    axis = [per * n for n in o["shots_per_observable"]]
    if [int(r["total_measurements"]) for r in rows] != axis:
        problems.append(f"{path.name}: measurement axis is not {axis}")
    rates = _col(rows, "rate")
    if not _in(rates, 0.0, 1.0):
        problems.append(f"{path.name}: rate outside [0, 1]: {rates}")
    return rows, rates, problems


def check_success(out: Path, o: dict) -> list:
    rows, rates, problems = _rate_curve(out / "success.csv", o, 3)
    if not all(math.isfinite(v) for v in _col(rows, "lambda_min")):
        problems.append("success.csv: lambda_min not finite")
    if o["control"]:
        # null data against the null threshold: the false-positive rate
        if not _in(rates, 0.0, o["alpha"] + 0.03):
            problems.append(f"control rates not near alpha={o['alpha']}: {rates}")
    elif not rates or rates[-1] < 0.95:
        problems.append(f"success rate at the largest N below 0.95: {rates}")
    return problems


def check_witneg(out: Path, o: dict) -> list:
    _, rates, problems = _rate_curve(out / "witneg.csv", o, 3)
    if not rates or rates[-1] < 0.95:
        problems.append(f"witneg rate at the largest N below 0.95: {rates}")
    return problems


def check_differential(out: Path, o: dict) -> list:
    _, rates, problems = _rate_curve(out / "differential.csv", o, 3)
    if not rates or rates[-1] < 0.95:
        problems.append(f"differential rate at the largest N below 0.95: {rates}")
    meta = json.loads((out / "differential_meta.json").read_text())
    if abs(meta["matched_cp_scale"] - 1.087) > 0.003:
        problems.append(f"matched_cp_scale {meta['matched_cp_scale']} not 1.087 +- 0.003")
    if abs(meta["tau_s"] - 0.343) > 0.01:
        problems.append(f"tau_s {meta['tau_s']} not 0.343 +- 0.01")
    return problems


def check_tomo(out: Path, o: dict) -> list:
    problems = []
    rows = _rows(out / "tomo_exceedance.csv")
    if [int(r["total_shots"]) for r in rows] != list(o["totals"]):
        problems.append(f"tomo_exceedance.csv: totals are not {o['totals']}")
    rates = _col(rows, "rate")
    if not _in(rates, 0.0, 1.0):
        problems.append(f"exceedance rate outside [0, 1]: {rates}")
    elif rates[-1] < 0.3:
        # 0.68 median and 0.48 lowest over 83 repetitions at 9000 shots and
        # 500 trials: the threshold is the 6th largest of 500 null values, so
        # it varies from seed to seed. Tomography that cannot tell the
        # hypotheses apart gives about 0.01.
        problems.append(f"exceedance at the largest total below 0.3: {rates}")
    for hyp in ("alt", "null"):
        batch = _rows(out / f"tomo_batch_{hyp}.csv")
        negs, fids = _col(batch, "negativity"), _col(batch, "fidelity_to_truth")
        if len(batch) != o["batch_trials"]:
            problems.append(f"tomo_batch_{hyp}.csv: {len(batch)} rows")
        if not _in(negs, 0.0, 0.5) or not _in(fids, 0.0, 1.0):
            problems.append(f"tomo_batch_{hyp}.csv: negativity or fidelity out of range")
        elif sum(fids) / len(fids) < 0.8:  # 0.88 at 90 shots
            problems.append(f"tomo_batch_{hyp}.csv: mean fidelity below 0.8")
    return problems


def check_loophole(out: Path, o: dict) -> list:
    # ``verification.passed`` is not required: it also asks that the best
    # state under the negativity cap fit the data at least as well as the true
    # state, which depends on the data drawn. For seed 2001 the search from
    # the MLE start ends 0.24-0.44 nats short at every iteration cap tried
    # (30 to 150), and 24 restarts do not close the gap; seed 5079 ends 0.54
    # short; the other 168 of seeds 2000-2059 and 5000-5109 pass. The
    # tolerance is 3 nats: the null-hypothesis state fits the data about 38
    # nats worse than the true state, the unconstrained MLE about 7.5 better.
    payload = json.loads((out / "loophole.json").read_text())
    v = payload["verification"]
    problems = []
    if not (payload["constraint_satisfied"] and v["ordering_ok"]
            and v["state_ok"] and v["reference_state_ok"]):
        problems.append(f"loophole state invalid or above the negativity cap: {v}")
    if abs(payload["nll"] - v["nll_result"]) > 1e-6 * abs(v["nll_result"]) \
            or abs(payload["negativity"] - v["negativity_result"]) > 1e-9:
        problems.append("loophole nll/negativity disagree with the verification")
    if not v["nll_result"] <= v["nll_rho_a"] + 3.0:
        problems.append(f"loophole state fits worse than the true state by "
                        f"{v['nll_result'] - v['nll_rho_a']:.3f} nats")
    return problems


def check_pea(out: Path, o: dict) -> list:
    rows = _rows(out / "pea.csv")
    problems = []
    if _col(rows, "tau_s") != list(o["taus"]):
        problems.append(f"pea.csv: taus are not {o['taus']}")
    for name in ("factor_zero_temperature", "factor_thermal"):
        if not _in(_col(rows, name), 0.0, 1.0):
            problems.append(f"pea.csv: {name} outside [0, 1]")
    return problems


def check_scan(out: Path, o: dict) -> list:
    problems = []
    for gamma in o["gammas"]:
        tag = f"{gamma:.12g}"
        # Tr(W rho) at tau = 0, where the state is |+>|+>: W0 gives 1, W1 gives 0
        for stem, at_zero, lo, hi in (("witness_w0", 1.0, -2.0, 4.0),
                                      ("witness_w1", 0.0, -2.0, 4.0),
                                      ("negativity", 0.0, 0.0, 0.5 + 1e-9)):
            name = f"{stem}_gamma{tag}.csv"
            rows = _rows(out / name)
            taus, values = _col(rows, "tau_s"), _col(rows, "value")
            if len(rows) != o["points"] or taus[0] != 0.0 \
                    or abs(taus[-1] - o["tau_max"]) > 1e-9:
                problems.append(f"{name}: grid is not {o['points']} points on "
                                f"[0, {o['tau_max']}]")
            elif abs(values[0] - at_zero) > 1e-9 or not _in(values, lo, hi):
                problems.append(f"{name}: value at tau=0 is not {at_zero} or "
                                f"values leave [{lo}, {hi}]")
            elif stem == "witness_w1" and gamma == 0.0 and min(values) >= 0:
                problems.append(f"{name}: W1 never negative without dephasing")
    return problems


CHECKS = {"success": check_success, "witneg": check_witneg,
          "differential": check_differential, "tomo": check_tomo,
          "loophole": check_loophole, "pea": check_pea,
          "scan-witness": check_scan}


def check(command: str, out: Path, opts: dict) -> list:
    """Problems with one command's outputs; a missing or malformed output
    file is a problem, not an exception."""
    try:
        return CHECKS[command](out, opts)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]

"""Acceptance suite: one test per criterion, each printing a [PASS]/[FAIL]
line per sub-check at its stated tolerance (run with -s to see them live).

A few target anchors are mutually inconsistent with the rest of the pinned
values (no parameter assignment satisfies them all); those sub-checks are
asserted as stated and fail, with inline comments giving the self-consistent
values, rather than being weakened to force green.
"""
import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import spearmanr

import spinwitness as sw
from spinwitness.cli import main as cli_main
from spinwitness.loophole import (KNOWN_LOOPHOLE_STATE, OptimizationConfig,
                                  find_loophole_state, state_neg_log_likelihood)
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import dephase
from spinwitness.stats import simulate_measurements
from spinwitness.tomography import negativity_exceedance, reconstruction_batch
from spinwitness.witnesses import (W1_OBSERVABLES, optimal_fall_time, w0, w1,
                                   w1_expectation_closed_form, w1_threshold,
                                   witness_expectation)
from conftest import (oracle_negativity, random_scenario,
                      random_separable_state, random_state)

P450 = ScenarioParams()
P450_GRAV = ScenarioParams(cp_scale=0.0)
P350 = ScenarioParams(separation_d=350e-6)
P350_03 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)


def check(results, name, ok, detail=""):
    results.append((name, ok))
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}  {detail}")


def conclude(criterion, results):
    failed = [name for name, ok in results if not ok]
    status = "PASS" if not failed else f"FAIL ({len(failed)}/{len(results)} sub-checks)"
    print(f"[{status.split()[0]}] {criterion}")
    assert not failed, f"{criterion}: failed sub-checks: {failed}"


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def test_criterion_01_pea_report():
    results = []
    r = sw.pea_corrections(P450, 10.0)
    check(results, "phase correction 4e-12 rad +-15% (d=450, tau=10)",
          within(r.phase_correction, 4e-12, 0.15), f"got {r.phase_correction:.3e}")
    th_exp = -np.log(r.decoherence_factor_thermal)
    check(results, "thermal exponent 0.014 +-10% at nbar=1e6",
          within(th_exp, 0.014, 0.10), f"got {th_exp:.4e}")
    zt_exp = -np.log(r.decoherence_factor_zeroT)
    check(results, "zero-T exponent 2.8e-8 +-10%",
          within(zt_exp, 2.8e-8, 0.10), f"got {zt_exp:.3e}")

    r350 = sw.pea_corrections(P350, 1.0)
    check(results, "phase correction 7.03e-14 rad +-5% (d=350, tau=1)",
          within(r350.phase_correction, 7.03e-14, 0.05),
          f"got {r350.phase_correction:.4e}")
    zt350 = -np.log(r350.decoherence_factor_zeroT)
    check(results, "zero-T exponent 5e-11 +-10%",
          within(zt350, 5e-11, 0.10), f"got {zt350:.3e}")
    th350 = -np.log(r350.decoherence_factor_thermal)
    # inconsistent anchor: the stated pair (5e-11, 2.5e-6) cannot both follow
    # exp(-(nbar/2+1)|theta|^2) at nbar=1e6; the self-consistent value is 2.5e-5
    check(results, "thermal exponent 2.5e-6 +-10% (d=350)",
          within(th350, 2.5e-6, 0.10), f"got {th350:.4e}")
    conclude("criterion 1: PEA report", results)


def test_criterion_02_characteristic_times():
    results = []
    t450 = sw.characteristic_time(P450_GRAV)
    check(results, "unit-radian time 4.4 s +-3% (d=450, gravity only)",
          within(t450, 4.4, 0.03), f"got {t450:.3f}")
    t350 = sw.characteristic_time(P350)
    # inconsistent anchor: with the parameters reproducing every other value
    # the gravity+CP fastest rate gives 0.389 s, not 54 ms
    check(results, "unit-radian time 54 ms +-5% (d=350, gravity+CP)",
          within(t350, 0.054, 0.05), f"got {t350:.4f}")
    conclude("criterion 2: characteristic times", results)


def test_criterion_03_frequency_readings():
    results = []
    f = sw.frequency_readings(P450)
    check(results, "gravity reading 0.226 +-3%",
          within(f.gravity, 0.226, 0.03), f"got {f.gravity:.4f}")
    check(results, "CP reading 0.016 +-10%",
          within(f.casimir_polder, 0.016, 0.10), f"got {f.casimir_polder:.5f}")
    conclude("criterion 3: frequency readings", results)


def test_criterion_04_witness_scans():
    results = []
    taus = np.linspace(0.01, 12, 2400)
    vals = np.array([witness_expectation(P450_GRAV, t, w0()) for t in taus])
    crossing = taus[np.argmax(vals < 0)] if (vals < 0).any() else np.inf
    check(results, "W0 zero crossing in [7.3, 8.7] s at gamma=0",
          7.3 <= crossing <= 8.7, f"got {crossing:.3f}")

    p_noisy = dataclasses.replace(P450_GRAV, dephasing_gamma=0.03)
    grid30 = np.linspace(0.0, 30.0, 600)
    w0_min = min(witness_expectation(p_noisy, t, w0()) for t in grid30)
    check(results, "W0 nonnegative on [0, 30] s at gamma=0.03",
          w0_min >= 0, f"min {w0_min:.4f}")

    thr = w1_threshold(P450_GRAV)
    check(results, "W1 threshold 0.0627 +-0.0005",
          abs(thr - 0.0627) <= 5e-4, f"got {thr:.5f}")

    immediate = True
    for gamma in (0.0, 0.02, 0.05, 0.06):
        pg = dataclasses.replace(P450_GRAV, dephasing_gamma=gamma)
        small = np.linspace(1e-3, 0.25, 60)
        immediate &= all(w1_expectation_closed_form(pg, t) < 0 for t in small)
    check(results, "W1 negative on (0, tau1) whenever gamma < threshold",
          immediate)

    neg_small = min(sw.negativity(spin_state(P450_GRAV, t)) for t in (1e-4, 1e-3))
    check(results, "noiseless negativity > 0 for arbitrarily small tau",
          neg_small > 0, f"N(1e-4) ~ {neg_small:.2e}")
    conclude("criterion 4: witness scans", results)


def test_criterion_05_optimal_fall_time():
    results = []
    opt = optimal_fall_time(P350_03)
    check(results, "tau* = 0.34 +- 0.01 s (d=350, gamma=0.3)",
          abs(opt.tau - 0.34) <= 0.01, f"got {opt.tau:.4f}")
    conclude("criterion 5: optimal fall time", results)


def test_criterion_06_alpha_matching():
    results = []
    tau = optimal_fall_time(P350_03).tau
    scale = sw.match_alpha(P350_03, tau)
    check(results, "matched scale 1.087 +- 0.003",
          abs(scale - 1.087) <= 0.003, f"got {scale:.4f}")

    alt = w1_expectation_closed_form(P350_03.with_hypothesis(True), tau)
    null = w1_expectation_closed_form(
        P350_03.with_hypothesis(False, cp_scale=scale), tau)
    check(results, "witness expectations agree within 1e-8",
          abs(alt - null) <= 1e-8, f"gap {abs(alt - null):.2e}")

    rho_a = spin_state(P350_03.with_hypothesis(True), tau)
    rho_0 = spin_state(P350_03.with_hypothesis(False, cp_scale=scale), tau)
    max_diff = max(abs(sw.expectation(rho_a, obs) - sw.expectation(rho_0, obs))
                   for obs in W1_OBSERVABLES)
    check(results, "an individual Pauli expectation differs by > 1e-3",
          max_diff > 1e-3, f"max diff {max_diff:.4f}")
    conclude("criterion 6: alpha matching", results)


def test_criterion_07_distinction_statistics():
    results = []
    for gamma in (0.0, 0.03):
        p = ScenarioParams(dephasing_gamma=gamma)
        rep = sw.distinction_success_rate(p, W1_OBSERVABLES, [100], alpha=0.01,
                                          trials=1000, seed=1,
                                          lambda_trials=10000)
        check(results, f"(a) d=450 gamma={gamma}: rate >= 0.95 at 300 shots",
              rep.rates[0] >= 0.95, f"got {rep.rates[0]:.3f}")

    p350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.0)
    rep = sw.distinction_success_rate(p350, W1_OBSERVABLES, [33, 333],
                                      alpha=0.01, trials=1000, seed=2,
                                      lambda_trials=10000)
    check(results, "(b) d=350: rate >= 0.95 at ~1e3 shots",
          rep.rates[1] >= 0.95, f"got {rep.rates[1]:.3f} at {rep.shots_axis[1]}")
    check(results, "(b) d=350: rate < 0.8 at ~1e2 shots",
          rep.rates[0] < 0.8, f"got {rep.rates[0]:.3f} at {rep.shots_axis[0]}")

    ctl = sw.distinction_success_rate(P350_03, W1_OBSERVABLES, [100], alpha=0.01,
                                      trials=1000, seed=3, lambda_trials=10000,
                                      data_from="null")
    check(results, "(c) null-vs-null control = 0.01 +- 0.01",
          abs(ctl.rates[0] - 0.01) <= 0.01, f"got {ctl.rates[0]:.3f}")

    p45003 = ScenarioParams(dephasing_gamma=0.03)
    wn = sw.witness_negative_probability(p45003, [100], trials=2000, seed=4)
    check(results, "(d) witness-negative probability 0.70 +- 0.10 "
                   "(1e2 witness measurements)",
          abs(wn.rates[0] - 0.70) <= 0.10, f"got {wn.rates[0]:.3f}")
    conclude("criterion 7: distinction statistics", results)


def test_criterion_08_differential_test():
    results = []
    rep = sw.differential_success_rate(P350_03, [100, 333, 1000, 2000, 3333, 10000],
                                       alpha=0.01, trials=1000, seed=5,
                                       lambda_trials=10000)
    rho, _ = spearmanr(rep.shots_axis, rep.rates)
    check(results, "success rate monotone in shots (Spearman > 0.9)",
          rho > 0.9, f"rho = {rho:.3f}, rates {rep.rates}")

    reached = [i for i, r in enumerate(rep.rates) if r >= 0.9]
    idx_1e4 = rep.shots_axis.index(9999)
    check(results, "rate >= 0.9 by 1e4 total shots (+- one axis step)",
          bool(reached) and reached[0] <= idx_1e4 + 1,
          f"first crossing at {rep.shots_axis[reached[0]] if reached else None}")
    conclude("criterion 8: differential test", results)


def test_criterion_09_tomography():
    results = []
    p = ScenarioParams(dephasing_gamma=0.03)
    _, fids = reconstruction_batch(p, 90, 1000, seed=6, hypothesis="alt")
    # irreproducible anchors: the stated estimator yields mean ~0.91 and
    # min ~0.76 at 9x10 shots (see notes); asserted faithfully
    check(results, "9x10 shots: min fidelity >= 0.88",
          fids.min() >= 0.88, f"got {fids.min():.4f}")
    check(results, "9x10 shots: mean fidelity 0.95 +- 0.01",
          abs(fids.mean() - 0.95) <= 0.01, f"got {fids.mean():.4f}")
    _, fids3 = reconstruction_batch(p, 9000, 1000, seed=6, hypothesis="alt")
    check(results, "9x10^3 shots: all fidelities > 0.99",
          fids3.min() > 0.99, f"min {fids3.min():.4f}")

    anchors = [(450e-6, 0.0, 900, ">99.9"), (450e-6, 0.03, 9000, ">99.9"),
               (350e-6, 0.0, 9000, ">99.9"), (350e-6, 0.3, 9000, "88.7")]
    for d, gamma, shots, target in anchors:
        pc = ScenarioParams(separation_d=d, dephasing_gamma=gamma)
        rate = negativity_exceedance(pc, shots, trials=1000, seed=7)
        if target == ">99.9":
            ok = rate >= 0.999 - 0.03
        else:
            ok = abs(rate - 0.887) <= 0.03
        check(results, f"exceedance d={d*1e6:.0f} gamma={gamma} shots={shots} "
                       f"~ {target}%", ok, f"got {100*rate:.1f}%")

    low = [(450e-6, 0.0, 0.018), (450e-6, 0.03, 0.026),
           (350e-6, 0.0, 0.012), (350e-6, 0.3, 0.017)]
    for d, gamma, target in low:
        pc = ScenarioParams(separation_d=d, dephasing_gamma=gamma)
        rate = negativity_exceedance(pc, 9, trials=1000, seed=8)
        check(results, f"9-shot cell d={d*1e6:.0f} gamma={gamma} "
                       f"= {100*target:.1f}% +- 2 points",
              abs(rate - target) <= 0.02, f"got {100*rate:.1f}%")
    conclude("criterion 9: tomography", results)


def test_criterion_10_loophole():
    results = []
    ref = 0.5 * (KNOWN_LOOPHOLE_STATE + KNOWN_LOOPHOLE_STATE.conj().T)
    trace_ok = abs(np.trace(KNOWN_LOOPHOLE_STATE).real - 1) <= 1e-3
    psd_ok = np.linalg.eigvalsh(ref).min() >= -2e-3
    check(results, "reference state trace/PSD at 3-significant-figure tolerance",
          trace_ok and psd_ok)
    neg_ref = sw.negativity(ref)
    check(results, "reference state negativity 0.104 +- 0.003",
          abs(neg_ref - 0.104) <= 0.003, f"got {neg_ref:.4f}")

    tau = optimal_fall_time(P350_03).tau
    rho_a = spin_state(P350_03.with_hypothesis(True), tau)
    rho_0 = spin_state(P350_03.with_hypothesis(False), tau)
    neg_0 = sw.negativity(rho_0)
    check(results, "null-state negativity 0.108 +- 0.002",
          abs(neg_0 - 0.108) <= 0.002, f"got {neg_0:.4f}")

    cfg = OptimizationConfig()  # 32 restarts, margin 1e-4
    wins = 0
    for seed in range(20):
        data = simulate_measurements(rho_a, W1_OBSERVABLES, 1000, seed=seed)
        try:
            res = find_loophole_state(data, rho_0, cfg, seed=seed)
        except Exception:
            continue
        nll_a = state_neg_log_likelihood(rho_a, data, W1_OBSERVABLES)
        if res.constraint_satisfied and res.nll <= nll_a and \
                sw.negativity(res.state) < neg_0:
            wins += 1
    check(results, "feasible loophole state in >= 90% of 20 seeded runs",
          wins >= 18, f"{wins}/20")
    conclude("criterion 10: loophole search", results)


def test_criterion_11_property_suites(rng, tmp_path):
    results = []

    w0m, w1m = w0().matrix(), w1().matrix()
    worst = np.inf
    for _ in range(10000):
        rho = random_separable_state(rng)
        worst = min(worst,
                    np.trace(w0m @ rho).real, np.trace(w1m @ rho).real)
    check(results, "witness nonnegativity on 1e4 separable states (>= -1e-9)",
          worst >= -1e-9, f"min value {worst:.2e}")

    max_dephase_err = 0.0
    for _ in range(1000):
        p = random_scenario(rng)
        tau = float(rng.uniform(0, 10))
        pure = spin_state(dataclasses.replace(p, dephasing_gamma=0.0), tau)
        prob = (1 - np.exp(-p.dephasing_gamma * tau)) / 2
        err = np.abs(spin_state(p, tau) - dephase(pure, prob)).max()
        max_dephase_err = max(max_dephase_err, err)
    check(results, "dephasing-channel consistency (1e-9)",
          max_dephase_err <= 1e-9, f"max err {max_dephase_err:.2e}")

    max_cf_err = 0.0
    for _ in range(1000):
        p = random_scenario(rng)
        tau = float(rng.uniform(0, 20))
        err = abs(witness_expectation(p, tau, w1())
                  - w1_expectation_closed_form(p, tau))
        max_cf_err = max(max_cf_err, err)
    check(results, "closed-form vs matrix witness agreement (1e-10)",
          max_cf_err <= 1e-10, f"max err {max_cf_err:.2e}")

    max_neg_err = 0.0
    for _ in range(1000):
        rho = random_state(rng, rank=int(rng.integers(1, 5)))
        max_neg_err = max(max_neg_err,
                          abs(sw.negativity(rho) - oracle_negativity(rho)))
    check(results, "negativity brute-force oracle agreement (1e-9)",
          max_neg_err <= 1e-9, f"max err {max_neg_err:.2e}")

    configs = {
        "pea": {"pea": {"taus": [0.0, 1.0, 10.0]}},
        "scan-witness": {"scenario": {"cp_scale": 0.0},
                         "scan": {"gammas": [0.0, 0.03], "tau_max": 10.0,
                                  "points": 11}},
        "success": {"scenario": {"separation_d": 350e-6, "dephasing_gamma": 0.3},
                    "success": {"shots_per_observable": [20], "alpha": 0.05,
                                "trials": 120, "lambda_trials": 200}},
        "witneg": {"scenario": {"dephasing_gamma": 0.03},
                   "witneg": {"shots_per_observable": [30], "trials": 150}},
        "differential": {"scenario": {"separation_d": 350e-6,
                                      "dephasing_gamma": 0.3},
                         "differential": {"shots_per_observable": [50],
                                          "alpha": 0.05, "trials": 120,
                                          "lambda_trials": 200}},
        "tomo": {"scenario": {"separation_d": 350e-6, "dephasing_gamma": 0.3},
                 "tomo": {"totals": [90], "trials": 110, "batch_shots": 90,
                          "batch_trials": 5}},
        "loophole": {"scenario": {"separation_d": 350e-6,
                                  "dephasing_gamma": 0.3},
                     "loophole": {"shots_per_observable": 400, "restarts": 4}},
    }
    reproducible = True
    detail = ""
    for command, payload in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload))
        outs = []
        for run_dir in ("run1", "run2"):
            out = tmp_path / command / run_dir
            code = cli_main([command, "--config", str(cfg_path), "--seed", "11",
                             "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            outs.append(out)
        for artifact in sorted(outs[0].iterdir()):
            twin = outs[1] / artifact.name
            if artifact.read_bytes() != twin.read_bytes():
                reproducible = False
                detail = f"{command}/{artifact.name} differs"
    check(results, "bit-reproducibility of every emitted file", reproducible,
          detail)
    conclude("criterion 11: property suites", results)

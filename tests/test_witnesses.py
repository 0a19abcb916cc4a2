import dataclasses

import numpy as np
import pytest

from spinwitness.model import ScenarioParams, phase_rates, spin_state
from spinwitness.qstate import negativity, partial_transpose
from spinwitness.witnesses import (W1_OBSERVABLES, OptimalFallTime, WitnessScan,
                                   optimal_fall_time, w0, w1,
                                   w1_expectation_closed_form, w1_threshold,
                                   witness_expectation, witness_scan,
                                   write_scan_csv)
from conftest import oracle_kron, random_scenario, random_separable_state, random_state

P450_GRAV = ScenarioParams(cp_scale=0.0)
P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)


class TestWitnessSpecs:
    def test_unit_trace_against_mixed_state(self, rng):
        mixed = np.eye(4) / 4
        for spec in (w0(), w1()):
            val = np.trace(spec.matrix() @ mixed).real
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_w0_linearity(self, rng):
        for _ in range(50):
            rho = random_state(rng)
            direct = 1 + np.trace(rho @ oracle_kron("X", "Z")).real \
                       + np.trace(rho @ oracle_kron("Y", "Y")).real
            assert np.trace(w0().matrix() @ rho).real == pytest.approx(direct,
                                                                       abs=1e-12)

    def test_w1_is_partial_transpose_of_projector(self):
        # 4 * PT of the projector onto (|00> + i|01> - i|10> - |11>)/2
        chi = np.array([1, 1j, -1j, -1], dtype=complex) / 2
        expected = 4 * partial_transpose(np.outer(chi, chi.conj()))
        assert np.abs(w1().matrix() - expected).max() < 1e-12

    def test_w1_observables(self):
        assert w1().observables == W1_OBSERVABLES

    def test_nonnegative_on_separable_states(self, rng):
        w0m, w1m = w0().matrix(), w1().matrix()
        for _ in range(2000):
            rho = random_separable_state(rng)
            assert np.trace(w0m @ rho).real >= -1e-9
            assert np.trace(w1m @ rho).real >= -1e-9


class TestWitnessExpectation:
    def test_tau_zero_w1_is_zero(self, rng):
        for gamma in (0.0, 0.1, 1.0):
            p = dataclasses.replace(P450_GRAV, dephasing_gamma=gamma)
            assert witness_expectation(p, 0.0, w1()) == pytest.approx(0.0,
                                                                      abs=1e-12)

    def test_closed_form_matches_matrix_trace(self, rng):
        for _ in range(300):
            p = random_scenario(rng)
            tau = float(rng.uniform(0, 20))
            matrix_val = witness_expectation(p, tau, w1())
            assert abs(matrix_val - w1_expectation_closed_form(p, tau)) <= 1e-10

    def test_w0_reveals_after_8_seconds(self):
        taus = np.linspace(0.01, 12, 1200)
        vals = np.array([witness_expectation(P450_GRAV, t, w0()) for t in taus])
        first_negative = taus[np.argmax(vals < 0)]
        assert 7.3 <= first_negative <= 8.7

    def test_w0_blind_at_gamma_003(self):
        p = dataclasses.replace(P450_GRAV, dephasing_gamma=0.03)
        taus = np.linspace(0.0, 30, 400)
        assert all(witness_expectation(p, t, w0()) >= 0 for t in taus)

    def test_witness_soundness_on_family(self, rng):
        # a negative expectation must come with positive negativity
        for _ in range(200):
            p = random_scenario(rng)
            tau = float(rng.uniform(0, 10))
            rho = spin_state(p, tau)
            for spec in (w0(), w1()):
                if np.trace(spec.matrix() @ rho).real < 0:
                    assert negativity(rho) > 0


class TestThreshold:
    def test_gravity_only_value(self):
        assert w1_threshold(P450_GRAV) == pytest.approx(0.0627, abs=5e-4)

    def test_all_couplings_off(self):
        p = ScenarioParams(gravity_on=False, permittivity_eps=1.0)
        assert w1_threshold(p) == 0.0

    def test_matches_initial_slope(self, rng):
        # d/dtau Tr(W1 rho)|_0 = 2 gamma - (w_lr + w_rl), by central difference
        for p in (P450_GRAV, P350, random_scenario(rng)):
            h = 1e-6
            slope = (w1_expectation_closed_form(p, h)
                     - w1_expectation_closed_form(p, 0.0)) / h
            expected = 2 * p.dephasing_gamma - 2 * w1_threshold(p)
            assert slope == pytest.approx(expected, rel=1e-4, abs=1e-9)

    def test_immediate_witnessing_below_threshold(self):
        thr = w1_threshold(P450_GRAV)
        for gamma in (0.0, 0.02, 0.05, 0.06):
            assert gamma < thr
            p = dataclasses.replace(P450_GRAV, dephasing_gamma=gamma)
            taus = np.linspace(1e-3, 0.25, 50)
            assert all(w1_expectation_closed_form(p, t) < 0 for t in taus)

    def test_no_entanglement_above_threshold(self):
        # the spin-state family becomes PPT for all times once gamma passes
        # the threshold (checked numerically over a broad grid)
        thr = w1_threshold(P450_GRAV)
        for factor in (1.02, 1.5):
            p = dataclasses.replace(P450_GRAV, dephasing_gamma=factor * thr)
            for tau in np.linspace(1e-3, 60, 300):
                assert negativity(spin_state(p, tau)) <= 1e-9


class TestOptimalFallTime:
    def test_close_setup_anchor(self):
        opt = optimal_fall_time(P350, w1())
        assert opt.tau == pytest.approx(0.34, abs=0.01)
        assert opt.witnessing
        assert opt.expectation < 0

    def test_tiny_window_minimizer_at_edge(self):
        p = dataclasses.replace(P450_GRAV, dephasing_gamma=0.0)
        opt = optimal_fall_time(p, w1(), tau_max=0.05)
        # expectation decreases from zero, so the window edge wins
        assert opt.tau == pytest.approx(0.05, abs=1e-3)
        assert opt.expectation == pytest.approx(
            w1_expectation_closed_form(p, opt.tau), abs=1e-12)

    def test_non_witnessing_flag(self):
        p = dataclasses.replace(P450_GRAV, dephasing_gamma=5.0)
        opt = optimal_fall_time(p, w1(), tau_max=5.0)
        assert not opt.witnessing
        assert opt.expectation >= 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            optimal_fall_time(P350, w1(), tau_max=-1.0)


def oracle_optimal_fall_time(p, tau_max=None):
    """The W1 search point by point: 2000 scalar closed-form calls over the
    grid, then golden section to 1e-4 around the best grid point."""
    alt = p.with_hypothesis(gravity_on=True)
    if tau_max is None:
        rates = phase_rates(alt)
        tau_max = 4 * np.pi / (rates.omega_lr + rates.omega_rl)

    def f(t):
        return float(w1_expectation_closed_form(alt, float(t)))

    grid = np.linspace(0.0, tau_max, 2000)
    vals = np.array([f(t) for t in grid])
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, 1999)]
    invphi = (np.sqrt(5.0) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    tau = (a + b) / 2
    val = f(tau)
    if vals[i] < val:
        tau, val = grid[i], vals[i]
    return OptimalFallTime(float(tau), float(val), witnessing=val < 0)


class TestOptimalFallTimeOracle:
    """The one grid call returns exactly what the per-point search returns."""

    @pytest.mark.parametrize("p, tau_max", [
        (P350, None),  # also the scenario of the golden digests
        (ScenarioParams(), None),  # the CLI default
        (dataclasses.replace(P450_GRAV, dephasing_gamma=0.0), 0.05),
        (dataclasses.replace(P450_GRAV, dephasing_gamma=5.0), 5.0),
    ])
    def test_fixed_scenarios(self, p, tau_max):
        assert optimal_fall_time(p, w1(), tau_max) == oracle_optimal_fall_time(p, tau_max)

    def test_random_scenarios(self, rng):
        for _ in range(100):
            p = random_scenario(rng)
            assert optimal_fall_time(p, w1()) == oracle_optimal_fall_time(p)


class TestScan:
    def test_scan_values_and_csv(self, tmp_path):
        taus = np.linspace(0.0, 5.0, 6)
        scan = witness_scan(P350, w1(), taus)
        assert scan.gamma == 0.3
        assert scan.values[0] == pytest.approx(0.0, abs=1e-12)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_s,value,gamma"
        assert len(lines) == 7

    def test_requires_increasing_taus(self):
        with pytest.raises(ValueError):
            WitnessScan(np.array([0.0, 1.0, 0.5]), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            WitnessScan(np.array([0.0, 1.0]), np.zeros(3), 0.0)

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinwitness.model import (PAIRS, ScenarioParams, branch_separations,
                               characteristic_time, coupling_tensor, cp_coupling,
                               frequency_readings, pea_corrections, phase_rates,
                               spin_state)
from spinwitness.qstate import check_density_matrix, dephase, negativity
from conftest import random_scenario

G = 6.674e-11
HBAR = 1.0546e-34
C = 2.998e8
LL, LR, RL, RR = range(4)  # PAIRS order

P450 = ScenarioParams()
P450_GRAV = ScenarioParams(cp_scale=0.0)
P350 = ScenarioParams(separation_d=350e-6)


class TestScenarioParams:
    def test_defaults_are_valid(self):
        # construction validates: a frozen instance cannot become invalid
        assert ScenarioParams(**dataclasses.asdict(P450)) == P450

    def test_rejects_touching_branches(self):
        with pytest.raises(ValueError, match="touch"):
            ScenarioParams(separation_d=200e-6, half_split_delta=100e-6)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            ScenarioParams(dephasing_gamma=-0.1)
        with pytest.raises(ValueError):
            ScenarioParams(permittivity_eps=0.5)
        with pytest.raises(ValueError):
            ScenarioParams(mass=0.0)

    @pytest.mark.parametrize("name", [
        "mass", "separation_d", "half_split_delta", "trap_omega",
        "mean_occupation_nbar", "dephasing_gamma", "sphere_radius_R",
        "permittivity_eps", "cp_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScenarioParams(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("gravity_on", "no", "gravity_on must be a bool"),
        ("gravity_on", 1, "gravity_on must be a bool"),
        ("separation_d", True, "separation_d must be a real number"),
        ("dephasing_gamma", "0.1", "dephasing_gamma must be a real number"),
        ("mass", None, "mass must be a real number"),
    ])
    def test_rejects_mistyped_fields(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            ScenarioParams(**{name: value})

    def test_json_round_trip(self):
        import json
        p = ScenarioParams(dephasing_gamma=0.3, gravity_on=False)
        q = ScenarioParams(**json.loads(json.dumps(dataclasses.asdict(p))))
        assert q == p


class TestBranchSeparations:
    def test_default_geometry(self):
        seps = branch_separations(P450)
        assert seps["LR"] == pytest.approx(200e-6)
        assert seps["LL"] == pytest.approx(450e-6)
        assert seps["RR"] == pytest.approx(450e-6)
        assert seps["RL"] == pytest.approx(700e-6)
        assert set(seps) == set(PAIRS)
        assert min(seps.values()) == pytest.approx(200e-6)

    def test_zero_split(self):
        seps = branch_separations(dataclasses.replace(P450, half_split_delta=0.0))
        assert all(seps[pair] == pytest.approx(450e-6) for pair in PAIRS)

    def test_close_setup(self):
        seps = branch_separations(P350)
        assert min(seps.values()) == pytest.approx(100e-6)


class TestCouplingTensor:
    def test_fastest_magnitudes(self):
        # independent recomputation of the inverse-distance differences
        q1 = coupling_tensor(P450, 1)
        assert abs(q1[LR, RL]) == pytest.approx(1 / 200e-6 - 1 / 700e-6, rel=1e-12)
        assert abs(q1[LR, RL]) == pytest.approx(3.6e3, rel=0.01)
        q4 = coupling_tensor(P450, 4)
        assert abs(q4[LR, RL]) == pytest.approx(1 / 200e-6 ** 4 - 1 / 700e-6 ** 4,
                                                rel=1e-12)
        assert abs(q4[LR, RL]) == pytest.approx(6.2e14, rel=0.01)

    def test_antisymmetry_and_zero_diagonal(self, rng):
        for _ in range(20):
            p = random_scenario(rng)
            n = int(rng.integers(1, 8))
            q = coupling_tensor(p, n)
            assert q.shape == (4, 4)
            assert np.abs(q + q.T).max() == 0
            assert np.abs(np.diag(q)).max() == 0

    def test_entries_bit_equal_to_inverse_power_differences(self, rng):
        for _ in range(200):
            p = random_scenario(rng)
            d, delta = p.separation_d, p.half_split_delta
            seps = (d, d - 2 * delta, d + 2 * delta, d)  # PAIRS order
            for n in range(1, 8):
                q = coupling_tensor(p, n)
                for i, j in np.ndindex(4, 4):
                    assert q[i, j] == 1.0 / seps[i] ** n - 1.0 / seps[j] ** n

    def test_order_validation(self):
        with pytest.raises(ValueError):
            coupling_tensor(P450, 0)

    def test_q_components_pairwise_independent(self):
        # differences of inverse separations at different powers are never
        # proportional, so no coupling rescale can mimic another power law
        # the three independent components LR-LL, LR-RL and LL-RL
        vecs = {n: coupling_tensor(P450, n)[[LR, LR, LL], [LL, RL, RL]]
                for n in (1, 3, 7)}
        for a, b in [(1, 3), (1, 7), (3, 7)]:
            m = np.column_stack([vecs[a] / np.linalg.norm(vecs[a]),
                                 vecs[b] / np.linalg.norm(vecs[b])])
            s = np.linalg.svd(m, compute_uv=False)
            assert s.min() > 1e-12
            assert np.linalg.matrix_rank(m) == 2


class TestCpCoupling:
    def test_vacuum_sphere(self):
        assert cp_coupling(ScenarioParams(permittivity_eps=1.0)) == 0.0

    def test_r6_law(self):
        small = cp_coupling(P450)
        big = cp_coupling(dataclasses.replace(P450, sphere_radius_R=2e-6))
        assert big == pytest.approx(64 * small, rel=1e-12)

    def test_scale_linear(self):
        assert cp_coupling(dataclasses.replace(P450, cp_scale=0.25)) == \
            pytest.approx(0.25 * cp_coupling(P450), rel=1e-12)


class TestPhaseRates:
    def test_gravity_only_threshold_value(self):
        w = phase_rates(P450_GRAV)
        avg = (w.omega_lr + w.omega_rl) / 2
        assert avg == pytest.approx(0.0627, abs=5e-4)
        # independent recomputation
        expected_lr = G * 1e-28 * (1 / 200e-6 - 1 / 450e-6) / HBAR
        assert w.omega_lr == pytest.approx(expected_lr, rel=1e-12)

    def test_all_off(self):
        p = ScenarioParams(gravity_on=False, permittivity_eps=1.0)
        w = phase_rates(p)
        assert w.omega_lr == 0.0 and w.omega_rl == 0.0

    def test_signs(self):
        w = phase_rates(P450)
        assert w.omega_lr > 0 > w.omega_rl


def direct_phase_rates(p):
    """The rate formula written out, computed afresh on every call."""
    d = p.separation_d
    grav = G * p.mass ** 2 if p.gravity_on else 0.0
    alpha = cp_coupling(p)

    def rate(dm):
        return (grav * (1 / dm - 1 / d) + alpha * (1 / dm ** 7 - 1 / d ** 7)) / HBAR

    delta = p.half_split_delta
    return rate(d - 2 * delta), rate(d + 2 * delta)


class TestPhaseRateMemo:
    """Rates come from the coupling table on every call, with no memo: each
    call has the bits of the written-out formula."""

    def test_equals_direct_formula(self, rng):
        for _ in range(2000):
            p = random_scenario(rng)
            rates = phase_rates(p)
            assert tuple(rates) == direct_phase_rates(p)
            assert all(type(r) is float for r in rates)

    def test_replace_computes_fresh_rates(self, rng):
        for _ in range(50):
            p = random_scenario(rng)
            phase_rates(p)
            q = dataclasses.replace(p, mass=2 * p.mass, gravity_on=True)
            assert tuple(phase_rates(q)) == direct_phase_rates(q)
            assert phase_rates(dataclasses.replace(p)) == phase_rates(p)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_scenarios_keep_their_own_rates(self, first):
        # equal scenarios, differently signed zero rates: a cache keyed by
        # value would hand the second one the first one's zeros
        a = ScenarioParams(gravity_on=False, cp_scale=first)
        b = ScenarioParams(gravity_on=False, cp_scale=-first)
        assert a == b
        ra, rb = phase_rates(a), phase_rates(b)
        assert np.signbit(ra).tolist() == np.signbit(direct_phase_rates(a)).tolist()
        assert np.signbit(rb).tolist() == np.signbit(direct_phase_rates(b)).tolist()
        assert np.signbit(ra.omega_rl) != np.signbit(rb.omega_rl)


class TestFrequencyReadings:
    def test_default_geometry(self):
        f = frequency_readings(P450)
        assert f.gravity == pytest.approx(0.226, rel=0.01)
        assert f.casimir_polder == pytest.approx(0.016, rel=0.05)

    def test_characteristic_time_is_inverse_fastest_rate(self):
        w = phase_rates(P450)
        assert characteristic_time(P450) == pytest.approx(
            1 / (w.omega_lr - w.omega_rl), rel=1e-12)
        assert characteristic_time(P450_GRAV) == pytest.approx(4.42, abs=0.05)

    def test_no_interaction_raises(self):
        with pytest.raises(ValueError):
            characteristic_time(ScenarioParams(gravity_on=False,
                                               permittivity_eps=1.0))

    def test_bit_equal_to_written_out_formula(self, rng):
        for _ in range(500):
            p = random_scenario(rng)
            d, delta = p.separation_d, p.half_split_delta
            q1 = abs(1.0 / (d - 2 * delta) - 1.0 / (d + 2 * delta))
            q7 = abs(1.0 / (d - 2 * delta) ** 7 - 1.0 / (d + 2 * delta) ** 7)
            eps, R = p.permittivity_eps, p.sphere_radius_R
            alpha = ((eps - 1) / (eps + 2)) ** 2 * 23 * HBAR * C * R ** 6 \
                / (4 * np.pi) * p.cp_scale
            grav = G * p.mass ** 2 * q1 / HBAR if p.gravity_on else 0.0
            assert tuple(frequency_readings(p)) == (grav, alpha * q7 / HBAR)


class TestSpinState:
    def test_tau_zero_uniform_quarter(self, rng):
        p = random_scenario(rng)
        assert np.allclose(spin_state(p, 0.0), np.full((4, 4), 0.25), atol=1e-15)

    def test_random_states_valid(self, rng):
        for _ in range(1000):
            p = random_scenario(rng)
            tau = float(rng.uniform(0, 20))
            check_density_matrix(spin_state(p, tau))

    def test_pure_when_undamped(self, rng):
        for _ in range(100):
            p = dataclasses.replace(random_scenario(rng), dephasing_gamma=0.0)
            tau = float(rng.uniform(0, 20))
            rho = spin_state(p, tau)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_channel_consistency(self, rng):
        # damped evolution equals the per-qubit phase-damping channel applied
        # to the undamped state with p = (1 - e^{-gamma tau})/2
        for _ in range(100):
            p = random_scenario(rng)
            tau = float(rng.uniform(0, 10))
            pure = spin_state(dataclasses.replace(p, dephasing_gamma=0.0), tau)
            prob = (1 - np.exp(-p.dephasing_gamma * tau)) / 2
            assert np.abs(spin_state(p, tau) - dephase(pure, prob)).max() <= 1e-9

    def test_separable_at_full_phase_period(self):
        p = ScenarioParams(cp_scale=0.0, dephasing_gamma=0.0)
        w = phase_rates(p)
        tau = 2 * np.pi / (w.omega_lr + w.omega_rl)
        assert negativity(spin_state(p, tau)) <= 1e-9

    def test_null_state_negativity_anchor(self):
        p = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3,
                           gravity_on=False)
        assert negativity(spin_state(p, 0.34)) == pytest.approx(0.108, abs=2e-3)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            spin_state(P450, -1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            spin_state(P450, tau)

    @pytest.mark.parametrize("gamma", [0.0, 0.03, 0.1, 0.3])
    @pytest.mark.parametrize("base", [P350, P450], ids=["P350", "P450"])
    def test_bit_equal_to_outer_product_formula(self, base, gamma):
        # the v0.1.0 construction: an outer product times a damping matrix
        for gravity_on in (True, False):
            p = dataclasses.replace(base, dephasing_gamma=gamma,
                                    gravity_on=gravity_on)
            w = phase_rates(p)
            taus, formula = np.linspace(0.0, 30.0, 601), []
            for tau in taus:
                amps = np.array([1.0, np.exp(1j * w.omega_rl * tau),
                                 np.exp(1j * w.omega_lr * tau), 1.0]) / 2.0
                e1 = np.exp(-p.dephasing_gamma * tau)
                e2 = e1 * e1
                damp = np.array([[1, e1, e1, e2], [e1, 1, e2, e1],
                                 [e1, e2, 1, e1], [e2, e1, e1, 1]])
                expected = np.outer(amps, amps.conj()) * damp
                assert spin_state(p, tau).tobytes() == expected.tobytes()
                formula.append(expected)
            # the whole 601-point stack has the bits of the same formula
            assert spin_state(p, taus).tobytes() == np.array(formula).tobytes()

    def test_zero_dimensional_array_gives_one_matrix(self):
        rho = spin_state(P450, np.array(3.0))
        assert rho.shape == (4, 4)
        assert rho.tobytes() == spin_state(P450, 3.0).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_one_invalid_entry_rejects_the_array(self, bad):
        taus = np.linspace(0.0, 10.0, 11)
        taus[4] = bad
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            spin_state(P450, taus)
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            spin_state(P450, taus.reshape(11, 1))

    @given(st.sampled_from([0.0, 0.03, 0.3]), st.booleans(),
           hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3).flatmap(
               lambda shape: hnp.arrays(float, shape, elements=st.floats(0, 40))))
    def test_stack_entries_equal_scalar_calls(self, gamma, gravity_on, taus):
        p = ScenarioParams(separation_d=350e-6, dephasing_gamma=gamma,
                           gravity_on=gravity_on)
        stack = spin_state(p, taus)
        assert stack.shape == taus.shape + (4, 4)
        for idx in np.ndindex(taus.shape):
            assert stack[idx].tobytes() == spin_state(p, float(taus[idx])).tobytes()


def random_pea_scenario(rng):
    return dataclasses.replace(random_scenario(rng),
                               trap_omega=10 ** rng.uniform(2, 4),
                               mean_occupation_nbar=10 ** rng.uniform(0, 7))


class TestPeaCorrections:
    def test_tau_zero(self):
        r = pea_corrections(P450, 0.0)
        assert r.phase_correction == 0.0
        assert r.decoherence_factor_zeroT == 1.0
        assert r.decoherence_factor_thermal == 1.0

    def test_against_independent_formula(self):
        tau = 10.0
        r = pea_corrections(P450, tau)
        q2 = 1 / 200e-6 ** 2 - 1 / 700e-6 ** 2
        q4 = 1 / 200e-6 ** 4 - 1 / 700e-6 ** 4
        m, omega = 1e-14, 1e3
        assert r.phase_correction == pytest.approx(
            G ** 2 * m ** 3 * tau ** 3 * q4 / (6 * HBAR), rel=1e-12)
        theta_sq = (G * m * q2 * tau) ** 2 / 2 * (
            tau ** 2 / 4 * m * omega / HBAR + m / (HBAR * omega))
        assert r.theta_magnitude == pytest.approx(np.sqrt(theta_sq), rel=1e-12)
        assert r.decoherence_factor_zeroT == pytest.approx(np.exp(-theta_sq),
                                                           rel=1e-12)
        nbar = 1e6
        assert r.decoherence_factor_thermal == pytest.approx(
            np.exp(-(nbar / 2 + 1) * theta_sq), rel=1e-12)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_invalid_tau_rejected(self, tau):
        # a NaN tau used to give a report of NaN fields
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            pea_corrections(P450, tau)

    @pytest.mark.parametrize("tau", [1e90, 1e200])
    def test_overflowing_tau_raises_naming_it(self, tau):
        # at 1e90 s theta_sq overflows to inf in a product, at 1e200 s the
        # float power tau ** 3 raises
        with pytest.raises(OverflowError, match=re.escape(f"tau = {tau:g} s")):
            pea_corrections(P450, tau)

    def test_kappa(self):
        r = pea_corrections(P450, 1.0)
        assert r.kappa == pytest.approx(
            125e-6 * np.sqrt(1e-14 * 1e3 / (2 * HBAR)), rel=1e-12)

    def test_factors_monotone_in_tau_and_nbar(self):
        taus = np.linspace(0, 20, 40)
        reports = [pea_corrections(P450, t) for t in taus]
        zt = [r.decoherence_factor_zeroT for r in reports]
        th = [r.decoherence_factor_thermal for r in reports]
        assert all(a >= b for a, b in zip(zt, zt[1:]))
        assert all(a >= b for a, b in zip(th, th[1:]))
        factors = [pea_corrections(dataclasses.replace(P450,
                                                       mean_occupation_nbar=nb),
                                   5.0).decoherence_factor_thermal
                   for nb in (0, 1e3, 1e6, 1e9)]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_bit_equal_to_written_out_formula(self, rng):
        for _ in range(500):
            p = random_pea_scenario(rng)
            tau = float(rng.uniform(0, 20))
            d, delta = p.separation_d, p.half_split_delta
            q2 = abs(1.0 / (d - 2 * delta) ** 2 - 1.0 / (d + 2 * delta) ** 2)
            q4 = abs(1.0 / (d - 2 * delta) ** 4 - 1.0 / (d + 2 * delta) ** 4)
            m, omega = p.mass, p.trap_omega
            theta_sq = (G * m * q2 * tau) ** 2 / 2 * (
                (tau ** 2 / 4) * (m * omega / HBAR) + m / (HBAR * omega))
            expected = (
                float(np.sqrt(theta_sq)),
                G ** 2 * m ** 3 * tau ** 3 * q4 / (6 * HBAR),
                float(np.exp(-theta_sq)),
                float(np.exp(-(p.mean_occupation_nbar / 2 + 1) * theta_sq)),
                float(delta * np.sqrt(m * omega / (2 * HBAR))))
            assert dataclasses.astuple(pea_corrections(p, tau)) == expected

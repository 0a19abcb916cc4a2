import json
import math

import numpy as np
import pytest

import spinwitness.loophole as lh
from spinwitness.loophole import (KNOWN_LOOPHOLE_STATE, InfeasibleSearchError,
                                  OptimizationConfig, find_loophole_state,
                                  neg_log_likelihood, result_to_json,
                                  state_neg_log_likelihood, verify_loophole)
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import (CholeskyAngles, MeasurementSetup,
                                check_density_matrix, cholesky_to_state,
                                fidelity, negativity, partial_transpose)
from spinwitness.stats import DataVector, simulate_measurements
from spinwitness.tomography import TOMOGRAPHY_OBSERVABLES, mle_reconstruct
from spinwitness.witnesses import W1_OBSERVABLES, optimal_fall_time, w1

P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)
TAU = optimal_fall_time(P350, w1()).tau
RHO_A = spin_state(P350.with_hypothesis(True), TAU)
RHO_0 = spin_state(P350.with_hypothesis(False), TAU)

MIXED_ANGLES = CholeskyAngles(
    np.array([np.pi / 3, np.arccos(1 / np.sqrt(3)), np.pi / 4,
              0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.zeros(6))


def witness_data(seed: int, shots: int = 1000) -> DataVector:
    return simulate_measurements(RHO_A, W1_OBSERVABLES, shots, seed)


class TestNegLogLikelihood:
    def test_uniform_data_on_maximally_mixed(self):
        counts = np.full((3, 4), 25, dtype=np.int64)
        data = DataVector(counts, 100)
        value = neg_log_likelihood(MIXED_ANGLES, data, W1_OBSERVABLES)
        assert value == pytest.approx(300 * np.log(4), rel=1e-12)

    def test_uniform_data_minimized_by_maximally_mixed(self, rng):
        # Gibbs: -sum (N/4) log p_j >= -sum (N/4) log(1/4) per block, with
        # equality only at the uniform distribution
        counts = np.full((3, 4), 25, dtype=np.int64)
        data = DataVector(counts, 100)
        best = neg_log_likelihood(MIXED_ANGLES, data, W1_OBSERVABLES)
        for _ in range(1000):
            angles = CholeskyAngles(rng.uniform(0, np.pi, 9),
                                    rng.uniform(0, 2 * np.pi, 6))
            assert neg_log_likelihood(angles, data, W1_OBSERVABLES) >= best - 1e-9

    def test_impossible_outcome_gives_infinity(self):
        # |00><00| assigns zero probability to the ZZ outcome |01>
        counts = np.array([[0, 5, 0, 0]], dtype=np.int64)
        data = DataVector(counts, 5)
        angles = CholeskyAngles(np.zeros(9), np.zeros(6))
        assert neg_log_likelihood(angles, data, (("Z", "Z"),)) == np.inf

    def test_reference_state_witness_indistinguishable(self):
        # the reference state reproduces the three witness correlators of the
        # true state within the sampling noise of a 10^3-shot experiment (its
        # local marginals are unconstrained by correlator-only fits and differ)
        from spinwitness.qstate import expectation
        ref = 0.5 * (KNOWN_LOOPHOLE_STATE + KNOWN_LOOPHOLE_STATE.conj().T)
        n_shots = 1000
        total_sigma = 0.0
        for obs in W1_OBSERVABLES:
            m_true = expectation(RHO_A, obs)
            sigma = np.sqrt((1 - m_true ** 2) / n_shots)
            total_sigma += sigma ** 2
            assert abs(expectation(ref, obs) - m_true) <= 3 * sigma
        w1m = w1().matrix()
        gap = abs(np.trace(w1m @ (ref - RHO_A)).real)
        assert gap <= 3 * np.sqrt(total_sigma)


class TestFindLoopholeState:
    def test_finds_feasible_low_negativity_state(self):
        data = witness_data(seed=0)
        cfg = OptimizationConfig(restarts=6)
        result = find_loophole_state(data, RHO_0, cfg, seed=0,
                                     rho_reference=RHO_A)
        assert result.constraint_satisfied
        check_density_matrix(result.state)
        assert result.negativity <= negativity(RHO_0) - cfg.constraint_margin + 1e-9
        assert result.negativity == pytest.approx(negativity(result.state),
                                                  abs=1e-9)
        assert result.nll <= result.nll_reference
        assert result.nll == pytest.approx(
            state_neg_log_likelihood(result.state, data, W1_OBSERVABLES), abs=1e-8)

    def test_forcing_separability_is_feasible(self):
        data = witness_data(seed=1)
        cfg = OptimizationConfig(restarts=6,
                                 constraint_margin=negativity(RHO_0))
        result = find_loophole_state(data, RHO_0, cfg, seed=1)
        check_density_matrix(result.state)
        assert result.negativity <= 1e-9

    def test_unconstrained_matches_fixed_point_mle(self):
        # with a vacuous constraint and informationally complete data the
        # likelihood maximum is unique, so the search must recover the
        # fixed-point MLE state
        from spinwitness.tomography import TOMOGRAPHY_OBSERVABLES
        setup = MeasurementSetup(TOMOGRAPHY_OBSERVABLES)
        data = simulate_measurements(RHO_A, TOMOGRAPHY_OBSERVABLES, 1000, seed=2)
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5  # max negativity: constraint vacuous
        cfg = OptimizationConfig(restarts=4, constraint_margin=0.0)
        result = find_loophole_state(data, bell, cfg, seed=2,
                                     observables=TOMOGRAPHY_OBSERVABLES)
        mle = mle_reconstruct(data, setup)
        assert fidelity(result.state, mle) >= 0.999

    def test_unconstrained_fit_at_least_as_likely_as_fixed_point(self):
        # on witness-only data the maximum-likelihood set is a manifold; the
        # search result must fit at least as well as the fixed-point iterate
        data = witness_data(seed=2)
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        cfg = OptimizationConfig(restarts=4, constraint_margin=0.0)
        result = find_loophole_state(data, bell, cfg, seed=2)

        mle = mle_reconstruct(data, MeasurementSetup(W1_OBSERVABLES))
        nll_mle = state_neg_log_likelihood(mle, data, W1_OBSERVABLES)
        assert result.nll <= nll_mle + 1e-6

    def test_infeasible_constraint_raises(self):
        data = witness_data(seed=3)
        cfg = OptimizationConfig(restarts=2, constraint_margin=1.0)
        with pytest.raises(InfeasibleSearchError, match="no feasible state"):
            find_loophole_state(data, RHO_0, cfg, seed=3)

    def test_failed_restart_is_reported(self, monkeypatch):
        real_minimize = lh.minimize
        calls = []

        def flaky(fun, x0, **kwargs):
            calls.append(len(calls))
            if len(calls) == 2:
                raise ValueError("angles must be finite")
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(lh, "minimize", flaky)
        cfg = OptimizationConfig(restarts=3, max_iterations=10)
        result = find_loophole_state(witness_data(seed=6), RHO_0, cfg, seed=6)
        assert calls == [0, 1, 2]
        assert result.restart_errors == (
            (1, "ValueError('angles must be finite')"),)
        assert "restart_errors" not in json.loads(result_to_json(result))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizationConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizationConfig(gradient_step=0.0)


class TestVerifyLoophole:
    def test_reference_state_checks(self):
        ref = 0.5 * (KNOWN_LOOPHOLE_STATE + KNOWN_LOOPHOLE_STATE.conj().T)
        assert abs(np.trace(KNOWN_LOOPHOLE_STATE).real - 1) <= 1e-3
        assert np.linalg.eigvalsh(ref).min() >= -2e-3
        assert negativity(ref) == pytest.approx(0.104, abs=0.003)

    def test_null_state_negativity_anchor(self):
        assert negativity(RHO_0) == pytest.approx(0.108, abs=0.002)

    def test_full_report_on_search_result(self):
        data = witness_data(seed=4)
        result = find_loophole_state(data, RHO_0, OptimizationConfig(restarts=6),
                                     seed=4, rho_reference=RHO_A)
        report = verify_loophole(result, RHO_A, RHO_0, data)
        assert report.ordering_ok
        assert report.likelihood_ok
        assert report.state_ok
        assert report.reference_state_ok
        assert report.passed
        assert report.negativity_null > report.negativity_result


def test_result_json_round_trip():
    data = witness_data(seed=5)
    result = find_loophole_state(data, RHO_0, OptimizationConfig(restarts=4),
                                 seed=5, rho_reference=RHO_A)
    payload = json.loads(result_to_json(result))
    assert payload["constraint_satisfied"] is True
    state = np.asarray(payload["state"]["re"]) + 1j * np.asarray(payload["state"]["im"])
    assert np.abs(state - result.state).max() < 1e-12
    assert payload["negativity"] == pytest.approx(result.negativity)


# --- reference for the batched Jacobians: the search's gradients as they were
# computed one probe at a time, kept as the oracle the batch must reproduce

def _central_grad(fun, x: np.ndarray, h: float) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return grad


def _oracle(counts, setup, neg_cap, seen):
    """Scalar objective and constraint; the objective records each x it is
    offered, as the incumbent saw them."""

    def nll_of(x):
        rho = cholesky_to_state(CholeskyAngles.from_vector(x))
        probs = setup.probabilities(rho)
        active = counts > 0
        if np.any(probs[active] <= 0.0):
            return math.inf
        return float(-np.sum(counts[active] * np.log(probs[active])))

    def neg_of(x):
        rho = cholesky_to_state(CholeskyAngles.from_vector(x))
        ev = np.linalg.eigvalsh(partial_transpose(rho))
        return float(-ev[ev < 0].sum())

    def objective(x):
        fx = nll_of(x)
        seen.append((x.copy(), fx, neg_of(x)))
        return fx if np.isfinite(fx) else 1e300

    def constraint(x):
        return neg_cap - neg_of(x)

    return objective, constraint


def _jacobian_cases():
    rng = np.random.default_rng(31)
    bench = witness_data(seed=31000)  # the loophole benchmark's first data set
    sparse = simulate_measurements(RHO_A, W1_OBSERVABLES, 3, seed=7)
    tomo = simulate_measurements(RHO_A, TOMOGRAPHY_OBSERVABLES, 4, seed=8)
    for data, obs in ((bench, W1_OBSERVABLES), (sparse, W1_OBSERVABLES),
                      (tomo, TOMOGRAPHY_OBSERVABLES)):
        points = [rng.uniform(0.0, np.pi, 15) for _ in range(8)]
        points += [rng.uniform(-4.0, 4.0, 15), np.zeros(15)]
        for x in points:
            yield data, obs, x


class TestBatchedJacobians:
    @pytest.mark.parametrize("h", [1e-6, 1e-3])
    def test_bit_identical_to_probe_by_probe(self, h):
        neg_cap = negativity(RHO_0) - 1e-4
        for data, obs, x in _jacobian_cases():
            counts = data.flat.astype(float)
            setup = MeasurementSetup(obs)
            seen = []
            objective, constraint = _oracle(counts, setup, neg_cap, seen)
            search = lh._Search(counts, setup, neg_cap, h)
            offered = []
            consider = search.consider
            search.consider = lambda x, fx, neg: (
                offered.append((x.copy(), fx, neg)), consider(x, fx, neg))

            assert np.array_equal(search.objective_jac(x),
                                  _central_grad(objective, x, h))
            assert np.array_equal(search.constraint_jac(x),
                                  _central_grad(constraint, x, h))
            assert search.objective(x) == objective(x)
            assert search.constraint(x) == constraint(x)
            assert len(offered) == len(seen) == 31
            for (xb, fb, nb), (xo, fo, no) in zip(offered, seen):
                assert np.array_equal(xb, xo)
                assert fb == fo and nb == no

    def test_zero_probability_probes_are_never_incumbent(self):
        # at all-zero angles every probe but the two along the first theta
        # is exactly |00><00|, which gives a counted ZZ outcome zero
        # probability: an infinite NLL, never the incumbent
        data = DataVector(np.array([[3, 5, 0, 0]], dtype=np.int64), 8)
        setup = MeasurementSetup((("Z", "Z"),))
        search = lh._Search(data.flat.astype(float), setup, 1.0, 1e-6)
        grad = search.objective_jac(np.zeros(15))
        assert np.isfinite(search.best[0])
        assert not np.array_equal(search.best[2], np.zeros(15))
        assert np.all(grad[1:] == 0.0)

    def test_stack_nll_equals_loop(self):
        rng = np.random.default_rng(5)
        data = simulate_measurements(RHO_A, TOMOGRAPHY_OBSERVABLES, 2, seed=9)
        angles = rng.uniform(0.0, np.pi, (3, 7, 15))
        stack = neg_log_likelihood(angles, data, TOMOGRAPHY_OBSERVABLES)
        assert stack.shape == (3, 7)
        loop = [[neg_log_likelihood(CholeskyAngles.from_vector(a), data,
                                    TOMOGRAPHY_OBSERVABLES) for a in row]
                for row in angles]
        assert np.array_equal(stack, loop)

import json
import math

import numpy as np
import pytest

import spinwitness.loophole as lh
from spinwitness.cli import cmd_loophole
from spinwitness.loophole import (KNOWN_LOOPHOLE_STATE, InfeasibleSearchError,
                                  OptimizationConfig, find_loophole_state,
                                  state_neg_log_likelihood,
                                  verify_loophole)
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import (MeasurementSetup,
                                check_density_matrix, cholesky_to_state,
                                fidelity, negativity, partial_transpose)
from spinwitness.stats import _count_rows, simulate_measurements
from spinwitness.tomography import TOMOGRAPHY_OBSERVABLES, mle_reconstruct
from spinwitness.witnesses import W1_OBSERVABLES, optimal_fall_time, w1

P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)
TAU = optimal_fall_time(P350).tau
RHO_A = spin_state(P350.with_hypothesis(True), TAU)
RHO_0 = spin_state(P350.with_hypothesis(False), TAU)

#: 9 thetas then 6 phis of the maximally mixed state
MIXED_ANGLES = np.array([np.pi / 3, np.arccos(1 / np.sqrt(3)), np.pi / 4,
                         *np.zeros(12)])


def witness_data(seed: int, shots: int = 1000) -> np.ndarray:
    return simulate_measurements(RHO_A, W1_OBSERVABLES, shots, seed)


class TestNegLogLikelihood:
    def test_uniform_data_on_maximally_mixed(self):
        data = np.full(12, 25, dtype=np.int64)
        value = state_neg_log_likelihood(cholesky_to_state(MIXED_ANGLES), data,
                                         W1_OBSERVABLES)
        assert value == pytest.approx(300 * np.log(4), rel=1e-12)

    def test_uniform_data_minimized_by_maximally_mixed(self, rng):
        # Gibbs: -sum (N/4) log p_j >= -sum (N/4) log(1/4) per block, with
        # equality only at the uniform distribution
        data = np.full(12, 25, dtype=np.int64)
        best = state_neg_log_likelihood(cholesky_to_state(MIXED_ANGLES), data,
                                        W1_OBSERVABLES)
        for _ in range(1000):
            angles = np.concatenate([rng.uniform(0, np.pi, 9),
                                     rng.uniform(0, 2 * np.pi, 6)])
            rho = cholesky_to_state(angles)
            assert state_neg_log_likelihood(rho, data, W1_OBSERVABLES) >= best - 1e-9

    def test_impossible_outcome_gives_infinity(self):
        # |00><00| assigns zero probability to the ZZ outcome |01>
        data = np.array([0, 5, 0, 0], dtype=np.int64)
        rho = cholesky_to_state(np.zeros(15))
        assert state_neg_log_likelihood(rho, data, (("Z", "Z"),)) == np.inf

    def test_count_width_mismatch_names_both_widths(self):
        # 12 witness counts against the 36 outcomes of 9 tomography observables
        data = witness_data(seed=0, shots=10)
        with pytest.raises(ValueError, match=r"shape \(trials, 36\), got \(1, 12\)"):
            state_neg_log_likelihood(RHO_A, data, TOMOGRAPHY_OBSERVABLES)

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
        result = find_loophole_state(data, RHO_0, cfg, seed=0)
        assert result.constraint_satisfied
        check_density_matrix(result.state)
        assert result.negativity <= negativity(RHO_0) - cfg.constraint_margin + 1e-9
        assert result.negativity == pytest.approx(negativity(result.state),
                                                  abs=1e-9)
        assert result.nll <= state_neg_log_likelihood(RHO_A, data, W1_OBSERVABLES)
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
        mle = mle_reconstruct(data[None], setup)[0]
        assert fidelity(result.state, mle) >= 0.999

    def test_unconstrained_fit_at_least_as_likely_as_fixed_point(self):
        # on witness-only data the maximum-likelihood set is a manifold; the
        # search result must fit at least as well as the fixed-point iterate
        data = witness_data(seed=2)
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        cfg = OptimizationConfig(restarts=4, constraint_margin=0.0)
        result = find_loophole_state(data, bell, cfg, seed=2)

        mle = mle_reconstruct(data[None], MeasurementSetup(W1_OBSERVABLES))[0]
        nll_mle = state_neg_log_likelihood(mle, data, W1_OBSERVABLES)
        assert result.nll <= nll_mle + 1e-6

    def test_non_integer_seed_raises(self):
        # the random starts would run int(seed)'s: 2.7 as 2, True as 1
        data = witness_data(seed=3)
        for bad in (2.7, True, -1, 1.0):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                find_loophole_state(data, RHO_0, OptimizationConfig(restarts=2),
                                    seed=bad)

    def test_infeasible_constraint_raises(self):
        data = witness_data(seed=3)
        cfg = OptimizationConfig(restarts=2, constraint_margin=1.0)
        with pytest.raises(InfeasibleSearchError, match="no feasible state"):
            find_loophole_state(data, RHO_0, cfg, seed=3)

    @pytest.mark.parametrize("rho_null, margin", [
        (RHO_0, 1.0), (spin_state(P350.with_hypothesis(False), 0.0), 1e-4)],
        ids=["margin-above-null", "separable-null"])
    def test_cap_below_zero_raises_before_any_search(self, monkeypatch, rho_null, margin):
        # no state has a negative negativity, so no restart could succeed
        def no_search(*args, **kwargs):
            raise AssertionError("searched under a cap that no state meets")

        monkeypatch.setattr(lh, "minimize", no_search)
        monkeypatch.setattr(lh, "mle_reconstruct", no_search)
        cfg = OptimizationConfig(constraint_margin=margin)
        with pytest.raises(InfeasibleSearchError, match="no feasible state exists"):
            find_loophole_state(witness_data(seed=3), rho_null, cfg, seed=3)

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
        assert [r.error for r in result.restarts] == [
            None, "ValueError('angles must be finite')", None]

    def test_one_record_per_restart(self):
        data = witness_data(seed=7)
        cfg = OptimizationConfig(restarts=3, max_iterations=20)
        result = find_loophole_state(data, RHO_0, cfg, seed=7)
        assert [r.start for r in result.restarts] == ["mle", "random", "random"]
        for record in result.restarts:
            assert record.status in (0, 9)  # converged, or stopped at the cap
            assert 1 <= record.nit <= 20 and record.nfev >= record.nit
            assert math.isfinite(record.fun) and record.error is None

    def test_failed_restart_has_an_empty_record(self, monkeypatch):
        real_minimize = lh.minimize
        calls = []

        def flaky(fun, x0, **kwargs):
            calls.append(len(calls))
            if len(calls) == 2:
                raise ZeroDivisionError("probability 0")
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(lh, "minimize", flaky)
        cfg = OptimizationConfig(restarts=2, max_iterations=5)
        result = find_loophole_state(witness_data(seed=6), RHO_0, cfg, seed=6)
        assert result.restarts[0].status is not None
        assert result.restarts[1] == lh.RestartRecord(
            "random", None, None, None, None, "ZeroDivisionError('probability 0')")

    def test_config_validation(self):
        for bad in ({"restarts": 0}, {"gradient_step": 0.0}, {"restarts": 1.5},
                    {"max_iterations": 10.0}, {"gradient_step": math.nan},
                    {"gradient_step": math.inf}, {"constraint_margin": math.nan},
                    {"constraint_margin": math.inf}, {"restarts": True},
                    {"max_iterations": True}):
            with pytest.raises(ValueError):
                OptimizationConfig(**bad)


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
                                     seed=4)
        report = verify_loophole(result, RHO_A, RHO_0, data)
        assert report.ordering_ok
        assert report.likelihood_ok
        assert report.state_ok
        assert report.reference_state_ok
        assert report.passed
        assert report.negativity_null > report.negativity_result


def test_result_json_round_trip(tmp_path):
    cmd_loophole(P350, {"tau": TAU, "shots_per_observable": 1000,
                        "max_iterations": 150, "gradient_step": 1e-6,
                        "constraint_margin": 1e-4, "restarts": 4},
                 tmp_path, seed=5)
    payload = json.loads((tmp_path / "loophole.json").read_text())
    result = find_loophole_state(witness_data(seed=5), RHO_0,
                                 OptimizationConfig(restarts=4), seed=5)
    assert payload["constraint_satisfied"] is True
    state = np.asarray(payload["state"]["re"]) + 1j * np.asarray(payload["state"]["im"])
    assert np.abs(state - result.state).max() < 1e-12
    assert payload["negativity"] == pytest.approx(result.negativity)


# --- reference for the exact Jacobians: central differences of the search's
# objective and constraint, computed one probe at a time

def _central_grad(fun, x: np.ndarray, h: float) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2 * h)
    return grad


def _oracle(counts, setup, neg_cap):
    """Scalar objective and constraint, evaluated one state at a time."""

    def nll_of(x):
        rho = cholesky_to_state(x)
        probs = setup.probabilities(rho)
        active = counts > 0
        if np.any(probs[active] <= 0.0):
            return math.inf
        return float(-np.sum(counts[active] * np.log(probs[active])))

    def neg_of(x):
        rho = cholesky_to_state(x)
        ev = np.linalg.eigvalsh(partial_transpose(rho))
        return float(-ev[ev < 0].sum())

    def objective(x):
        fx = nll_of(x)
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


class TestAnalyticJacobians:
    def test_match_central_differences(self):
        h = 1e-6
        neg_cap = negativity(RHO_0) - 1e-4
        finite = 0
        for data, obs, x in _jacobian_cases():
            counts = data.astype(float)
            setup = MeasurementSetup(obs)
            objective, constraint = _oracle(counts, setup, neg_cap)
            search = lh._Search(counts, setup, neg_cap, h)
            assert search.objective(x) == objective(x)
            assert search.constraint(x) == constraint(x)
            cases = [(search.constraint_jac(x), _central_grad(constraint, x, h))]
            if np.isfinite(state_neg_log_likelihood(cholesky_to_state(x), data, obs)):
                finite += 1
                cases.append((search.objective_jac(x), _central_grad(objective, x, h)))
            for exact, central in cases:
                scale = np.abs(central).max()
                assert np.abs(exact - central).max() <= 1e-6 * scale
        assert finite == 27  # at the three all-zero points the NLL is infinite

    def test_constraint_gradient_is_zero_at_ppt_state(self):
        data = witness_data(seed=0)
        search = lh._Search(data.astype(float), MeasurementSetup(W1_OBSERVABLES),
                            negativity(RHO_0), 1e-6)
        assert negativity(cholesky_to_state(MIXED_ANGLES)) == 0.0
        assert np.all(search.constraint_jac(MIXED_ANGLES) == 0.0)

    def test_infinite_nll_falls_back_to_central_differences(self):
        # at all-zero angles the state is |00><00|, which gives a counted ZZ
        # outcome zero probability: an infinite NLL, where the Jacobian is
        # the central difference of the capped objective and none of its
        # probes is offered to the incumbent
        counts, setup, x = np.array([3.0, 5.0, 0.0, 0.0]), MeasurementSetup((("Z", "Z"),)), np.zeros(15)
        objective, _ = _oracle(counts, setup, 1.0)
        search = lh._Search(counts, setup, 1.0, 1e-6)
        assert search.objective(x) == 1e300
        assert np.array_equal(search.objective_jac(x), _central_grad(objective, x, 1e-6))
        assert search.best is None  # the finite probes along theta_0 were not offered


@pytest.mark.parametrize("dtype", [np.int64, float], ids=["int64", "whole-float"])
def test_point_record_equals_public_functions(dtype):
    # the search's objective and constraint at a point are the public NLL and
    # negativity of the point's state, exactly, for an int64 row with zero
    # counts and for the same row as whole floats
    neg_cap = negativity(RHO_0) - 1e-4
    with_zeros = 0
    for data, obs, x in _jacobian_cases():
        n = data.astype(dtype)
        with_zeros += not n.all()
        search = lh._Search(_count_rows([n], n.size)[0], MeasurementSetup(obs), neg_cap, 1e-6)
        rho = cholesky_to_state(x)
        nll = state_neg_log_likelihood(rho, n, obs)
        assert search.objective(x) == (nll if math.isfinite(nll) else 1e300)
        assert search.constraint(x) == neg_cap - negativity(rho)
    assert with_zeros == 20  # the 3-shot and the 4-shot rows


class TestBatchedJacobians:
    @pytest.mark.parametrize("h", [1e-6, 1e-3])
    def test_bit_identical_to_probe_by_probe(self, h):
        # where the NLL is infinite the objective Jacobian is the central
        # difference of one stack of 30 probes; it must give the bits of the
        # probes evaluated one at a time, and offer none of them
        neg_cap = negativity(RHO_0) - 1e-4
        infinite = 0
        for data, obs, x in _jacobian_cases():
            counts = data.astype(float)
            setup = MeasurementSetup(obs)
            search = lh._Search(counts, setup, neg_cap, h)
            if np.isfinite(search._at(x)[1]):
                continue
            infinite += 1
            objective, _ = _oracle(counts, setup, neg_cap)
            assert np.array_equal(search.objective_jac(x), _central_grad(objective, x, h))
            assert search.best is None
        assert infinite == 3

    def test_stack_nll_equals_loop(self):
        rng = np.random.default_rng(5)
        data = simulate_measurements(RHO_A, TOMOGRAPHY_OBSERVABLES, 2, seed=9)
        angles = rng.uniform(0.0, np.pi, (3, 7, 15))
        stack = state_neg_log_likelihood(cholesky_to_state(angles), data,
                                         TOMOGRAPHY_OBSERVABLES)
        assert stack.shape == (3, 7)
        loop = [[state_neg_log_likelihood(cholesky_to_state(a), data,
                                          TOMOGRAPHY_OBSERVABLES) for a in row]
                for row in angles]
        assert np.array_equal(stack, loop)

import numpy as np
import pytest

from spinwitness.loophole import state_neg_log_likelihood
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import MeasurementSetup, check_density_matrix, fidelity
from spinwitness.stats import (DataVector, distinction_success_rate,
                               outcome_probabilities, simulate_measurements)
from spinwitness.tomography import (MLEConfig, TOMOGRAPHY_OBSERVABLES,
                                    mle_reconstruct, negativity_exceedance,
                                    r_operator, reconstruction_batch,
                                    tomographic_success_rate, write_batch_csv)
from spinwitness.witnesses import W1_OBSERVABLES, optimal_fall_time, w1
from conftest import random_state

P450 = ScenarioParams(dephasing_gamma=0.03)
P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)
SETUP = MeasurementSetup(TOMOGRAPHY_OBSERVABLES)


def uniform_data(shots_per_obs: int) -> DataVector:
    counts = np.full((9, 4), shots_per_obs // 4, dtype=np.int64)
    return DataVector(counts, shots_per_obs)


class TestSetup:
    def test_nine_observables(self):
        assert len(TOMOGRAPHY_OBSERVABLES) == 9
        assert SETUP.projectors.shape == (36, 4, 4)

    def test_each_block_complete(self):
        for i in range(9):
            block = SETUP.projectors[4 * i:4 * (i + 1)].sum(axis=0)
            assert np.allclose(block, np.eye(4), atol=1e-12)

    def test_informationally_complete(self):
        # 36 projector matrices span the full 16-dim operator space
        flat = SETUP.projectors.reshape(36, 16)
        basis = np.concatenate([flat.real, flat.imag], axis=1)
        assert np.linalg.matrix_rank(basis) == 16


class TestROperator:
    def test_identity_at_exact_frequencies(self):
        # counts exactly proportional to the probabilities of I/4
        r = r_operator(np.eye(4, dtype=complex) / 4, uniform_data(40), SETUP)
        assert np.abs(r - np.eye(4)).max() <= 1e-10

    def test_single_projector_concentration(self):
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[0, 0] = 7
        # bypass the per-block sum check: measure only the first observable
        data = DataVector(counts[:1], 7)
        one_obs = MeasurementSetup(TOMOGRAPHY_OBSERVABLES[:1])
        r = r_operator(np.eye(4, dtype=complex) / 4, data, one_obs)
        proj = SETUP.projectors[0]
        assert np.abs(r / np.trace(r).real - proj / np.trace(proj).real).max() < 1e-12

    def test_matches_direct_summation(self, rng):
        rho = random_state(rng)
        data = simulate_measurements(rho, TOMOGRAPHY_OBSERVABLES, 50, seed=2)
        r = r_operator(rho, data, SETUP)
        direct = np.zeros((4, 4), dtype=complex)
        for i, cnt in enumerate(data.flat):
            proj = SETUP.projectors[i]
            prob = np.trace(rho @ proj).real
            direct += cnt / prob * proj
        direct /= data.flat.sum()
        assert np.abs(r - direct).max() < 1e-12

    def test_zero_probability_with_counts_raises(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|: ZZ outcome 2 has zero probability
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[:, 0] = 5
        counts[8] = [0, 0, 5, 0]  # ZZ block
        with pytest.raises(ZeroDivisionError, match="Z"):
            r_operator(rho, DataVector(counts, 5), SETUP)


class TestMLE:
    def test_uniform_data_fixed_point(self):
        rho = mle_reconstruct(uniform_data(40), SETUP)
        assert np.abs(rho - np.eye(4) / 4).max() <= 1e-12

    def test_likelihood_non_decreasing(self, rng):
        tau = optimal_fall_time(P450, w1()).tau
        truth = spin_state(P450, tau)
        data = simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 30, seed=5)
        iterates = [mle_reconstruct(data, SETUP, MLEConfig(k))
                    for k in range(1, 101)]
        loglik = -np.array([state_neg_log_likelihood(rho, data,
                                                     TOMOGRAPHY_OBSERVABLES)
                            for rho in iterates])
        check_density_matrix(iterates[-1])
        assert loglik.size == 100
        assert np.all(np.diff(loglik) >= -1e-12)

    def test_reconstruction_converges_to_truth(self):
        tau = optimal_fall_time(P450, w1()).tau
        truth = spin_state(P450, tau)
        data = simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 20000, seed=8)
        rho = mle_reconstruct(data, SETUP)
        assert fidelity(rho, truth) > 0.999

    def test_one_row_stack_equals_data_vector_call(self):
        truth = spin_state(P350, optimal_fall_time(P350, w1()).tau)
        for seed in range(5):
            data = simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 10, seed=seed)
            single = mle_reconstruct(data, SETUP)
            stack = mle_reconstruct(data.flat[None], SETUP)
            assert single.shape == (4, 4) and stack.shape == (1, 4, 4)
            assert np.array_equal(stack[0], single)

    def test_stack_rows_match_single_calls(self):
        truth = spin_state(P350, optimal_fall_time(P350, w1()).tau)
        data = [simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 10, seed=s)
                for s in range(40)]
        stack = mle_reconstruct(np.array([d.flat for d in data]), SETUP)
        assert stack.shape == (40, 4, 4)
        for d, rho in zip(data, stack):
            assert np.array_equal(rho, mle_reconstruct(d, SETUP))

    def test_counted_zero_probability_in_one_trial_raises_naming_it(self):
        # ZZ outcome 2 (|10>) can never be seen when every other trial is
        # consistent with |00><00|: after one step the iterate of trial 3 has
        # a counted outcome with zero probability
        counts = np.zeros((5, 9, 4), dtype=np.int64)
        counts[:, :, 0] = 4
        counts[:, 8] = [4, 0, 0, 0]
        counts[3, 8] = [0, 0, 4, 0]
        rho = np.zeros((5, 4, 4), dtype=complex)
        rho[:, 0, 0] = 1.0
        with pytest.raises(ZeroDivisionError, match=r"trial 3: .*'Z', 'Z'.*outcome 2"):
            r_operator(rho, counts.reshape(5, 36), SETUP)

    def test_uncounted_zero_probability_weighs_nothing(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[:, 0] = 5
        r = r_operator(rho, DataVector(counts, 5), SETUP)
        assert np.isfinite(r).all()
        direct = sum(5 / np.trace(rho @ SETUP.projectors[4 * i]).real
                     * SETUP.projectors[4 * i] for i in range(9)) / 45
        assert np.abs(r - direct).max() < 1e-12

    def test_count_width_must_match_setup(self):
        with pytest.raises(ValueError, match="shape"):
            mle_reconstruct(np.ones((3, 12)), SETUP)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            MLEConfig(0)

    def test_fidelity_median_non_decreasing_in_shots(self):
        medians = []
        for shots in (90, 900, 9000):
            _, fids = reconstruction_batch(P450, shots, 200, seed=3,
                                           hypothesis="alt")
            medians.append(np.median(fids))
        assert medians[0] <= medians[1] <= medians[2]

    def test_batch_outputs_valid_states(self):
        negs, fids = reconstruction_batch(P350, 90, 50, seed=1, hypothesis="null")
        assert negs.shape == fids.shape == (50,)
        assert np.all((fids >= 0) & (fids <= 1))
        assert np.all(negs >= 0)


class TestDistinction:
    def test_totals_must_be_multiples_of_nine(self):
        with pytest.raises(ValueError):
            tomographic_success_rate(P450, [100], 0.01, 100, 0,
                                     lambda_trials=1000)
        with pytest.raises(ValueError):
            negativity_exceedance(P450, 100, 100, 0)

    def test_identical_hypotheses_control(self):
        rep = distinction_success_rate(P350, TOMOGRAPHY_OBSERVABLES, [20],
                                       alpha=0.01, trials=1000, seed=3,
                                       lambda_trials=10000, data_from="null")
        assert abs(rep.rates[0] - 0.01) <= 0.01 + 1e-9

    def test_comparable_to_witness_rates_at_matched_totals(self):
        # tomographic and witness-based distinction are similarly efficient
        # in the close-separation regime at matched total shot counts
        p = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.0)
        witness = distinction_success_rate(p, W1_OBSERVABLES, [120], 0.01,
                                           trials=600, seed=4,
                                           lambda_trials=4000)
        tomo = tomographic_success_rate(p, [360], 0.01, trials=600, seed=4,
                                        lambda_trials=4000)
        assert witness.shots_axis == tomo.shots_axis
        assert abs(witness.rates[0] - tomo.rates[0]) <= 0.15

    def test_exceedance_tie_counts_for_the_null(self, monkeypatch):
        # 100 trials: the nearest-rank 99th percentile is the 99th smallest
        # null negativity; alternatives one ulp above it tie, 1e-9 above win
        import spinwitness.tomography as tomo
        neg_0 = np.linspace(0.0, 0.1, 100)
        threshold = neg_0[98]
        neg_a = np.full(100, np.nextafter(threshold, 1.0))
        neg_a[:7] = threshold + 1e-9
        values = iter([neg_a, neg_0])  # alternative first, then the null
        monkeypatch.setattr(tomo, "negativity", lambda rho: next(values))
        assert negativity_exceedance(P350, 9, trials=100, seed=0) == 0.07

    def test_exceedance_smoke(self):
        rate = negativity_exceedance(P450, 900, trials=200, seed=6)
        assert 0.0 <= rate <= 1.0


def test_batch_csv_schema(tmp_path):
    negs, fids = reconstruction_batch(P450, 90, 10, seed=2, hypothesis="alt")
    path = tmp_path / "batch.csv"
    write_batch_csv(path, 90, "alt", negs, fids)
    lines = path.read_text().splitlines()
    assert lines[0] == "shots,hypothesis,trial,negativity,fidelity_to_truth"
    assert len(lines) == 11
    assert lines[1].startswith("90,alt,0,")

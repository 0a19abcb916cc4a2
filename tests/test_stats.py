import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinwitness import loophole, stats, tomography
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import MeasurementSetup, eigenbasis, expectation
from spinwitness.stats import (DataVector, ProbabilityVector, _lambda_batch,
                               differential_success_rate,
                               distinction_success_rate, lambda_min,
                               log_likelihood_ratio, match_alpha,
                               outcome_probabilities, simulate_measurements,
                               success_rate_curve, trial_rng,
                               witness_negative_probability, write_success_csv)
from spinwitness.witnesses import W1_OBSERVABLES, optimal_fall_time, w1, \
    w1_expectation_closed_form
from conftest import random_state

P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)
P450 = ScenarioParams(dephasing_gamma=0.03)

ZZ = (("Z", "Z"),)


def pv_from_rows(observables, rows):
    return ProbabilityVector(observables, np.asarray(rows, dtype=float))


class TestProbabilityVector:
    def test_maximally_mixed(self):
        pv = outcome_probabilities(np.eye(4) / 4, W1_OBSERVABLES)
        assert np.allclose(pv.probs, 0.25, atol=1e-12)

    def test_00_zz_block(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1
        pv = outcome_probabilities(rho, ZZ)
        assert np.allclose(pv.probs, [[1, 0, 0, 0]], atol=1e-12)

    def test_blocks_sum_to_one_and_match_projector_traces(self, rng):
        tau = optimal_fall_time(P450, w1()).tau
        rho = spin_state(P450, tau)
        pv = outcome_probabilities(rho, W1_OBSERVABLES)
        assert np.abs(pv.probs.sum(axis=1) - 1).max() <= 1e-10
        for i, obs in enumerate(W1_OBSERVABLES):
            basis = eigenbasis(obs)
            for j in range(4):
                direct = np.trace(rho @ basis.projectors[j]).real
                assert pv.probs[i, j] == pytest.approx(direct, abs=1e-12)

    def test_equals_per_observable_traces_bit_for_bit(self, rng):
        obs = W1_OBSERVABLES + (("Z", "Z"), ("Y", "X"))
        for _ in range(20):
            rho = random_state(rng)
            rows = [MeasurementSetup((o,)).probabilities(rho) for o in obs]
            assert np.array_equal(outcome_probabilities(rho, obs).probs, rows)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            pv_from_rows(ZZ, [[0.5, 0.2, 0.2, 0.2]])
        with pytest.raises(ValueError):
            pv_from_rows(ZZ, [[1.1, -0.1, 0.0, 0.0]])


def reference_rng(seed, tags, t):
    """The documented definition of a trial's generator."""
    seq = np.random.SeedSequence([int(seed), *map(int, tags)])
    return np.random.Generator(np.random.PCG64(seq).jumped(t))


# every tag in use, with the shot count N where the stream is per N
STREAM_TAGS = [(stats._TAG_SIMULATE,), (stats._TAG_NULL, 100), (stats._TAG_ALT, 33),
               (stats._TAG_WITNEG, 1000), (tomography._TAG_TOMO_ALT, 1),
               (tomography._TAG_TOMO_NULL, 1000), (tomography._TAG_FID, 10),
               (tomography._TAG_FID + 1, 10), (loophole._TAG_RESTART,)]
RNG_POINTS = [(seed, tags, t) for seed, t in ((0, 0), (3, 1), (95003, 2**40 + 3))
              for tags in STREAM_TAGS] + [
    (np.int64(7), (np.int32(stats._TAG_NULL), np.int64(333)), np.int64(12)),
    (np.uint32(2), (stats._TAG_ALT, 2000), np.uint64(123456)),
    (2**40, (loophole._TAG_RESTART,), 31),
]


class TestTrialRng:
    @pytest.mark.parametrize("seed, tags, t", RNG_POINTS)
    def test_equals_documented_definition(self, seed, tags, t):
        fast, ref = trial_rng(seed, tags, t), reference_rng(seed, tags, t)
        assert fast.bit_generator.state == ref.bit_generator.state
        block = [0.1, 0.2, 0.3, 0.4]
        assert np.array_equal(fast.multinomial(1000, block), ref.multinomial(1000, block))
        assert np.array_equal(fast.standard_normal(5), ref.standard_normal(5))
        assert fast.bit_generator.state == ref.bit_generator.state

    def test_generators_of_one_stream_are_independent(self):
        a, b = trial_rng(5, (stats._TAG_NULL, 10), 4), trial_rng(5, (stats._TAG_NULL, 10), 4)
        assert a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.standard_normal(100)
        assert b.bit_generator.state == before
        assert np.array_equal(b.standard_normal(3),
                              reference_rng(5, (stats._TAG_NULL, 10), 4).standard_normal(3))

    def test_stream_words_refuse_other_requests(self):
        words = stats._stream_words((1, stats._TAG_ALT, 10))
        assert words.generate_state(4, np.uint64).dtype == np.uint64
        with pytest.raises(RuntimeError):
            words.generate_state(8, np.uint64)
        with pytest.raises(RuntimeError):
            words.generate_state(4, np.uint32)
        with pytest.raises(RuntimeError):
            words.generate_state(4)


class TestSimulateMeasurements:
    def test_block_sums(self, rng):
        data = simulate_measurements(random_state(rng), W1_OBSERVABLES, 57, seed=4)
        assert np.all(data.counts.sum(axis=1) == 57)
        assert data.total == 3 * 57

    def test_deterministic_in_seed(self, rng):
        rho = random_state(rng)
        a = simulate_measurements(rho, W1_OBSERVABLES, 100, seed=11)
        b = simulate_measurements(rho, W1_OBSERVABLES, 100, seed=11)
        c = simulate_measurements(rho, W1_OBSERVABLES, 100, seed=12)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_law_of_large_numbers(self):
        data = simulate_measurements(np.eye(4) / 4, W1_OBSERVABLES, 100000, seed=3)
        freqs = data.counts / 100000
        assert np.abs(freqs - 0.25).max() <= 0.01

    def test_data_vector_validation(self):
        with pytest.raises(ValueError):
            DataVector(np.array([[1, 2, 3, 5]]), 10)
        with pytest.raises(ValueError):
            DataVector(np.array([[-1, 2, 3, 6]]), 10)


class TestLogLikelihoodRatio:
    def test_equal_hypotheses_give_zero(self, rng):
        rho = random_state(rng)
        pv = outcome_probabilities(rho, W1_OBSERVABLES)
        data = simulate_measurements(rho, W1_OBSERVABLES, 50, seed=0)
        assert log_likelihood_ratio(data, pv, pv) == 0.0

    def test_single_shot_against_product_oracle(self):
        pa = pv_from_rows(ZZ, [[0.1, 0.2, 0.3, 0.4]])
        p0 = pv_from_rows(ZZ, [[0.4, 0.3, 0.2, 0.1]])
        for k in range(4):
            counts = np.zeros((1, 4), dtype=int)
            counts[0, k] = 1
            lam = log_likelihood_ratio(DataVector(counts, 1), pa, p0)
            # direct -2 log of the likelihood quotient Lambda = prod p^n
            direct = -2 * math.log(p0.probs[0, k] / pa.probs[0, k])
            assert lam == pytest.approx(direct, abs=1e-12)
            assert lam == pytest.approx(2 * (math.log(pa.probs[0, k])
                                             - math.log(p0.probs[0, k])), abs=1e-12)

    def test_scalar_product_equals_product_form(self, rng):
        # small-N check of the vectorized identity
        pa = pv_from_rows(ZZ, [[0.1, 0.2, 0.3, 0.4]])
        p0 = pv_from_rows(ZZ, [[0.25, 0.25, 0.25, 0.25]])
        for _ in range(20):
            counts = rng.multinomial(6, pa.probs[0]).reshape(1, 4)
            data = DataVector(counts, 6)
            product = np.prod(p0.probs[0] ** counts[0]) / \
                np.prod(pa.probs[0] ** counts[0])
            assert log_likelihood_ratio(data, pa, p0) == pytest.approx(
                -2 * math.log(product), abs=1e-9)

    def test_alternative_data_is_positive_with_high_frequency(self, rng):
        tau = optimal_fall_time(P450, w1()).tau
        p_a = outcome_probabilities(spin_state(P450.with_hypothesis(True), tau),
                                    W1_OBSERVABLES)
        p_0 = outcome_probabilities(spin_state(P450.with_hypothesis(False), tau),
                                    W1_OBSERVABLES)
        positive = 0
        for t in range(200):
            data = simulate_measurements(
                spin_state(P450.with_hypothesis(True), tau), W1_OBSERVABLES,
                1000, seed=t)
            positive += log_likelihood_ratio(data, p_a, p_0) > 0
        assert positive >= 198

    def test_infinite_evidence_signaling(self):
        pa = pv_from_rows(ZZ, [[0.25, 0.25, 0.25, 0.25]])
        p0 = pv_from_rows(ZZ, [[1.0, 0.0, 0.0, 0.0]])
        counts = np.array([[0, 1, 0, 0]])
        data = DataVector(counts, 1)
        assert log_likelihood_ratio(data, pa, p0) == math.inf
        assert log_likelihood_ratio(data, p0, pa) == -math.inf
        with pytest.raises(ValueError):
            log_likelihood_ratio(data, p0, p0)
        # outcome 1 rules out the first hypothesis, outcome 3 the second
        rules_out_both = DataVector(np.array([[0, 1, 0, 1]]), 2)
        pb = pv_from_rows(ZZ, [[0.0, 0.0, 0.0, 1.0]])
        pc = pv_from_rows(ZZ, [[0.0, 1.0, 0.0, 0.0]])
        for a, b in ((pb, pc), (pc, pb)):
            with pytest.raises(ValueError):
                log_likelihood_ratio(rules_out_both, a, b)

    def test_equals_batch_row_including_infinite_evidence(self, rng):
        # one function: the scalar is the batch on one row; rows of a larger
        # batch may differ in the last bit (the matrix-vector product)
        pa = pv_from_rows(ZZ, [[0.25, 0.25, 0.5, 0.0]])
        p0 = pv_from_rows(ZZ, [[0.5, 0.0, 0.25, 0.25]])
        tau = optimal_fall_time(P450, w1()).tau
        p_a = outcome_probabilities(spin_state(P450.with_hypothesis(True), tau),
                                    W1_OBSERVABLES)
        p_0 = outcome_probabilities(spin_state(P450.with_hypothesis(False), tau),
                                    W1_OBSERVABLES)
        draws = np.array([rng.multinomial(40, block) for _ in range(30)
                          for block in p_a.probs]).reshape(30, 3, 4)
        cases = [(np.array([[[3, 0, 2, 0]], [[1, 4, 0, 0]], [[0, 0, 1, 4]],
                            [[2, 0, 3, 0]]]), pa, p0), (draws, p_a, p_0)]
        for counts, a, b in cases:
            batch = _lambda_batch(counts, a, b)
            for row, lam in zip(counts, batch):
                one = log_likelihood_ratio(DataVector(row, row[0].sum()), a, b)
                assert one == _lambda_batch(row[None], a, b)[0]
                assert one == pytest.approx(lam, rel=1e-12, abs=1e-12)
        assert list(_lambda_batch(cases[0][0], pa, p0)[1:3]) == [math.inf, -math.inf]


@st.composite
def llr_cases(draw):
    """Counts of N shots on 1-3 observables and two probability vectors whose
    outcomes may be impossible (probability 0) under either hypothesis."""
    observables = W1_OBSERVABLES[:draw(st.integers(1, 3))]
    N = draw(st.integers(1, 30))
    counts = [np.diff([0, *sorted(draw(st.lists(st.integers(0, N), min_size=3,
                                                 max_size=3))), N])
              for _ in observables]

    def pv():
        rows = [draw(st.lists(st.integers(0, 5), min_size=4, max_size=4)
                     .filter(any)) for _ in observables]
        return pv_from_rows(observables, [np.divide(r, sum(r)) for r in rows])

    return DataVector(np.array(counts), N), pv(), pv()


class TestLambdaProperties:
    @given(llr_cases())
    def test_swapping_hypotheses_negates_lambda(self, case):
        # exactly, with +inf and -inf swapping; data impossible under both
        # hypotheses raise either way round
        n, p_a, p_0 = case
        try:
            lam = log_likelihood_ratio(n, p_a, p_0)
        except ValueError:
            with pytest.raises(ValueError):
                log_likelihood_ratio(n, p_0, p_a)
            return
        assert log_likelihood_ratio(n, p_0, p_a) == -lam


class TestLambdaMin:
    def test_exact_enumeration_single_shot(self):
        # l=1, N=1: the lambda distribution has four atoms; its 99th
        # percentile is the largest atom whenever that atom's probability
        # exceeds 1%
        p0 = pv_from_rows(ZZ, [[0.4, 0.3, 0.2, 0.1]])
        pa = pv_from_rows(ZZ, [[0.1, 0.2, 0.3, 0.4]])
        lams = 2 * (np.log(pa.probs[0]) - np.log(p0.probs[0]))
        exact = lams.max()  # atoms sorted by lambda have null CDF .4,.7,.9,1.
        mc = lambda_min(p0, pa, N=1, alpha=0.01, trials=100000, seed=5)
        assert mc == pytest.approx(exact, abs=1e-9)

    def test_alpha_near_one_gives_minimum(self):
        p0 = pv_from_rows(ZZ, [[0.4, 0.3, 0.2, 0.1]])
        pa = pv_from_rows(ZZ, [[0.1, 0.2, 0.3, 0.4]])
        lams = 2 * (np.log(pa.probs[0]) - np.log(p0.probs[0]))
        mc = lambda_min(p0, pa, N=1, alpha=1 - 1e-9, trials=10000, seed=5)
        assert mc == pytest.approx(lams.min(), abs=1e-9)

    def test_non_increasing_in_alpha(self):
        p0 = pv_from_rows(ZZ, [[0.4, 0.3, 0.2, 0.1]])
        pa = pv_from_rows(ZZ, [[0.1, 0.2, 0.3, 0.4]])
        values = [lambda_min(p0, pa, N=20, alpha=a, trials=2000, seed=1)
                  for a in (0.01, 0.05, 0.2, 0.5)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("N", [8, 10, 20])
    def test_nan_percentile_raises_uncached(self, N, monkeypatch):
        # most null datasets hit an outcome impossible under the alternative:
        # the 99th percentile interpolates between -inf values and is NaN,
        # against which no lambda (here every one is 2 N ln 2) would succeed
        monkeypatch.setattr(stats, "_lambda_min_cache", {})
        p0 = pv_from_rows((("X", "X"),), [[0.25] * 4])
        pa = pv_from_rows((("X", "X"),), [[0.5, 0.5, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match=f"N={N} is NaN"):
            lambda_min(p0, pa, N=N, alpha=0.01, trials=1000, seed=0)
        with pytest.raises(RuntimeError):
            success_rate_curve(pa, pa, p0, [N], 0.01, 100, 0, lambda_trials=1000)
        assert stats._lambda_min_cache == {}

    def test_requires_enough_trials(self):
        p0 = pv_from_rows(ZZ, [[0.25] * 4])
        with pytest.raises(ValueError):
            lambda_min(p0, p0, N=1, alpha=0.01, trials=50, seed=0)
        with pytest.raises(ValueError):
            lambda_min(p0, p0, N=1, alpha=1.5, trials=200, seed=0)


class TestLambdaMinCache:
    P0 = pv_from_rows(ZZ, [[0.4, 0.3, 0.2, 0.1]])
    PA = pv_from_rows(ZZ, [[0.1, 0.2, 0.3, 0.4]])

    def test_bounded_with_oldest_evicted_first(self, monkeypatch):
        monkeypatch.setattr(stats, "_lambda_min_cache", {})
        alphas = [0.01 + 1e-4 * k for k in range(stats._CACHE_SIZE + 10)]
        for a in alphas:
            lambda_min(self.P0, self.PA, N=1, alpha=a, trials=100, seed=2)
            assert len(stats._lambda_min_cache) <= stats._CACHE_SIZE
        kept = [key[3] for key in stats._lambda_min_cache]
        assert kept == alphas[-stats._CACHE_SIZE:]

    def test_repeated_key_returns_identical_float(self, monkeypatch):
        monkeypatch.setattr(stats, "_lambda_min_cache", {})
        first = lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200, seed=4)
        assert lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200, seed=4) is first

    def test_control_run_reuses_thresholds(self, monkeypatch):
        monkeypatch.setattr(stats, "_lambda_min_cache", {})
        kwargs = dict(alpha=0.01, trials=150, seed=8, lambda_trials=1000)
        distinction_success_rate(P350, W1_OBSERVABLES, [10, 30], **kwargs)
        calls = []
        monkeypatch.setattr(stats, "trial_rng",
                            lambda *args: calls.append(args) or trial_rng(*args))
        distinction_success_rate(P350, W1_OBSERVABLES, [10, 30], data_from="null",
                                 **kwargs)
        assert len(calls) == 2 * 150  # the data draws only, no threshold draws


class TestSuccessRates:
    def test_false_positive_control_sits_at_alpha(self):
        rep = distinction_success_rate(P350, W1_OBSERVABLES, [100], alpha=0.01,
                                       trials=1000, seed=3,
                                       lambda_trials=10000, data_from="null")
        tol = 3 * math.sqrt(0.01 * 0.99 / 1000)
        assert abs(rep.rates[0] - 0.01) <= tol + 1e-9

    def test_original_separation_is_easy(self):
        rep = distinction_success_rate(P450, W1_OBSERVABLES, [100], alpha=0.01,
                                       trials=400, seed=5, lambda_trials=2000)
        assert rep.rates[0] >= 0.95
        assert rep.shots_axis == (300,)

    def test_reports_are_bit_reproducible(self):
        kwargs = dict(alpha=0.01, trials=300, seed=9, lambda_trials=1000)
        a = distinction_success_rate(P350, W1_OBSERVABLES, [30, 100], **kwargs)
        b = distinction_success_rate(P350, W1_OBSERVABLES, [30, 100], **kwargs)
        assert a == b

    def test_csv_schema(self, tmp_path):
        rep = distinction_success_rate(P450, W1_OBSERVABLES, [30], alpha=0.01,
                                       trials=200, seed=5, lambda_trials=1000)
        path = tmp_path / "rates.csv"
        write_success_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "total_measurements,rate,lambda_min,trials,gamma,d_m"
        assert lines[1].startswith("90,")

    def test_data_from_validation(self):
        with pytest.raises(ValueError):
            distinction_success_rate(P450, W1_OBSERVABLES, [10], 0.01, 200, 0,
                                     lambda_trials=1000, data_from="both")


class TestWitnessNegativeProbability:
    def test_symmetric_at_tau_zero(self):
        # at tau = 0 the true witness expectation is exactly zero and the
        # plug-in estimate is symmetric, so P(negative) -> 1/2
        rep = witness_negative_probability(P450, [10000], trials=2000, seed=7,
                                           tau=0.0)
        assert rep.rates[0] == pytest.approx(0.5, abs=0.03)

    def test_consistency_for_negative_expectation(self):
        rep = witness_negative_probability(P450, [100000], trials=200, seed=7)
        assert rep.rates[0] >= 0.99

    def test_anchor_at_hundred_witness_measurements(self):
        rep = witness_negative_probability(P450, [100], trials=2000, seed=7)
        assert rep.rates[0] == pytest.approx(0.70, abs=0.10)


class TestMatchAlpha:
    def test_vanishing_gravity_gives_unity(self):
        p = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3, mass=1e-30)
        assert match_alpha(p, 0.34) == pytest.approx(1.0, abs=1e-6)

    def test_close_setup_anchor(self):
        tau = optimal_fall_time(P350, w1()).tau
        scale = match_alpha(P350, tau)
        assert scale == pytest.approx(1.087, abs=0.003)

    def test_matched_scale_closes_witness_gap(self):
        tau = optimal_fall_time(P350, w1()).tau
        scale = match_alpha(P350, tau)
        alt = w1_expectation_closed_form(P350.with_hypothesis(True), tau)
        null = w1_expectation_closed_form(
            P350.with_hypothesis(False, cp_scale=scale), tau)
        assert abs(alt - null) <= 1e-8

    def test_no_root_reports_bracket(self):
        with pytest.raises(RuntimeError, match="no coupling rescale"):
            match_alpha(P350, 0.34, bracket=(3.0, 4.0))

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            match_alpha(P350, 0.0)


class TestDifferential:
    def test_pauli_discrepancy_survives_matching(self):
        tau = optimal_fall_time(P350, w1()).tau
        scale = match_alpha(P350, tau)
        rho_a = spin_state(P350.with_hypothesis(True), tau)
        rho_0 = spin_state(P350.with_hypothesis(False, cp_scale=scale), tau)
        diffs = [abs(expectation(rho_a, obs) - expectation(rho_0, obs))
                 for obs in W1_OBSERVABLES]
        assert max(diffs) > 1e-3

    def test_rates_grow_with_shots(self):
        rep = differential_success_rate(P350, [100, 2000], alpha=0.01,
                                        trials=400, seed=2, lambda_trials=2000)
        assert rep.rates[1] > rep.rates[0]

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinwitness import qstate, stats, tomography
from spinwitness.loophole import state_neg_log_likelihood
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import MeasurementSetup, check_density_matrix, fidelity, negativity
from spinwitness.stats import (distinction_success_rate, outcome_probabilities,
                               simulate_measurements)
from spinwitness.tomography import (TOMOGRAPHY_OBSERVABLES, mle_reconstruct,
                                    negativity_exceedance, reconstruction_batch)
from spinwitness.witnesses import W1_OBSERVABLES, optimal_fall_time
from conftest import random_state

P450 = ScenarioParams(dephasing_gamma=0.03)
P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)
SETUP = MeasurementSetup(TOMOGRAPHY_OBSERVABLES)


def uniform_data(shots_per_obs: int) -> np.ndarray:
    return np.full(36, shots_per_obs // 4, dtype=np.int64)


def r_stack(rho, counts, setup=SETUP):
    """R of each state in a stack against its row of a (trials, 4 *
    n_observables) count array, as the MLE checks and computes it on the
    real forms of the states, read back as complex 4x4 matrices."""
    counts = stats._count_rows(counts, len(setup.projectors))
    total = counts.sum(axis=1)
    a, b = np.reshape(rho, (-1, 4, 4)).real, np.reshape(rho, (-1, 4, 4)).imag
    trials = len(counts)
    r = tomography._r_stack(np.block([[a, -b], [b, a]]), counts / total[:, None], total, setup,
                            np.concatenate(setup._blocks, axis=1), np.empty((trials, 8, 4)),
                            np.empty((trials, len(setup.projectors))), np.empty((trials, 8, 8)))
    return r[:, :4, :4] + 1j * r[:, 4:, :4]


def complex_rrr(counts, iterations, setup=SETUP):
    """The fixed-point MLE in plain complex 4x4 arithmetic: the Born rule and
    R as sums over the projectors, and R rho R as complex products."""
    counts = np.asarray(counts, dtype=float)
    freq = counts / counts.sum(axis=1)[:, None]
    rho = np.broadcast_to(np.eye(4, dtype=complex) / 4, (len(counts), 4, 4)).copy()
    for _ in range(iterations):
        probs = np.einsum("bij,pji->bp", rho, setup.projectors).real
        R = np.einsum("bp,pij->bij", freq / probs, setup.projectors)
        rho = R @ rho @ R
        rho /= np.einsum("bii->b", rho).real[:, None, None]
        rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho


def fresh_array_mle(counts, iterations, setup=SETUP):
    """The real-form MLE with a fresh array for every operation: the
    arithmetic that the MLE's reused work arrays must keep bit for bit. The
    probabilities are one product with the (32, 4 * n_observables) matrix of
    the setup's blocks, and the weights are freq / max(p, 1e-300)."""
    counts = stats._count_rows(counts, len(setup.projectors))
    freq = counts / counts.sum(axis=1)[:, None]
    columns = np.concatenate(setup._blocks, axis=1)
    rho = np.broadcast_to(np.eye(8) / 4, (len(counts), 8, 8)).copy()
    for _ in range(iterations):
        probs = qstate._matmul_rows(rho[:, :, :4].reshape(len(rho), 32), columns)
        R = setup._real_operator(freq / np.maximum(probs, 1e-300))
        rho = R @ rho @ R
        rho = rho + rho.swapaxes(-1, -2)
        rho *= (2 / np.einsum("bii->b", rho))[:, None, None]
    return rho[:, :4, :4] + 0.5j * (rho[:, 4:, :4] - rho[:, :4, 4:])


def tomography_counts(rho, per_observable, trials, seed, tag):
    """(trials, 36) counts of ``rho`` from the (seed, tag, N) stream, N =
    ``per_observable`` shots per tomography observable."""
    return stats._draw_counts(outcome_probabilities(rho, TOMOGRAPHY_OBSERVABLES), per_observable,
                              seed, (tag, per_observable), trials, lambda counts: counts)


def hypothesis_counts(per_observable, trials, seed=0, tag=99):
    """Tomography counts of the alternative and the null state at 350 um,
    gamma 0.3 and the optimal W1 time, as the exceedance test draws them."""
    tau = optimal_fall_time(P350).tau
    return [tomography_counts(spin_state(P350.with_hypothesis(alt), tau), per_observable,
                              trials, seed, tag)
            for alt in (True, False)]


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
        r = r_stack(np.eye(4, dtype=complex) / 4, uniform_data(40)[None])[0]
        assert np.abs(r - np.eye(4)).max() <= 1e-10

    def test_single_projector_concentration(self):
        # measure only the first observable
        counts = np.array([[7, 0, 0, 0]], dtype=np.int64)
        one_obs = MeasurementSetup(TOMOGRAPHY_OBSERVABLES[:1])
        r = r_stack(np.eye(4, dtype=complex) / 4, counts, one_obs)[0]
        proj = SETUP.projectors[0]
        assert np.abs(r / np.trace(r).real - proj / np.trace(proj).real).max() < 1e-12

    def test_matches_direct_summation(self, rng):
        rho = random_state(rng)
        data = simulate_measurements(rho, TOMOGRAPHY_OBSERVABLES, 50, seed=2)
        r = r_stack(rho, data[None])[0]
        direct = np.zeros((4, 4), dtype=complex)
        for i, cnt in enumerate(data):
            proj = SETUP.projectors[i]
            prob = np.trace(rho @ proj).real
            direct += cnt / prob * proj
        direct /= data.sum()
        assert np.abs(r - direct).max() < 1e-12

    def test_zero_probability_with_counts_raises(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|: ZZ outcome 2 has zero probability
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[:, 0] = 5
        counts[8] = [0, 0, 5, 0]  # ZZ block
        with pytest.raises(ZeroDivisionError, match="Z"):
            r_stack(rho, counts.reshape(1, 36))


@pytest.fixture(scope="module")
def single_rows():
    """500 count rows of 9 to 9,000 shots, and the state of each row's
    one-row call."""
    counts = np.concatenate([c for n in (1, 10, 100, 1000)
                             for c in hypothesis_counts(n, 63, seed=1)])[:500]
    return counts, np.concatenate([mle_reconstruct(c[None], SETUP) for c in counts])


class TestMLE:
    def test_uniform_data_fixed_point(self):
        rho = mle_reconstruct(uniform_data(40)[None], SETUP)[0]
        assert np.abs(rho - np.eye(4) / 4).max() <= 1e-12

    def test_likelihood_non_decreasing(self, rng):
        tau = optimal_fall_time(P450).tau
        truth = spin_state(P450, tau)
        data = simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 30, seed=5)
        iterates = [mle_reconstruct(data[None], SETUP, iterations=k)[0]
                    for k in range(1, 101)]
        loglik = -np.array([state_neg_log_likelihood(rho, data,
                                                     TOMOGRAPHY_OBSERVABLES)
                            for rho in iterates])
        check_density_matrix(iterates[-1])
        assert loglik.size == 100
        assert np.all(np.diff(loglik) >= -1e-12)

    def test_reconstruction_converges_to_truth(self):
        tau = optimal_fall_time(P450).tau
        truth = spin_state(P450, tau)
        data = simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 20000, seed=8)
        rho = mle_reconstruct(data[None], SETUP)[0]
        assert fidelity(rho, truth) > 0.999

    def test_one_count_row_gives_a_one_state_stack(self):
        truth = spin_state(P350, optimal_fall_time(P350).tau)
        for seed in range(5):
            data = simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 10, seed=seed)
            stack = mle_reconstruct(data[None], SETUP)
            assert stack.shape == (1, 4, 4)
            check_density_matrix(stack[0])
        # only a (trials, 36) count array, not a lone row
        with pytest.raises(ValueError, match="shape"):
            mle_reconstruct(data, SETUP)

    def test_stack_rows_match_single_calls(self):
        truth = spin_state(P350, optimal_fall_time(P350).tau)
        data = [simulate_measurements(truth, TOMOGRAPHY_OBSERVABLES, 10, seed=s)
                for s in range(40)]
        stack = mle_reconstruct(np.array(data), SETUP)
        assert stack.shape == (40, 4, 4)
        for d, rho in zip(data, stack):
            assert np.array_equal(rho, mle_reconstruct(d[None], SETUP)[0])

    def test_real_forms_agree_with_complex_arithmetic(self):
        # 9- and 90-shot rows have zero-count cells by chance; in the
        # 9,000-shot rows one cell per row is set to zero
        rows = [c for n in (1, 10, 1000) for c in hypothesis_counts(n, 20)]
        for c in rows[-2:]:
            c[np.arange(20), np.arange(20)] = 0
        counts = np.concatenate(rows)
        assert (counts == 0).any(axis=1).all()
        for iterations in (1, 10, 100):
            rho = mle_reconstruct(counts, SETUP, iterations=iterations)
            assert np.abs(rho - complex_rrr(counts, iterations)).max() <= 1e-13

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 64, 500])
    def test_stack_of_any_size_keeps_single_call_bits(self, size, single_rows):
        counts, singles = single_rows
        stack = mle_reconstruct(counts[:size], SETUP)
        assert stack.tobytes() == singles[:size].tobytes()

    def test_slices_at_any_offset_keep_the_rows_of_the_whole_stack(self):
        # the CLI reconstructs 1,000 trials as blocks of 512 and 488 rows. A
        # row's bits must not depend on where its slice starts or stops: with
        # a transposed view of the probability matrix they do
        counts = np.concatenate([c for n in (1, 10, 100, 1000)
                                 for c in hypothesis_counts(n, 125, seed=2)])
        whole = mle_reconstruct(counts, SETUP)
        rng = np.random.default_rng(11)
        cuts = [(0, 512), (512, 1000)] + [tuple(np.sort(rng.choice(1001, 2, replace=False)))
                                          for _ in range(30)]
        for start, stop in cuts:
            assert mle_reconstruct(counts[start:stop], SETUP).tobytes() \
                == whole[start:stop].tobytes(), (start, stop)

    @pytest.mark.parametrize("iterations", [1, 100])
    def test_work_arrays_keep_the_bits_of_fresh_arrays(self, iterations, single_rows):
        counts, _ = single_rows
        for size in (1, 2, 3, 500):
            assert mle_reconstruct(counts[:size], SETUP, iterations).tobytes() \
                == fresh_array_mle(counts[:size], iterations).tobytes()

    def test_log_likelihood_never_falls_between_iterates(self, monkeypatch):
        # every iterate is recorded as the MLE passes it to _r_stack, plus
        # the returned state: 101 states per trial, 200 trials per cell. The
        # MLE reuses its iterate buffers, so each is recorded as a copy
        counts = np.concatenate([c for n in (1, 10, 100, 1000)
                                 for c in hypothesis_counts(n, 200, seed=3)])
        forms = []
        r_stack_of = tomography._r_stack
        monkeypatch.setattr(tomography, "_r_stack", lambda rho, *args:
                            forms.append(rho.copy()) or r_stack_of(rho, *args))
        last = mle_reconstruct(counts, SETUP)
        assert len(forms) == 100
        assert not np.array_equal(forms[0], forms[-1])
        assert np.array_equal(forms[0], np.broadcast_to(np.eye(8) / 4, forms[0].shape))
        probs = [SETUP.probabilities(f[:, :4, :4] + 1j * f[:, 4:, :4]) for f in forms]
        probs.append(SETUP.probabilities(last))
        loglik = np.array([np.sum(counts * np.log(np.where(counts > 0, p, 1.0)), axis=1)
                           for p in probs])
        # rounding tolerance: 64 ulps of the log-likelihood
        tol = 64 * np.finfo(float).eps * np.abs(loglik[1:])
        assert np.all(np.diff(loglik, axis=0) >= -tol)

    def test_peak_memory_of_a_call_stays_below_five_iterate_stacks(self):
        # the iterates, R and the probabilities live in work arrays allocated
        # once per call: 500 x 36 counts peak at 1.13 MB, under 5 stacks of
        # 500 real 8x8 forms (1.28 MB). Keeping the work arrays through the
        # complex conversion peaks at 1.45 MB, and a third iterate buffer
        # plus a separate coordinate array at 1.83 MB
        counts = np.concatenate(hypothesis_counts(100, 250))
        mle_reconstruct(counts, SETUP)
        tracemalloc.start()
        try:
            mle_reconstruct(counts, SETUP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 500 * 64 * 8

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
            r_stack(rho, counts.reshape(5, 36))

    @pytest.mark.parametrize("dead", [1, 7, 999_979])
    def test_zero_probability_error_names_the_integer_count(self, dead):
        # R is computed from the frequencies n / |n|_1; the message reads the
        # count back from them
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[:, 0] = 999_983
        counts[8] = [999_983 - dead, 0, dead, 0]
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        with pytest.raises(ZeroDivisionError, match=rf"zero probability but {dead} counts$"):
            r_stack(rho, counts.reshape(1, 36))

    def test_uncounted_zero_probability_weighs_nothing(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[:, 0] = 5
        r = r_stack(rho, counts.reshape(1, 36))[0]
        assert np.isfinite(r).all()
        direct = sum(5 / np.trace(rho @ SETUP.projectors[4 * i]).real
                     * SETUP.projectors[4 * i] for i in range(9)) / 45
        assert np.abs(r - direct).max() < 1e-12

    @given(st.integers(1, 8).flatmap(lambda trials: st.tuples(
        hnp.arrays(np.int64, (trials, 36), elements=st.integers(0, 30)),
        st.permutations(range(trials)))))
    def test_reordering_trials_reorders_states_bit_for_bit(self, case):
        counts, order = case
        assume(counts.sum(axis=1).all())  # every trial has shots
        rho = mle_reconstruct(counts, SETUP, iterations=20)
        assert mle_reconstruct(counts[order], SETUP,
                               iterations=20).tobytes() == rho[order].tobytes()

    def test_empty_count_stack_gives_an_empty_stack(self):
        # the rule of negativity and MeasurementSetup.operator
        for iterations in (1, 100):
            rho = mle_reconstruct(np.zeros((0, 36), dtype=np.int64), SETUP, iterations)
            assert rho.shape == (0, 4, 4) and rho.dtype == complex
        with pytest.raises(ValueError, match="shape"):
            mle_reconstruct(np.zeros((0, 12), dtype=np.int64), SETUP)

    def test_count_width_must_match_setup(self):
        with pytest.raises(ValueError, match="shape"):
            mle_reconstruct(np.ones((3, 12)), SETUP)

    def test_iterations_validated(self):
        counts = uniform_data(40)[None]
        for bad in (0, 1.5, 10.0, float("nan"), True):
            with pytest.raises(ValueError, match="iterations must be an integer"):
                mle_reconstruct(counts, SETUP, iterations=bad)

    def test_zero_count_row_names_its_trial(self):
        counts = np.ones((2, 36))
        counts[1] = 0
        with pytest.raises(ValueError, match="trial 1: count row sums to zero"):
            mle_reconstruct(counts, SETUP)

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
            negativity_exceedance(P450, 100, 100, 0)
        with pytest.raises(ValueError):
            reconstruction_batch(P450, 100, 100, 0)

    def test_fractional_total_raises_naming_it(self):
        # 18.7 used to run as 18 total shots, 2 per observable
        with pytest.raises(ValueError, match=r"multiple of 9, got 18\.7"):
            negativity_exceedance(P450, 18.7, 100, 0)

    @pytest.mark.parametrize("total", [18.0, 9.5, np.float64(27), True])
    def test_non_integer_total_raises_naming_it(self, total):
        # a whole float used to pass this check and fail in the sampler,
        # naming a per-observable shot count the caller never passed
        message = re.escape(f"total shots must be a positive multiple of 9, got {total!r}")
        with pytest.raises(ValueError, match=message):
            negativity_exceedance(P450, total, 100, 0)
        with pytest.raises(ValueError, match=message):
            reconstruction_batch(P450, total, 100, 0)

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
        # 360 tomography shots split evenly over the 9 observables
        tomo = distinction_success_rate(p, TOMOGRAPHY_OBSERVABLES, [40], 0.01,
                                        trials=600, seed=4, lambda_trials=4000)
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

    def test_exceedance_follows_the_stream_contract(self):
        # the alternative draws on (seed, 12, N), the null on (seed, 11, N);
        # the threshold is the nearest-rank 99th percentile of the null
        seed, N, trials = 4, 10, 100
        tau = optimal_fall_time(P350).tau
        neg_a, neg_0 = (
            negativity(mle_reconstruct(tomography_counts(
                spin_state(P350.with_hypothesis(alt), tau), N, trials, seed, tag), SETUP))
            for alt, tag in ((True, 12), (False, 11)))
        threshold = np.sort(neg_0)[math.ceil(0.99 * trials) - 1]
        expected = float(np.mean(neg_a - threshold > 1e-12))
        assert negativity_exceedance(P350, 9 * N, trials, seed) == expected

    @pytest.mark.parametrize("hypothesis, alt, tag", [("alt", True, 13), ("null", False, 14)])
    def test_reconstruction_batch_follows_the_stream_contract(self, hypothesis, alt, tag):
        seed, N, trials = 5, 10, 40
        rho = spin_state(P350.with_hypothesis(alt), optimal_fall_time(P350).tau)
        rec = mle_reconstruct(tomography_counts(rho, N, trials, seed, tag), SETUP)
        negs, fids = reconstruction_batch(P350, 9 * N, trials, seed, hypothesis)
        assert negs.tobytes() == negativity(rec).tobytes()
        assert fids.tobytes() == fidelity(rec, rho).tobytes()

    @pytest.mark.parametrize("trials", [511, 512, 513, 1025])
    def test_block_reductions_equal_the_whole_stack(self, trials):
        # each block of 512 trials is reconstructed and reduced on its own;
        # the outputs keep the bits of one MLE over the whole count stack
        seed, N = 6, 2
        tau = optimal_fall_time(P350).tau
        rhos = {alt: spin_state(P350.with_hypothesis(alt), tau) for alt in (True, False)}
        rec = {tag: mle_reconstruct(tomography_counts(rhos[alt], N, trials, seed, tag), SETUP)
               for alt, tag in ((True, 12), (False, 11), (True, 13))}
        threshold = np.percentile(negativity(rec[11]), 99.0, method="inverted_cdf")
        expected = float(np.mean(negativity(rec[12]) - threshold > 1e-12))
        assert negativity_exceedance(P350, 9 * N, trials, seed) == expected
        negs, fids = reconstruction_batch(P350, 9 * N, trials, seed)
        assert negs.tobytes() == negativity(rec[13]).tobytes()
        assert fids.tobytes() == fidelity(rec[13], rhos[True]).tobytes()

    def test_exceedance_smoke(self):
        rate = negativity_exceedance(P450, 900, trials=200, seed=6)
        assert 0.0 <= rate <= 1.0


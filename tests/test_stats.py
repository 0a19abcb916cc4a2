import functools
import math
import pickle
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinwitness import loophole, stats, tomography, witnesses
from spinwitness.model import ScenarioParams, spin_state
from spinwitness.qstate import OUTCOME_SIGNS, MeasurementSetup, eigenbasis, expectation
from spinwitness.loophole import LoopholeResult, OptimizationConfig
from spinwitness.stats import (ProbabilityVector, differential_success_rate,
                               distinction_success_rate, lambda_min,
                               log_likelihood_ratio, match_alpha,
                               outcome_probabilities, simulate_measurements,
                               success_rate_curve, trial_rng,
                               witness_negative_probability)
from spinwitness.witnesses import (W1_OBSERVABLES, OptimalFallTime, optimal_fall_time,
                                   w1_expectation_closed_form)
from conftest import alive_at_each_call, random_state, traced_peak

P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)
P450 = ScenarioParams(dephasing_gamma=0.03)

#: a scenario whose W1 expectation never goes negative: its optimal fall time is 0
NEVER_WITNESSING = {
    "mass": 1.4074608545142161e-11, "separation_d": 0.060480862804786636,
    "half_split_delta": 8.737553380302597e-05, "dephasing_gamma": 0.2766780293687673,
    "sphere_radius_R": 6.371624645952766e-09, "permittivity_eps": 1.0042463606629397,
    "cp_scale": 0.00022951975094356812}

ZZ = (("Z", "Z"),)


def pv_from_blocks(blocks):
    """The probability vector of one block of 4 outcomes per observable."""
    return ProbabilityVector(np.ravel(np.asarray(blocks, dtype=float)))


class TestProbabilityVector:
    def test_maximally_mixed(self):
        pv = outcome_probabilities(np.eye(4) / 4, W1_OBSERVABLES)
        assert np.allclose(pv.probs, 0.25, atol=1e-12)

    def test_00_zz_block(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1
        pv = outcome_probabilities(rho, ZZ)
        assert np.allclose(pv.probs, [1, 0, 0, 0], atol=1e-12)

    def test_blocks_sum_to_one_and_match_projector_traces(self, rng):
        tau = optimal_fall_time(P450).tau
        rho = spin_state(P450, tau)
        pv = outcome_probabilities(rho, W1_OBSERVABLES)
        assert np.abs(pv.probs.reshape(-1, 4).sum(axis=1) - 1).max() <= 1e-10
        for i, obs in enumerate(W1_OBSERVABLES):
            for j, proj in enumerate(eigenbasis(obs)):
                direct = np.trace(rho @ proj).real
                assert pv.probs[4 * i + j] == pytest.approx(direct, abs=1e-12)

    def test_equals_per_observable_traces_bit_for_bit(self, rng):
        obs = W1_OBSERVABLES + (("Z", "Z"), ("Y", "X"))
        for _ in range(20):
            rho = random_state(rng)
            rows = [MeasurementSetup((o,)).probabilities(rho) for o in obs]
            assert np.array_equal(outcome_probabilities(rho, obs).probs,
                                  np.concatenate(rows))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        # NaN fails both the sign and the normalisation comparison
        with pytest.raises(ValueError, match=f"probabilities must be finite, got {bad}"):
            ProbabilityVector([bad, 0.5, 0.25, 0.25])

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            pv_from_blocks([[0.5, 0.2, 0.2, 0.2]])
        with pytest.raises(ValueError):
            pv_from_blocks([[1.1, -0.1, 0.0, 0.0]])

    def test_equal_by_row_bytes(self):
        row = [0.4, 0.3, 0.2, 0.1]
        a, b = ProbabilityVector(row), ProbabilityVector(np.array(row))
        assert a == b and hash(a) == hash(b)
        assert a != ProbabilityVector(row[::-1])
        assert a != ProbabilityVector(row + row)
        with pytest.raises(ValueError):  # the row is read-only: its bytes are the key
            a.probs[0] = 0.5


def _bad_probability_rows() -> dict:
    """Probability rows that ProbabilityVector must reject, by name."""
    rows = {}
    for name, value in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf)):
        rows[name] = np.full(12, 0.25)
        rows[name][3] = value
    rows["negative"] = np.array([0.5 + 1e-9, 0.25, 0.25, -1e-9] * 3)
    rows["sum-above-one"] = np.array([0.25] * 11 + [0.25 + 1e-9])
    rows["width"] = np.full(6, 0.25)
    rows["empty"] = np.empty(0)
    rows["2-d"] = np.full((3, 4), 0.25)
    return rows


BAD_PROBABILITY_ROWS = _bad_probability_rows()


@pytest.mark.parametrize("bad", BAD_PROBABILITY_ROWS.values(), ids=BAD_PROBABILITY_ROWS.keys())
def test_bad_probabilities_raise_at_the_boundary(bad):
    with pytest.raises(ValueError, match="probabilit"):
        ProbabilityVector(bad)


@pytest.mark.parametrize("rho", [np.eye(4) / 2, np.diag([math.nan, 1.0, 0.0, 0.0])],
                         ids=["trace-2", "nan"])
def test_outcome_probabilities_of_a_non_state_raise(rho):
    with pytest.raises(ValueError, match="probabilit"):
        outcome_probabilities(rho, W1_OBSERVABLES)


def reference_rng(seed, tags, t):
    """The documented definition of a trial's generator."""
    seq = np.random.SeedSequence([int(seed), *map(int, tags)])
    return np.random.Generator(np.random.PCG64(seq).jumped(t))


TAG = stats._STREAM_TAGS
# every tag in use, with the shot count N where the stream is per N
STREAM_TAGS = [(TAG["simulate"],), (TAG["null"], 100), (TAG["alt"], 33),
               (TAG["witneg"], 1000), (TAG["tomo_alt"], 1), (TAG["tomo_null"], 1000),
               (TAG["batch_alt"], 10), (TAG["batch_null"], 10), (TAG["restart"],)]
RNG_POINTS = [(seed, tags, t) for seed, t in ((0, 0), (3, 1), (95003, 2**40 + 3))
              for tags in STREAM_TAGS] + [
    (np.int64(7), (np.int32(TAG["null"]), np.int64(333)), np.int64(12)),
    (np.uint32(2), (TAG["alt"], 2000), np.uint64(123456)),
    (2**40, (TAG["restart"],), 31),
]


def test_stream_tags_are_distinct_and_listed_in_the_readme():
    # two roles with one tag would draw the same counts
    assert len(set(TAG.values())) == len(TAG) == len(STREAM_TAGS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Stream tags.*?\n\n", readme, re.S).group(0)
    assert {name: int(tag) for tag, name in re.findall(r"(\d+) `(\w+)`", listed)} == TAG


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
        a, b = trial_rng(5, (TAG["null"], 10), 4), trial_rng(5, (TAG["null"], 10), 4)
        assert a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.standard_normal(100)
        assert b.bit_generator.state == before
        assert np.array_equal(b.standard_normal(3),
                              reference_rng(5, (TAG["null"], 10), 4).standard_normal(3))

    def test_stream_words_refuse_other_requests(self):
        words = stats._stream_words(1, TAG["alt"], 10)
        assert words.generate_state(4, np.uint64).dtype == np.uint64
        with pytest.raises(RuntimeError):
            words.generate_state(8, np.uint64)
        with pytest.raises(RuntimeError):
            words.generate_state(4, np.uint32)
        with pytest.raises(RuntimeError):
            words.generate_state(4)

    @pytest.mark.parametrize("seed, tags, t, error", [
        (2.5, (TAG["null"], 10), 0, ValueError), (True, (TAG["null"], 10), 0, ValueError),
        (-1, (TAG["null"], 10), 0, ValueError), (2, (1.9, 10), 0, ValueError),
        (2, (True, 10), 0, ValueError), (2, (-1, 10), 0, ValueError),
        (2, (TAG["null"], 10.0), 0, ValueError), (2, (TAG["null"], 10), 2.7, TypeError),
        (2, (TAG["null"], 10), -1, ValueError), (2, (TAG["null"], 10), True, ValueError),
    ], ids=["seed2.5", "seedtrue", "seed-1", "tag1.9", "tagtrue", "tag-1", "N10.0",
            "trial2.7", "trial-1", "trialtrue"])
    def test_fractional_bool_or_negative_input_raises(self, seed, tags, t, error):
        # int() used to truncate each: seed 2.5 drew seed 2's stream, tag 1.9
        # tag 1's and trial 2.7 trial 2's
        with pytest.raises(error, match="integer"):
            trial_rng(seed, tags, t)

    def test_bad_input_raises_after_its_integer_twin_is_hashed(self):
        # 2.0 == 2 and True == 1 hash equal: an untyped cache would answer them
        trial_rng(2, (1, 10), 0)
        trial_rng(1, (1, 10), 0)
        for seed, tags in ((2.0, (1, 10)), (True, (1, 10)), (2, (1.0, 10)), (2, (True, 10)),
                           (2, (1, 10.0))):
            with pytest.raises(ValueError, match="seed and stream tags must be integers"):
                trial_rng(seed, tags, 0)
        assert trial_rng(np.int64(2), (np.uint8(1), 10), 0).bit_generator.state == \
            trial_rng(2, (1, 10), 0).bit_generator.state


def identity(counts):
    """The reduction that keeps each block of count rows as drawn."""
    return counts


def reference_counts(pv, N, seed, tags, trials):
    """The documented draws: trial t's generator, then one multinomial of N
    shots per observable over its normalized block, in order."""
    blocks = pv.probs.reshape(-1, 4)
    rows = []
    for t in range(trials):
        rng = reference_rng(seed, tags, t)
        rows.append(np.concatenate([rng.multinomial(N, b / b.sum()) for b in blocks]))
    return np.array(rows)


class TestDrawCounts:
    @pytest.mark.parametrize("trials", [1, 257])
    @pytest.mark.parametrize("N", [1, 10, 3333])
    @pytest.mark.parametrize("observables", [W1_OBSERVABLES, tomography.TOMOGRAPHY_OBSERVABLES],
                             ids=["w1", "tomography"])
    def test_rows_equal_the_per_trial_definition(self, rng, observables, N, trials):
        pv = outcome_probabilities(random_state(rng), observables)
        for seed, tags in ((3, (TAG["null"], N)), (np.uint32(95003), (TAG["tomo_alt"], N))):
            counts = stats._draw_counts(pv, N, seed, tags, trials, identity)
            assert counts.shape == (trials, 4 * len(observables)) and counts.dtype == np.int64
            assert np.array_equal(counts, reference_counts(pv, N, seed, tags, trials))

    def test_calls_trial_rng_once_per_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(stats, "trial_rng",
                            lambda *args: calls.append(args) or trial_rng(*args))
        pv = outcome_probabilities(np.eye(4) / 4, W1_OBSERVABLES)
        stats._draw_counts(pv, 10, 4, (TAG["alt"], 10), 37, identity)
        assert calls == [(4, (TAG["alt"], 10), t) for t in range(37)]

    def test_hashes_each_stream_once(self):
        pv = outcome_probabilities(np.eye(4) / 4, W1_OBSERVABLES)
        stats._stream_words.cache_clear()
        misses = lambda: stats._stream_words.cache_info().misses
        for tags, added in (((TAG["alt"], 9876), 1), ((TAG["alt"], 9876), 0),
                            ((TAG["null"], 9876), 1)):
            before = misses()
            stats._draw_counts(pv, 5, 8, tags, 50, identity)
            assert misses() - before == added


    @pytest.mark.parametrize("trials", [511, 512, 513, 1025])
    def test_blocks_of_512_consecutive_trials_keep_every_count(self, rng, trials):
        pv = outcome_probabilities(random_state(rng), W1_OBSERVABLES)
        tags = (TAG["alt"], 10)
        blocks = []
        counts = stats._draw_counts(pv, 10, 5, tags, trials, lambda b: blocks.append(b) or b)
        assert [len(b) for b in blocks] == \
            [min(witnesses._BLOCK, trials - start) for start in range(0, trials, witnesses._BLOCK)]
        assert all(b.shape[1] == 12 and b.dtype == np.int64 for b in blocks)
        assert np.array_equal(counts, reference_counts(pv, 10, 5, tags, trials))

    def test_drops_each_block_once_reduced_before_drawing_the_next(self, monkeypatch):
        # a loop appending each block's reduction held that block while the
        # next was drawn: no earlier block may be alive at a draw or a reduce
        drawn = alive_at_each_call(monkeypatch, stats, "_count_block")
        reduced, alive = [], []

        def reduce(block):
            alive.append(sum(ref() is not None for ref in reduced))
            reduced.append(weakref.ref(block))
            return block.sum(axis=1)

        pv = outcome_probabilities(np.eye(4) / 4, W1_OBSERVABLES)
        trials = 3 * witnesses._BLOCK + 1
        totals = stats._draw_counts(pv, 10, 3, (TAG["alt"], 10), trials, reduce)
        assert drawn == alive == [0, 0, 0, 0]
        assert totals.tobytes() == np.full(trials, 30).tobytes()

    @pytest.mark.parametrize("N, trials, seed", [(0, 5, 1), (2.5, 5, 1), (True, 5, 1),
                                                 (10, 0, 1), (10, 5.0, 1), (10, 5, -1),
                                                 (10, 5, 1.5), (10, 5, True)])
    def test_bad_size_or_seed_raises_when_called_not_when_drawn(self, monkeypatch, N, trials,
                                                                seed):
        # the raise comes before any block is drawn or reduced
        def no_block(*args):
            raise AssertionError("a count block was drawn or reduced")

        monkeypatch.setattr(stats, "_count_block", no_block)
        pv = outcome_probabilities(np.eye(4) / 4, W1_OBSERVABLES)
        with pytest.raises(ValueError, match="N and trials must be integers|seed must be"):
            stats._draw_counts(pv, N, seed, (TAG["alt"], 10), trials, no_block)


class TestBlockReductions:
    """Every consumer reduces one block of trials at a time and returns the
    bits of the reduction of the whole per-trial count stack: lambda rows,
    thresholds and rates."""

    @pytest.mark.parametrize("trials", [511, 512, 513, 1025])
    def test_equal_the_whole_stack_values(self, trials):
        N, seed = 33, 7
        tau = optimal_fall_time(P350).tau
        p_a, p_0 = (outcome_probabilities(spin_state(P350.with_hypothesis(alt), tau),
                                          W1_OBSERVABLES) for alt in (True, False))

        def whole(pv, role):
            return reference_counts(pv, N, seed, (TAG[role], N), trials)

        lam0 = log_likelihood_ratio(whole(p_0, "null"), p_a, p_0)
        lam = functools.partial(log_likelihood_ratio, p_a=p_a, p_0=p_0)
        assert stats._draw_counts(p_0, N, seed, (TAG["null"], N), trials, lam).tobytes() == \
            lam0.tobytes()
        lmin = float(np.percentile(lam0, 99.0, method="inverted_cdf"))
        stats._lambda_threshold.cache_clear()
        assert lambda_min(p_0, p_a, N, 0.01, trials, seed) == lmin
        lam = log_likelihood_ratio(whole(p_a, "alt"), p_a, p_0)
        report = success_rate_curve(p_a, p_a, p_0, [N], 0.01, trials, seed, trials)
        assert report.rates == (float(np.mean(lam >= lmin)),)
        means = (whole(p_a, "witneg").reshape(trials, -1, 4) * OUTCOME_SIGNS).sum(axis=2) / N
        expected = float(np.mean(1.0 - means.sum(axis=1) < 0.0))
        assert witness_negative_probability(P350, [N], trials, seed).rates == (expected,)

    def test_lambda_min_peak_grows_by_at_most_two_floats_per_trial(self):
        # one block of counts and its lambda are alive at a time: only the
        # lambda vector and its sorted copy grow with the trial count (the
        # whole count stack and its two float copies grew by 5.3 MB here)
        tau = optimal_fall_time(P350).tau
        p_a, p_0 = (outcome_probabilities(spin_state(P350.with_hypothesis(alt), tau),
                                          W1_OBSERVABLES) for alt in (True, False))

        def peak(trials):
            def call():
                stats._lambda_threshold.cache_clear()
                lambda_min(p_0, p_a, 100, 0.01, trials, 3)
            return traced_peak(call)

        assert peak(20000) - peak(2000) <= 2 * 8 * (20000 - 2000)


class TestSimulateMeasurements:
    def test_block_sums(self, rng):
        data = simulate_measurements(random_state(rng), W1_OBSERVABLES, 57, seed=4)
        assert data.shape == (12,) and data.dtype == np.int64
        assert np.all(data.reshape(3, 4).sum(axis=1) == 57)
        assert data.sum() == 3 * 57

    def test_deterministic_in_seed(self, rng):
        rho = random_state(rng)
        a = simulate_measurements(rho, W1_OBSERVABLES, 100, seed=11)
        b = simulate_measurements(rho, W1_OBSERVABLES, 100, seed=11)
        c = simulate_measurements(rho, W1_OBSERVABLES, 100, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_fractional_bool_or_negative_seed_raises(self, seed):
        # int(seed) used to draw the counts of seed 2 for 2.5, of seed 1 for True
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            simulate_measurements(np.eye(4) / 4, W1_OBSERVABLES, 10, seed=seed)

    def test_numpy_integer_seed_draws_its_stream(self):
        a = simulate_measurements(np.eye(4) / 4, W1_OBSERVABLES, 10, seed=np.int64(2))
        b = simulate_measurements(np.eye(4) / 4, W1_OBSERVABLES, 10, seed=2)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        data = simulate_measurements(np.eye(4) / 4, W1_OBSERVABLES, 100000, seed=3)
        freqs = data / 100000
        assert np.abs(freqs - 0.25).max() <= 0.01


def _bad_count_rows() -> dict:
    """Count rows of the three W1 observables that no function taking counts
    may accept, by name."""
    rows = {}
    for name, value in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf),
                        ("fractional", 2.5), ("negative-float", -1.0)):
        rows[name] = np.full(12, 5.0)
        rows[name][3] = value
    rows["negative"] = np.array([-1, 6, 5, 5] * 3)
    # an integer row is checked for its sign alone
    rows["negative-int64"] = np.array([5, 6, 5, 5] * 2 + [5, 6, 5, -2], dtype=np.int64)
    rows["bool"] = np.ones(12, dtype=bool)
    rows["zero-row"] = np.zeros(12, dtype=np.int64)
    rows["width"] = np.full(8, 5, dtype=np.int64)
    return rows


BAD_COUNT_ROWS = _bad_count_rows()
MIXED = np.eye(4) / 4
BELL = np.zeros((4, 4))
BELL[np.ix_([0, 3], [0, 3])] = 0.5
P_MIXED = outcome_probabilities(MIXED, W1_OBSERVABLES)

#: each public function that takes counts, called on one bad count row
COUNT_TAKERS = {
    "mle_reconstruct": lambda n: tomography.mle_reconstruct(
        n[None], MeasurementSetup(W1_OBSERVABLES)),
    "log_likelihood_ratio": lambda n: log_likelihood_ratio(n, P_MIXED, P_MIXED),
    "state_neg_log_likelihood": lambda n: loophole.state_neg_log_likelihood(
        MIXED, n, W1_OBSERVABLES),
    "find_loophole_state": lambda n: loophole.find_loophole_state(
        n, BELL, OptimizationConfig(restarts=1)),
    "verify_loophole": lambda n: loophole.verify_loophole(
        LoopholeResult(MIXED, 0.0, 0.0, True), BELL, BELL, n),
}


@pytest.mark.parametrize("bad", BAD_COUNT_ROWS.values(), ids=BAD_COUNT_ROWS.keys())
@pytest.mark.parametrize("call", COUNT_TAKERS.values(), ids=COUNT_TAKERS.keys())
def test_bad_counts_raise_at_the_boundary(call, bad):
    # the MLE used to return a NaN state for NaN counts and a valid-looking
    # one for negative or fractional counts
    with pytest.raises(ValueError, match="count"):
        call(bad)


@pytest.mark.parametrize("call", COUNT_TAKERS.values(), ids=COUNT_TAKERS.keys())
def test_unsigned_counts_pass_the_boundary(call):
    # an unsigned row needs no sign test, and gives the results of the same
    # counts as int64, bit for bit
    row = np.array([4, 6, 5, 5, 0, 7, 5, 8, 5, 5, 5, 5])
    assert pickle.dumps(call(row.astype(np.uint64))) == pickle.dumps(call(row))


#: per type, a builder of equal-content instances, and whether two of them
#: compare equal: a probability vector is a cache key, the others are results
EQUALITY_CASES = {
    "ProbabilityVector": (lambda: outcome_probabilities(BELL, W1_OBSERVABLES), True),
    "LoopholeResult": (lambda: LoopholeResult(MIXED, 0.0, 0.0, True), False),
}


@pytest.mark.parametrize("build, by_content", EQUALITY_CASES.values(),
                         ids=EQUALITY_CASES.keys())
def test_compared_by_content_or_identity(build, by_content):
    # compared by their array fields, == raised ValueError and hash() TypeError
    a, b = build(), build()
    assert a == a and hash(a) == hash(a)
    assert (a == b) is by_content and (a != b) is not by_content
    assert len({a, b}) == (1 if by_content else 2)


def test_whole_float_counts_equal_integer_counts():
    data = simulate_measurements(BELL, W1_OBSERVABLES, 40, seed=1)
    p_a = outcome_probabilities(MIXED, W1_OBSERVABLES)
    p_0 = outcome_probabilities(0.5 * (MIXED + BELL), W1_OBSERVABLES)
    assert log_likelihood_ratio(data.astype(float), p_a, p_0) == \
        log_likelihood_ratio(data, p_a, p_0)
    setup = MeasurementSetup(W1_OBSERVABLES)
    assert np.array_equal(tomography.mle_reconstruct(data[None].astype(float), setup),
                          tomography.mle_reconstruct(data[None], setup))


class TestMonteCarloSizes:
    """Every Monte Carlo path draws through one check on the shot count N
    and the trial count."""

    @pytest.mark.parametrize("call", [
        lambda: witness_negative_probability(P450, [0], 100, 0),
        lambda: witness_negative_probability(P450, [10], 0, 0),
        lambda: success_rate_curve(*[outcome_probabilities(np.eye(4) / 4, ZZ)] * 3,
                                   [0], 0.01, 100, 0, lambda_trials=100),
        lambda: simulate_measurements(np.eye(4) / 4, ZZ, 0, seed=0),
        lambda: simulate_measurements(np.eye(4) / 4, ZZ, 2.5, seed=0),
        lambda: tomography.negativity_exceedance(P350, 9, 0, 0),
        lambda: tomography.reconstruction_batch(P350, 9, 0, 0),
        lambda: witness_negative_probability(P450, [2.5], 50, 0),
        lambda: distinction_success_rate(P350, W1_OBSERVABLES, [3.9], 0.01, 100, 0,
                                         lambda_trials=100),
        lambda: witness_negative_probability(P450, [True], 10, 0),
        lambda: witness_negative_probability(P450, [10], True, 0),
    ], ids=["witneg-N0", "witneg-trials0", "curve-N0", "simulate-N0",
            "simulate-N2.5", "exceedance-trials0", "batch-trials0", "witneg-N2.5",
            "curve-N3.9", "witneg-Ntrue", "witneg-trialstrue"])
    def test_non_positive_or_fractional_size_raises(self, call):
        with pytest.raises(ValueError, match="N and trials must be integers >= 1"):
            call()


class TestLogLikelihoodRatio:
    def test_equal_hypotheses_give_zero(self, rng):
        rho = random_state(rng)
        pv = outcome_probabilities(rho, W1_OBSERVABLES)
        data = simulate_measurements(rho, W1_OBSERVABLES, 50, seed=0)
        assert log_likelihood_ratio(data, pv, pv) == 0.0

    def test_single_shot_against_product_oracle(self):
        pa = pv_from_blocks([[0.1, 0.2, 0.3, 0.4]])
        p0 = pv_from_blocks([[0.4, 0.3, 0.2, 0.1]])
        for k in range(4):
            counts = np.zeros(4, dtype=int)
            counts[k] = 1
            lam = log_likelihood_ratio(counts, pa, p0)
            # direct -2 log of the likelihood quotient Lambda = prod p^n
            direct = -2 * math.log(p0.probs[k] / pa.probs[k])
            assert lam == pytest.approx(direct, abs=1e-12)
            assert lam == pytest.approx(2 * (math.log(pa.probs[k])
                                             - math.log(p0.probs[k])), abs=1e-12)

    def test_scalar_product_equals_product_form(self, rng):
        # small-N check of the vectorized identity
        pa = pv_from_blocks([[0.1, 0.2, 0.3, 0.4]])
        p0 = pv_from_blocks([[0.25, 0.25, 0.25, 0.25]])
        for _ in range(20):
            counts = rng.multinomial(6, pa.probs)
            product = np.prod(p0.probs ** counts) / np.prod(pa.probs ** counts)
            assert log_likelihood_ratio(counts, pa, p0) == pytest.approx(
                -2 * math.log(product), abs=1e-9)

    def test_alternative_data_is_positive_with_high_frequency(self, rng):
        tau = optimal_fall_time(P450).tau
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
        pa = pv_from_blocks([[0.25, 0.25, 0.25, 0.25]])
        p0 = pv_from_blocks([[1.0, 0.0, 0.0, 0.0]])
        data = np.array([0, 1, 0, 0])
        assert log_likelihood_ratio(data, pa, p0) == math.inf
        assert log_likelihood_ratio(data, p0, pa) == -math.inf
        with pytest.raises(ValueError):
            log_likelihood_ratio(data, p0, p0)
        # outcome 1 rules out the first hypothesis, outcome 3 the second
        rules_out_both = np.array([0, 1, 0, 1])
        pb = pv_from_blocks([[0.0, 0.0, 0.0, 1.0]])
        pc = pv_from_blocks([[0.0, 1.0, 0.0, 0.0]])
        for a, b in ((pb, pc), (pc, pb)):
            with pytest.raises(ValueError):
                log_likelihood_ratio(rules_out_both, a, b)

    def test_equals_batch_row_including_infinite_evidence(self, rng):
        # one function: a row gives the float of a one-row stack, and each row
        # of a larger stack has the bits of its single-row call
        pa = pv_from_blocks([[0.25, 0.25, 0.5, 0.0]])
        p0 = pv_from_blocks([[0.5, 0.0, 0.25, 0.25]])
        tau = optimal_fall_time(P450).tau
        p_a = outcome_probabilities(spin_state(P450.with_hypothesis(True), tau),
                                    W1_OBSERVABLES)
        p_0 = outcome_probabilities(spin_state(P450.with_hypothesis(False), tau),
                                    W1_OBSERVABLES)
        draws = np.array([rng.multinomial(40, block) for _ in range(30)
                          for block in p_a.probs.reshape(-1, 4)]).reshape(30, 12)
        cases = [(np.array([[3, 0, 2, 0], [1, 4, 0, 0], [0, 0, 1, 4],
                            [2, 0, 3, 0]]), pa, p0), (draws, p_a, p_0)]
        for counts, a, b in cases:
            batch = log_likelihood_ratio(counts, a, b)
            for row, lam in zip(counts, batch):
                one = log_likelihood_ratio(row, a, b)
                assert one == log_likelihood_ratio(row[None], a, b)[0]
                assert one == lam
        assert list(log_likelihood_ratio(cases[0][0], pa, p0)[1:3]) == [math.inf, -math.inf]


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
        return pv_from_blocks([np.divide(r, sum(r)) for r in rows])

    return np.concatenate(counts), pv(), pv()


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


@st.composite
def lambda_batches(draw):
    """A (trials, 4 * n_obs) count stack, two probability vectors whose
    outcomes may be impossible under either hypothesis, and a reordering of
    the trials."""
    observables = W1_OBSERVABLES[:draw(st.integers(1, 3))]
    trials = draw(st.integers(1, 40))
    counts = draw(hnp.arrays(np.int64, (trials, 4 * len(observables)),
                             elements=st.integers(0, 50)))

    def pv():
        rows = [draw(st.lists(st.integers(0, 9), min_size=4, max_size=4)
                     .filter(any)) for _ in observables]
        return pv_from_blocks([np.divide(r, sum(r)) for r in rows])

    return counts, pv(), pv(), draw(st.permutations(range(trials)))


class TestLambdaBatchOrder:
    @given(lambda_batches())
    def test_reordering_trials_reorders_lambdas_bit_for_bit(self, case):
        # every aggregate over trials (the threshold percentile, the success
        # rate) then cannot depend on the order the trials were drawn in
        counts, p_a, p_0, order = case
        try:
            lam = log_likelihood_ratio(counts, p_a, p_0)
        except ValueError:
            with pytest.raises(ValueError):
                log_likelihood_ratio(counts[order], p_a, p_0)
            return
        assert log_likelihood_ratio(counts[order], p_a, p_0).tobytes() == \
            lam[order].tobytes()


class TestLambdaMin:
    def test_exact_enumeration_single_shot(self):
        # l=1, N=1: the lambda distribution has four atoms; its 99th
        # percentile is the largest atom whenever that atom's probability
        # exceeds 1%
        p0 = pv_from_blocks([[0.4, 0.3, 0.2, 0.1]])
        pa = pv_from_blocks([[0.1, 0.2, 0.3, 0.4]])
        lams = 2 * (np.log(pa.probs) - np.log(p0.probs))
        exact = lams.max()  # atoms sorted by lambda have null CDF .4,.7,.9,1.
        mc = lambda_min(p0, pa, N=1, alpha=0.01, trials=100000, seed=5)
        assert mc == pytest.approx(exact, abs=1e-9)

    def test_alpha_near_one_gives_minimum(self):
        p0 = pv_from_blocks([[0.4, 0.3, 0.2, 0.1]])
        pa = pv_from_blocks([[0.1, 0.2, 0.3, 0.4]])
        lams = 2 * (np.log(pa.probs) - np.log(p0.probs))
        mc = lambda_min(p0, pa, N=1, alpha=1 - 1e-9, trials=10000, seed=5)
        assert mc == pytest.approx(lams.min(), abs=1e-9)

    def test_non_increasing_in_alpha(self):
        p0 = pv_from_blocks([[0.4, 0.3, 0.2, 0.1]])
        pa = pv_from_blocks([[0.1, 0.2, 0.3, 0.4]])
        values = [lambda_min(p0, pa, N=20, alpha=a, trials=2000, seed=1)
                  for a in (0.01, 0.05, 0.2, 0.5)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("percent", [1, 5])
    @pytest.mark.parametrize("trials", [100, 150, 1000, 10000])
    def test_threshold_is_the_nearest_rank_null_lambda(self, trials, percent):
        # the smallest null lambda with at least (1 - alpha) of the trials at
        # or below it, found by counting in integers: a rank rounded otherwise
        # (by the code, or by another numpy's inverted_cdf) picks a neighbour.
        # At 150 trials (1 - alpha) n falls between two ranks.
        tau = optimal_fall_time(P350).tau
        p_a, p_0 = (outcome_probabilities(spin_state(P350.with_hypothesis(alt), tau),
                                          W1_OBSERVABLES) for alt in (True, False))
        N, seed = 33, 9
        lam = np.sort(log_likelihood_ratio(
            stats._draw_counts(p_0, N, seed, (TAG["null"], N), trials, identity),
            p_a, p_0))
        at_or_below = np.searchsorted(lam, lam, side="right")
        expected = lam[np.argmax(100 * at_or_below >= (100 - percent) * trials)]
        assert lambda_min(p_0, p_a, N, percent / 100, trials, seed) == expected

    @pytest.mark.parametrize("N", [8, 10, 20])
    def test_minus_inf_threshold_raises_uncached(self, N):
        # most null datasets hit an outcome impossible under the alternative:
        # the 99th percentile is a -inf lambda, which every lambda (here each
        # is 2 N ln 2) would reach
        stats._lambda_threshold.cache_clear()
        p0 = pv_from_blocks([[0.25] * 4])
        pa = pv_from_blocks([[0.5, 0.5, 0.0, 0.0]])
        with pytest.raises(RuntimeError, match=f"N={N} is -inf"):
            lambda_min(p0, pa, N=N, alpha=0.01, trials=1000, seed=0)
        with pytest.raises(RuntimeError):
            success_rate_curve(pa, pa, p0, [N], 0.01, 100, 0, lambda_trials=1000)
        assert stats._lambda_threshold.cache_info().currsize == 0

    def test_requires_enough_trials(self):
        p0 = pv_from_blocks([[0.25] * 4])
        with pytest.raises(ValueError):
            lambda_min(p0, p0, N=1, alpha=0.01, trials=50, seed=0)
        with pytest.raises(ValueError):
            lambda_min(p0, p0, N=1, alpha=1.5, trials=200, seed=0)


class TestLambdaMinCache:
    P0 = pv_from_blocks([[0.4, 0.3, 0.2, 0.1]])
    PA = pv_from_blocks([[0.1, 0.2, 0.3, 0.4]])

    def test_bounded_with_least_recently_used_evicted_first(self):
        cache = stats._lambda_threshold
        cache.cache_clear()

        def hit(alpha):
            hits = cache.cache_info().hits
            lambda_min(self.P0, self.PA, N=1, alpha=alpha, trials=100, seed=2)
            return cache.cache_info().hits > hits

        alphas = [0.01 + 1e-4 * k for k in range(stats._CACHE_SIZE + 10)]
        for a in alphas:
            assert not hit(a)
            assert cache.cache_info().currsize <= stats._CACHE_SIZE
        # the oldest kept threshold, used again, outlives the next oldest
        assert hit(alphas[10])
        assert not hit(0.5)
        assert all(hit(a) for a in [alphas[10]] + alphas[12:])
        assert not any(hit(a) for a in alphas[:10] + [alphas[11]])

    def test_repeated_key_returns_identical_float(self):
        stats._lambda_threshold.cache_clear()
        first = lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200, seed=4)
        assert lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200, seed=4) is first

    def test_bad_seed_raises_before_the_cache_lookup(self):
        stats._lambda_threshold.cache_clear()
        one = lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200, seed=1)
        # True == 1 and hash(True) == hash(1): the lookup alone would answer
        for bad in (True, 1.0, 2.5):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200, seed=bad)
        assert lambda_min(self.P0, self.PA, N=3, alpha=0.05, trials=200,
                          seed=np.int64(1)) is one

    def test_bad_count_raises_before_the_cache_lookup(self):
        stats._lambda_threshold.cache_clear()
        lambda_min(self.P0, self.PA, N=1, alpha=0.05, trials=200, seed=3)
        # True == 1.0 == 1 and 200.0 == 200: the lookup alone would answer
        for bad in (dict(N=True), dict(N=1.0), dict(trials=200.0)):
            args = dict(N=1, trials=200) | bad
            with pytest.raises(ValueError, match="N and trials must be integers"):
                lambda_min(self.P0, self.PA, alpha=0.05, seed=3, **args)

    def test_control_run_reuses_thresholds(self, monkeypatch):
        stats._lambda_threshold.cache_clear()
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

    def test_data_from_validation(self):
        with pytest.raises(ValueError):
            distinction_success_rate(P450, W1_OBSERVABLES, [10], 0.01, 200, 0,
                                     lambda_trials=1000, data_from="both")

    @pytest.mark.parametrize("data_from", ["alt", "null"])
    def test_coinciding_hypotheses_raise_naming_scenario_and_tau(self, data_from,
                                                                 monkeypatch):
        # W1 never goes negative at gamma = 1e6, so tau* = 0, where both
        # hypotheses are the initial state: every lambda was 0, and the null
        # control reported a false-positive rate of 1 at every N
        p = ScenarioParams(dephasing_gamma=1e6)
        assert optimal_fall_time(p) == OptimalFallTime(0.0, 0.0, False)
        monkeypatch.setattr(stats, "success_rate_curve", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match=r"equal outcome probabilities .*tau = 0\.0 s.*"
                                             r"ScenarioParams\(.*dephasing_gamma=1000000\.0"):
            distinction_success_rate(p, W1_OBSERVABLES, [10, 100], 0.01, 200, 0,
                                     lambda_trials=1000, data_from=data_from)


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
        tau = optimal_fall_time(P350).tau
        scale = match_alpha(P350, tau)
        assert scale == pytest.approx(1.087, abs=0.003)

    def test_matched_scale_closes_witness_gap(self):
        tau = optimal_fall_time(P350).tau
        scale = match_alpha(P350, tau)
        alt = w1_expectation_closed_form(P350.with_hypothesis(True), tau)
        null = w1_expectation_closed_form(
            P350.with_hypothesis(False, cp_scale=scale), tau)
        assert abs(alt - null) <= 1e-8

    def test_no_root_reports_bracket(self):
        # at 450 um, gamma 0.03 every rescale in (0, 4] leaves a positive gap
        with pytest.raises(RuntimeError, match=r"no coupling rescale in \[0.0, 4.0\]"):
            match_alpha(P450, optimal_fall_time(P450).tau)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            match_alpha(P350, 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        # used to reach the bracket scan and report a gap range of NaNs
        with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
            match_alpha(P350, tau)


class TestDifferential:
    def test_pauli_discrepancy_survives_matching(self):
        tau = optimal_fall_time(P350).tau
        scale = match_alpha(P350, tau)
        rho_a = spin_state(P350.with_hypothesis(True), tau)
        rho_0 = spin_state(P350.with_hypothesis(False, cp_scale=scale), tau)
        diffs = [abs(expectation(rho_a, obs) - expectation(rho_0, obs))
                 for obs in W1_OBSERVABLES]
        assert max(diffs) > 1e-3

    def test_scenario_without_witnessing_raises_before_matching(self, monkeypatch):
        # match_alpha used to raise "tau must be finite and positive, got 0.0",
        # naming a fall time that no one had set
        p = ScenarioParams(**NEVER_WITNESSING)
        assert optimal_fall_time(p) == OptimalFallTime(0.0, 0.0, False)
        monkeypatch.setattr(stats, "match_alpha", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match="W1 never goes negative in this scenario"):
            differential_success_rate(p, [100], 0.01, 100, 0, lambda_trials=100)

    def test_rates_grow_with_shots(self):
        rep = differential_success_rate(P350, [100, 2000], alpha=0.01,
                                        trials=400, seed=2, lambda_trials=2000)
        assert rep.rates[1] > rep.rates[0]
        # the report carries the fall time and coupling rescale it used
        assert rep.tau == optimal_fall_time(P350).tau
        assert rep.matched_cp_scale == match_alpha(P350, rep.tau)

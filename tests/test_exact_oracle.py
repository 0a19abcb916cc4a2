"""Exact oracle for the Monte Carlo likelihood-ratio test at small N.

lambda = sum_i 2 n_i . w_i is a sum of independent terms, one per W1
observable, and each term is a function of one multinomial count vector of
N shots over 4 outcomes (C(N + 3, 3) atoms). Its tail is summed exactly
(Read & Cressie, Goodness-of-Fit Statistics for Discrete Multivariate Data,
1988): over the pairs of atoms of observables 1 and 2, their probability
times the tail of observable 3's sorted terms. The plug-in W1 estimate is a
function of one integer per observable, so its sign is summed exactly over
all triples, in the package's own float arithmetic.

The Monte Carlo numbers must lie in binomial bands around the exact ones,
set from the trial counts alone before any result was seen: 4 sd, plus one
trial for the discreteness of a rate. These checks look at the distribution
of the draws, not at their bits, so they hold across any change of the
sampler's stream layout or of the threshold's quantile rule that keeps the
statistics right.

Atoms below 1e-12 of an observable's mass are pruned (at most 3e-12 of the
joint mass). lambda is summed in another order than the package sums it, so
a tie at a threshold is resolved both ways: the exact rate is an interval
[P(lambda > x + tol), P(lambda >= x - tol)] with tol = 1e-9 max(1, |x|).
The whole module takes about 4 s on one core of a 2-core Xeon.
"""
import math

import numpy as np
import pytest

from spinwitness.model import ScenarioParams, spin_state
from spinwitness.stats import (lambda_min, outcome_probabilities, success_rate_curve,
                               witness_negative_probability)
from spinwitness.witnesses import W1_OBSERVABLES, optimal_fall_time

ALPHA = 0.01
LAMBDA_TRIALS = 10_000  # null draws behind each threshold
TRIALS = 2_000  # data draws behind each rate
SEED = 5
PRUNE = 1e-12
SCENARIOS = {
    "350um-gamma0": ScenarioParams(separation_d=350e-6, dephasing_gamma=0.0),
    "350um-gamma0.3": ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3),
    "450um-gamma0": ScenarioParams(separation_d=450e-6, dephasing_gamma=0.0),
}


def binomial_band(p_lo: float, p_hi: float, trials: int) -> float:
    """4 sd of a rate over ``trials`` draws, at the p in [p_lo, p_hi] nearest
    1/2, plus one trial."""
    p = min(max(0.5, p_lo), p_hi)
    return 4 * math.sqrt(p * (1 - p) / trials) + 1 / trials


def atoms(N: int) -> np.ndarray:
    """Every count vector of N shots over 4 outcomes, one per row."""
    return np.array([(a, b, c, N - a - b - c) for a in range(N + 1)
                     for b in range(N + 1 - a) for c in range(N + 1 - a - b)])


def multinomial_pmf(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Probability of each count row of ``n`` under outcome probabilities p > 0."""
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n.max() + 1)))))
    N = n[0].sum()
    return np.exp(log_fact[N] - log_fact[n].sum(axis=1) + n @ np.log(p))


def lambda_terms(p_a, p_0, N: int):
    """Every count vector of N shots, and each W1 observable's lambda term on
    each of them."""
    assert p_a.probs.min() > 0 and p_0.probs.min() > 0  # every lambda finite
    n = atoms(N)
    w = (np.log(p_a.probs) - np.log(p_0.probs)).reshape(-1, 4)
    return n, [2.0 * n @ wi for wi in w]


def under(terms, p_data):
    """(lambda terms, probabilities) per observable under ``p_data``, pruned
    to all but ``PRUNE`` of each observable's mass."""
    n, lams = terms
    out = []
    for lam, p in zip(lams, p_data.probs.reshape(-1, 4)):
        pmf = multinomial_pmf(n, p)
        order = np.argsort(pmf)
        keep = order[np.cumsum(pmf[order]) > PRUNE]
        out.append((lam[keep], pmf[keep]))
    return out


def tail(atoms_by_observable, x: float) -> tuple:
    """(P(lambda > x + tol), P(lambda >= x - tol)) for lambda the sum of
    one independent term per observable."""
    tol = 1e-9 * max(1.0, abs(x))
    (l1, p1), (l2, p2), (l3, p3) = atoms_by_observable
    down = np.argsort(l2)[::-1]  # so each row's keys ascend: 4x faster searches
    l2, p2 = l2[down], p2[down]
    up = np.argsort(l3)
    l3, suffix = l3[up], np.append(np.cumsum(p3[up][::-1])[::-1], 0.0)
    above = at_least = 0.0
    for lo in range(0, len(l1), 16):  # 16 atoms of observable 1 at a time
        keys = ((x - l1[lo:lo + 16, None]) - l2[None, :]).ravel()
        p12 = (p1[lo:lo + 16, None] * p2[None, :]).ravel()
        above += p12 @ suffix[np.searchsorted(l3, keys + tol, side="right")]
        at_least += p12 @ suffix[np.searchsorted(l3, keys - tol, side="left")]
    return above, at_least


def hypotheses(p: ScenarioParams):
    tau = optimal_fall_time(p).tau
    return [outcome_probabilities(spin_state(p.with_hypothesis(alt), tau), W1_OBSERVABLES)
            for alt in (True, False)]


@pytest.mark.parametrize("N", [10, 33])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_threshold_size_and_rates_match_the_exact_distribution(scenario, N):
    p_a, p_0 = hypotheses(SCENARIOS[scenario])
    terms = lambda_terms(p_a, p_0, N)
    lmin = lambda_min(p_0, p_a, N, ALPHA, LAMBDA_TRIALS, SEED)

    # the empirical (1 - alpha) quantile of LAMBDA_TRIALS null draws has at
    # least alpha of the draws at or above it and at most alpha above it
    above, at_least = tail(under(terms, p_0), lmin)
    band = binomial_band(ALPHA, ALPHA, LAMBDA_TRIALS)
    assert at_least >= ALPHA - band, (scenario, N, lmin, at_least)
    assert above <= ALPHA + band, (scenario, N, lmin, above)

    # the rate of lambda >= lmin over data from either hypothesis: the power,
    # and the size on fresh null data
    for p_data, (lo, hi) in ((p_a, tail(under(terms, p_a), lmin)), (p_0, (above, at_least))):
        report = success_rate_curve(p_data, p_a, p_0, [N], ALPHA, TRIALS, SEED,
                                    LAMBDA_TRIALS)
        assert report.lambda_min_used == (lmin,)
        band = binomial_band(lo, hi, TRIALS)
        assert lo - band <= report.rates[0] <= hi + band, (scenario, N, report.rates, lo, hi)


def exact_witness_negative(p_a, N: int) -> float:
    """P(1 - <XX> - <ZY> - <YZ> < 0) for the plug-in means of N +-1 outcomes
    per observable, summed over every triple of outcome-sign sums, each
    estimate rounded as the package rounds it."""
    n = atoms(N)
    signed = n @ np.array([1, -1, -1, 1])  # sum of the +-1 outcomes
    pmfs = [np.bincount(signed + N, weights=multinomial_pmf(n, p), minlength=2 * N + 1)
            for p in p_a.probs.reshape(-1, 4)]
    m = np.arange(-N, N + 1)
    means = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1).reshape(-1, 3) / N
    negative = (1.0 - means.sum(axis=1) < 0.0).reshape((2 * N + 1,) * 3).astype(float)
    return float(np.einsum("i,j,k,ijk->", *pmfs, negative))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_witness_negative_rate_matches_the_exact_probability(scenario):
    p = SCENARIOS[scenario]
    p_a, _ = hypotheses(p)
    report = witness_negative_probability(p, [10, 33], TRIALS, SEED)
    for N, rate in zip((10, 33), report.rates):
        exact = exact_witness_negative(p_a, N)
        assert abs(rate - exact) <= binomial_band(exact, exact, TRIALS), (scenario, N, rate, exact)

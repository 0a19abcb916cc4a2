"""Likelihood-ratio hypothesis testing on bipartite Pauli outcome data:
probability vectors, multinomial sampling, log-likelihood ratios, decision
thresholds, state-distinction success rates, and the modified-coupling
differential analysis.

Randomness: every Monte Carlo operation draws trial t from the PCG64 stream
``PCG64(SeedSequence([seed, *tags])).jumped(t)``, so trials are independent
substreams at fixed counter offsets; results are bit-reproducible given
(seed, trials, N) and independent of evaluation order. Each stream's seed
words are hashed once per process, and trial t advances a PCG64 seeded with
them by t jump strides in place, exactly as ``.jumped(t)`` does.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.optimize import brentq

from .model import ScenarioParams, spin_state
from .qstate import MeasurementSetup, eigenbasis
from .witnesses import W1_OBSERVABLES, optimal_fall_time, w1, w1_expectation_closed_form

__all__ = [
    "ProbabilityVector",
    "DataVector",
    "SuccessRateReport",
    "outcome_probabilities",
    "simulate_measurements",
    "log_likelihood_ratio",
    "lambda_min",
    "success_rate_curve",
    "distinction_success_rate",
    "witness_negative_probability",
    "match_alpha",
    "differential_success_rate",
    "trial_rng",
    "write_success_csv",
]

# substream tags: one per data-generating role
_TAG_SIMULATE = 1
_TAG_NULL = 2
_TAG_ALT = 3
_TAG_WITNEG = 4


#: entries kept by the stream-words cache (least recently used evicted first)
#: and by the lambda_min cache (oldest evicted first)
_CACHE_SIZE = 256

#: the stride of one ``PCG64.jumped`` step (numpy's ``jump_inplace``)
_JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835


class _StreamWords(ISeedSequence):
    """The 4 hashed seed words of one stream, handed to PCG64 as its seed.
    Any other request raises, so a change in how numpy seeds PCG64 fails
    loudly instead of moving results."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"stream words hold 4 uint64, not {n_words} "
                               f"{np.dtype(dtype)}")
        return self.words


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _stream_words(entropy: tuple) -> _StreamWords:
    words = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _StreamWords(words)


def trial_rng(seed: int, tags, trial: int) -> np.random.Generator:
    """Generator for one Monte Carlo trial: an independent counter-offset
    substream of the named PCG64 stream, in exactly the state of
    ``Generator(PCG64(SeedSequence([seed, *tags])).jumped(trial))``.

    The stream's seed words are hashed once per process, and the trial's
    PCG64 is advanced by ``trial`` jump strides in place. Its ``seed_seq``
    is therefore a fixed-words sequence that cannot spawn; a generator from
    ``jumped()`` carries an unrelated OS-entropy ``SeedSequence`` there, so
    nothing is lost."""
    bit_gen = np.random.PCG64(_stream_words((int(seed), *map(int, tags))))
    bit_gen.advance(_JUMP * int(trial))
    return np.random.Generator(bit_gen)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("significance level must lie in (0, 1)")


@dataclass(frozen=True)
class ProbabilityVector:
    """Outcome probabilities p[i, j] of observable i giving eigenstate j."""

    observables: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[1] != 4 or probs.shape[0] != len(self.observables):
            raise ValueError("probs must have shape (n_observables, 4)")
        if probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e}")
        if np.abs(probs.sum(axis=1) - 1).max() > 1e-10:
            raise ValueError("each block of 4 probabilities must sum to 1")
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))
        object.__setattr__(self, "observables", tuple(self.observables))

    @property
    def flat(self) -> np.ndarray:
        return self.probs.reshape(-1)


@dataclass(frozen=True)
class DataVector:
    """Outcome counts with a fixed shot count per observable."""

    counts: np.ndarray
    shots_per_observable: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != 4:
            raise ValueError("counts must have shape (n_observables, 4)")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if np.any(counts.sum(axis=1) != self.shots_per_observable):
            raise ValueError("each block of counts must sum to shots_per_observable")
        object.__setattr__(self, "counts", counts)

    @property
    def flat(self) -> np.ndarray:
        return self.counts.reshape(-1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def outcome_probabilities(rho: np.ndarray, observables) -> ProbabilityVector:
    """p[i, j] = Tr(rho |e_ij><e_ij|) over each observable's eigenprojectors."""
    setup = MeasurementSetup(observables)
    probs = setup.probabilities(rho).reshape(-1, 4)
    return ProbabilityVector(setup.observables, probs)


def _draw_counts(pv: ProbabilityVector, N: int, seed: int, tags, trials: int) -> np.ndarray:
    """(trials, n_obs, 4) multinomial counts, one substream per trial. One
    2-D ``multinomial`` call per trial draws the same counts but is slower
    (numpy 2.4.6, 2-core Xeon: 19 us for 3 rows against 3 us per 1-D call)."""
    probs = pv.probs / pv.probs.sum(axis=1, keepdims=True)
    out = np.empty((trials, len(pv.observables), 4), dtype=np.int64)
    for t in range(trials):
        rng = trial_rng(seed, tags, t)
        for i, block in enumerate(probs):
            out[t, i] = rng.multinomial(N, block)
    return out


def simulate_measurements(rho: np.ndarray, observables, N: int, seed: int) -> DataVector:
    """One multinomial draw of N outcomes per observable; deterministic in seed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pv = outcome_probabilities(rho, observables)
    counts = _draw_counts(pv, N, seed, (_TAG_SIMULATE,), 1)[0]
    return DataVector(counts, N)


def log_likelihood_ratio(n: DataVector, p_a: ProbabilityVector,
                         p_0: ProbabilityVector) -> float:
    """lambda = 2 sum n_ij (log p_a,ij - log p_0,ij).

    Data that are impossible under exactly one hypothesis (an observed
    outcome of probability 0) are infinite evidence: returns +inf
    (impossible under the null) or -inf (impossible under the alternative).
    Data impossible under both raise, whether one outcome or two make them so.
    """
    return float(_lambda_batch(n.counts[None], p_a, p_0)[0])


def _lambda_batch(counts: np.ndarray, p_a: ProbabilityVector,
                  p_0: ProbabilityVector) -> np.ndarray:
    """Vectorized lambda over (trials, n_obs, 4) counts, with the same
    infinite-evidence signaling as :func:`log_likelihood_ratio`."""
    flat = counts.reshape(counts.shape[0], -1)
    pa, p0 = p_a.flat, p_0.flat
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.log(pa) - np.log(p0)
    active = flat > 0
    dead_a = (active & (pa <= 0.0)).any(axis=1)
    dead_0 = (active & (p0 <= 0.0)).any(axis=1)
    if np.any(dead_a & dead_0):
        raise ValueError("observed data impossible under both hypotheses")
    out = 2.0 * (flat @ np.where(np.isfinite(weight), weight, 0.0))
    out[dead_0] = math.inf
    out[dead_a] = -math.inf
    return out


_lambda_min_cache: dict = {}


def lambda_min(p_0: ProbabilityVector, p_a: ProbabilityVector, N: int, alpha: float,
               trials: int, seed: int) -> float:
    """Decision threshold: empirical (1-alpha) percentile of lambda over
    ``trials`` data vectors simulated under the null hypothesis. A process
    keeps the last ``_CACHE_SIZE`` distinct thresholds. A NaN percentile,
    interpolated against an infinite lambda, raises RuntimeError uncached."""
    _check_alpha(alpha)
    if trials < 100:
        raise ValueError("lambda_min needs trials >= 100")
    key = (p_0.probs.tobytes(), p_a.probs.tobytes(), N, alpha, trials, seed)
    if key in _lambda_min_cache:
        return _lambda_min_cache[key]
    counts = _draw_counts(p_0, N, seed, (_TAG_NULL, N), trials)
    lam0 = _lambda_batch(counts, p_a, p_0)
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(lam0, 100.0 * (1.0 - alpha)))
    if math.isnan(value):
        raise RuntimeError(f"lambda_min at N={N} is NaN: {np.sum(lam0 == -math.inf)} "
                           f"of {trials} null lambdas are -inf")
    if len(_lambda_min_cache) >= _CACHE_SIZE:
        del _lambda_min_cache[next(iter(_lambda_min_cache))]
    _lambda_min_cache[key] = value
    return value


@dataclass(frozen=True)
class SuccessRateReport:
    """Success rates against total bipartite Pauli measurements."""

    shots_axis: tuple
    rates: tuple
    trials: int
    lambda_min_used: tuple
    gamma: float
    d_m: float

    def __post_init__(self):
        if not len(self.shots_axis) == len(self.rates) == len(self.lambda_min_used):
            raise ValueError("axis, rates and lambda_min_used must have equal length")


def write_success_csv(report: SuccessRateReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["total_measurements", "rate", "lambda_min", "trials",
                         "gamma", "d_m"])
        for tot, rate, lmin in zip(report.shots_axis, report.rates,
                                   report.lambda_min_used):
            writer.writerow([tot, f"{rate:.12g}", f"{lmin:.12g}",
                             report.trials, f"{report.gamma:.12g}",
                             f"{report.d_m:.12g}"])


def success_rate_curve(p_data: ProbabilityVector, p_a: ProbabilityVector,
                       p_0: ProbabilityVector, shots_per_observable, alpha: float,
                       trials: int, seed: int, lambda_trials: int = 10000):
    """Fraction of datasets drawn from ``p_data`` with lambda >= lambda_min,
    per shot count. Returns (rates, lambda_mins)."""
    _check_alpha(alpha)
    rates, lmins = [], []
    for N in shots_per_observable:
        N = int(N)
        if N < 1:
            raise ValueError("shot counts must be >= 1")
        lmin = lambda_min(p_0, p_a, N, alpha, lambda_trials, seed)
        counts = _draw_counts(p_data, N, seed, (_TAG_ALT, N), trials)
        lam = _lambda_batch(counts, p_a, p_0)
        rates.append(float(np.mean(lam >= lmin)))
        lmins.append(lmin)
    return rates, lmins


def hypothesis_probabilities(p: ScenarioParams, observables):
    """Outcome probabilities of the alternative (gravity on) and null
    (gravity off) states at the alternative's optimal W1 fall time."""
    tau = optimal_fall_time(p, w1()).tau
    rho_a = spin_state(p.with_hypothesis(True), tau)
    rho_0 = spin_state(p.with_hypothesis(False), tau)
    return (outcome_probabilities(rho_a, observables),
            outcome_probabilities(rho_0, observables))


def distinction_success_rate(p: ScenarioParams, observables, shots_per_observable,
                             alpha: float, trials: int, seed: int,
                             lambda_trials: int = 10000,
                             data_from: str = "alt") -> SuccessRateReport:
    """State-distinction success rate for ruling out the gravity-free null
    hypothesis from repeated Pauli measurements at the optimal W1 fall time.

    ``data_from`` selects the data-generating state: "alt" (the power of the
    test) or "null" (the false-positive control, which sits at alpha).
    """
    if data_from not in ("alt", "null"):
        raise ValueError("data_from must be 'alt' or 'null'")
    p_a, p_0 = hypothesis_probabilities(p, observables)
    p_data = p_a if data_from == "alt" else p_0
    rates, lmins = success_rate_curve(p_data, p_a, p_0, shots_per_observable,
                                      alpha, trials, seed, lambda_trials)
    n_obs = len(observables)
    return SuccessRateReport(
        shots_axis=tuple(n_obs * int(N) for N in shots_per_observable),
        rates=tuple(rates), trials=trials, lambda_min_used=tuple(lmins),
        gamma=p.dephasing_gamma, d_m=p.separation_d)


def witness_negative_probability(p: ScenarioParams, shots_per_observable,
                                 trials: int, seed: int,
                                 tau: float | None = None) -> SuccessRateReport:
    """Probability that the plug-in estimate of Tr(W1 rho) on the alternative
    state is negative: 1 - <XX> - <ZY> - <YZ> with each term the empirical
    mean of N +-1 outcomes."""
    if tau is None:
        tau = optimal_fall_time(p, w1()).tau
    rho_a = spin_state(p.with_hypothesis(True), tau)
    pv = outcome_probabilities(rho_a, W1_OBSERVABLES)
    signs = eigenbasis(W1_OBSERVABLES[0]).eigenvalues  # (+,-,-,+) for all three
    rates = []
    for N in shots_per_observable:
        N = int(N)
        counts = _draw_counts(pv, N, seed, (_TAG_WITNEG, N), trials)
        means = (counts * signs).sum(axis=2) / N
        estimate = 1.0 - means.sum(axis=1)
        rates.append(float(np.mean(estimate < 0.0)))
    return SuccessRateReport(
        shots_axis=tuple(3 * int(N) for N in shots_per_observable),
        rates=tuple(rates), trials=trials,
        lambda_min_used=tuple(math.nan for _ in rates),
        gamma=p.dephasing_gamma, d_m=p.separation_d)


def match_alpha(p: ScenarioParams, tau: float, bracket=(0.0, 4.0)) -> float:
    """Coupling rescale s such that the gravity-free state with alpha -> s*alpha
    matches the alternative's W1 expectation at time ``tau``.

    Solved by bracketed root finding to better than 1e-6 relative; raises with
    a bracket report when no sign change is found.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    target = w1_expectation_closed_form(p.with_hypothesis(True), tau)

    def gap(s: float) -> float:
        null = p.with_hypothesis(False, cp_scale=p.cp_scale * s)
        return w1_expectation_closed_form(null, tau) - target

    lo, hi = bracket
    grid = np.linspace(lo if lo > 0 else 1e-9, hi, 81)
    vals = np.array([gap(s) for s in grid])
    if np.abs(vals).min() < 1e-14:
        return float(grid[np.abs(vals).argmin()])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_change.size == 0:
        raise RuntimeError(
            f"no coupling rescale in [{lo}, {hi}] matches the witness expectation: "
            f"gap ranges [{vals.min():.3e}, {vals.max():.3e}]")
    i = sign_change[0]
    return float(brentq(gap, grid[i], grid[i + 1], xtol=1e-13, rtol=1e-12))


def differential_success_rate(p: ScenarioParams, shots_per_observable, alpha: float,
                              trials: int, seed: int,
                              lambda_trials: int = 10000) -> SuccessRateReport:
    """Distinction success rate against the hardest gravity-free hypothesis:
    the null coupling is rescaled so both hypotheses share the W1 expectation
    at its optimal fall time, leaving only the per-observable discrepancies."""
    tau = optimal_fall_time(p, w1()).tau
    scale = match_alpha(p, tau)
    rho_a = spin_state(p.with_hypothesis(True), tau)
    rho_0 = spin_state(p.with_hypothesis(False, cp_scale=p.cp_scale * scale), tau)
    p_a = outcome_probabilities(rho_a, W1_OBSERVABLES)
    p_0 = outcome_probabilities(rho_0, W1_OBSERVABLES)
    rates, lmins = success_rate_curve(p_a, p_a, p_0, shots_per_observable,
                                      alpha, trials, seed, lambda_trials)
    return SuccessRateReport(
        shots_axis=tuple(3 * int(N) for N in shots_per_observable),
        rates=tuple(rates), trials=trials, lambda_min_used=tuple(lmins),
        gamma=p.dephasing_gamma, d_m=p.separation_d)

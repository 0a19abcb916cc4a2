"""Likelihood-ratio hypothesis testing on bipartite Pauli outcome data:
probability vectors, multinomial sampling, log-likelihood ratios, decision
thresholds, state-distinction success rates, and the modified-coupling
differential analysis.

Randomness: every Monte Carlo operation draws trial t from the PCG64 stream
``PCG64(SeedSequence([seed, *tags])).jumped(t)``, so trials are independent
substreams at fixed counter offsets; results are bit-reproducible given
(seed, trials, N) and independent of evaluation order. Each stream's seed
words are hashed once per process, and trial t advances a PCG64 seeded with
them by t jump strides in place, exactly as ``.jumped(t)`` does. A seed, tag
or trial that is fractional, bool or negative raises; numpy integers count.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import asdict, astuple, dataclass, field

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence
from scipy.optimize import brentq

from .model import ScenarioParams, spin_state
from .qstate import OUTCOME_SIGNS, MeasurementSetup
from .witnesses import _BLOCK, W1_OBSERVABLES, optimal_fall_time, w1_expectation_closed_form

__all__ = [
    "ProbabilityVector",
    "SuccessRateReport",
    "DifferentialReport",
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
]

#: the Monte Carlo stream tag of each data-generating role in the package
#: (stats, tomography's exceedance and batches, the loophole search's random
#: starts): a stream is named by ``(seed, tag, ...)``, so no two roles share one
_STREAM_TAGS = {"simulate": 1, "null": 2, "alt": 3, "witneg": 4, "tomo_null": 11,
                "tomo_alt": 12, "batch_alt": 13, "batch_null": 14, "restart": 21}


#: entries kept by the stream-words and lambda_min caches (least recently
#: used evicted first)
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
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise RuntimeError(f"stream words hold 4 uint64, not {n_words} "
                               f"{np.dtype(dtype)}")
        return self.words


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _stream_words(*entropy) -> _StreamWords:
    # typed: 2.0 and True miss the entries of 2 and 1, and are checked here
    if not all(_is_count(v, 0) for v in entropy):
        raise ValueError(f"seed and stream tags must be integers >= 0, got {entropy}")
    words = SeedSequence([int(v) for v in entropy]).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _StreamWords(words)


def trial_rng(seed: int, tags, trial: int) -> Generator:
    """Generator for one Monte Carlo trial: an independent counter-offset
    substream of the named PCG64 stream, in exactly the state of
    ``Generator(PCG64(SeedSequence([seed, *tags])).jumped(trial))``.

    The stream's seed words are hashed once per process, and the trial's
    PCG64 is advanced by ``trial`` jump strides in place. Its ``seed_seq``
    is therefore a fixed-words sequence that cannot spawn; a generator from
    ``jumped()`` carries an unrelated OS-entropy ``SeedSequence`` there, so
    nothing is lost. A fractional, bool or negative seed, tag or trial raises
    ValueError (a non-integer trial TypeError)."""
    t = operator.index(trial)
    if t < 0 or isinstance(trial, bool):
        raise ValueError(f"trial must be an integer >= 0, got {trial!r}")
    bit_gen = PCG64(_stream_words(seed, *tags))
    bit_gen.advance(_JUMP * t)
    return Generator(bit_gen)


def _is_count(n, least: int = 1) -> bool:
    """An integer >= least; a bool is an int to Python, and is rejected."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least


def _check_seed(seed) -> None:
    """The one seed check of ``lambda_min``, ``_draw_counts`` and the loophole search."""
    if not _is_count(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _count_rows(n, width: int) -> np.ndarray:
    """A (trials, width) stack of count rows as floats, each row in count-row
    order (p = 4 i + j: outcome j of observable i). The one check of counts:
    another shape, a bool or non-numeric dtype, an entry that is not a finite
    whole number >= 0, or a row that sums to zero raises ValueError."""
    counts = np.asarray(n)
    if counts.ndim != 2 or counts.shape[1] != width:
        raise ValueError(f"expected counts of shape (trials, {width}), got {counts.shape}")
    if counts.dtype.kind not in "iuf":
        raise ValueError(f"counts must be integers or whole floats, got {counts.dtype}")
    bad = ~(np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))) \
        if counts.dtype.kind == "f" else counts < 0  # an integer is whole and finite
    if bad.any():
        raise ValueError(f"counts must be finite whole numbers >= 0, got {counts[bad][0]}")
    counts = counts.astype(float)
    total = counts.sum(axis=1)
    if not total.all():
        raise ValueError(f"trial {np.flatnonzero(total == 0)[0]}: count row sums to zero")
    return counts


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("significance level must lie in (0, 1)")


@dataclass(frozen=True)
class ProbabilityVector:
    """Outcome probabilities as one read-only (4 * n_obs,) row in count-row
    order: p = 4 i + j is outcome j of observable i. Two vectors are equal,
    and hash equal, when their rows have the same bytes."""

    probs: np.ndarray = field(compare=False)
    _bytes: bytes = field(init=False, repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0 or probs.size % 4:
            raise ValueError(f"probabilities must be a non-empty row of 4 per "
                             f"observable, got shape {probs.shape}")
        if not np.isfinite(probs).all():  # NaN passes both range checks below
            raise ValueError(f"probabilities must be finite, got "
                             f"{float(probs[~np.isfinite(probs)][0])}")
        if probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e}")
        if np.abs(probs.reshape(-1, 4).sum(axis=1) - 1).max() > 1e-10:
            raise ValueError("each block of 4 probabilities must sum to 1")
        probs = np.clip(probs, 0.0, None)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_bytes", probs.tobytes())


def outcome_probabilities(rho: np.ndarray, observables) -> ProbabilityVector:
    """Tr(rho P_p) over the observables' eigenprojectors, in count-row order."""
    return ProbabilityVector(MeasurementSetup(observables).probabilities(rho))


def _draw_counts(pv: ProbabilityVector, N: int, seed: int, tags, trials: int,
                 reduce) -> np.ndarray:
    """``reduce`` of each block of at most ``_BLOCK`` trials' int64 count rows
    (N shots per observable, one substream per trial), concatenated along the
    trial axis; each block is dropped once reduced, before the next is drawn.
    N, ``trials`` and the seed of every Monte Carlo path are checked here."""
    if not (_is_count(N) and _is_count(trials)):
        raise ValueError(f"shot count N and trials must be integers >= 1, "
                         f"got N={N!r}, trials={trials!r}")
    _check_seed(seed)
    probs = pv.probs.reshape(-1, 4)
    rows = list(probs / probs.sum(axis=1, keepdims=True))
    blocks = (range(start, min(start + _BLOCK, trials)) for start in range(0, trials, _BLOCK))
    return np.concatenate([reduce(_count_block(rows, N, seed, tags, b)) for b in blocks])


def _count_block(rows, N: int, seed: int, tags, block: range) -> np.ndarray:
    """The count rows of the trials in ``block``: one 1-D ``multinomial`` of
    N shots per observable row, from each trial's own substream."""
    out = np.empty((len(block), len(rows), 4), dtype=np.int64)
    for i, t in enumerate(block):
        rng = trial_rng(seed, tags, t)
        out[i] = [rng.multinomial(N, row) for row in rows]
    return out.reshape(len(block), -1)


def simulate_measurements(rho: np.ndarray, observables, N: int, seed: int) -> np.ndarray:
    """One multinomial draw of N outcomes per observable, as an int64 count
    row; deterministic in seed."""
    pv = outcome_probabilities(rho, observables)
    return _draw_counts(pv, N, seed, (_STREAM_TAGS["simulate"],), 1, lambda c: c)[0]


def log_likelihood_ratio(counts, p_a: ProbabilityVector, p_0: ProbabilityVector):
    """lambda = 2 sum n_p (log p_a,p - log p_0,p) of a count row (a float) or
    of each row of a (trials, 4 * n_obs) stack (an array). Each row is summed
    on its own, so it has the bits of its single-row call wherever it sits in
    the stack (a BLAS matrix-vector product rounds the last
    stack-size-mod-4 rows differently).

    Data that are impossible under exactly one hypothesis (an observed
    outcome of probability 0) are infinite evidence: +inf (impossible under
    the null) or -inf (impossible under the alternative). Data impossible
    under both raise, whether one outcome or two make them so.
    """
    pa, p0 = p_a.probs, p_0.probs
    counts = np.asarray(counts)
    flat = _count_rows(np.atleast_2d(counts), pa.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.log(pa) - np.log(p0)
    dead_a = (flat[:, pa <= 0.0] > 0).any(axis=1)
    dead_0 = (flat[:, p0 <= 0.0] > 0).any(axis=1)
    if np.any(dead_a & dead_0):
        raise ValueError("observed data impossible under both hypotheses")
    out = 2.0 * (flat * np.where(np.isfinite(weight), weight, 0.0)).sum(axis=1)
    out[dead_0] = math.inf
    out[dead_a] = -math.inf
    return float(out[0]) if counts.ndim == 1 else out


def lambda_min(p_0: ProbabilityVector, p_a: ProbabilityVector, N: int, alpha: float,
               trials: int, seed: int) -> float:
    """Decision threshold: the nearest-rank (1-alpha) quantile of lambda over
    ``trials`` count rows simulated under the null hypothesis, the smallest
    null lambda with at least (1-alpha) trials at or below it. A process
    keeps the ``_CACHE_SIZE`` most recently used thresholds. A threshold of
    -inf raises RuntimeError uncached; null draws are never +inf."""
    _check_alpha(alpha)
    # checked before the cache lookup: True == 1.0 == 1 would find 1's threshold
    if not (_is_count(N) and _is_count(trials, 100)):
        raise ValueError(f"shot count N and trials must be integers >= 1 (lambda_min "
                         f"needs trials >= 100), got N={N!r}, trials={trials!r}")
    _check_seed(seed)
    return _lambda_threshold(p_0, p_a, N, alpha, trials, seed)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _lambda_threshold(p_0: ProbabilityVector, p_a: ProbabilityVector, N: int,
                      alpha: float, trials: int, seed: int) -> float:
    lam0 = _draw_counts(p_0, N, seed, (_STREAM_TAGS["null"], N), trials,
                        functools.partial(log_likelihood_ratio, p_a=p_a, p_0=p_0))
    value = float(np.percentile(lam0, 100.0 * (1.0 - alpha), method="inverted_cdf"))
    if value == -math.inf:
        raise RuntimeError(f"lambda_min at N={N} is -inf: {np.sum(lam0 == -math.inf)} "
                           f"of {trials} null lambdas are -inf")
    return value


@dataclass(frozen=True)
class SuccessRateReport:
    """Success rates against total bipartite Pauli measurements."""

    shots_axis: tuple
    rates: tuple
    lambda_min_used: tuple

    def __post_init__(self):
        if not len(self.shots_axis) == len(self.rates) == len(self.lambda_min_used):
            raise ValueError("axis, rates and lambda_min_used must have equal length")


@dataclass(frozen=True)
class DifferentialReport(SuccessRateReport):
    """Differential success rates with the W1-optimal fall time and the
    matched coupling rescale they were computed at."""

    tau: float
    matched_cp_scale: float


def success_rate_curve(p_data: ProbabilityVector, p_a: ProbabilityVector,
                       p_0: ProbabilityVector, shots_per_observable, alpha: float,
                       trials: int, seed: int, lambda_trials: int = 10000) -> SuccessRateReport:
    """Fraction of datasets drawn from ``p_data`` with lambda >= lambda_min,
    per shot count N, against N times the number of observables."""
    _check_alpha(alpha)
    rates, lmins = [], []
    for N in shots_per_observable:
        lmin = lambda_min(p_0, p_a, N, alpha, lambda_trials, seed)
        lam = _draw_counts(p_data, N, seed, (_STREAM_TAGS["alt"], N), trials,
                           functools.partial(log_likelihood_ratio, p_a=p_a, p_0=p_0))
        rates.append(float(np.mean(lam >= lmin)))
        lmins.append(lmin)
    n_obs = p_data.probs.size // 4
    return SuccessRateReport(shots_axis=tuple(n_obs * int(N) for N in shots_per_observable),
                             rates=tuple(rates), lambda_min_used=tuple(lmins))


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
    tau = optimal_fall_time(p).tau
    p_a = outcome_probabilities(spin_state(p.with_hypothesis(True), tau), observables)
    p_0 = outcome_probabilities(spin_state(p.with_hypothesis(False), tau), observables)
    if p_a == p_0:
        raise ValueError(f"the hypotheses give equal outcome probabilities at the optimal W1 "
                         f"fall time tau = {tau!r} s: no test can tell them apart in {p!r}")
    p_data = p_a if data_from == "alt" else p_0
    return success_rate_curve(p_data, p_a, p_0, shots_per_observable, alpha, trials,
                              seed, lambda_trials)


def witness_negative_probability(p: ScenarioParams, shots_per_observable,
                                 trials: int, seed: int,
                                 tau: float | None = None) -> SuccessRateReport:
    """Probability that the plug-in estimate of Tr(W1 rho) on the alternative
    state is negative: 1 - <XX> - <ZY> - <YZ> with each term the empirical
    mean of N +-1 outcomes."""
    if tau is None:
        tau = optimal_fall_time(p).tau
    pv = outcome_probabilities(spin_state(p.with_hypothesis(True), tau), W1_OBSERVABLES)

    def negative(counts, N):
        means = (counts.reshape(len(counts), -1, 4) * OUTCOME_SIGNS).sum(axis=2) / N
        return 1.0 - means.sum(axis=1) < 0.0

    rates = [float(np.mean(_draw_counts(pv, N, seed, (_STREAM_TAGS["witneg"], N), trials,
                                        functools.partial(negative, N=N))))
             for N in shots_per_observable]
    return SuccessRateReport(
        shots_axis=tuple(3 * int(N) for N in shots_per_observable),
        rates=tuple(rates), lambda_min_used=tuple(math.nan for _ in rates))


def match_alpha(p: ScenarioParams, tau: float) -> float:
    """Coupling rescale s such that the gravity-free state with alpha -> s*alpha
    matches the alternative's W1 expectation at time ``tau``.

    The first sign change of the gap on an 81-point grid over (0, 4] is
    refined by ``brentq`` to within 1e-13 + 1e-12 s; raises with the gap's
    range when the grid has no sign change.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    target = w1_expectation_closed_form(p.with_hypothesis(True), tau)

    def gap(s: float) -> float:
        null = p.with_hypothesis(False, cp_scale=p.cp_scale * s)
        return w1_expectation_closed_form(null, tau) - target

    grid = np.linspace(1e-9, 4.0, 81)
    vals = np.array([gap(s) for s in grid])
    if np.abs(vals).min() < 1e-14:
        return float(grid[np.abs(vals).argmin()])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_change.size == 0:
        raise RuntimeError(
            "no coupling rescale in [0.0, 4.0] matches the witness expectation: "
            f"gap ranges [{vals.min():.3e}, {vals.max():.3e}]")
    i = sign_change[0]
    return float(brentq(gap, grid[i], grid[i + 1], xtol=1e-13, rtol=1e-12))


def differential_success_rate(p: ScenarioParams, shots_per_observable, alpha: float,
                              trials: int, seed: int,
                              lambda_trials: int = 10000) -> DifferentialReport:
    """Distinction success rate against the hardest gravity-free hypothesis:
    the null coupling is rescaled so both hypotheses share the W1 expectation
    at its optimal fall time, leaving only the per-observable discrepancies."""
    tau, _, witnessing = astuple(optimal_fall_time(p))
    if not witnessing:
        raise ValueError("W1 never goes negative in this scenario: no fall time to match")
    scale = match_alpha(p, tau)
    p_a = outcome_probabilities(spin_state(p.with_hypothesis(True), tau), W1_OBSERVABLES)
    rho_0 = spin_state(p.with_hypothesis(False, cp_scale=p.cp_scale * scale), tau)
    p_0 = outcome_probabilities(rho_0, W1_OBSERVABLES)
    report = success_rate_curve(p_a, p_a, p_0, shots_per_observable, alpha, trials, seed,
                                lambda_trials)
    return DifferentialReport(**asdict(report), tau=tau, matched_cp_scale=scale)

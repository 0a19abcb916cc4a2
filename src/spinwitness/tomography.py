"""Maximum-likelihood state reconstruction from informationally complete
Pauli data, and tomography-based distinction statistics."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import ScenarioParams, spin_state
from .qstate import eigenbasis, negativity
from .stats import (DataVector, SuccessRateReport, distinction_success_rate,
                    outcome_probabilities, trial_rng)
from .witnesses import optimal_fall_time, w1

__all__ = [
    "TOMOGRAPHY_OBSERVABLES",
    "TomographySetup",
    "MLEConfig",
    "standard_setup",
    "r_operator",
    "mle_reconstruct",
    "tomographic_success_rate",
    "negativity_exceedance",
    "reconstruction_batch",
    "write_batch_csv",
]

#: the 9 informationally complete pairs with both factors in X/Y/Z
TOMOGRAPHY_OBSERVABLES = tuple((a, b) for a in "XYZ" for b in "XYZ")

_TAG_TOMO_NULL = 11
_TAG_TOMO_ALT = 12
_TAG_FID = 13


@dataclass(frozen=True)
class TomographySetup:
    """Measurement setup: observables and their stacked eigenprojectors."""

    observables: tuple
    projectors: np.ndarray  # (4*n_obs, 4, 4)

    def __post_init__(self):
        if len(self.observables) != 9:
            raise ValueError("tomography needs the 9 X/Y/Z pair observables")


def standard_setup() -> TomographySetup:
    projs = np.concatenate([eigenbasis(obs).projectors
                            for obs in TOMOGRAPHY_OBSERVABLES])
    return TomographySetup(TOMOGRAPHY_OBSERVABLES, projs)


@dataclass(frozen=True)
class MLEConfig:
    """Fixed-point iteration settings; no early stopping."""

    iterations: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def r_operator(rho: np.ndarray, n: DataVector, setup: TomographySetup) -> np.ndarray:
    """R(rho) = (1/|n|_1) sum_i n_i / Tr(rho P_i) * P_i."""
    counts = n.flat.astype(float)
    probs = np.real(np.einsum("pij,ji->p", setup.projectors, rho))
    dead = (counts > 0) & (probs <= 0.0)
    if np.any(dead):
        i = int(np.nonzero(dead)[0][0])
        obs = setup.observables[i // 4]
        raise ZeroDivisionError(
            f"projector {i} (observable {obs}, outcome {i % 4}) has zero "
            f"probability but {int(counts[i])} counts")
    weights = np.where(counts > 0, counts / np.where(probs > 0, probs, 1.0), 0.0)
    return np.einsum("p,pij->ij", weights / counts.sum(), setup.projectors)


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(probs[mask])))


def mle_reconstruct(n: DataVector, setup: TomographySetup,
                    cfg: MLEConfig = MLEConfig(),
                    track_likelihood: bool = False):
    """Iterate rho <- normalize(R rho R) from the maximally mixed state for a
    fixed number of iterations.

    With ``track_likelihood`` also returns the per-iteration log-likelihood
    (it is non-decreasing along the iteration up to rounding).
    """
    counts = n.flat.astype(float)
    rho = np.eye(4, dtype=complex) / 4
    loglik = []
    for _ in range(cfg.iterations):
        R = r_operator(rho, n, setup)
        rho = R @ rho @ R
        rho /= np.real(np.trace(rho))
        rho = 0.5 * (rho + rho.conj().T)
        if track_likelihood:
            probs = np.real(np.einsum("pij,ji->p", setup.projectors, rho))
            loglik.append(_log_likelihood(counts, probs))
    if track_likelihood:
        return rho, np.array(loglik)
    return rho


# --- batched internals for Monte Carlo over many reconstructions ---

def _sample_tomo_counts(pv, N: int, seed: int, tag: int, trials: int) -> np.ndarray:
    out = np.empty((trials, 36), dtype=np.int64)
    probs = pv.probs / pv.probs.sum(axis=1, keepdims=True)
    for t in range(trials):
        rng = trial_rng(seed, (tag, N), t)
        for i, block in enumerate(probs):
            out[t, 4 * i:4 * (i + 1)] = rng.multinomial(N, block)
    return out


def _mle_batch(counts: np.ndarray, setup: TomographySetup, iterations: int) -> np.ndarray:
    """Fixed-point MLE on a (trials, 36) count matrix at once."""
    trials = counts.shape[0]
    total = counts.sum(axis=1).astype(float)
    rho = np.broadcast_to(np.eye(4, dtype=complex) / 4, (trials, 4, 4)).copy()
    P = setup.projectors
    for _ in range(iterations):
        probs = np.real(np.einsum("pij,bji->bp", P, rho))
        probs = np.maximum(probs, 1e-300)
        weights = counts / (total[:, None] * probs)
        R = np.einsum("bp,pij->bij", weights, P)
        rho = R @ rho @ R
        tr = np.einsum("bii->b", rho).real
        rho /= tr[:, None, None]
        rho = 0.5 * (rho + np.conj(np.transpose(rho, (0, 2, 1))))
    return rho


def _fidelity_batch(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    sq = (v * np.sqrt(w)[:, None, :]) @ np.conj(np.transpose(v, (0, 2, 1)))
    mid = sq @ sigma @ sq
    mid = 0.5 * (mid + np.conj(np.transpose(mid, (0, 2, 1))))
    w2 = np.clip(np.linalg.eigvalsh(mid), 0.0, None)
    return np.minimum(np.sqrt(w2).sum(axis=1) ** 2, 1.0)


def _check_total(total_shots: int) -> int:
    if total_shots < 9 or total_shots % 9 != 0:
        raise ValueError("total shots must be a positive multiple of 9")
    return total_shots // 9


def tomographic_success_rate(p: ScenarioParams, totals, alpha: float, trials: int,
                             seed: int, lambda_trials: int = 10000,
                             tau: float | None = None) -> SuccessRateReport:
    """Likelihood-ratio distinction on full-tomography data; shots are split
    evenly over the 9 observables, so totals must be multiples of 9."""
    per_obs = [_check_total(int(t)) for t in totals]
    return distinction_success_rate(p, TOMOGRAPHY_OBSERVABLES, per_obs, alpha,
                                    trials, seed, lambda_trials, tau)


def negativity_exceedance(p: ScenarioParams, shots_per_tomography: int, trials: int,
                          seed: int, cfg: MLEConfig = MLEConfig(),
                          tau: float | None = None,
                          setup: TomographySetup | None = None) -> float:
    """Fraction of alternative-hypothesis reconstructions whose negativity
    exceeds the 99th percentile (nearest rank) of the null reconstructions'
    negativities."""
    N = _check_total(shots_per_tomography)
    if setup is None:
        setup = standard_setup()
    if tau is None:
        tau = optimal_fall_time(p, w1()).tau
    rho_a = spin_state(p.with_hypothesis(True), tau)
    rho_0 = spin_state(p.with_hypothesis(False), tau)
    pv_a = outcome_probabilities(rho_a, setup.observables)
    pv_0 = outcome_probabilities(rho_0, setup.observables)
    counts_a = _sample_tomo_counts(pv_a, N, seed, _TAG_TOMO_ALT, trials)
    counts_0 = _sample_tomo_counts(pv_0, N, seed, _TAG_TOMO_NULL, trials)
    neg_a = negativity(_mle_batch(counts_a, setup, cfg.iterations))
    neg_0 = negativity(_mle_batch(counts_0, setup, cfg.iterations))
    threshold = np.sort(neg_0)[int(np.ceil(0.99 * trials)) - 1]
    return float(np.mean(neg_a > threshold))


def reconstruction_batch(p: ScenarioParams, shots_per_tomography: int, trials: int,
                         seed: int, hypothesis: str = "alt",
                         cfg: MLEConfig = MLEConfig(),
                         tau: float | None = None):
    """Reconstruct ``trials`` simulated tomographies of one hypothesis state.

    Returns (negativities, fidelities to the true state), one entry per trial.
    """
    if hypothesis not in ("alt", "null"):
        raise ValueError("hypothesis must be 'alt' or 'null'")
    N = _check_total(shots_per_tomography)
    setup = standard_setup()
    if tau is None:
        tau = optimal_fall_time(p, w1()).tau
    rho = spin_state(p.with_hypothesis(hypothesis == "alt"), tau)
    pv = outcome_probabilities(rho, setup.observables)
    tag = _TAG_FID if hypothesis == "alt" else _TAG_FID + 1
    counts = _sample_tomo_counts(pv, N, seed, tag, trials)
    rec = _mle_batch(counts, setup, cfg.iterations)
    return negativity(rec), _fidelity_batch(rec, rho)


def write_batch_csv(path, shots: int, hypothesis: str, negativities, fidelities) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shots", "hypothesis", "trial", "negativity",
                         "fidelity_to_truth"])
        for t, (neg, fid) in enumerate(zip(negativities, fidelities)):
            writer.writerow([shots, hypothesis, t, f"{neg:.12g}", f"{fid:.12g}"])

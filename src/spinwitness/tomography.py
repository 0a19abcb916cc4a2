"""Fixed-point maximum-likelihood state reconstruction from Pauli outcome
counts, one data set or a stack of them, and tomography-based distinction
statistics."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import ScenarioParams, spin_state
from .qstate import MeasurementSetup, fidelity, negativity
from .stats import (DataVector, SuccessRateReport, _draw_counts,
                    distinction_success_rate, outcome_probabilities)
from .witnesses import optimal_fall_time, w1

__all__ = [
    "TOMOGRAPHY_OBSERVABLES",
    "MLEConfig",
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
class MLEConfig:
    """Fixed-point iteration settings; no early stopping."""

    iterations: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def _count_rows(n, setup: MeasurementSetup):
    """(trials, 4 * n_observables) float counts and their row totals: one row
    for a DataVector, one per trial for a count array."""
    counts = np.atleast_2d(n.flat if isinstance(n, DataVector) else n).astype(float)
    if counts.ndim != 2 or counts.shape[1] != len(setup.projectors):
        raise ValueError(f"expected counts of shape (trials, {len(setup.projectors)}), "
                         f"got {counts.shape}")
    return counts, counts.sum(axis=1)


def _r_stack(rho, counts, total, setup: MeasurementSetup) -> np.ndarray:
    """R of each state in a (trials, 4, 4) stack against its row of counts.
    A counted outcome with probability <= 0 raises; an uncounted one weighs 0."""
    probs = setup.probabilities(rho)
    if probs.min() <= 0.0:
        dead = np.argwhere((counts > 0) & (probs <= 0.0))
        if len(dead):
            t, i = dead[0]
            raise ZeroDivisionError(
                f"trial {t}: projector {i} (observable {setup.observables[i // 4]}, "
                f"outcome {i % 4}) has zero probability but {int(counts[t, i])} counts")
    return setup.operator(counts / (total[:, None] * np.maximum(probs, 1e-300)))


def r_operator(rho: np.ndarray, n, setup: MeasurementSetup) -> np.ndarray:
    """R(rho) = (1/|n|_1) sum_i n_i / Tr(rho P_i) * P_i: one 4x4 matrix for a
    state and a DataVector, a stack for a (trials, 4, 4) stack of states and a
    (trials, 4 * n_observables) count array."""
    counts, total = _count_rows(n, setup)
    R = _r_stack(np.reshape(rho, (-1, 4, 4)), counts, total, setup)
    return R[0] if isinstance(n, DataVector) else R


def mle_reconstruct(n, setup: MeasurementSetup, cfg: MLEConfig = MLEConfig()) -> np.ndarray:
    """Iterate rho <- normalize(R rho R) from the maximally mixed state for a
    fixed number of iterations. A DataVector gives one state; a
    (trials, 4 * n_observables) count array gives one state per row, all
    iterated at once, each with the bits of its single-row call."""
    counts, total = _count_rows(n, setup)
    rho = np.broadcast_to(np.eye(4, dtype=complex) / 4, (len(counts), 4, 4)).copy()
    for _ in range(cfg.iterations):
        R = _r_stack(rho, counts, total, setup)
        rho = R @ rho @ R
        rho /= np.einsum("bii->b", rho).real[:, None, None]
        rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho[0] if isinstance(n, DataVector) else rho


def _check_total(total_shots: int) -> int:
    if total_shots < 9 or total_shots % 9 != 0:
        raise ValueError("total shots must be a positive multiple of 9")
    return total_shots // 9


def tomographic_success_rate(p: ScenarioParams, totals, alpha: float, trials: int,
                             seed: int, lambda_trials: int = 10000) -> SuccessRateReport:
    """Likelihood-ratio distinction on full-tomography data; shots are split
    evenly over the 9 observables, so totals must be multiples of 9."""
    per_obs = [_check_total(int(t)) for t in totals]
    return distinction_success_rate(p, TOMOGRAPHY_OBSERVABLES, per_obs, alpha,
                                    trials, seed, lambda_trials)


def _tomo_counts(rho: np.ndarray, N: int, seed: int, tag: int, trials: int):
    """(trials, 36) multinomial counts of N shots per tomography observable."""
    pv = outcome_probabilities(rho, TOMOGRAPHY_OBSERVABLES)
    return _draw_counts(pv, N, seed, (tag, N), trials).reshape(trials, -1)


def negativity_exceedance(p: ScenarioParams, shots_per_tomography: int, trials: int,
                          seed: int) -> float:
    """Fraction of alternative-hypothesis reconstructions whose negativity
    exceeds the 99th percentile (nearest rank) of the null reconstructions'
    negativities by more than 1e-12: a tie decides for the null, whatever
    its rounding. Both states are taken at the optimal W1 fall time."""
    N = _check_total(shots_per_tomography)
    setup = MeasurementSetup(TOMOGRAPHY_OBSERVABLES)
    tau = optimal_fall_time(p, w1()).tau
    counts_a = _tomo_counts(spin_state(p.with_hypothesis(True), tau), N, seed,
                            _TAG_TOMO_ALT, trials)
    counts_0 = _tomo_counts(spin_state(p.with_hypothesis(False), tau), N, seed,
                            _TAG_TOMO_NULL, trials)
    neg_a = negativity(mle_reconstruct(counts_a, setup))
    neg_0 = negativity(mle_reconstruct(counts_0, setup))
    threshold = np.sort(neg_0)[int(np.ceil(0.99 * trials)) - 1]
    return float(np.mean(neg_a - threshold > 1e-12))


def reconstruction_batch(p: ScenarioParams, shots_per_tomography: int, trials: int,
                         seed: int, hypothesis: str = "alt"):
    """Reconstruct ``trials`` simulated tomographies of one hypothesis state
    at the optimal W1 fall time.

    Returns (negativities, fidelities to the true state), one entry per trial.
    """
    if hypothesis not in ("alt", "null"):
        raise ValueError("hypothesis must be 'alt' or 'null'")
    N = _check_total(shots_per_tomography)
    tau = optimal_fall_time(p, w1()).tau
    rho = spin_state(p.with_hypothesis(hypothesis == "alt"), tau)
    tag = _TAG_FID if hypothesis == "alt" else _TAG_FID + 1
    counts = _tomo_counts(rho, N, seed, tag, trials)
    rec = mle_reconstruct(counts, MeasurementSetup(TOMOGRAPHY_OBSERVABLES))
    return negativity(rec), fidelity(rec, rho)


def write_batch_csv(path, shots: int, hypothesis: str, negativities, fidelities) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shots", "hypothesis", "trial", "negativity",
                         "fidelity_to_truth"])
        for t, (neg, fid) in enumerate(zip(negativities, fidelities)):
            writer.writerow([shots, hypothesis, t, f"{neg:.12g}", f"{fid:.12g}"])

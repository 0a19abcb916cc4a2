"""Fixed-point maximum-likelihood state reconstruction from stacks of Pauli
outcome counts, and the tomography statistics built on it: reconstruction
negativities and fidelities, and the negativity-exceedance test."""
from __future__ import annotations

import numpy as np

from .model import ScenarioParams, spin_state
from .qstate import MeasurementSetup, fidelity, negativity
from .stats import _STREAM_TAGS, ProbabilityVector, _count_rows, _draw_counts, _is_count
from .witnesses import optimal_fall_time

__all__ = [
    "TOMOGRAPHY_OBSERVABLES",
    "mle_reconstruct",
    "negativity_exceedance",
    "reconstruction_batch",
]

#: the 9 informationally complete pairs with both factors in X/Y/Z
TOMOGRAPHY_OBSERVABLES = tuple((a, b) for a in "XYZ" for b in "XYZ")


def _r_stack(rho, freq, total, setup: MeasurementSetup, columns, coords, probs, out) -> np.ndarray:
    """Real form of R per real-form state of a (trials, 8, 8) stack, against its
    row of frequencies n / total, written into ``out`` (trials, 8, 8) and
    returned. ``columns`` is the C-contiguous (32, 4 * n_obs) probability matrix,
    ``coords`` (trials, 8, 4) and ``probs`` (trials, 4 * n_obs) work arrays. A
    counted outcome with probability <= 0 raises; an uncounted one weighs 0."""
    np.copyto(coords, rho[:, :, :4])
    np.matmul(coords.reshape(len(coords), 32), columns, out=probs)
    if (low := probs.min()) <= 0.0:
        dead = np.argwhere((freq > 0) & (probs <= 0.0))
        if len(dead):
            t, i = dead[0]
            raise ZeroDivisionError(
                f"trial {t}: projector {i} (observable {setup.observables[i // 4]}, outcome "
                f"{i % 4}) has zero probability but {round(freq[t, i] * total[t])} counts")
    if low < 1e-300:
        np.maximum(probs, 1e-300, out=probs)
    np.divide(freq, probs, out=probs)  # freq / max(p, 1e-300)
    np.matmul(probs, setup._forms, out=out.reshape(len(out), 64))
    return out


def mle_reconstruct(counts, setup: MeasurementSetup, iterations: int = 100) -> np.ndarray:
    """Iterate rho <- normalize(R rho R) from the maximally mixed state for a
    fixed number of iterations, no early stopping. A (trials, 4 *
    n_observables) count array gives a (trials, 4, 4) stack, one state per
    row, all iterated at once, each with the bits of its single-row call.
    The iterates are real forms [[A, -B], [B, A]] of rho = A + iB, written
    into work arrays allocated once per call."""
    if not _is_count(iterations):
        raise ValueError(f"iterations must be an integer >= 1, got {iterations!r}")
    freq = _count_rows(counts, len(setup.projectors))  # a float copy, divided in place
    trials = len(freq)
    if trials == 0:
        return np.empty((0, 4, 4), dtype=complex)
    if trials == 1:
        freq = freq.repeat(2, 0)  # two rows keep the products on gemm, not gemv
    b = len(freq)
    total = freq.sum(axis=1)
    freq /= total[:, None]
    columns = np.concatenate(setup._blocks, axis=1)
    rho = np.broadcast_to(np.eye(8) / 4, (b, 8, 8)).copy()
    tmp = np.empty_like(rho)  # the two iterate buffers alternate
    R = np.empty_like(rho)
    probs = np.empty_like(freq)
    for _ in range(iterations):
        # the idle buffer's first 32 entries per state hold [Re rho, Im rho]
        _r_stack(rho, freq, total, setup, columns, tmp.reshape(b, 2, 8, 4)[:, 0], probs, R)
        np.matmul(R, rho, out=tmp)
        np.matmul(tmp, R, out=rho)
        np.add(rho, rho.swapaxes(-1, -2), out=tmp)  # twice the symmetric part
        rho, tmp = tmp, rho
        rho *= (2 / np.einsum("bii->b", rho))[:, None, None]  # Tr rho = half the 8x8 trace
    del tmp, R, probs  # freed before the complex result is built: a lower peak
    rho = rho[:trials]
    return rho[:, :4, :4] + 0.5j * (rho[:, 4:, :4] - rho[:, :4, 4:])  # exactly Hermitian


def _check_total(total_shots: int) -> int:
    if not _is_count(total_shots, 9) or total_shots % 9 != 0:
        raise ValueError(f"total shots must be a positive multiple of 9, got {total_shots!r}")
    return total_shots // 9


def _reconstruct(p: ScenarioParams, tau, alt: bool, N: int, seed: int, tag: int, trials: int,
                 reduce) -> np.ndarray:
    """``reduce(mles, rho)`` of the state rho of hypothesis ``alt`` at ``tau``
    and its MLEs from the (seed, tag, N) stream, one block of trials at a
    time, concatenated along the first axis."""
    rho = spin_state(p.with_hypothesis(alt), tau)
    setup = MeasurementSetup(TOMOGRAPHY_OBSERVABLES)
    return _draw_counts(ProbabilityVector(setup.probabilities(rho)), N, seed, (tag, N), trials,
                        lambda counts: reduce(mle_reconstruct(counts, setup), rho))


def negativity_exceedance(p: ScenarioParams, shots_per_tomography: int, trials: int,
                          seed: int) -> float:
    """Fraction of alternative-hypothesis reconstructions whose negativity
    exceeds the null negativities' nearest-rank 99th percentile (the rule of
    ``lambda_min``) by more than 1e-12: a tie decides for the null, whatever
    its rounding. Both states are taken at the optimal W1 fall time."""
    N = _check_total(shots_per_tomography)
    tau = optimal_fall_time(p).tau
    neg_a, neg_0 = (_reconstruct(p, tau, alt, N, seed, _STREAM_TAGS[tag], trials,
                                 lambda rec, _: negativity(rec))
                    for alt, tag in ((True, "tomo_alt"), (False, "tomo_null")))
    threshold = np.percentile(neg_0, 99.0, method="inverted_cdf")
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
    neg, fid = _reconstruct(p, optimal_fall_time(p).tau, hypothesis == "alt", N, seed,
                            _STREAM_TAGS[f"batch_{hypothesis}"], trials,
                            lambda rec, rho: np.stack([negativity(rec), fidelity(rec, rho)], -1)).T
    return neg, fid

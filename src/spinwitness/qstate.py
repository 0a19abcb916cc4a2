"""Exact 4x4 complex algebra and entanglement quantities for two qubits.

Everything here operates on plain ``numpy`` arrays: a two-qubit state is a
4x4 complex Hermitian, positive-semidefinite, unit-trace matrix with the
basis ordered |00>, |01>, |10>, |11> (index = 2*first_qubit + second_qubit).
The partial transpose acts on the second tensor factor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAULI",
    "OUTCOME_SIGNS",
    "MeasurementSetup",
    "pauli_tensor",
    "eigenbasis",
    "expectation",
    "partial_transpose",
    "negativity",
    "fidelity",
    "dephase",
    "cholesky_to_state",
    "state_to_cholesky_angles",
    "check_density_matrix",
]

# single-qubit Pauli matrices
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# columns are the +1 / -1 eigenvectors of each Pauli
_EIGVECS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex),
}

#: the eigenvalue of each outcome of an ``eigenbasis``: the products of the
#: single-qubit signs (+,+), (+,-), (-,+), (-,-)
OUTCOME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _check_obs(obs) -> None:
    left, right = obs
    if left not in PAULI or right not in PAULI:
        raise ValueError(f"Pauli labels must be in I/X/Y/Z, got {obs!r}")


# all 16 two-qubit Pauli products, built once
_PAULI_TENSORS = {(a, b): np.kron(PAULI[a], PAULI[b]) for a in PAULI for b in PAULI}


def pauli_tensor(obs: tuple) -> np.ndarray:
    """Kronecker product of the two single-qubit Paulis named by ``obs``, as
    a fresh array the caller may write to."""
    _check_obs(obs)
    return _PAULI_TENSORS[obs[0], obs[1]].copy()


def eigenbasis(obs: tuple) -> np.ndarray:
    """The (4, 4, 4) rank-1 eigenprojectors of a two-qubit Pauli observable:
    outcome j = 2 i + k projects onto the product of single-qubit
    eigenvectors i and k (0 for +1, 1 for -1), with eigenvalue
    ``OUTCOME_SIGNS[j]``.

    The identity factor is rejected: a degenerate eigenbasis has no
    well-defined four-outcome measurement.
    """
    _check_obs(obs)
    left, right = obs
    if "I" in (left, right):
        raise ValueError("eigenbasis requires X/Y/Z on both factors")
    v = (_EIGVECS[left].T[:, None, :, None] * _EIGVECS[right].T[None, :, None, :]).reshape(4, 4)
    return v[:, :, None] * v.conj()[:, None, :]


@dataclass(frozen=True)
class MeasurementSetup:
    """Pauli observables and their stacked eigenprojectors P_p, shape
    (4 * n_observables, 4, 4), row p = 4 * i + j being outcome j of
    observable i. Tr(rho P_p) = [Re rho, Im rho] . [Re P_p, Im P_p]: the
    probabilities are BLAS products with one (32, 4) block of these rows per
    observable, operators with the P_p's real forms [[Re, -Im], [Im, Re]] as
    one C-contiguous (4 * n_observables, 64) array. Stack rows keep their bits."""

    observables: tuple
    projectors: np.ndarray = field(init=False, repr=False, compare=False)
    _blocks: np.ndarray = field(init=False, repr=False, compare=False)
    _forms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = tuple(self.observables)
        projs = np.concatenate([eigenbasis(o) for o in obs])
        rows = _real_coordinates(projs)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "_blocks", np.ascontiguousarray(
            rows.reshape(len(obs), 4, 32).swapaxes(1, 2)))
        re, im = rows.reshape(-1, 2, 4, 4).swapaxes(0, 1)
        object.__setattr__(self, "_forms", np.block([[re, -im], [im, re]]).reshape(-1, 64))

    def probabilities(self, rho) -> np.ndarray:
        """Tr(rho P_p) of one state or a stack of shape (..., 4, 4), by p."""
        x = _real_coordinates(rho)
        y = _matmul_rows(x.reshape(-1, 32), self._blocks)
        return y.swapaxes(0, 1).reshape(x.shape[:-1] + (len(self.projectors),))

    def operator(self, weights) -> np.ndarray:
        """sum_p w_p P_p, a 4x4 matrix per row of real weights w."""
        r = self._real_operator(weights)
        return r[..., :4, :4] + 1j * r[..., 4:, :4]

    def _real_operator(self, weights) -> np.ndarray:
        """Real form [[Re O, -Im O], [Im O, Re O]] of O = sum_p w_p P_p per row of w."""
        w = np.asarray(weights)
        y = _matmul_rows(w.reshape(-1, w.shape[-1]), self._forms)
        return y.reshape(w.shape[:-1] + (8, 8))


def _matmul_rows(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat for a (stack, k) array; a lone row goes in twice, not to gemv."""
    return np.matmul(rows if len(rows) > 1 else rows.repeat(2, 0), mat)[..., :len(rows), :]


def _real_coordinates(rho) -> np.ndarray:
    """[Re rho, Im rho] of shape (..., 32) for matrices of shape (..., 4, 4)."""
    flat = np.reshape(rho, np.shape(rho)[:-2] + (16,))
    return np.concatenate((flat.real, flat.imag), axis=-1)


def expectation(rho: np.ndarray, obs: tuple) -> float:
    """Tr(rho * sigma) for the bipartite Pauli ``obs``; real for valid states."""
    return float(np.real(np.trace(rho @ pauli_tensor(obs))))


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on the second tensor factor (rho^Gamma2) of one state or of
    a stack of shape (..., 4, 4)."""
    rho = np.asarray(rho)
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)


def negativity(rho: np.ndarray):
    """Sum of |negative eigenvalues| of the partial transpose: a float for
    one state, an array for a stack of shape (..., 4, 4). States with a
    positive partial transpose give +0.0."""
    ev = np.linalg.eigvalsh(partial_transpose(rho))
    neg = 0.0 - np.minimum(ev, 0.0).sum(axis=-1)  # 0.0 - (-0.0) is +0.0
    return float(neg) if neg.ndim == 0 else neg


def _sqrt_eigenvalues(w: np.ndarray, what: str) -> np.ndarray:
    """Square roots of PSD eigenvalues, each below 8 eps times its matrix's
    largest set to 0 first (the root of ~1e-16 is ~1e-8). Raises below -1e-9."""
    if w.min(initial=0.0) < -1e-9:
        raise ValueError(f"{what} not PSD: min eigenvalue {w.min():.3e}")
    return np.sqrt(np.where(w < 8 * np.finfo(float).eps * w.max(-1, keepdims=True), 0.0, w))


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]: a
    float for two states, an array for stacks of shape (..., 4, 4), which
    broadcast against each other."""
    w, v = np.linalg.eigh(rho)
    sq = (v * _sqrt_eigenvalues(w, "matrix is")[..., None, :]) @ v.conj().swapaxes(-1, -2)
    mid = sq @ sigma @ sq
    mid = 0.5 * (mid + mid.conj().swapaxes(-1, -2))
    w = _sqrt_eigenvalues(np.linalg.eigvalsh(mid), "inner matrix")
    fid = np.minimum(w.sum(axis=-1) ** 2, 1.0)
    return float(fid) if fid.ndim == 0 else fid


def dephase(rho: np.ndarray, p: float) -> np.ndarray:
    """Apply the single-qubit phase-damping map (1-p) rho + p Z rho Z to both
    qubits."""
    out = np.asarray(rho, dtype=complex)
    for obs in (("Z", "I"), ("I", "Z")):
        z = pauli_tensor(obs)
        out = (1 - p) * out + p * (z @ out @ z)
    return out


# positions of l_1..l_10 in the lower-triangular factor
_L_SLOTS = [(0, 0), (1, 1), (2, 2), (3, 3),
            (1, 0), (2, 1), (3, 2),
            (2, 0), (3, 1), (3, 0)]
_L_ROWS, _L_COLS = np.array(_L_SLOTS).T
_L_FLAT = 4 * _L_ROWS + _L_COLS  # their positions in a flattened 4x4
# d l_m / d phi_p is nonzero only at angle 9 + p and entry 4 + p: flat 10 (9 + p) + 4 + p
_PHI_FLAT = 11 * np.arange(6) + 94
_EYE9 = np.eye(9, dtype=bool)
_UPPER9 = np.triu(np.ones((9, 9)))


def cholesky_to_state(angles) -> np.ndarray:
    """L L^dagger: always Hermitian, PSD and unit trace by construction.

    ``angles`` has shape (..., 15): the hypersphere coordinates of the
    Cholesky factor L, 9 thetas then 6 phis. The thetas set the magnitudes
    of the ten lower-triangular entries of L through the usual 9-sphere
    recursion, the phis the phases of the six strictly-lower entries. Any
    finite values are valid; the map onto states is periodic. A stack of
    angle vectors gives a stack of states.
    """
    x = np.asarray(angles, dtype=float)
    if x.shape[-1:] != (15,):
        raise ValueError(f"expected 9 thetas and 6 phis, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("angles must be finite")
    L = _cholesky_factor(x)
    return L @ L.conj().swapaxes(-1, -2)


def _cholesky_factor(x: np.ndarray, jacobian: bool = False):
    """The Cholesky factor L at finite angles of shape (..., 15) (see
    ``cholesky_to_state``) and, with ``jacobian``, the derivatives
    d l_m / d x_k of its ten entries l_m = L[_L_ROWS[m], _L_COLS[m]], of
    shape (..., 15, 10)."""
    lead = x.shape[:-1]
    th, ph = x[..., :9], x[..., 9:]
    sin, cos = np.sin(th), np.cos(th)
    # 9-sphere recursion: the magnitudes of the ten entries of L, unit norm
    sines = np.ones(lead + (10,))
    np.multiply.accumulate(sin, axis=-1, out=sines[..., 1:])  # np.cumprod, undispatched
    mags = sines.copy()
    mags[..., :9] *= cos
    entries = mags.astype(complex)
    phase = np.exp(1j * ph)
    entries[..., 4:] *= phase
    L = np.zeros(lead + (4, 4), dtype=complex)
    L.reshape(lead + (16,))[..., _L_FLAT] = entries
    if not jacobian:
        return L
    jac = np.zeros(lead + (15, 10), dtype=complex)
    jac.reshape(lead + (150,))[..., _PHI_FLAT] = 1j * entries[..., 4:]
    # the theta rows, real until their phases: d sines[i + 1] / d theta_j is the
    # running product with sin(theta_j) replaced by cos(theta_j), zero where i < j
    dmags = jac.real[..., :9, :]
    np.multiply.accumulate(np.where(_EYE9, cos[..., None, :], sin[..., None, :]),
                           axis=-1, out=dmags[..., 1:])
    dmags[..., 1:] *= _UPPER9
    dmags[..., :9] *= cos[..., None, :]
    dmags[..., :9] -= _EYE9 * sines[..., None, 1:]  # sines[i] sin(theta_i) is sines[i + 1]
    jac[..., :9, 4:] *= phase[..., None, :]
    return L, jac


def state_to_cholesky_angles(rho: np.ndarray) -> np.ndarray:
    """The (15,) angles, 9 thetas then 6 phis, whose state reproduces ``rho``
    (up to the 1e-12 eigenvalue floor needed to Cholesky-factor
    rank-deficient states)."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    w = np.clip(w, 1e-12, None)
    reg = (v * w) @ v.conj().T
    reg /= np.real(np.trace(reg))
    L = np.linalg.cholesky(reg)
    entries = np.array([L[i, j] for i, j in _L_SLOTS])
    thetas = np.zeros(9)
    prod = 1.0
    for k in range(9):
        mag = entries[k].real if k < 4 else abs(entries[k])
        c = np.clip(mag / prod, -1.0, 1.0) if prod > 1e-300 else 1.0
        thetas[k] = np.arccos(c)
        prod *= np.sin(thetas[k])
    phis = np.array([np.angle(e) if abs(e) > 1e-300 else 0.0 for e in entries[4:]])
    return np.concatenate([thetas, phis])


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless ``rho`` is a valid two-qubit state: Hermitian
    to 1e-12, unit trace to 1e-10 and PSD to 1e-9."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > 1e-12:
        raise ValueError(f"not Hermitian: max deviation {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"trace is {tr:.12g}, not 1")
    lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if lo < -1e-9:
        raise ValueError(f"not PSD: min eigenvalue {lo:.3e}")

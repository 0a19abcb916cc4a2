"""Exact 4x4 complex algebra and entanglement quantities for two qubits.

Everything here operates on plain ``numpy`` arrays: a two-qubit state is a
4x4 complex Hermitian, positive-semidefinite, unit-trace matrix with the
basis ordered |00>, |01>, |10>, |11> (index = 2*first_qubit + second_qubit).
The partial transpose acts on the second tensor factor.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAULI",
    "PauliObservable",
    "MeasurementBasis",
    "MeasurementSetup",
    "CholeskyAngles",
    "pauli_tensor",
    "eigenbasis",
    "expectation",
    "partial_transpose",
    "negativity",
    "fidelity",
    "purity",
    "dephase",
    "cholesky_to_state",
    "state_to_cholesky_angles",
    "check_density_matrix",
    "state_to_json",
    "state_from_json",
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

#: a bipartite Pauli observable, e.g. ("X", "Z")
PauliObservable = tuple


def _check_obs(obs) -> None:
    left, right = obs
    if left not in PAULI or right not in PAULI:
        raise ValueError(f"Pauli labels must be in I/X/Y/Z, got {obs!r}")


def pauli_tensor(obs: PauliObservable) -> np.ndarray:
    """Kronecker product of the two single-qubit Paulis named by ``obs``."""
    _check_obs(obs)
    return np.kron(PAULI[obs[0]], PAULI[obs[1]])


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 eigenprojectors of a bipartite Pauli pair.

    ``projectors`` has shape (4, 4, 4); outcome j projects onto the product
    of single-qubit eigenvectors with signs (+,+), (+,-), (-,+), (-,-), and
    ``eigenvalues[j]`` is the corresponding product of signs.
    """

    observable: PauliObservable
    projectors: np.ndarray
    eigenvalues: np.ndarray


def eigenbasis(obs: PauliObservable) -> MeasurementBasis:
    """Eigenprojectors and eigenvalues of a two-qubit Pauli observable.

    The identity factor is rejected: a degenerate eigenbasis has no
    well-defined four-outcome measurement.
    """
    _check_obs(obs)
    left, right = obs
    if "I" in (left, right):
        raise ValueError("eigenbasis requires X/Y/Z on both factors")
    projs = np.empty((4, 4, 4), dtype=complex)
    vals = np.empty(4)
    k = 0
    for i, si in ((0, 1.0), (1, -1.0)):
        for j, sj in ((0, 1.0), (1, -1.0)):
            v = np.kron(_EIGVECS[left][:, i], _EIGVECS[right][:, j])
            projs[k] = np.outer(v, v.conj())
            vals[k] = si * sj
            k += 1
    return MeasurementBasis(obs, projs, vals)


@dataclass(frozen=True)
class MeasurementSetup:
    """Pauli observables, their stacked eigenprojectors P_p, shape
    (4 * n_observables, 4, 4) with row p = 4 * i + j outcome j of observable
    i, and the real design matrix D, shape (32, 4 * n_observables), with
    Tr(rho P_p) = [Re rho, Im rho] . D[:, p]. Probabilities and operators are
    one einsum over D each, so a row of a stack gets the bits of one call."""

    observables: tuple
    projectors: np.ndarray = field(init=False, repr=False, compare=False)
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = tuple(self.observables)
        projs = np.concatenate([eigenbasis(o).projectors for o in obs])
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "design", _real_coordinates(projs).T.copy())

    def probabilities(self, rho) -> np.ndarray:
        """Tr(rho P_p) of one state or a stack of shape (..., 4, 4), by p."""
        return np.einsum("...k,kp->...p", _real_coordinates(rho), self.design)

    def operator(self, weights) -> np.ndarray:
        """sum_p w_p P_p, a 4x4 matrix per row of real weights w."""
        y = np.einsum("...p,kp->...k", weights, self.design)
        return (y[..., :16] + 1j * y[..., 16:]).reshape(y.shape[:-1] + (4, 4))


def _real_coordinates(rho) -> np.ndarray:
    """[Re rho, Im rho] of shape (..., 32) for matrices of shape (..., 4, 4)."""
    flat = np.reshape(rho, np.shape(rho)[:-2] + (16,))
    return np.concatenate((flat.real, flat.imag), axis=-1)


def expectation(rho: np.ndarray, obs: PauliObservable) -> float:
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


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    return float(np.real(np.trace(rho @ rho)))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Matrix square root via eigendecomposition, clamping eigenvalues in
    [-1e-9, 0) to zero; one matrix or a stack of shape (..., 4, 4)."""
    w, v = np.linalg.eigh(rho)
    if w.min() < -1e-9:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]: a
    float for two states, an array for stacks of shape (..., 4, 4), which
    broadcast against each other."""
    sq = _psd_sqrt(rho)
    mid = sq @ sigma @ sq
    mid = 0.5 * (mid + mid.conj().swapaxes(-1, -2))
    w = np.linalg.eigvalsh(mid)
    if w.min() < -1e-9:
        raise ValueError(f"inner matrix not PSD: min eigenvalue {w.min():.3e}")
    fid = np.minimum(np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1) ** 2, 1.0)
    return float(fid) if fid.ndim == 0 else fid


def dephase(rho: np.ndarray, p: float) -> np.ndarray:
    """Apply the single-qubit phase-damping map (1-p) rho + p Z rho Z to both
    qubits."""
    out = np.asarray(rho, dtype=complex)
    for obs in (("Z", "I"), ("I", "Z")):
        z = pauli_tensor(obs)
        out = (1 - p) * out + p * (z @ out @ z)
    return out


@dataclass(frozen=True)
class CholeskyAngles:
    """Hypersphere coordinates of the Cholesky factor of a two-qubit state.

    ``thetas`` (9 angles) set the magnitudes of the ten lower-triangular
    entries of L through the usual 9-sphere recursion, ``phis`` (6 angles)
    are the phases of the six strictly-lower entries. Any real values are
    valid; the map onto states is periodic.
    """

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        phis = np.asarray(self.phis, dtype=float)
        if thetas.shape != (9,) or phis.shape != (6,):
            raise ValueError("expected 9 thetas and 6 phis")
        if not (np.isfinite(thetas).all() and np.isfinite(phis).all()):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.thetas, self.phis])

    @classmethod
    def from_vector(cls, x) -> "CholeskyAngles":
        x = np.asarray(x, dtype=float)
        return cls(x[:9], x[9:])


# positions of l_1..l_10 in the lower-triangular factor
_L_SLOTS = [(0, 0), (1, 1), (2, 2), (3, 3),
            (1, 0), (2, 1), (3, 2),
            (2, 0), (3, 1), (3, 0)]
_L_ROWS, _L_COLS = np.array(_L_SLOTS).T


def cholesky_to_state(angles) -> np.ndarray:
    """L L^dagger: always Hermitian, PSD and unit trace by construction.

    ``angles`` is a :class:`CholeskyAngles` or an array of shape (..., 15),
    9 thetas then 6 phis; a stack of angle vectors gives a stack of states.
    """
    x = angles.as_vector() if isinstance(angles, CholeskyAngles) \
        else np.asarray(angles, dtype=float)
    if x.shape[-1:] != (15,):
        raise ValueError(f"expected 9 thetas and 6 phis, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("angles must be finite")
    lead = x.shape[:-1]
    th, ph = x[..., :9], x[..., 9:]
    # 9-sphere recursion: the magnitudes of the ten entries of L, unit norm
    sines = np.concatenate((np.ones(lead + (1,)), np.cumprod(np.sin(th), axis=-1)),
                           axis=-1)
    mags = np.empty(lead + (10,))
    mags[..., :9] = sines[..., :9] * np.cos(th)
    mags[..., 9] = sines[..., 9]
    entries = mags.astype(complex)
    entries[..., 4:] *= np.exp(1j * ph)
    L = np.zeros(lead + (4, 4), dtype=complex)
    L[..., _L_ROWS, _L_COLS] = entries
    return L @ L.conj().swapaxes(-1, -2)


def state_to_cholesky_angles(rho: np.ndarray) -> CholeskyAngles:
    """Angle coordinates whose state reproduces ``rho`` (up to the 1e-12
    eigenvalue floor needed to Cholesky-factor rank-deficient states)."""
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
    return CholeskyAngles(thetas, phis)


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


def state_to_json(rho: np.ndarray) -> str:
    """Serialize a state as {"re": [[...]], "im": [[...]]}, row-major."""
    rho = np.asarray(rho, dtype=complex)
    return json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()})


def state_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)

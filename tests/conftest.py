"""Shared samplers and brute-force oracles, kept independent of the package
paths they check."""
import numpy as np
import pytest
from hypothesis import settings

# property tests: the same examples on every run, no example database written
# into the checkout, and no per-example deadline on a busy shared host
settings.register_profile("spinwitness", database=None, deadline=None,
                          derandomize=True)
settings.load_profile("spinwitness")

# independent Pauli literals for oracle-side computations
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)
ORACLE_PAULI = {"I": SI, "X": SX, "Y": SY, "Z": SZ}


def oracle_kron(a: str, b: str) -> np.ndarray:
    return np.kron(ORACLE_PAULI[a], ORACLE_PAULI[b])


def oracle_partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Element-by-element partial transpose on the second qubit."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
    return out


def oracle_negativity(rho: np.ndarray) -> float:
    """Brute-force negativity: general eigenvalues of the element-loop
    partial transpose, negatives summed one by one."""
    ev = np.linalg.eigvals(oracle_partial_transpose(rho))
    total = 0.0
    for lam in ev:
        if lam.real < 0:
            total += abs(lam.real)
    return total


def random_state(rng, rank: int = 4) -> np.ndarray:
    a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_product(rng) -> np.ndarray:
    vecs = []
    for _ in range(2):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vecs.append(v / np.linalg.norm(v))
    return np.kron(vecs[0], vecs[1])


def random_separable_state(rng, max_terms: int = 8) -> np.ndarray:
    """Convex mixture of up to max_terms Haar-random pure product states."""
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        psi = random_pure_product(rng)
        rho += w * np.outer(psi, psi.conj())
    return rho


def random_scenario(rng):
    """Random but physical scenario parameters."""
    from spinwitness import ScenarioParams
    d = rng.uniform(300e-6, 600e-6)
    delta = rng.uniform(0.05, 0.45) * d / 2
    return ScenarioParams(
        mass=10 ** rng.uniform(-15, -13),
        separation_d=d,
        half_split_delta=delta,
        dephasing_gamma=rng.uniform(0.0, 0.5),
        sphere_radius_R=rng.uniform(0.5e-6, 2e-6),
        permittivity_eps=rng.uniform(1.0, 10.0),
        cp_scale=rng.uniform(0.0, 2.0),
        gravity_on=bool(rng.integers(0, 2)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

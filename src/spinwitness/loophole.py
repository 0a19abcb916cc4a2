"""Search for witness-indistinguishable low-negativity states: constrained
negative-log-likelihood minimization over the Cholesky-angle parametrization
of the two-qubit state space."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .qstate import (_L_COLS, _L_ROWS, MeasurementSetup, _cholesky_factor,
                     check_density_matrix, cholesky_to_state, negativity,
                     partial_transpose, state_to_cholesky_angles)
from .stats import _STREAM_TAGS, _check_seed, _count_rows, _is_count, trial_rng
from .tomography import mle_reconstruct
from .witnesses import W1_OBSERVABLES

__all__ = [
    "OptimizationConfig",
    "LoopholeResult",
    "RestartRecord",
    "LoopholeVerification",
    "InfeasibleSearchError",
    "KNOWN_LOOPHOLE_STATE",
    "state_neg_log_likelihood",
    "find_loophole_state",
    "verify_loophole",
]

_LT_FLAT = 4 * _L_COLS + _L_ROWS  # where l_m sits in a flattened transpose

#: reference loophole state for the 350 um, gamma = 0.3 s^-1, tau = 0.34 s
#: setting, with entries rounded to three significant figures: it fits the
#: witness data as well as the true state while its negativity (~0.104) stays
#: below the null state's (~0.108).
KNOWN_LOOPHOLE_STATE = np.array([
    [0.256,           0.009 + 0.012j,  0.042 - 0.174j,  0.212 + 0.010j],
    [0.009 - 0.012j,  0.244,           0.109 - 0.022j, -0.008 + 0.004j],
    [0.042 + 0.174j,  0.109 + 0.023j,  0.246,           0.017 + 0.161j],
    [0.212 - 0.011j, -0.008 - 0.004j,  0.017 - 0.161j,  0.254],
])


@dataclass(frozen=True)
class OptimizationConfig:
    max_iterations: int = 150
    gradient_step: float = 1e-6  # central differences where the NLL is infinite
    constraint_margin: float = 1e-4
    restarts: int = 32

    def __post_init__(self):
        if not (_is_count(self.max_iterations) and _is_count(self.restarts)):
            raise ValueError("max_iterations and restarts must be integers >= 1")
        # the state is 2 pi-periodic in each angle: at a step of pi every
        # central difference is zero, and past it a difference can flip sign
        if not (0 < self.gradient_step < math.pi and 0 <= self.constraint_margin < math.inf):
            raise ValueError("gradient_step must be finite and > 0 and < pi, and "
                             "constraint_margin finite and >= 0")


@dataclass(frozen=True)
class RestartRecord:
    """One SLSQP run of a search: its ``start`` ("mle" or "random"), and
    SLSQP's ``status``, ``nit``, ``nfev`` and final ``fun``, which are None
    when the run raised; ``error`` is then the ``repr`` of the exception,
    and None otherwise."""

    start: str
    status: int | None
    nit: int | None
    nfev: int | None
    fun: float | None
    error: str | None


@dataclass(frozen=True, eq=False)
class LoopholeResult:
    """Best feasible state found: its fit to the data and its entanglement,
    plus one ``RestartRecord`` per restart, in restart order."""

    state: np.ndarray
    nll: float
    negativity: float
    constraint_satisfied: bool
    restarts: tuple = ()


class InfeasibleSearchError(RuntimeError):
    """No feasible point found across restarts."""


def _nll(probs: np.ndarray, index: np.ndarray, counted: np.ndarray):
    """-sum n_i log p_i over the counted outcomes (at ``index``, with counts
    ``counted``) for one row of probabilities (a float) or a stack (an array),
    +inf where a counted outcome has probability <= 0. Each row is summed from
    a C-contiguous array, so a stack gives the bits of one call per row."""
    p = probs.take(index, axis=-1)
    if p.min() > 0.0:
        nll = -(counted * np.log(p)).sum(axis=-1)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            nll = np.where((p <= 0.0).any(axis=-1), math.inf,
                           -(counted * np.log(p)).sum(axis=-1))
    return float(nll) if probs.ndim == 1 else nll


def state_neg_log_likelihood(rho: np.ndarray, n, observables):
    """-sum n_i log Tr(rho P_i) for a count row n; +inf when a counted
    outcome has zero probability (an infinitely bad fit the optimizer can
    move away from). A float for one state, an array for a stack of shape
    (..., 4, 4)."""
    setup = MeasurementSetup(observables)
    counts = _count_rows([n], len(setup.projectors))[0]
    return _nll(setup.probabilities(rho), np.flatnonzero(counts), counts[counts > 0])


class _Search:
    """SLSQP callbacks of one search (NLL objective, negativity constraint
    and their exact Jacobians) and the incumbent: the best feasible point at
    which the objective was evaluated. SLSQP asks for the objective and
    constraint, and for both Jacobians, at the same x (updated in place, so
    keyed by its bytes): the state at x, its outcome probabilities and its
    Cholesky factor with the factor's derivatives are built once; the counted
    outcomes of the count row, once per search."""

    def __init__(self, counts: np.ndarray, setup: MeasurementSetup, neg_cap: float,
                 h: float):
        self.counts, self.setup, self.neg_cap, self.h = counts, setup, neg_cap, h
        self.weighted = counts > 0
        self.index, self.counted = np.flatnonzero(self.weighted), counts[self.weighted]
        self.best: tuple | None = None  # (nll, negativity, angles)
        self._state = self._factor = (None, None)  # (key, value)

    def _at(self, x: np.ndarray):
        """(state, NLL, negativity, outcome probabilities) at x."""
        key = x.tobytes()
        if self._state[0] != key:
            rho = cholesky_to_state(np.frombuffer(key))
            probs = self.setup.probabilities(rho)
            self._state = key, (rho, _nll(probs, self.index, self.counted), negativity(rho), probs)
        return self._state[1]

    def _gradient(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Tr(weights d rho / d x_k) = 2 Re Tr(L^dagger weights dL / d x_k)
        for each angle k, for Hermitian weights."""
        key = x.tobytes()
        if self._factor[0] != key:
            self._factor = key, _cholesky_factor(np.frombuffer(key), jacobian=True)
        L, dl = self._factor[1]
        return 2 * (dl @ (L.conj().T @ weights).ravel()[_LT_FLAT]).real

    def consider(self, x: np.ndarray, fx: float, neg: float) -> None:
        if self.neg_cap - neg < -1e-9 or not math.isfinite(fx):
            return
        best = self.best
        if best is None or fx < best[0] - 1e-12 or \
                (abs(fx - best[0]) <= 1e-12 and neg < best[1]):
            self.best = (float(fx), float(neg), x.copy())

    def objective(self, x: np.ndarray) -> float:
        _, fx, neg, _ = self._at(x)
        self.consider(x, fx, neg)
        return fx if math.isfinite(fx) else 1e300

    def constraint(self, x: np.ndarray) -> float:
        return self.neg_cap - self._at(x)[2]

    def objective_jac(self, x: np.ndarray) -> np.ndarray:
        """-Tr(W d rho / d x_k) with W = sum_p (n_p / p_p) P_p over the
        counted outcomes. Where a counted outcome has zero probability (an
        infinite NLL) it is the central difference of the objective with
        step h instead; its probes are not offered to the incumbent."""
        _, fx, _, probs = self._at(x)
        if math.isfinite(fx):
            weights = np.divide(self.counts, probs, out=np.zeros(probs.shape), where=self.weighted)
            return -self._gradient(x, self.setup.operator(weights))
        steps = self.h * np.eye(x.size)
        states = cholesky_to_state(np.stack((x + steps, x - steps)))
        f = _nll(self.setup.probabilities(states), self.index, self.counted)
        f = np.where(np.isfinite(f), f, 1e300)
        return (f[0] - f[1]) / (2 * self.h)

    def constraint_jac(self, x: np.ndarray) -> np.ndarray:
        """Tr(Q d rho / d x_k) with Q = (v v^dagger)^Gamma summed over the
        eigenvectors v of rho^Gamma with negative eigenvalues (at most one
        for two qubits): zero at a state with a positive partial transpose."""
        ev, v = np.linalg.eigh(partial_transpose(self._at(x)[0]))
        v = v[:, ev < 0]
        return self._gradient(x, partial_transpose(v @ v.conj().T))


def find_loophole_state(n, rho_null: np.ndarray,
                        cfg: OptimizationConfig = OptimizationConfig(),
                        seed: int = 0, observables=W1_OBSERVABLES) -> LoopholeResult:
    """Minimize the negative log-likelihood of the count row n over the 15
    Cholesky angles subject to negativity(state) <= negativity(rho_null) - margin.

    Multi-start: the fixed-point MLE of the data seeds the first restart, the
    rest start from uniform random angles. The incumbent is the best feasible
    point at which the objective was evaluated, so accepted improvements are
    monotone. Ties in likelihood break toward lower negativity. Every
    restart has its ``RestartRecord`` in ``restarts``; a restart whose SLSQP
    run raised records the exception's ``repr`` as its ``error``. A cap
    below zero, which no state meets, raises InfeasibleSearchError before
    any restart.
    """
    _check_seed(seed)  # before the MLE seed: trial_rng checks it at restart 1
    setup = MeasurementSetup(observables)
    neg_null = negativity(rho_null)
    neg_cap = neg_null - cfg.constraint_margin
    counts = _count_rows([n], len(setup.projectors))
    if neg_cap + 1e-9 < 0:  # every state fails _Search.consider: negativity >= 0
        raise InfeasibleSearchError(
            f"no feasible state exists: constraint negativity <= {neg_cap:.6g} "
            f"(null {neg_null:.6g}, margin {cfg.constraint_margin:g}) is below zero")
    search = _Search(counts[0], setup, neg_cap, cfg.gradient_step)

    starts = [state_to_cholesky_angles(mle_reconstruct(counts, setup)[0])]
    for r in range(cfg.restarts - 1):
        rng = trial_rng(seed, (_STREAM_TAGS["restart"],), r)
        starts.append(rng.uniform(0.0, np.pi, 15))

    records = []
    for r, x0 in enumerate(starts):
        search.objective(x0)  # offers x0 to the incumbent
        start = "random" if r else "mle"
        try:
            res = minimize(search.objective, x0, method="SLSQP",
                           jac=search.objective_jac,
                           constraints=[{"type": "ineq", "fun": search.constraint,
                                         "jac": search.constraint_jac}],
                           options={"maxiter": cfg.max_iterations, "ftol": 1e-10})
        except (ValueError, ZeroDivisionError) as exc:
            records.append(RestartRecord(start, None, None, None, None, repr(exc)))
        else:
            records.append(RestartRecord(start, int(res.status), int(res.nit),
                                         int(res.nfev), float(res.fun), None))

    if search.best is None:
        raise InfeasibleSearchError(
            f"no feasible state found in {cfg.restarts} restarts: constraint "
            f"negativity <= {neg_cap:.6g} (null {neg_null:.6g}, "
            f"margin {cfg.constraint_margin:g}); "
            f"{sum(r.error is not None for r in records)} restarts raised")

    nll, neg, angles = search.best
    return LoopholeResult(state=cholesky_to_state(angles), nll=nll,
                          negativity=neg, constraint_satisfied=True,
                          restarts=tuple(records))


@dataclass(frozen=True)
class LoopholeVerification:
    """Three-part report: entanglement ordering, likelihood comparison, and
    state-validity checks, plus validation of the known reference state."""

    negativity_null: float
    negativity_result: float
    ordering_ok: bool
    nll_result: float
    nll_rho_a: float
    likelihood_ok: bool
    state_ok: bool
    reference_state_ok: bool

    @property
    def passed(self) -> bool:
        return (self.ordering_ok and self.likelihood_ok and self.state_ok
                and self.reference_state_ok)


def _reference_state_ok() -> bool:
    rho = KNOWN_LOOPHOLE_STATE
    herm = 0.5 * (rho + rho.conj().T)
    if abs(np.trace(rho).real - 1.0) > 1e-3:
        return False
    if np.linalg.eigvalsh(herm).min() < -2e-3:
        return False
    return abs(negativity(herm) - 0.104) <= 3e-3


def verify_loophole(result: LoopholeResult, rho_a: np.ndarray,
                    rho_null: np.ndarray, n) -> LoopholeVerification:
    """The checks of a search result against W1 witness counts ``n``."""
    neg_null = negativity(rho_null)
    neg_res = negativity(result.state)
    nll_res = state_neg_log_likelihood(result.state, n, W1_OBSERVABLES)
    nll_a = state_neg_log_likelihood(rho_a, n, W1_OBSERVABLES)
    try:
        check_density_matrix(result.state)
        state_ok = True
    except ValueError:
        state_ok = False
    return LoopholeVerification(
        negativity_null=neg_null, negativity_result=neg_res,
        ordering_ok=neg_null > neg_res,
        nll_result=nll_res, nll_rho_a=nll_a,
        likelihood_ok=nll_res <= nll_a,
        state_ok=state_ok,
        reference_state_ok=_reference_state_ok())

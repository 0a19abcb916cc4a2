"""Search for witness-indistinguishable low-negativity states: constrained
negative-log-likelihood minimization over the Cholesky-angle parametrization
of the two-qubit state space."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .qstate import (MeasurementSetup, check_density_matrix, cholesky_to_state,
                     negativity, state_to_cholesky_angles)
from .stats import DataVector, trial_rng
from .tomography import MLEConfig, mle_reconstruct
from .witnesses import W1_OBSERVABLES

__all__ = [
    "OptimizationConfig",
    "LoopholeResult",
    "LoopholeVerification",
    "InfeasibleSearchError",
    "KNOWN_LOOPHOLE_STATE",
    "neg_log_likelihood",
    "state_neg_log_likelihood",
    "find_loophole_state",
    "verify_loophole",
    "result_to_json",
]

_TAG_RESTART = 21

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
    gradient_step: float = 1e-6
    constraint_margin: float = 1e-4
    restarts: int = 32

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be >= 1")
        if self.gradient_step <= 0 or self.constraint_margin < 0:
            raise ValueError("gradient_step must be > 0 and constraint_margin >= 0")


@dataclass(frozen=True)
class LoopholeResult:
    """Best feasible state found: its fit to the data and its entanglement,
    plus ``(restart index, repr(exception))`` for each restart that raised."""

    state: np.ndarray
    nll: float
    negativity: float
    constraint_satisfied: bool
    nll_reference: float
    restart_errors: tuple = ()


class InfeasibleSearchError(RuntimeError):
    """No feasible point found across restarts."""


def _neg_log_likelihood(rho: np.ndarray, counts: np.ndarray, setup: MeasurementSetup):
    """-sum n_i log Tr(rho P_i) for one state (a float) or a stack (an array).
    Each row is summed from a C-contiguous (stack, counted outcomes) array,
    so a stack gives the bits of one call per state."""
    stack = np.asarray(rho).reshape(-1, 4, 4)
    active = counts > 0
    probs = np.ascontiguousarray(setup.probabilities(stack)[:, active])
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = -np.sum(counts[active] * np.log(probs), axis=-1)
    nll[np.any(probs <= 0.0, axis=-1)] = math.inf
    return float(nll[0]) if np.ndim(rho) == 2 else nll.reshape(np.shape(rho)[:-2])


def state_neg_log_likelihood(rho: np.ndarray, n: DataVector, observables):
    """-sum n_i log Tr(rho P_i); +inf when a counted outcome has zero
    probability (an infinitely bad fit the optimizer can move away from).
    A float for one state, an array for a stack of shape (..., 4, 4)."""
    return _neg_log_likelihood(rho, n.flat.astype(float), MeasurementSetup(observables))


def neg_log_likelihood(angles, n: DataVector, observables):
    """:func:`state_neg_log_likelihood` of the state(s) at Cholesky angles
    (a :class:`CholeskyAngles` or an array of shape (..., 15))."""
    return state_neg_log_likelihood(cholesky_to_state(angles), n, observables)


class _Search:
    """SLSQP callbacks of one search (NLL objective, negativity constraint,
    central-difference Jacobians) and the incumbent: the best feasible point
    over every state evaluated. SLSQP asks for the objective and constraint,
    and for both Jacobians, at the same x (updated in place, so keyed by its
    bytes): the state at x and the stack of its probe states are built once."""

    def __init__(self, counts: np.ndarray, setup: MeasurementSetup, neg_cap: float,
                 h: float):
        self.counts, self.setup, self.neg_cap, self.h = counts, setup, neg_cap, h
        self.best: tuple | None = None  # (nll, negativity, angles)
        self._cache = [(None, None), (None, None)]  # [probes] -> (key, value)

    def _at(self, x: np.ndarray, probes: bool):
        """(angles, NLL, negativity) at x, or with ``probes`` the stack of
        probes x + h e_0, x - h e_0, x + h e_1, ... with arrays of both."""
        key = x.tobytes()
        if self._cache[probes][0] != key:
            points = np.frombuffer(key)
            if probes:
                steps = self.h * np.eye(x.size)
                points = np.empty((2 * x.size, x.size))
                points[0::2], points[1::2] = x + steps, x - steps
            rho = cholesky_to_state(points)
            nll = _neg_log_likelihood(rho, self.counts, self.setup)
            self._cache[probes] = key, (points, nll, negativity(rho))
        return self._cache[probes][1]

    def consider(self, x: np.ndarray, fx: float, neg: float) -> None:
        gap = self.neg_cap - neg
        if gap < -1e-9 or not np.isfinite(fx):
            return
        ng = self.neg_cap - gap
        best = self.best
        if best is None or fx < best[0] - 1e-12 or \
                (abs(fx - best[0]) <= 1e-12 and ng < best[1]):
            self.best = (float(fx), float(ng), x.copy())

    def objective(self, x: np.ndarray) -> float:
        _, fx, neg = self._at(x, False)
        self.consider(x, fx, neg)
        return fx if np.isfinite(fx) else 1e300

    def constraint(self, x: np.ndarray) -> float:
        return self.neg_cap - self._at(x, False)[2]

    def objective_jac(self, x: np.ndarray) -> np.ndarray:
        probes, fx, neg = self._at(x, True)
        for k in range(len(probes)):  # offered to the incumbent in probe order
            self.consider(probes[k], fx[k], neg[k])
        f = np.where(np.isfinite(fx), fx, 1e300)
        return (f[0::2] - f[1::2]) / (2 * self.h)

    def constraint_jac(self, x: np.ndarray) -> np.ndarray:
        c = self.neg_cap - self._at(x, True)[2]
        return (c[0::2] - c[1::2]) / (2 * self.h)


def find_loophole_state(n: DataVector, rho_null: np.ndarray,
                        cfg: OptimizationConfig = OptimizationConfig(),
                        seed: int = 0, observables=W1_OBSERVABLES,
                        rho_reference: np.ndarray | None = None) -> LoopholeResult:
    """Minimize the negative log-likelihood over the 15 Cholesky angles
    subject to negativity(state) <= negativity(rho_null) - margin.

    Multi-start: the fixed-point MLE of the data seeds the first restart, the
    rest start from uniform random angles. The incumbent is the best feasible
    point over every evaluation, so accepted improvements are monotone. Ties
    in likelihood break toward lower negativity. A restart whose SLSQP run
    raises is recorded in ``restart_errors``.
    """
    setup = MeasurementSetup(observables)
    neg_cap = negativity(rho_null) - cfg.constraint_margin
    search = _Search(n.flat.astype(float), setup, neg_cap, cfg.gradient_step)

    mle_state = mle_reconstruct(n, setup, MLEConfig(100))
    starts = [state_to_cholesky_angles(mle_state).as_vector()]
    for r in range(cfg.restarts - 1):
        rng = trial_rng(seed, (_TAG_RESTART,), r)
        starts.append(rng.uniform(0.0, np.pi, 15))

    errors = []
    for r, x0 in enumerate(starts):
        search.objective(x0)  # offers x0 to the incumbent
        try:
            minimize(search.objective, x0, method="SLSQP",
                     jac=search.objective_jac,
                     constraints=[{"type": "ineq", "fun": search.constraint,
                                   "jac": search.constraint_jac}],
                     options={"maxiter": cfg.max_iterations, "ftol": 1e-10})
        except (ValueError, ZeroDivisionError) as exc:
            errors.append((r, repr(exc)))

    if search.best is None:
        raise InfeasibleSearchError(
            f"no feasible state found in {cfg.restarts} restarts: constraint "
            f"negativity <= {neg_cap:.6g} (null {negativity(rho_null):.6g}, "
            f"margin {cfg.constraint_margin:g}); {len(errors)} restarts raised")

    nll_ref = math.nan
    if rho_reference is not None:
        nll_ref = state_neg_log_likelihood(rho_reference, n, observables)
    nll, neg, angles = search.best
    return LoopholeResult(state=cholesky_to_state(angles), nll=nll,
                          negativity=neg, constraint_satisfied=True,
                          nll_reference=nll_ref, restart_errors=tuple(errors))


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
                    rho_null: np.ndarray, n: DataVector,
                    observables=W1_OBSERVABLES) -> LoopholeVerification:
    neg_null = negativity(rho_null)
    neg_res = negativity(result.state)
    nll_res = state_neg_log_likelihood(result.state, n, observables)
    nll_a = state_neg_log_likelihood(rho_a, n, observables)
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


def result_to_json(result: LoopholeResult) -> str:
    rho = np.asarray(result.state, dtype=complex)
    return json.dumps({
        "state": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
        "nll": result.nll,
        "negativity": result.negativity,
        "constraint_satisfied": result.constraint_satisfied,
        "nll_reference": result.nll_reference,
    })

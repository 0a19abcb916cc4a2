"""Entanglement witnesses, expectation scans, decoherence thresholds and the
optimal free-fall time."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ScenarioParams, phase_rates, spin_state
from .qstate import pauli_tensor

__all__ = [
    "WitnessSpec",
    "OptimalFallTime",
    "W1_OBSERVABLES",
    "w0",
    "w1",
    "witness_expectation",
    "w1_expectation_closed_form",
    "w1_threshold",
    "optimal_fall_time",
    "witness_scan",
]

#: the three Pauli pairs measured for the short-time witness
W1_OBSERVABLES = (("X", "X"), ("Z", "Y"), ("Y", "Z"))


@dataclass(frozen=True)
class WitnessSpec:
    """A witness as a real combination of bipartite Pauli observables."""

    terms: tuple

    def matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for coeff, obs in self.terms:
            out += coeff * pauli_tensor(obs)
        return out


def w0() -> WitnessSpec:
    """I(x)I + X(x)Z + Y(x)Y: certifies entanglement only after sizeable
    phase accumulation."""
    return WitnessSpec(((1.0, ("I", "I")), (1.0, ("X", "Z")), (1.0, ("Y", "Y"))))


def w1() -> WitnessSpec:
    """I(x)I - X(x)X - Z(x)Y - Y(x)Z: negative immediately after the start of
    free fall for dephasing rates below :func:`w1_threshold`."""
    return WitnessSpec(((1.0, ("I", "I")), (-1.0, ("X", "X")),
                        (-1.0, ("Z", "Y")), (-1.0, ("Y", "Z"))))


#: times per block of a scan, and trials per block of a Monte Carlo draw: no
#: stack of states, of W or of counts grows with the grid or the trial count
_BLOCK = 512


def _state_blocks(p: ScenarioParams, tau):
    """spin_state(p, block) for each block of ``_BLOCK`` times of the flat grid ``tau``."""
    flat = np.asarray(tau, dtype=float).reshape(-1)
    return (spin_state(p, flat[i:i + _BLOCK]) for i in range(0, flat.size, _BLOCK))


def witness_expectation(p: ScenarioParams, tau, w: WitnessSpec) -> np.ndarray | float:
    """Tr(W rho(p, tau)) for a scalar or an array of times, with W rebuilt per
    state into a block buffer and each block of :func:`_state_blocks` traced
    as one stacked product (per-state bits): only the result grows with the grid."""
    vals = np.empty(np.size(tau))
    ws = np.empty((min(vals.size, _BLOCK), 4, 4), dtype=complex)

    def trace(rho):  # through map: each block is dropped once traced, before the next is built
        for j in range(len(rho)):
            ws[j] = w.matrix()
        return np.trace(ws[:len(rho)] @ rho, axis1=-2, axis2=-1).real

    for start, block in zip(range(0, vals.size, _BLOCK), map(trace, _state_blocks(p, tau))):
        vals[start:start + _BLOCK] = block
    return float(vals[0]) if np.isscalar(tau) else vals.reshape(np.shape(tau))


def w1_expectation_closed_form(p: ScenarioParams, tau) -> np.ndarray | float:
    """Closed form of Tr(W1 rho):
    1 - e^{-g t}(sin phi_LR + sin phi_RL) - e^{-2 g t}(1 + cos(phi_LR - phi_RL))/2.

    Accepts a scalar or an array of times.
    """
    return _w1_closed_form(phase_rates(p), p.dephasing_gamma, tau)


def _w1_closed_form(rates, gamma: float, tau) -> np.ndarray | float:
    t = np.asarray(tau, dtype=float)
    p1, p2 = rates.omega_lr * t, rates.omega_rl * t
    e1 = np.exp(-gamma * t)
    val = 1.0 - e1 * (np.sin(p1) + np.sin(p2)) - 0.5 * e1 ** 2 * (1 + np.cos(p1 - p2))
    return float(val) if np.isscalar(tau) else val


def w1_threshold(p: ScenarioParams) -> float:
    """Largest dephasing rate with immediate witnessing: (omega_LR + omega_RL)/2.

    Equals minus half the initial slope of the W1 scan at gamma = 0
    (d/dtau Tr(W1 rho)|_0 = 2*gamma - (omega_LR + omega_RL)).
    """
    rates = phase_rates(p)
    return (rates.omega_lr + rates.omega_rl) / 2.0


@dataclass(frozen=True)
class OptimalFallTime:
    """Minimizer of the W1 expectation; ``witnessing`` is False when the
    minimum is non-negative."""

    tau: float
    expectation: float
    witnessing: bool


def _golden_min(f, lo: float, hi: float):
    """Golden-section minimization of a unimodal f on [lo, hi], to 1e-4, or
    until the bracket stops shrinking: where the float spacing exceeds 1e-4
    the steps cycle through a few states (a, b, c, d), and a state seen
    before ends the search at the bracket it would keep forever."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    seen = set()
    while b - a > 1e-4 and (a, b, c, d) not in seen:
        seen.add((a, b, c, d))
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def optimal_fall_time(p: ScenarioParams, tau_max: float | None = None) -> OptimalFallTime:
    """Fall time minimizing the W1 expectation for the alternative
    (gravity-on) hypothesis: the closed form on a 2000-point grid, refined
    by golden section.

    The default window covers two periods of the separability phase:
    tau_max = 4 pi / (omega_LR + omega_RL).
    """
    alt = p.with_hypothesis(gravity_on=True)
    rates = phase_rates(alt)
    if tau_max is None:
        total = rates.omega_lr + rates.omega_rl
        if total <= 0:
            raise ValueError(f"cannot choose a default window: {rates!r} sum to {total!r} <= 0")
        tau_max = 4 * np.pi / total
    if not 0 < tau_max < math.inf:
        raise ValueError(f"tau_max must be finite and positive, got {tau_max!r}")

    def f(t):
        return float(_w1_closed_form(rates, alt.dephasing_gamma, float(t)))

    grid = np.linspace(0.0, tau_max, 2000)
    vals = _w1_closed_form(rates, alt.dephasing_gamma, grid)
    i = int(np.argmin(vals))
    tau, val = _golden_min(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
    if vals[i] < val:
        tau, val = grid[i], vals[i]
    return OptimalFallTime(float(tau), float(val), witnessing=bool(val < 0))


def witness_scan(p: ScenarioParams, w: WitnessSpec, taus) -> np.ndarray:
    """Witness expectation over a strictly increasing one-dimensional time
    grid at the scenario's dephasing rate; another grid raises ValueError."""
    values = witness_expectation(p, taus, w)  # first: a non-finite tau would make np.diff warn
    if np.ndim(taus) > 1 or (np.size(taus) > 1 and not np.all(np.diff(taus) > 0)):
        raise ValueError("taus must be strictly increasing along one axis")
    return values

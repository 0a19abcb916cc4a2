"""Entanglement witnesses, expectation scans, decoherence thresholds and the
optimal free-fall time."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import ScenarioParams, phase_rates, spin_state
from .qstate import pauli_tensor

__all__ = [
    "WitnessSpec",
    "WitnessScan",
    "OptimalFallTime",
    "W1_OBSERVABLES",
    "w0",
    "w1",
    "witness_expectation",
    "w1_expectation_closed_form",
    "w1_threshold",
    "optimal_fall_time",
    "witness_scan",
    "write_scan_csv",
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

    @property
    def observables(self):
        """Non-identity Pauli pairs in the combination."""
        return tuple(obs for _, obs in self.terms if obs != ("I", "I"))


def w0() -> WitnessSpec:
    """I(x)I + X(x)Z + Y(x)Y: certifies entanglement only after sizeable
    phase accumulation."""
    return WitnessSpec(((1.0, ("I", "I")), (1.0, ("X", "Z")), (1.0, ("Y", "Y"))))


def w1() -> WitnessSpec:
    """I(x)I - X(x)X - Z(x)Y - Y(x)Z: negative immediately after the start of
    free fall for dephasing rates below :func:`w1_threshold`."""
    return WitnessSpec(((1.0, ("I", "I")), (-1.0, ("X", "X")),
                        (-1.0, ("Z", "Y")), (-1.0, ("Y", "Z"))))


def witness_expectation(p: ScenarioParams, tau: float, w: WitnessSpec) -> float:
    """Tr(W rho(p, tau))."""
    return float(np.real(np.trace(w.matrix() @ spin_state(p, tau))))


def w1_expectation_closed_form(p: ScenarioParams, tau) -> np.ndarray | float:
    """Closed form of Tr(W1 rho):
    1 - e^{-g t}(sin phi_LR + sin phi_RL) - e^{-2 g t}(1 + cos(phi_LR - phi_RL))/2.

    Accepts a scalar or an array of times.
    """
    rates = phase_rates(p)
    t = np.asarray(tau, dtype=float)
    p1, p2 = rates.omega_lr * t, rates.omega_rl * t
    e1 = np.exp(-p.dephasing_gamma * t)
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
    """Minimizer of the witness expectation; ``witnessing`` is False when the
    minimum is non-negative."""

    tau: float
    expectation: float
    witnessing: bool


def _golden_min(f, lo: float, hi: float):
    """Golden-section minimization of a unimodal f on [lo, hi], to 1e-4."""
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-4:
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


def optimal_fall_time(p: ScenarioParams, w: WitnessSpec,
                      tau_max: float | None = None) -> OptimalFallTime:
    """Fall time minimizing the witness expectation for the alternative
    (gravity-on) hypothesis: a 2000-point grid scan refined by golden section.

    The default window covers two periods of the separability phase:
    tau_max = 4 pi / (omega_LR + omega_RL).
    """
    alt = p.with_hypothesis(gravity_on=True)
    if tau_max is None:
        rates = phase_rates(alt)
        total = rates.omega_lr + rates.omega_rl
        if total <= 0:
            raise ValueError("cannot choose a default window: zero phase rate")
        tau_max = 4 * np.pi / total
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")

    grid = np.linspace(0.0, tau_max, 2000)
    if w.terms == w1().terms:
        def f(t):
            return float(w1_expectation_closed_form(alt, float(t)))
        vals = w1_expectation_closed_form(alt, grid)
    else:
        def f(t):
            return witness_expectation(alt, float(t), w)
        vals = np.array([f(t) for t in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    tau, val = _golden_min(f, lo, hi)
    if vals[i] < val:
        tau, val = grid[i], vals[i]
    return OptimalFallTime(float(tau), float(val), witnessing=val < 0)


@dataclass(frozen=True)
class WitnessScan:
    """Witness expectation over a strictly increasing time grid at one
    dephasing rate."""

    taus: np.ndarray
    values: np.ndarray
    gamma: float

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if taus.shape != values.shape:
            raise ValueError("taus and values must have equal length")
        if taus.size > 1 and not np.all(np.diff(taus) > 0):
            raise ValueError("taus must be strictly increasing")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)


def witness_scan(p: ScenarioParams, w: WitnessSpec, taus) -> WitnessScan:
    taus = np.asarray(taus, dtype=float)
    vals = np.array([witness_expectation(p, t, w) for t in taus])
    return WitnessScan(taus, vals, p.dephasing_gamma)


def write_scan_csv(scan: WitnessScan, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau_s", "value", "gamma"])
        for t, v in zip(scan.taus, scan.values):
            writer.writerow([f"{t:.12g}", f"{v:.12g}", f"{scan.gamma:.12g}"])

"""Physics of the spin witness protocol: branch separations, gravitational and
Casimir-Polder couplings, interaction phases, the dephased two-qubit spin
state, and point-particle-approximation correction reports.

Conventions
-----------
Branch pairs are labelled LL, LR, RL, RR, with separations d, d-2*delta,
d+2*delta, d respectively: LR is the closest-approach pair and carries the
fastest positive phase rate. In the spin state |0> tags an L branch and |1>
an R branch, and the large phase accumulated by the closest pair multiplies
|10>, so that the witness I + X(x)Z + Y(x)Y certifies entanglement after a
few seconds in the gravity-only setting.

The "frequency" readings reported by :func:`frequency_readings` are angular
rates omega = coupling/hbar in s^-1 (for the default geometry this gives the
0.226 gravitational reading; the cycles-per-second reading would be 2*pi
smaller and matches nothing).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScenarioParams",
    "PhaseRates",
    "PEAReport",
    "PAIRS",
    "branch_separations",
    "coupling_tensor",
    "cp_coupling",
    "phase_rates",
    "spin_state",
    "pea_corrections",
    "frequency_readings",
    "characteristic_time",
]


#: SI constants
G = 6.674e-11      # m^3 kg^-1 s^-2
HBAR = 1.0546e-34  # J s
C = 2.998e8        # m s^-1

#: branch-pair labels in index order, and their indices into a coupling table;
#: the most rapidly oscillating coherence couples the LR and RL pairs
PAIRS = ("LL", "LR", "RL", "RR")
_LL, _LR, _RL = map(PAIRS.index, ("LL", "LR", "RL"))


@dataclass(frozen=True)
class ScenarioParams:
    """All physical inputs of a protocol scenario, in SI units.

    ``cp_scale`` multiplies the nominal Casimir-Polder coupling (1 = nominal);
    it exists for modified-coupling studies. ``gravity_on`` switches the
    gravitational interaction.

    The default sphere radius is 1e-6 m: the radius of a 1e-14 kg diamond
    microsphere, and the value consistent with the ~0.016 s^-1 CP rate of the
    default geometry.
    """

    mass: float = 1e-14                 # kg
    separation_d: float = 450e-6        # m
    half_split_delta: float = 125e-6    # m
    trap_omega: float = 1e3             # rad/s
    mean_occupation_nbar: float = 1e6   # dimensionless
    dephasing_gamma: float = 0.0        # 1/s
    sphere_radius_R: float = 1e-6       # m
    permittivity_eps: float = 5.7       # dimensionless
    gravity_on: bool = True
    cp_scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.gravity_on, bool):
            raise ValueError(f"gravity_on must be a bool, got {self.gravity_on!r}")
        for name in (f.name for f in fields(self) if f.name != "gravity_on"):
            # a bool is an int to Python, and NaN passes the range checks below
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("mass", "separation_d", "trap_omega", "sphere_radius_R"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.half_split_delta < 0:
            raise ValueError("half_split_delta must be >= 0")
        if self.mean_occupation_nbar < 0:
            raise ValueError("mean_occupation_nbar must be >= 0")
        if self.dephasing_gamma < 0:
            raise ValueError("dephasing_gamma must be >= 0")
        if self.permittivity_eps < 1:
            raise ValueError("permittivity_eps must be >= 1")
        if self.cp_scale < 0:
            raise ValueError("cp_scale must be >= 0")
        if self.separation_d - 2 * self.half_split_delta <= 0:
            raise ValueError("branches touch: separation_d - 2*half_split_delta <= 0")

    def with_hypothesis(self, gravity_on: bool, cp_scale: float | None = None) -> "ScenarioParams":
        """Copy with the interaction flags of a hypothesis."""
        kwargs = {"gravity_on": gravity_on}
        if cp_scale is not None:
            kwargs["cp_scale"] = cp_scale
        return replace(self, **kwargs)


def branch_separations(p: ScenarioParams) -> dict:
    """Distance between the two particles for each branch pair: d_LL = d_RR
    = d, d_LR = d - 2*delta (closest approach), d_RL = d + 2*delta."""
    d, delta = p.separation_d, p.half_split_delta
    return {"LL": d, "LR": d - 2 * delta, "RL": d + 2 * delta, "RR": d}


def coupling_tensor(p: ScenarioParams, n: int) -> np.ndarray:
    """Differences of inverse separations Q^(n)[ab, mn] = 1/d_ab^n - 1/d_mn^n,
    a (4, 4) array indexed in PAIRS order; antisymmetric with zero diagonal.
    Every pair quantity of the model reads its separations from this table."""
    if n < 1:
        raise ValueError("order must be >= 1")
    seps = branch_separations(p)
    inv = np.array([1.0 / seps[pair] ** n for pair in PAIRS])
    return inv[:, None] - inv[None, :]


def cp_coupling(p: ScenarioParams) -> float:
    """Casimir-Polder coupling alpha(R, eps) in J m^7, scaled by cp_scale.

    alpha = ((eps-1)/(eps+2))^2 * 23 hbar c R^6 / (4 pi); the potential between
    the spheres at separation r is -alpha / r^7.
    """
    eps, R = p.permittivity_eps, p.sphere_radius_R
    return ((eps - 1) / (eps + 2)) ** 2 * 23 * HBAR * C * R ** 6 / (4 * np.pi) * p.cp_scale


class PhaseRates(NamedTuple):
    """Signed phase-accumulation rates of the two cross pairs, in rad/s."""

    omega_lr: float
    omega_rl: float


def phase_rates(p: ScenarioParams) -> PhaseRates:
    """omega_mn = [gravity_on * G m^2 (1/d_mn - 1/d) + alpha (1/d_mn^7 - 1/d^7)] / hbar.

    The closest pair (LR) gets the large positive rate; LL and RR pairs have
    zero rate by construction (their separation is d). Computed from the
    coupling table on every call, in Python floats.
    """
    grav = G * p.mass ** 2 if p.gravity_on else 0.0
    alpha = cp_coupling(p)
    q1, q7 = coupling_tensor(p, 1), coupling_tensor(p, 7)
    return PhaseRates(*((grav * float(q1[i, _LL]) + alpha * float(q7[i, _LL])) / HBAR
                        for i in (_LR, _RL)))


#: number of qubits whose spin differs between basis states i and j
_MISMATCHES = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]])


def spin_state(p: ScenarioParams, tau) -> np.ndarray:
    """Two-qubit spin state after free fall of duration ``tau``: a 4x4
    matrix for a scalar, a ``(..., 4, 4)`` stack for an array of times.

    The undamped state is the projector onto
    (|00> + e^{i phi_RL}|01> + e^{i phi_LR}|10> + |11>)/2 with
    phi_mn = omega_mn * tau; dephasing at rate gamma damps coherences by
    e^{-gamma tau} per mismatched qubit.
    """
    tau = np.asarray(tau, dtype=float)
    if not (np.isfinite(tau) & (tau >= 0)).all():
        raise ValueError("tau must be finite and >= 0")
    w = phase_rates(p)
    amps = np.full(tau.shape + (4,), 0.5, dtype=complex)
    amps[..., 1] = np.exp(1j * w.omega_rl * tau) / 2.0
    amps[..., 2] = np.exp(1j * w.omega_lr * tau) / 2.0
    damp = np.ones(tau.shape + (3,))
    e1 = damp[..., 1] = np.exp(-p.dephasing_gamma * tau)
    damp[..., 2] = e1 * e1
    rho = amps[..., :, None] * amps.conj()[..., None, :]
    rho *= damp.take(_MISMATCHES, axis=-1)
    return rho


@dataclass(frozen=True)
class PEAReport:
    """Corrections to treating the branches as point particles, for the
    fastest branch pair at a given fall time.

    ``phase_correction`` is the G^2 m^3 tau^3 |Q^(4)| / 6 hbar phase (rad);
    the decoherence factors are exp(-|theta|^2) at zero temperature and
    exp(-(nbar/2 + 1)|theta|^2) for an initial thermal state.
    """

    theta_magnitude: float
    phase_correction: float
    decoherence_factor_zeroT: float
    decoherence_factor_thermal: float
    kappa: float


def pea_corrections(p: ScenarioParams, tau: float) -> PEAReport:
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and >= 0")
    # Python floats: a float power raises OverflowError where numpy would warn
    q2 = abs(float(coupling_tensor(p, 2)[_LR, _RL]))
    q4 = abs(float(coupling_tensor(p, 4)[_LR, _RL]))
    m, omega = p.mass, p.trap_omega
    try:
        phase_corr = G ** 2 * m ** 3 * tau ** 3 * q4 / (6 * HBAR)
        # |theta|^2 = (G m Q2 tau)^2/2 * [(tau^2/4)(m w/hbar) + m/(hbar w)]
        theta_sq = (G * m * q2 * tau) ** 2 / 2 * (
            (tau ** 2 / 4) * (m * omega / HBAR) + m / (HBAR * omega))
    except OverflowError:  # a float power raises; a product turns inf
        phase_corr = theta_sq = math.inf
    if not (math.isfinite(phase_corr) and math.isfinite(theta_sq)):
        raise OverflowError(f"fall time tau = {tau:g} s overflows the "
                            "point-particle corrections")
    kappa = p.half_split_delta * np.sqrt(m * omega / (2 * HBAR))
    return PEAReport(
        theta_magnitude=float(np.sqrt(theta_sq)),
        phase_correction=float(phase_corr),
        decoherence_factor_zeroT=float(np.exp(-theta_sq)),
        decoherence_factor_thermal=float(np.exp(-(p.mean_occupation_nbar / 2 + 1) * theta_sq)),
        kappa=float(kappa),
    )


class FrequencyReadings(NamedTuple):
    """Angular interaction rates (s^-1) of the fastest branch pair."""

    gravity: float
    casimir_polder: float


def frequency_readings(p: ScenarioParams) -> FrequencyReadings:
    q1 = abs(float(coupling_tensor(p, 1)[_LR, _RL]))
    q7 = abs(float(coupling_tensor(p, 7)[_LR, _RL]))
    grav = G * p.mass ** 2 * q1 / HBAR if p.gravity_on else 0.0
    return FrequencyReadings(grav, cp_coupling(p) * q7 / HBAR)


def characteristic_time(p: ScenarioParams) -> float:
    """Time for the fastest pair's phase to reach one radian: 1/(omega_LR - omega_RL)."""
    w = phase_rates(p)
    total = w.omega_lr - w.omega_rl
    if total <= 0:
        raise ValueError("no interaction: fastest-pair rate is zero")
    return 1.0 / total

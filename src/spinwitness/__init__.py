"""Analysis stack for gravitationally induced entanglement between two spin
qubits: closed-form state evolution under gravity and Casimir-Polder coupling
with dephasing, entanglement witnesses, likelihood-ratio hypothesis tests,
maximum-likelihood tomography, and loophole-state searches."""

from .model import (ScenarioParams, branch_separations, characteristic_time,
                    coupling_tensor, cp_coupling, frequency_readings,
                    pea_corrections, phase_rates, spin_state)
from .qstate import (MeasurementSetup, check_density_matrix, cholesky_to_state,
                     eigenbasis, expectation, fidelity, negativity,
                     partial_transpose, pauli_tensor)
from .stats import (DifferentialReport, ProbabilityVector, SuccessRateReport,
                    differential_success_rate, distinction_success_rate,
                    lambda_min, log_likelihood_ratio, match_alpha,
                    outcome_probabilities, simulate_measurements,
                    witness_negative_probability)
from .tomography import mle_reconstruct, negativity_exceedance
from .loophole import (KNOWN_LOOPHOLE_STATE, LoopholeResult,
                       OptimizationConfig, find_loophole_state,
                       state_neg_log_likelihood, verify_loophole)
from .witnesses import (W1_OBSERVABLES, optimal_fall_time, w0, w1,
                        w1_expectation_closed_form, w1_threshold,
                        witness_expectation, witness_scan)

__version__ = "0.1.0"

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinwitness.qstate import (CholeskyAngles, MeasurementSetup,
                                check_density_matrix,
                                cholesky_to_state, dephase, eigenbasis,
                                expectation, fidelity, negativity,
                                partial_transpose, pauli_tensor, purity,
                                state_from_json, state_to_cholesky_angles,
                                state_to_json)
from spinwitness.tomography import TOMOGRAPHY_OBSERVABLES as TOMO
from conftest import (oracle_kron, oracle_negativity, oracle_partial_transpose,
                      random_pure_product, random_separable_state, random_state)

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5  # |Phi+><Phi+|


class TestPauliTensor:
    def test_zz_on_00(self):
        ket = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(pauli_tensor(("Z", "Z")) @ ket, ket)

    def test_xx_traceless(self):
        assert abs(np.trace(pauli_tensor(("X", "X")))) == 0

    def test_identity_pair(self):
        assert np.array_equal(pauli_tensor(("I", "I")), np.eye(4))

    def test_matches_oracle_kron(self):
        for a in "IXYZ":
            for b in "IXYZ":
                assert np.array_equal(pauli_tensor((a, b)), oracle_kron(a, b))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            pauli_tensor(("X", "W"))


class TestEigenbasis:
    def test_zz_projectors(self):
        basis = eigenbasis(("Z", "Z"))
        for k in range(4):
            expected = np.zeros((4, 4))
            expected[k, k] = 1
            assert np.allclose(basis.projectors[k], expected)
        assert np.array_equal(basis.eigenvalues, [1, -1, -1, 1])

    def test_xx_projects_onto_plus_minus_products(self):
        basis = eigenbasis(("X", "X"))
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        pp = np.kron(plus, plus)
        assert np.allclose(basis.projectors[0], np.outer(pp, pp.conj()))

    def test_completeness_and_idempotence(self):
        for obs in [("X", "Y"), ("Y", "Z"), ("Z", "X")]:
            basis = eigenbasis(obs)
            assert np.allclose(basis.projectors.sum(axis=0), np.eye(4), atol=1e-12)
            for proj in basis.projectors:
                assert np.abs(proj @ proj - proj).max() < 1e-10

    def test_spectral_decomposition(self):
        for obs in [("X", "X"), ("Y", "X"), ("Z", "Y")]:
            basis = eigenbasis(obs)
            rebuilt = np.einsum("k,kij->ij", basis.eigenvalues, basis.projectors)
            assert np.allclose(rebuilt, pauli_tensor(obs), atol=1e-12)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            eigenbasis(("I", "Z"))


class TestExpectation:
    def test_maximally_mixed(self):
        assert expectation(np.eye(4) / 4, ("X", "Z")) == pytest.approx(0.0, abs=1e-12)

    def test_00_zz(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1
        assert expectation(rho, ("Z", "Z")) == pytest.approx(1.0)

    def test_against_direct_trace(self, rng):
        for _ in range(50):
            rho = random_state(rng)
            for obs in [("X", "X"), ("Y", "Z"), ("Z", "Y"), ("X", "I")]:
                direct = np.trace(rho @ oracle_kron(*obs)).real
                assert expectation(rho, obs) == pytest.approx(direct, abs=1e-12)

    def test_reference_loophole_state_xx(self):
        from spinwitness.loophole import KNOWN_LOOPHOLE_STATE
        ref = 0.5 * (KNOWN_LOOPHOLE_STATE + KNOWN_LOOPHOLE_STATE.conj().T)
        direct = np.trace(ref @ oracle_kron("X", "X")).real
        assert expectation(ref, ("X", "X")) == pytest.approx(direct, abs=1e-12)


class TestPartialTranspose:
    def test_product_state_stays_psd(self, rng):
        psi = random_pure_product(rng)
        rho = np.outer(psi, psi.conj())
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() > -1e-12

    def test_bell_eigenvalue(self):
        ev = np.linalg.eigvalsh(partial_transpose(BELL))
        assert ev.min() == pytest.approx(-0.5, abs=1e-12)

    def test_involution_and_trace(self, rng):
        for _ in range(100):
            rho = random_state(rng)
            pt = partial_transpose(rho)
            assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(partial_transpose(pt) - rho).max() < 1e-15

    def test_matches_element_loop(self, rng):
        rho = random_state(rng)
        assert np.abs(partial_transpose(rho) - oracle_partial_transpose(rho)).max() == 0


class TestNegativity:
    def test_bell(self):
        assert negativity(BELL) == pytest.approx(0.5, abs=1e-12)

    def test_separable_states_have_zero(self, rng):
        for _ in range(1000):
            assert negativity(random_separable_state(rng)) <= 1e-9

    def test_brute_force_agreement(self, rng):
        for _ in range(200):
            rho = random_state(rng, rank=int(rng.integers(1, 5)))
            assert negativity(rho) == pytest.approx(oracle_negativity(rho), abs=1e-9)

    def test_ppt_state_gives_positive_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        value = negativity(rho)
        assert isinstance(value, float)
        assert value == 0.0 and np.copysign(1.0, value) == 1.0

    @given(st.integers(1, 4).flatmap(
               lambda rank: st.lists(st.floats(-1, 1), min_size=8 * rank,
                                     max_size=8 * rank)),
           st.lists(st.floats(-np.pi, np.pi), min_size=8, max_size=8))
    def test_invariant_under_local_unitaries(self, entries, angles):
        a = np.reshape(entries, (2, 4, -1))
        a = a[0] + 1j * a[1]
        rho = a @ a.conj().T
        assume(np.trace(rho).real > 1e-6)
        rho /= np.trace(rho).real

        def rz(t):
            return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

        def unitary(phase, alpha, beta, gamma):  # e^{i phase} Rz Ry Rz
            ry = np.array([[np.cos(beta / 2), -np.sin(beta / 2)],
                           [np.sin(beta / 2), np.cos(beta / 2)]])
            return np.exp(1j * phase) * rz(alpha) @ ry @ rz(gamma)

        uv = np.kron(unitary(*angles[:4]), unitary(*angles[4:]))
        rotated = uv @ rho @ uv.conj().T
        assert abs(negativity(rotated) - negativity(rho)) <= 1e-12

    def test_stack_equals_loop_over_states(self, rng):
        stack = np.array([[random_state(rng, rank=r) for r in (1, 2, 3, 4)]
                          for _ in range(3)] + [[np.eye(4) / 4] * 4])
        values = negativity(stack)
        assert values.shape == (4, 4)
        loop = np.array([[negativity(rho) for rho in row] for row in stack])
        assert np.array_equal(values, loop)
        assert not np.signbit(values).any()
        assert np.array_equal(partial_transpose(stack),
                              [[partial_transpose(rho) for rho in row]
                               for row in stack])


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_state(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1
        b = np.zeros((4, 4), dtype=complex)
        b[2, 2] = 1
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_bhattacharyya(self):
        # for commuting states the fidelity is (sum_i sqrt(p_i q_i))^2
        p = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        q = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        expected = (np.sqrt(0.5 * 0.25) * 2) ** 2
        assert fidelity(p, q) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5)

    def test_symmetry(self, rng):
        for _ in range(50):
            a, b = random_state(rng), random_state(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_rejects_non_psd(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            fidelity(bad, np.eye(4) / 4)

    def test_stack_equals_loop_bit_for_bit(self, rng):
        truth = random_state(rng)
        stack = np.array([random_state(rng, rank=1 + t % 4) for t in range(200)])
        values = fidelity(stack, truth)
        assert values.shape == (200,)
        assert np.array_equal(values, [fidelity(rho, truth) for rho in stack])
        pairs = np.array([[random_state(rng), random_state(rng)] for _ in range(6)])
        assert np.array_equal(fidelity(pairs[:, 0], pairs[:, 1]),
                              [fidelity(a, b) for a, b in pairs])

    def test_stack_rejects_one_non_psd_member(self, rng):
        stack = np.array([random_state(rng) for _ in range(3)])
        stack[1] = np.diag([1.2, -0.2, 0.0, 0.0])
        with pytest.raises(ValueError, match="not PSD"):
            fidelity(stack, np.eye(4) / 4)


class TestMeasurementSetup:
    def test_stacks_eigenprojectors_in_observable_order(self):
        obs = (("X", "Z"), ("Y", "Y"), ("Z", "X"))
        setup = MeasurementSetup(list(obs))
        assert setup.observables == obs
        assert setup.projectors.shape == (12, 4, 4)
        for i, o in enumerate(obs):
            assert np.array_equal(setup.projectors[4 * i:4 * i + 4],
                                  eigenbasis(o).projectors)

    def test_rejects_identity_factor(self):
        with pytest.raises(ValueError):
            MeasurementSetup((("X", "I"),))

    @pytest.mark.parametrize("lead", [(), (5,), (3, 7)])
    def test_probabilities_of_a_stack_equal_single_calls(self, rng, lead):
        setup = MeasurementSetup(TOMO)
        stack = cholesky_to_state(rng.uniform(0.0, np.pi, lead + (15,)))
        probs = setup.probabilities(stack)
        assert probs.shape == lead + (36,)
        for idx in np.ndindex(lead):
            assert np.array_equal(probs[idx], setup.probabilities(stack[idx]))
            direct = [np.trace(stack[idx] @ P).real for P in setup.projectors]
            assert np.abs(probs[idx] - direct).max() <= 1e-15

    @pytest.mark.parametrize("lead", [(), (5,), (3, 7)])
    def test_operator_of_a_stack_equals_single_calls(self, rng, lead):
        setup = MeasurementSetup(TOMO)
        weights = rng.dirichlet(np.ones(36), size=lead)
        ops = setup.operator(weights)
        assert ops.shape == lead + (4, 4)
        for idx in np.ndindex(lead):
            assert np.array_equal(ops[idx], setup.operator(weights[idx]))
            direct = sum(w * P for w, P in zip(weights[idx], setup.projectors))
            assert np.abs(ops[idx] - direct).max() <= 1e-15


def test_eigh_residual_contract(rng):
    # the eigendecomposition backing negativity/fidelity must satisfy
    # ||H v - lam v|| <= 1e-10 per pair
    for _ in range(50):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (h + h.conj().T)
        w, v = np.linalg.eigh(h)
        for lam, vec in zip(w, v.T):
            assert np.linalg.norm(h @ vec - lam * vec) <= 1e-10


class TestCholesky:
    def test_all_zero_angles(self):
        rho = cholesky_to_state(CholeskyAngles(np.zeros(9), np.zeros(6)))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(rho, expected, atol=1e-15)

    def test_hand_solved_maximally_mixed(self):
        # diagonal entries 1/2 each: cos(t1)=1/2, sin(t1)cos(t2)=1/2, ...
        thetas = np.array([np.pi / 3, np.arccos(1 / np.sqrt(3)), np.pi / 4,
                           0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        rho = cholesky_to_state(CholeskyAngles(thetas, np.zeros(6)))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_random_angles_always_valid(self, rng):
        for _ in range(10000):
            angles = CholeskyAngles(rng.uniform(-4, 4, 9), rng.uniform(-4, 4, 6))
            rho = cholesky_to_state(angles)
            check_density_matrix(rho)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_state(rng)
            angles = state_to_cholesky_angles(rho)
            assert np.abs(cholesky_to_state(angles) - rho).max() < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CholeskyAngles(np.zeros(8), np.zeros(6))
        with pytest.raises(ValueError):
            CholeskyAngles(np.full(9, np.nan), np.zeros(6))
        with pytest.raises(ValueError, match="9 thetas and 6 phis"):
            cholesky_to_state(np.zeros((3, 14)))
        bad = np.zeros((3, 15))
        bad[1, 4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            cholesky_to_state(bad)

    def test_stack_equals_loop_over_angle_vectors(self, rng):
        x = rng.uniform(-4, 4, (2, 30, 15))
        stack = cholesky_to_state(x)
        assert stack.shape == (2, 30, 4, 4)
        for i in range(2):
            for k in range(30):
                one = cholesky_to_state(CholeskyAngles.from_vector(x[i, k]))
                assert np.array_equal(stack[i, k], one)
                assert np.array_equal(cholesky_to_state(x[i, k]), one)


class TestValidation:
    def test_accepts_valid(self, rng):
        check_density_matrix(random_state(rng))

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            check_density_matrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))


def test_dephase_kills_coherence():
    plus = np.full((4, 4), 0.25, dtype=complex)
    out = dephase(plus, 0.5)  # p=1/2 is complete dephasing
    assert np.allclose(out, np.eye(4) / 4, atol=1e-12)
    assert purity(out) == pytest.approx(0.25)


def test_json_round_trip(rng):
    rho = random_state(rng)
    text = state_to_json(rho)
    parsed = json.loads(text)
    assert set(parsed) == {"re", "im"}
    assert np.allclose(state_from_json(text), rho)

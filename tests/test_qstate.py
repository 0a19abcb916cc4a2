import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinwitness.qstate import (_EIGVECS, _L_COLS, _L_ROWS, OUTCOME_SIGNS, PAULI,
                                MeasurementSetup, _cholesky_factor, check_density_matrix,
                                cholesky_to_state, dephase, eigenbasis,
                                expectation, fidelity, negativity,
                                partial_transpose, pauli_tensor,
                                state_to_cholesky_angles)
from spinwitness.stats import W1_OBSERVABLES
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
                # the import-time table holds the bits of a fresh np.kron
                assert (pauli_tensor((a, b)).tobytes()
                        == np.kron(PAULI[a], PAULI[b]).tobytes())

    def test_returns_a_fresh_array(self):
        first = pauli_tensor(("X", "Y"))
        first[:] = 7.0
        assert np.array_equal(pauli_tensor(("X", "Y")), oracle_kron("X", "Y"))
        assert pauli_tensor(("X", "Y")) is not pauli_tensor(("X", "Y"))

    def test_bad_label(self):
        for obs in (("X", "W"), ("W", "X"), ("x", "X"), ("XX", "I")):
            with pytest.raises(ValueError):
                pauli_tensor(obs)


class TestEigenbasis:
    def test_zz_projectors(self):
        basis = eigenbasis(("Z", "Z"))
        for k in range(4):
            expected = np.zeros((4, 4))
            expected[k, k] = 1
            assert np.allclose(basis[k], expected)
        assert np.array_equal(OUTCOME_SIGNS, [1, -1, -1, 1])

    def test_xx_projects_onto_plus_minus_products(self):
        basis = eigenbasis(("X", "X"))
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        pp = np.kron(plus, plus)
        assert np.allclose(basis[0], np.outer(pp, pp.conj()))

    @pytest.mark.parametrize("obs", [(a, b) for a in "XYZ" for b in "XYZ"])
    def test_bit_equal_to_kron_outer_products(self, obs):
        # outcome 2 i + k is the product of eigenvector columns i and k
        cols = [np.kron(_EIGVECS[obs[0]][:, i], _EIGVECS[obs[1]][:, k])
                for i in range(2) for k in range(2)]
        expected = np.array([np.outer(v, v.conj()) for v in cols])
        assert eigenbasis(obs).tobytes() == expected.tobytes()

    def test_completeness_and_idempotence(self):
        for obs in [("X", "Y"), ("Y", "Z"), ("Z", "X")]:
            basis = eigenbasis(obs)
            assert np.allclose(basis.sum(axis=0), np.eye(4), atol=1e-12)
            for proj in basis:
                assert np.abs(proj @ proj - proj).max() < 1e-10

    def test_spectral_decomposition(self):
        for obs in [("X", "X"), ("Y", "X"), ("Z", "Y")]:
            rebuilt = np.einsum("k,kij->ij", OUTCOME_SIGNS, eigenbasis(obs))
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

    def test_empty_stack_gives_an_empty_result(self):
        # the rule of negativity and MeasurementSetup.operator
        for sigma in (np.eye(4) / 4, np.zeros((0, 4, 4))):
            values = fidelity(np.zeros((0, 4, 4)), sigma)
            assert isinstance(values, np.ndarray) and values.shape == (0,)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rounding_floor_eigenvalues_do_not_amplify(self, rng, rank):
        # the zero eigenvalues of a rank-deficient state come out of eigh at
        # ~1e-17; without the floor their square roots (~3e-9) moved the
        # fidelity by ~1e-8 under a 1e-16 change of the state
        rho = np.array([random_state(rng, rank) for _ in range(100)])
        h = rng.standard_normal((100, 4, 4)) + 1j * rng.standard_normal((100, 4, 4))
        h += h.conj().swapaxes(-1, -2)
        h *= 1e-16 / np.abs(h).max(axis=(-1, -2), keepdims=True)
        for sigma in (random_state(rng), np.eye(4) / 4):
            assert np.abs(fidelity(rho + h, sigma) - fidelity(rho, sigma)).max() < 1e-12


class TestMeasurementSetup:
    def test_stacks_eigenprojectors_in_observable_order(self):
        obs = (("X", "Z"), ("Y", "Y"), ("Z", "X"))
        setup = MeasurementSetup(list(obs))
        assert setup.observables == obs
        assert setup.projectors.shape == (12, 4, 4)
        for i, o in enumerate(obs):
            assert np.array_equal(setup.projectors[4 * i:4 * i + 4], eigenbasis(o))

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

    def test_real_operator_is_the_real_form_of_the_operator(self, rng):
        # [[Re O, -Im O], [Im O, Re O]] exactly, and products of forms are
        # the forms of products: the MLE iterates on these
        setup = MeasurementSetup(TOMO)
        weights = rng.dirichlet(np.ones(36), size=6)
        forms, ops = setup._real_operator(weights), setup.operator(weights)
        assert forms.shape == (6, 8, 8)
        for block, part in (((slice(None, 4), slice(None, 4)), ops.real),
                            ((slice(4, None), slice(4, None)), ops.real),
                            ((slice(4, None), slice(None, 4)), ops.imag),
                            ((slice(None, 4), slice(4, None)), -ops.imag)):
            assert np.array_equal(forms[(...,) + block], part)
        prod, form_prod = ops[:3] @ ops[3:], forms[:3] @ forms[3:]
        assert np.abs(form_prod[:, :4, :4] - prod.real).max() <= 1e-15
        assert np.abs(form_prod[:, 4:, :4] - prod.imag).max() <= 1e-15

    @pytest.mark.parametrize("obs", [
        TOMO, W1_OBSERVABLES,
        (("X", "Z"), ("Y", "Y"), ("Z", "X"), ("X", "X"), ("Z", "Y"))])
    def test_every_stack_size_and_offset_keeps_the_bits_of_one_large_call(
            self, rng, obs):
        # BLAS kernels treat the leading, trailing and remainder rows of a
        # product differently, and a lone row goes to gemv: every row must
        # still get the bits it has in one large call
        setup = MeasurementSetup(obs)
        states = cholesky_to_state(rng.uniform(0.0, np.pi, (503, 15)))
        weights = rng.dirichlet(np.ones(4 * len(obs)), size=503)
        probs, ops = setup.probabilities(states), setup.operator(weights)
        assert setup.probabilities(states[:0]).shape == (0, 4 * len(obs))
        assert setup.operator(weights[:0]).shape == (0, 4, 4)
        for size in [*range(1, 71), 127, 128, 129, 255, 256, 257, 500]:
            for offset in (0, 1, 3):
                rows = slice(offset, offset + size)
                assert np.array_equal(setup.probabilities(states[rows]), probs[rows])
                assert np.array_equal(setup.operator(weights[rows]), ops[rows])


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
        rho = cholesky_to_state(np.zeros(15))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(rho, expected, atol=1e-15)

    def test_hand_solved_maximally_mixed(self):
        # diagonal entries 1/2 each: cos(t1)=1/2, sin(t1)cos(t2)=1/2, ...
        thetas = np.array([np.pi / 3, np.arccos(1 / np.sqrt(3)), np.pi / 4,
                           0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        rho = cholesky_to_state(np.concatenate([thetas, np.zeros(6)]))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_random_angles_always_valid(self, rng):
        for _ in range(10000):
            angles = np.concatenate([rng.uniform(-4, 4, 9), rng.uniform(-4, 4, 6)])
            rho = cholesky_to_state(angles)
            check_density_matrix(rho)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_state(rng)
            angles = state_to_cholesky_angles(rho)
            assert angles.shape == (15,)
            assert np.abs(cholesky_to_state(angles) - rho).max() < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="9 thetas and 6 phis"):
            cholesky_to_state(np.zeros(14))
        with pytest.raises(ValueError, match="finite"):
            cholesky_to_state(np.concatenate([np.full(9, np.nan), np.zeros(6)]))
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
                one = cholesky_to_state(x[i, k])
                assert np.array_equal(stack[i, k], one)


def _reference_cholesky_factor(x: np.ndarray):
    """The Cholesky factor and its (15, 10) derivatives as first written,
    with np.concatenate and two-index scatters: the oracle of the factor's
    arithmetic."""
    eye9, upper9 = np.eye(9, dtype=bool), np.triu(np.ones((9, 9)))
    lead = x.shape[:-1]
    th, ph = x[..., :9], x[..., 9:]
    sin, cos = np.sin(th), np.cos(th)
    sines = np.concatenate((np.ones(lead + (1,)), np.cumprod(sin, axis=-1)), axis=-1)
    mags = np.empty(lead + (10,))
    mags[..., :9] = sines[..., :9] * cos
    mags[..., 9] = sines[..., 9]
    entries = mags.astype(complex)
    phase = np.exp(1j * ph)
    entries[..., 4:] *= phase
    L = np.zeros(lead + (4, 4), dtype=complex)
    L[..., _L_ROWS, _L_COLS] = entries
    dmags = np.zeros(lead + (9, 10))
    dmags[..., 1:] = np.cumprod(np.where(eye9, cos[..., None, :], sin[..., None, :]),
                                axis=-1) * upper9
    dmags[..., :9] *= cos[..., None, :]
    dmags[..., :9] -= eye9 * (sines[..., :9] * sin)[..., None, :]
    jac = np.zeros(lead + (15, 10), dtype=complex)
    jac[..., :9, :4] = dmags[..., :4]
    jac[..., :9, 4:] = dmags[..., 4:] * phase[..., None, :]
    jac[..., np.arange(9, 15), np.arange(4, 10)] = 1j * entries[..., 4:]
    return L, jac


@pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["single", "7", "3x5"])
@pytest.mark.parametrize("kind", ["uniform", "zeros", "half-pi"])
def test_cholesky_factor_bits_equal_reference(lead, kind):
    rng = np.random.default_rng(17)
    x = {"uniform": lambda: rng.uniform(-5.0, 5.0, lead + (15,)),
         "zeros": lambda: np.zeros(lead + (15,)),
         "half-pi": lambda: rng.integers(-4, 5, lead + (15,)) * (np.pi / 2)}[kind]()
    want = _reference_cholesky_factor(x)
    got = (_cholesky_factor(x), *_cholesky_factor(x, jacobian=True))
    for g, w in zip(got, (want[0], *want)):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()  # signed zeros too


@given(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3).flatmap(
    lambda lead: hnp.arrays(float, lead + (15,), elements=st.floats(-4, 4))))
def test_stack_equals_loop(angles):
    """Each (..., 4, 4) function gives every state of a stack, whatever its
    leading shape, the bits of the call on that state alone."""
    setup = MeasurementSetup(TOMO)
    rho = cholesky_to_state(angles)
    sigma = cholesky_to_state(angles[..., ::-1])
    stacked = (rho, partial_transpose(rho), negativity(rho), fidelity(rho, sigma),
               setup.probabilities(rho))
    for idx in np.ndindex(angles.shape[:-1]):
        one = cholesky_to_state(angles[idx])
        looped = (one, partial_transpose(one), negativity(one),
                  fidelity(one, cholesky_to_state(angles[idx][::-1])),
                  setup.probabilities(one))
        for stack, single in zip(stacked, looped):
            assert np.asarray(stack)[idx].tobytes() == np.asarray(single).tobytes()


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
    assert np.trace(out @ out).real == pytest.approx(0.25)

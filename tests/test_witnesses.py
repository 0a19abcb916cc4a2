import contextlib
import dataclasses
import json
import math
import re
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwitness import witnesses
from spinwitness.model import ScenarioParams, phase_rates, spin_state
from spinwitness.qstate import negativity, partial_transpose
from spinwitness.witnesses import (W1_OBSERVABLES, OptimalFallTime,
                                   optimal_fall_time, w0, w1,
                                   w1_expectation_closed_form, w1_threshold,
                                   witness_expectation, witness_scan)
from conftest import (alive_at_each_call, oracle_kron, random_scenario, random_separable_state,
                      random_state, traced_peak)

P450_GRAV = ScenarioParams(cp_scale=0.0)
P350 = ScenarioParams(separation_d=350e-6, dephasing_gamma=0.3)


class TestWitnessSpecs:
    def test_unit_trace_against_mixed_state(self, rng):
        mixed = np.eye(4) / 4
        for spec in (w0(), w1()):
            val = np.trace(spec.matrix() @ mixed).real
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_w0_linearity(self, rng):
        for _ in range(50):
            rho = random_state(rng)
            direct = 1 + np.trace(rho @ oracle_kron("X", "Z")).real \
                       + np.trace(rho @ oracle_kron("Y", "Y")).real
            assert np.trace(w0().matrix() @ rho).real == pytest.approx(direct,
                                                                       abs=1e-12)

    def test_w1_is_partial_transpose_of_projector(self):
        # 4 * PT of the projector onto (|00> + i|01> - i|10> - |11>)/2
        chi = np.array([1, 1j, -1j, -1], dtype=complex) / 2
        expected = 4 * partial_transpose(np.outer(chi, chi.conj()))
        assert np.abs(w1().matrix() - expected).max() < 1e-12

    def test_w1_observables(self):
        assert tuple(obs for _, obs in w1().terms[1:]) == W1_OBSERVABLES
        assert w1().terms[0] == (1.0, ("I", "I"))

    def test_nonnegative_on_separable_states(self, rng):
        w0m, w1m = w0().matrix(), w1().matrix()
        for _ in range(2000):
            rho = random_separable_state(rng)
            assert np.trace(w0m @ rho).real >= -1e-9
            assert np.trace(w1m @ rho).real >= -1e-9


class TestWitnessExpectation:
    def test_tau_zero_w1_is_zero(self, rng):
        for gamma in (0.0, 0.1, 1.0):
            p = dataclasses.replace(P450_GRAV, dephasing_gamma=gamma)
            assert witness_expectation(p, 0.0, w1()) == pytest.approx(0.0,
                                                                      abs=1e-12)

    def test_closed_form_matches_matrix_trace(self, rng):
        for _ in range(300):
            p = random_scenario(rng)
            tau = float(rng.uniform(0, 20))
            matrix_val = witness_expectation(p, tau, w1())
            assert abs(matrix_val - w1_expectation_closed_form(p, tau)) <= 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("spec", [w0, w1], ids=["W0", "W1"])
    def test_array_equals_scalar_loop(self, spec, gamma):
        p = dataclasses.replace(P350, dephasing_gamma=gamma)
        taus = np.linspace(0.0, 30.0, 601)
        vals = witness_expectation(p, taus, spec())
        assert isinstance(vals, np.ndarray) and vals.shape == taus.shape
        loop = np.array([witness_expectation(p, t, spec()) for t in taus])
        assert vals.tobytes() == loop.tobytes()
        scalar = witness_expectation(p, 2.5, spec())
        assert type(scalar) is float
        grid = witness_expectation(p, taus[1:].reshape(3, 200), spec())
        assert grid.shape == (3, 200) and grid.tobytes() == vals[1:].tobytes()

    @pytest.mark.parametrize("shape", [(511,), (512,), (513,), (1025,), (3, 700)])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("spec", [w0, w1], ids=["W0", "W1"])
    def test_blocks_keep_the_bits_of_scalar_calls(self, spec, gamma, shape):
        # grids one state short of, at and past a 512-state block, two blocks
        # and a bit, and a 2-d grid whose rows straddle block edges
        p = dataclasses.replace(P350, dephasing_gamma=gamma)
        taus = np.linspace(0.0, 30.0, np.prod(shape)).reshape(shape)
        vals = witness_expectation(p, taus, spec())
        assert vals.shape == shape and vals.dtype == np.float64
        loop = np.array([witness_expectation(p, t, spec()) for t in taus.ravel()])
        assert vals.tobytes() == loop.tobytes()
        # the per-state product, as the scan computed it one state at a time
        states = spin_state(p, taus.ravel())
        per_state = np.array([float((spec().matrix() @ r).trace().real) for r in states])
        assert vals.tobytes() == per_state.tobytes()

    @pytest.mark.parametrize("taus", [np.empty(0), np.empty((0, 3)), np.array(2.5)],
                             ids=["empty", "empty-2d", "0-d"])
    def test_empty_and_0d_grids_keep_type_shape_and_dtype(self, taus):
        vals = witness_expectation(P350, taus, w1())
        assert type(vals) is np.ndarray
        assert vals.shape == taus.shape and vals.dtype == np.float64
        if taus.size:
            assert vals.tobytes() == np.float64(witness_expectation(P350, 2.5, w1())).tobytes()

    def test_peak_memory_of_a_scan_stays_below_two_state_stacks(self):
        # the per-state loop peaked at 2,437,656 B on the benchmark's grid, as
        # do 512-state blocks; one stack of W for the whole grid peaks at
        # 4.5 MB and one preallocated 4,801-state buffer at 2.64 MB
        taus = np.linspace(0.0, 30.0, 4801)
        witness_expectation(P350, taus, w1())
        tracemalloc.start()
        try:
            witness_expectation(P350, taus, w1())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4801 * 16 * 16

    def test_peak_memory_grows_by_at_most_two_floats_per_point(self):
        # states are built 512 at a time, so only the float result grows
        # with the grid; a whole-grid state stack adds 256 B per point, and
        # spin_state peaks at twice that (+20.7 MB here when it did)
        small, large = (np.linspace(0.0, 30.0, n) for n in (4801, 48010))
        growth = (traced_peak(lambda: witness_expectation(P350, large, w1()))
                  - traced_peak(lambda: witness_expectation(P350, small, w1())))
        assert growth <= 2 * 8 * (large.size - small.size)

    def test_w0_reveals_after_8_seconds(self):
        taus = np.linspace(0.01, 12, 1200)
        vals = np.array([witness_expectation(P450_GRAV, t, w0()) for t in taus])
        first_negative = taus[np.argmax(vals < 0)]
        assert 7.3 <= first_negative <= 8.7

    def test_w0_blind_at_gamma_003(self):
        p = dataclasses.replace(P450_GRAV, dephasing_gamma=0.03)
        taus = np.linspace(0.0, 30, 400)
        assert all(witness_expectation(p, t, w0()) >= 0 for t in taus)

    def test_witness_soundness_on_family(self, rng):
        # a negative expectation must come with positive negativity
        for _ in range(200):
            p = random_scenario(rng)
            tau = float(rng.uniform(0, 10))
            rho = spin_state(p, tau)
            for spec in (w0(), w1()):
                if np.trace(spec.matrix() @ rho).real < 0:
                    assert negativity(rho) > 0


class TestThreshold:
    def test_gravity_only_value(self):
        assert w1_threshold(P450_GRAV) == pytest.approx(0.0627, abs=5e-4)

    def test_all_couplings_off(self):
        p = ScenarioParams(gravity_on=False, permittivity_eps=1.0)
        assert w1_threshold(p) == 0.0

    def test_matches_initial_slope(self, rng):
        # d/dtau Tr(W1 rho)|_0 = 2 gamma - (w_lr + w_rl), by central difference
        for p in (P450_GRAV, P350, random_scenario(rng)):
            h = 1e-6
            slope = (w1_expectation_closed_form(p, h)
                     - w1_expectation_closed_form(p, 0.0)) / h
            expected = 2 * p.dephasing_gamma - 2 * w1_threshold(p)
            assert slope == pytest.approx(expected, rel=1e-4, abs=1e-9)

    def test_immediate_witnessing_below_threshold(self):
        thr = w1_threshold(P450_GRAV)
        for gamma in (0.0, 0.02, 0.05, 0.06):
            assert gamma < thr
            p = dataclasses.replace(P450_GRAV, dephasing_gamma=gamma)
            taus = np.linspace(1e-3, 0.25, 50)
            assert all(w1_expectation_closed_form(p, t) < 0 for t in taus)

    def test_no_entanglement_above_threshold(self):
        # the spin-state family becomes PPT for all times once gamma passes
        # the threshold (checked numerically over a broad grid)
        thr = w1_threshold(P450_GRAV)
        for factor in (1.02, 1.5):
            p = dataclasses.replace(P450_GRAV, dephasing_gamma=factor * thr)
            for tau in np.linspace(1e-3, 60, 300):
                assert negativity(spin_state(p, tau)) <= 1e-9


class TestOptimalFallTime:
    def test_close_setup_anchor(self):
        opt = optimal_fall_time(P350)
        assert opt.tau == pytest.approx(0.34, abs=0.01)
        assert opt.witnessing
        assert opt.expectation < 0

    def test_tiny_window_minimizer_at_edge(self):
        p = dataclasses.replace(P450_GRAV, dephasing_gamma=0.0)
        opt = optimal_fall_time(p, tau_max=0.05)
        # expectation decreases from zero, so the window edge wins
        assert opt.tau == pytest.approx(0.05, abs=1e-3)
        assert opt.expectation == pytest.approx(
            w1_expectation_closed_form(p, opt.tau), abs=1e-12)
        # the grid point wins here, and the flag is still a plain bool
        assert type(opt.witnessing) is bool
        json.dumps(dataclasses.asdict(opt))

    def test_non_witnessing_flag(self):
        p = dataclasses.replace(P450_GRAV, dephasing_gamma=5.0)
        opt = optimal_fall_time(p, tau_max=5.0)
        assert not opt.witnessing
        assert opt.expectation >= 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            optimal_fall_time(P350, tau_max=-1.0)

    @pytest.mark.parametrize("delta", [0.0, 1.35e-14])
    def test_rates_summing_to_at_most_zero_are_named(self, delta):
        # 1/x and 1/x^7 are convex, so the sum is positive for delta > 0 in
        # exact arithmetic; at delta = 0 both rates are 0, and at delta/d =
        # 3e-11 (the first of delta/d = j 10^-k, j = 1..99, k = 6, 7, ...
        # whose sum is negative) the two rates cancel in floats below zero
        p = dataclasses.replace(ScenarioParams(), half_split_delta=delta)
        rates = phase_rates(p)
        total = rates.omega_lr + rates.omega_rl
        assert total == 0.0 if delta == 0.0 else total < 0.0
        named = f"omega_lr={rates.omega_lr!r}, omega_rl={rates.omega_rl!r}) sum to {total!r}"
        with pytest.raises(ValueError, match=re.escape(named + " <= 0")):
            optimal_fall_time(p)

    @pytest.mark.parametrize("tau_max", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, tau_max):
        # used to return tau = expectation = nan with only RuntimeWarnings
        with pytest.raises(ValueError,
                           match=f"tau_max must be finite and positive, got {tau_max}"):
            optimal_fall_time(P350, tau_max=tau_max)


@contextlib.contextmanager
def alarm(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` have passed
    (SIGALRM), so a call that never returns fails instead of stalling."""
    def ring(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestGoldenSectionEnds:
    """Where the float spacing at tau* exceeds 1e-4 s no bracket gets that
    narrow: the search used to loop forever there (above tau* ~ 5.5e11 s)."""

    @pytest.mark.parametrize("p, tau_max", [
        (ScenarioParams(separation_d=1e-3, half_split_delta=1e-9), None),  # tau_max 2.5e13 s
        (ScenarioParams(), 1e13),
    ])
    def test_returns_within_a_second(self, p, tau_max):
        with alarm(1):
            opt = optimal_fall_time(p, tau_max)
        assert 0 < opt.tau <= (tau_max or math.inf) and opt.witnessing

    def test_keeps_its_bits_where_the_loop_ended_before(self):
        # tau* = 1.894e11 s: the bracket still narrows below 1e-4 s, at a
        # spacing of 3e-5 s
        p = ScenarioParams(separation_d=1e-3, half_split_delta=1e-8)
        assert optimal_fall_time(p) == oracle_optimal_fall_time(p)
        assert optimal_fall_time(p).tau == pytest.approx(1.894e11, rel=1e-3)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def scenarios(draw):
    """ScenarioParams over its whole validated domain, each field log-uniform
    over many decades; a field that may be 0 is 0 in some draws."""
    d = draw(log_uniform(1e-8, 10.0))
    # any split that leaves the branches apart: d - 2 delta > 0
    delta = draw(st.just(0.0) | log_uniform(1e-12, 0.999).map(lambda f: f * d / 2))
    return ScenarioParams(
        mass=draw(log_uniform(1e-20, 1e-3)), separation_d=d, half_split_delta=delta,
        trap_omega=draw(log_uniform(1e-3, 1e9)),
        mean_occupation_nbar=draw(st.just(0.0) | log_uniform(1e-3, 1e12)),
        dephasing_gamma=draw(st.just(0.0) | log_uniform(1e-6, 1e6)),
        sphere_radius_R=draw(log_uniform(1e-9, 1e-3)),
        permittivity_eps=draw(st.just(1.0) | log_uniform(1e-6, 1e3).map(lambda e: 1.0 + e)),
        cp_scale=draw(st.just(0.0) | log_uniform(1e-6, 1e3)),
        gravity_on=draw(st.booleans()))


@settings(max_examples=400)
@given(scenarios())
def test_optimal_fall_time_returns_or_raises_over_the_scenario_domain(p):
    # a hang fails here by the alarm; hypothesis' deadline would fire only
    # after the call returned
    with alarm(1):
        try:
            opt = optimal_fall_time(p)
        except (ValueError, RuntimeError, ArithmeticError):
            return
    assert 0.0 <= opt.tau < math.inf and math.isfinite(opt.expectation)


def oracle_optimal_fall_time(p, tau_max=None):
    """The W1 search point by point: 2000 scalar closed-form calls over the
    grid, then golden section to 1e-4 around the best grid point."""
    alt = p.with_hypothesis(gravity_on=True)
    if tau_max is None:
        rates = phase_rates(alt)
        tau_max = 4 * np.pi / (rates.omega_lr + rates.omega_rl)

    def f(t):
        return float(w1_expectation_closed_form(alt, float(t)))

    grid = np.linspace(0.0, tau_max, 2000)
    vals = np.array([f(t) for t in grid])
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, 1999)]
    invphi = (np.sqrt(5.0) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
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
    tau = (a + b) / 2
    val = f(tau)
    if vals[i] < val:
        tau, val = grid[i], vals[i]
    return OptimalFallTime(float(tau), float(val), witnessing=val < 0)


class TestOptimalFallTimeOracle:
    """The one grid call returns exactly what the per-point search returns."""

    @pytest.mark.parametrize("p, tau_max", [
        (P350, None),  # also the scenario of the golden digests
        (ScenarioParams(), None),  # the CLI default
        (dataclasses.replace(P450_GRAV, dephasing_gamma=0.0), 0.05),
        (dataclasses.replace(P450_GRAV, dephasing_gamma=5.0), 5.0),
    ])
    def test_fixed_scenarios(self, p, tau_max):
        assert optimal_fall_time(p, tau_max) == oracle_optimal_fall_time(p, tau_max)

    def test_random_scenarios(self, rng):
        for _ in range(100):
            p = random_scenario(rng)
            assert optimal_fall_time(p) == oracle_optimal_fall_time(p)

    @pytest.mark.parametrize("p, tau_max", [(P350, None), (ScenarioParams(), None),
                                            (P350, 0.5)])
    def test_computes_the_phase_rates_once(self, monkeypatch, p, tau_max):
        # the grid and every golden-section step used to recompute them
        expected = oracle_optimal_fall_time(p, tau_max)
        calls = []
        monkeypatch.setattr(witnesses, "phase_rates",
                            lambda q: calls.append(q) or phase_rates(q))
        assert optimal_fall_time(p, tau_max) == expected
        assert calls == [p.with_hypothesis(gravity_on=True)]


class TestStateBlocks:
    @pytest.mark.parametrize("shape", [(1,), (511,), (512,), (513,), (1025,), (3, 700)])
    def test_blocks_of_512_states_in_grid_order_with_scalar_bits(self, shape):
        taus = np.linspace(0.0, 30.0, np.prod(shape)).reshape(shape)
        blocks = list(witnesses._state_blocks(P350, taus))
        n = taus.size
        assert [len(b) for b in blocks] == [min(512, n - i) for i in range(0, n, 512)]
        loop = np.array([spin_state(P350, t) for t in taus.ravel()])
        assert np.concatenate(blocks).tobytes() == loop.tobytes()


    def test_scan_drops_each_block_before_building_the_next(self, monkeypatch):
        # a zip of block offsets and state blocks held the last block while
        # spin_state built the next one
        alive = alive_at_each_call(monkeypatch, witnesses, "spin_state")
        witness_expectation(P350, np.linspace(0.0, 30.0, 1500), w1())
        assert alive == [0, 0, 0]


class TestScan:
    def test_scan_values(self):
        taus = np.linspace(0.0, 5.0, 6)
        values = witness_scan(P350, w1(), taus)
        assert values.shape == taus.shape
        assert values.tobytes() == witness_expectation(P350, taus, w1()).tobytes()
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_requires_increasing_taus(self):
        # a grid of more than one axis is rejected whole, also a decreasing
        # column, a repeated row or one increasing in reading order
        for taus in ([0.0, 1.0, 0.5], [0.0, 1.0, 1.0], [[1.0], [0.0]],
                     [[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]):
            with pytest.raises(ValueError, match="taus must be strictly increasing"):
                witness_scan(P350, w1(), np.array(taus))

    def test_invalid_tau_in_a_later_block_rejected_before_diff(self, monkeypatch):
        # inf as point 1,025 of 1,025: the third block's spin_state raises
        # (np.diff would pass this grid: inf - 30 > 0)
        taus = np.linspace(0.0, 30.0, 1025)
        taus[-1] = np.inf

        def no_diff(*args, **kwargs):
            raise AssertionError("np.diff ran on a grid with an invalid tau")

        monkeypatch.setattr(np, "diff", no_diff)
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            witness_scan(P350, w1(), taus)

    def test_non_finite_tau_rejected_first(self):
        # the grid of an infinite tau_max, [0, nan, inf]: spin_state raises
        # before np.diff could warn on it
        with np.errstate(invalid="ignore"):
            taus = np.linspace(0.0, np.inf, 3)
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            witness_scan(P350, w1(), taus)

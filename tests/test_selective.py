import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    gaussian_packet,
    norm_sq,
    short_time_kernel_matrix,
    unitary_step,
)
from corridors.readout import FormFactor, readout_measure_factor
from corridors.selective import (
    _FIELD_BATCH_ELEMENTS,
    WindowSpec,
    _contract_windowed,
    _corridor_rows,
    evolve_selective_coarse,
    evolve_selective_coarse_mc,
    evolve_selective_ideal,
)


def _setup_a():
    g = SpatialGrid(6.0, 6)
    tg = TimeGrid(1.0, 5)
    ham = HamiltonianSpec.harmonic(g, omega=1.1)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.4, width=0.9)
    readout = np.array([0.3, -0.2, 0.5, 0.0, 0.1])
    return g, tg, ham, obs, psi0, readout, 0.8


def _setup_b():
    g = SpatialGrid(4.0, 4)
    tg = TimeGrid(0.8, 4)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.3 * q**2)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=-0.2, width=0.8)
    readout = np.array([0.2, -0.4, 0.1, 0.3])
    return g, tg, ham, obs, psi0, readout, 1.2


def test_effective_step_is_second_order_against_expm():
    g, _, ham, obs, psi0, _, kappa = _setup_a()
    h = oracles.dense_hamiltonian(ham, g)
    a_value = 0.4
    t_final = 0.4
    errs = []
    for n in (4, 8, 16):
        dt = t_final / n
        psi = psi0.copy()
        for _ in range(n):
            psi = oracles.effective_step(psi, a_value, kappa, ham, obs, g, dt)
        step = oracles.damped_generator_step(h, obs.values, a_value, kappa, ham.hbar, t_final / n)
        ref = np.linalg.matrix_power(step, n) @ psi0
        errs.append(np.max(np.abs(psi - ref)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.8), orders


def test_ideal_engine_matches_path_enumeration():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    res = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    ref = oracles.brute_conditioned_state(
        psi0, kernel, obs.values, readout, kappa, tg.dt, oracles.ideal_window(tg.n_steps)
    )
    assert np.max(np.abs(res.final_state - ref)) < 1e-13
    # frozen reference, guards engine and oracle against drifting together
    assert_allclose(res.norm_sq, 0.47001227286383446, rtol=1e-12)
    c = readout_measure_factor(kappa, tg.dt)
    assert_allclose(res.measure_factor, c**5, rtol=1e-15)
    assert_allclose(res.probability_density, res.norm_sq * c**5, rtol=1e-15)


def test_ideal_engine_norm_never_grows():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    seen = []
    evolve_selective_ideal(
        psi0, readout, kappa, ham, obs, g, tg, observer=lambda i, psi: seen.append(norm_sq(psi, g))
    )
    assert len(seen) == tg.n_steps
    assert seen[0] <= 1.0 + 1e-12
    assert np.all(np.diff(seen) <= 1e-12)


def test_kappa_zero_is_plain_unitary():
    g, tg, ham, obs, psi0, readout, _ = _setup_a()
    res = evolve_selective_ideal(psi0, readout, 0.0, ham, obs, g, tg)
    psi = psi0.copy()
    for _ in range(tg.n_steps):
        psi = unitary_step(psi, ham, g, tg.dt)
    assert_allclose(res.final_state, psi, atol=1e-14)
    assert_allclose(res.norm_sq, 1.0, atol=1e-12)


def test_coarse_delta_dispatch_is_bitwise_identical():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    a = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
    b = evolve_selective_coarse(psi0, readout, FormFactor.delta(), kappa, ham, obs, g, tg)
    assert np.array_equal(a.final_state, b.final_state)
    assert a.norm_sq == b.norm_sq


@pytest.mark.parametrize("tau_steps", [1.5, 0.4])
def test_coarse_engine_matches_path_enumeration(tau_steps):
    # wide window (no trimming until the end) and narrow window (sliding
    # buffer genuinely trims) both reduce to the brute-force path sum
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    ff = FormFactor.gaussian(tau_steps * tg.dt)
    res = evolve_selective_coarse(psi0, readout, ff, kappa, ham, obs, g, tg)
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    window = ff.window_matrix(tg.n_steps, tg.dt)
    ref = oracles.brute_conditioned_state(
        psi0, kernel, obs.values, readout, kappa, tg.dt, window
    )
    assert np.max(np.abs(res.final_state - ref)) < 1e-13


def test_coarse_engine_frozen_value():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    res = evolve_selective_coarse(
        psi0, readout, FormFactor.gaussian(0.3), kappa, ham, obs, g, tg
    )
    assert_allclose(res.norm_sq, 0.46530861109210397, rtol=1e-12)


def test_contraction_handles_shifted_bands():
    # a time-reversed window has its band off the diagonal; the emission
    # and trim schedule must follow the actual nonzero pattern
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    window = FormFactor.gaussian(0.4 * tg.dt).window_matrix(tg.n_steps, tg.dt)[::-1, ::-1].copy()
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    got = _contract_windowed(
        psi0.astype(complex), kernel, WindowSpec.plan(window, g.n_points),
        _corridor_rows(window, obs.values, readout, kappa, tg.dt),
    )
    ref = oracles.brute_conditioned_state(
        psi0, kernel, obs.values, readout, kappa, tg.dt, window
    )
    assert np.max(np.abs(got - ref)) < 1e-13


def test_window_spec_plan_reports_and_caps():
    dt = 0.2
    window = FormFactor.gaussian(0.4 * dt).window_matrix(20, dt)
    spec = WindowSpec.plan(window, n_sites=4)
    assert spec.bandwidth == 2
    assert spec.buffer_len == 2 * spec.bandwidth + 1
    assert spec.work_elements == 4**spec.buffer_len
    with pytest.raises(ValueError, match="evolve_selective_coarse_mc"):
        WindowSpec.plan(window, n_sites=4, cap=100)
    with pytest.raises(ValueError):
        WindowSpec.plan(window[:, :-1], n_sites=4)  # not (N, N+1)


@settings(max_examples=150, deadline=None)
@given(
    n_steps=st.integers(1, 40),
    reach=st.integers(0, 6),
    shift=st.integers(-4, 4),
    reverse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_spec_plan_matches_dry_run(n_steps, reach, shift, reverse, seed):
    # random bands: per-row spans around a shifted diagonal, with holes
    rng = np.random.default_rng(seed)
    window = np.zeros((n_steps, n_steps + 1))
    for i in range(n_steps):
        lo = int(np.clip(i + shift - rng.integers(0, reach + 1), 0, n_steps))
        hi = int(np.clip(i + shift + rng.integers(0, reach + 1), lo, n_steps))
        window[i, lo : hi + 1] = rng.uniform(0.1, 1.0, hi - lo + 1) * (rng.random(hi - lo + 1) < 0.7)
        window[i, [lo, hi]] = 0.5
    if reverse:
        window = window[::-1, ::-1].copy()
    spec = WindowSpec.plan(window, n_sites=2, cap=2**64)
    expect = oracles.dry_run_window_plan(window)
    assert (spec.bandwidth, spec.buffer_len, spec.live, spec.emit) == expect
    assert spec.work_elements == 2**spec.buffer_len


def test_window_spec_fits_is_the_plan_cap():
    window = FormFactor.gaussian(0.08).window_matrix(20, 0.2)
    work = WindowSpec.plan(window, n_sites=4).work_elements
    assert WindowSpec.plan(window, 4, cap=work).work_elements == work
    with pytest.raises(ValueError, match=re.escape(f"above the cap {work - 1:.3g}")):
        WindowSpec.plan(window, 4, cap=work - 1)


def test_coarse_cap_is_enforced_by_engine():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    with pytest.raises(ValueError, match="cap"):
        evolve_selective_coarse(
            psi0, readout, FormFactor.gaussian(0.3), kappa, ham, obs, g, tg, cap=10
        )


def test_mc_engine_agrees_within_error_bars():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    ff = FormFactor.gaussian(0.3)
    exact = evolve_selective_coarse(psi0, readout, ff, kappa, ham, obs, g, tg)
    mc = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=4000, seed=5
    )
    err = np.abs(mc.final_state - exact.final_state)
    assert mc.n_samples == 4000
    assert np.all(err < 5.0 * np.maximum(mc.state_stderr, 1e-300))
    assert abs(mc.probability_density - exact.probability_density) < 5.0 * mc.probability_stderr
    # reproducible under the same seed
    again = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=4000, seed=5
    )
    assert np.array_equal(mc.final_state, again.final_state)


@pytest.mark.parametrize("extra", [0, 5])
def test_mc_engine_matches_naive_aux_field_loop(extra):
    # the random stream is a contract: sample s uses row s of one
    # (samples, N) standard-normal draw, at a batch boundary and off it
    g = SpatialGrid(8.0, 32)
    tg = TimeGrid(0.8, 4)
    ham = HamiltonianSpec.harmonic(g, omega=0.7)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.3, width=1.1)
    readout, kappa, ff = np.array([0.2, -0.4, 0.1, 0.3]), 1.2, FormFactor.gaussian(0.25)
    samples = 2 * (_FIELD_BATCH_ELEMENTS // g.n_points) + extra
    mc = evolve_selective_coarse_mc(psi0, readout, ff, kappa, ham, obs, g, tg,
                                    samples=samples, seed=21)
    xi = np.random.default_rng(21).standard_normal((samples, tg.n_steps))
    ref = oracles.aux_field_conditioned_state(
        psi0, unitary_step(np.eye(g.n_points), ham, g, tg.dt), obs.values, readout, kappa, tg.dt,
        ff.window_matrix(tg.n_steps, tg.dt), xi,
    )
    assert np.max(np.abs(mc.final_state - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mc_engine_error_shrinks_with_samples():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    ff = FormFactor.gaussian(0.3)
    small = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=500, seed=9
    )
    big = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=8000, seed=9
    )
    ratio = np.median(small.state_stderr / big.state_stderr)
    assert 2.0 < ratio < 8.0  # expect ~4 from 16x the samples


def test_mc_engine_exact_at_kappa_zero():
    g, tg, ham, obs, psi0, readout, _ = _setup_b()
    mc = evolve_selective_coarse_mc(
        psi0, readout, FormFactor.gaussian(0.3), 0.0, ham, obs, g, tg, samples=8, seed=2
    )
    psi = psi0.copy()
    for _ in range(tg.n_steps):
        psi = unitary_step(psi, ham, g, tg.dt)
    assert np.max(mc.state_stderr) < 1e-14
    assert_allclose(mc.final_state, psi, atol=1e-13)


def test_left_rule_composition_differs_from_strang_by_first_order():
    # the composition engine and repeated oracles.effective_step converge to the
    # same continuum limit; their mutual gap shrinks ~ dt
    g = SpatialGrid(6.0, 6)
    ham = HamiltonianSpec.harmonic(g, omega=1.1)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.4, width=0.9)
    kappa, t_final = 0.8, 0.8
    gaps = []
    for n in (16, 32, 64):
        tg = TimeGrid(t_final, n)
        readout = np.full(n, 0.25)
        res = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
        psi = psi0.copy()
        for i in range(n):
            psi = oracles.effective_step(psi, readout[i], kappa, ham, obs, g, tg.dt)
        gaps.append(np.max(np.abs(res.final_state - psi)))
    orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
    assert np.all(orders > 0.8), (gaps, orders)
    assert gaps[-1] < gaps[0] / 3.0

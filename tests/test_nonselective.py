import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from corridors import nonselective, selective
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    _StepPlan,
    check_density_matrix,
    density_trace,
    gaussian_packet,
    pure_density,
    purity,
    short_time_kernel_matrix,
)
from corridors.medium import PathPair, firstorder_log_weights, influence_exact
from corridors.nonselective import (
    InfluenceKernelSpec,
    _decay_matrix,
    check_generalized_unitarity,
    lindblad_evolve,
    readout_average,
    superpropagate,
)
from corridors.readout import FormFactor
from corridors.scenario import load_config
from corridors.selective import _SWEEP_BLOCK_ELEMENTS, DEFAULT_WORK_CAP, WindowSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def _free_pointer_setup():
    # potential-only model: the decoherence law is exact and closed-form
    g = SpatialGrid(4.0, 8)
    tg = TimeGrid(1.2, 6)
    ham = HamiltonianSpec(mass=math.inf, potential=np.zeros(8))
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, width=0.9)
    return g, tg, ham, obs, psi0, 0.7


def _coarse_setup():
    g = SpatialGrid(4.0, 4)
    tg = TimeGrid(0.8, 4)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.3 * q**2)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=-0.2, width=0.8)
    return g, tg, ham, obs, psi0, 1.2, FormFactor.gaussian(0.3)


def _medium_setup():
    g = SpatialGrid(3.0, 3)
    tg = TimeGrid(0.4, 2)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.5 * q**2, mass=1.3)
    obs = ObservableSpec.position(g)
    rho0 = pure_density(gaussian_packet(g, width=0.8))
    return g, tg, ham, obs, rho0, FormFactor.gaussian(0.35)


def test_per_step_pair_integral_closed_form():
    # the decay factor every averaged engine relies on, checked against
    # gauss-hermite quadrature and a plain trapezoid
    rng = np.random.default_rng(0)
    kappa, dt = 0.9, 0.15
    for _ in range(5):
        x, y = rng.normal(size=2) * 2.0
        closed = math.exp(-0.5 * kappa * dt * (x - y) ** 2)
        assert abs(oracles.pair_step_integral_gh(x, y, kappa, dt) - closed) < 1e-13
        assert abs(oracles.pair_step_integral_numeric(x, y, kappa, dt) - closed) < 1e-12
    d = _decay_matrix(np.array([x, y]), kappa, dt)
    assert_allclose(d[0, 1], closed, rtol=1e-15)


def test_free_pointer_decoherence_law_all_engines():
    # with H = 0 every engine must reproduce
    # rho_t(q, q') = rho_0(q, q') exp(-kappa t (q - q')^2 / 2) exactly
    g, tg, ham, obs, psi0, kappa = _free_pointer_setup()
    rho0 = pure_density(psi0)
    q = g.coords
    law = rho0 * np.exp(-0.5 * kappa * tg.duration * (q[:, None] - q[None, :]) ** 2)
    lind = lindblad_evolve(rho0, kappa, ham, obs, g, tg)
    avg = readout_average(psi0, kappa, ham, obs, g, tg).rho
    sup = superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, g, tg).rho
    for got in (lind, avg, sup):
        assert np.max(np.abs(got - law)) < 1e-13
    # quadrature averaging and the ideal superpropagator are one code path
    assert np.array_equal(avg, sup)


def test_lindblad_keeps_states_physical():
    g = SpatialGrid(12.0, 32)
    tg = TimeGrid(2.0, 40)
    ham = HamiltonianSpec.harmonic(g, omega=1.0)
    obs = ObservableSpec.position(g)
    rho0 = pure_density(gaussian_packet(g, center=1.0, width=0.8))
    purities = []
    rho = lindblad_evolve(
        rho0, 0.5, ham, obs, g, tg, observer=lambda i, r: purities.append(purity(r, g))
    )
    rep = check_density_matrix(rho, g)
    assert max(rep["herm_error"], rep["trace_error"], -rep["min_eigenvalue"]) <= 1e-9, rep
    # monitoring mixes the state monotonically in this regime
    assert purities[-1] < 0.9
    assert np.all(np.diff(purities) < 1e-10)


def _lindblad_setup(n, n_steps):
    g = SpatialGrid(12.0, n)
    tg = TimeGrid(0.02 * n_steps, n_steps)
    ham = HamiltonianSpec.harmonic(g, omega=1.0)
    obs = ObservableSpec.position(g)
    rho0 = pure_density(gaussian_packet(g, center=1.0, width=0.8, momentum=0.5))
    return rho0, 0.5, ham, obs, g, tg


@pytest.mark.parametrize("n, n_steps", [(16, 8192), (64, 800), (256, 128), (16, 1), (16, 2),
                                        (256, 1), (256, 2)])
def test_lindblad_matches_the_two_half_step_loop(n, n_steps):
    # composing the half steps that meet between steps changes only roundoff,
    # below the dense crossover (one conjugation per step) and above it
    args = _lindblad_setup(n, n_steps)
    got = lindblad_evolve(*args)
    ref = oracles.lindblad_two_half_steps(*args)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [16, 256])
def test_lindblad_observer_sees_every_step(n):
    args = _lindblad_setup(n, 40)
    seen, ref = [], []
    got = lindblad_evolve(*args, observer=lambda i, r: seen.append((i, r)))
    oracles.lindblad_two_half_steps(*args, observer=lambda i, r: ref.append(r))
    assert [i for i, _ in seen] == list(range(40))
    for (_, rho), want in zip(seen, ref):
        assert np.max(np.abs(rho - want)) <= 1e-12 * np.max(np.abs(want))
    assert got is seen[-1][1]


def _count_conjugations(monkeypatch, plan):
    """Count the conjugations by ``plan``: on a dense plan the products whose
    left factor is its M ("half") or its M M ("twice"), on the FFT the 2-D
    transforms, one fft2 and one ifft2 per conjugation.  The FFT sweep runs
    every 1-D transform along the last axis (rows of the state, and its
    columns as rows of a transposed buffer), in bands, so 2n of them, counted
    line by line, make one 2-D transform; `fft_step` (the dense plan's M)
    transforms along the first axis."""
    calls = {"half": 0, "twice": 0, "fft2": 0, "ifft2": 0}
    factors = {"half": plan.matrix, "twice": plan.squared[0]} if plan.dense else {}
    matmul = np.matmul

    def counted_matmul(a, *args, **kwargs):
        for key, factor in factors.items():
            calls[key] += np.array_equal(a, factor)
        return matmul(a, *args, **kwargs)

    def counted(name, transform):
        def call(a, *args, axis=-1, **kwargs):
            if axis in (-1, a.ndim - 1):
                calls[name] += a.size // a.shape[axis] / (2 * plan.n)
            return transform(a, *args, axis=axis, **kwargs)
        return call

    monkeypatch.setattr(np, "matmul", counted_matmul)
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name + "2", getattr(np.fft, name)))
    return calls


@pytest.mark.parametrize("n, observed, half, twice", [
    (16, False, 2, 7),  # dense: one conjugation by M_h M_h per step, a half one at each end
    (16, True, 16, 0),  # an observer needs every state: two half conjugations per step
    (256, False, 16, 0),  # FFT: two transform pairs per step, the gains folded between them
    (256, True, 16, 0),
])
def test_lindblad_conjugations_per_step(monkeypatch, n, observed, half, twice):
    args = _lindblad_setup(n, 8)
    calls = _count_conjugations(monkeypatch, _StepPlan(args[2], args[4], 0.5 * args[5].dt))
    lindblad_evolve(*args, observer=(lambda i, r: None) if observed else None)
    dense = n <= 128
    assert calls == {"half": half if dense else 0, "twice": twice,
                     "fft2": 0 if dense else half, "ifft2": 0 if dense else half}


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("engine", ["superpropagate", "readout_average", "adjoint"])
def test_ideal_sweeps_conjugate_once_per_step(monkeypatch, engine, n):
    # one conjugation per step, by M (by M^dagger for the adjoint): on the
    # FFT one fft2 and one ifft2, the decay folded into the product between
    rho0, kappa, ham, obs, g, tg = _lindblad_setup(n, 8)
    dt = -tg.dt if engine == "adjoint" else tg.dt
    calls = _count_conjugations(monkeypatch, _StepPlan(ham, g, dt))
    if engine == "superpropagate":
        superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, g, tg)
    elif engine == "readout_average":
        readout_average(gaussian_packet(g, center=1.0, width=0.8), kappa, ham, obs, g, tg)
    else:
        nonselective._ideal_adjoint(rho0 + 1j * rho0.T, kappa, ham, obs, g, tg)
    dense = n <= 128
    assert calls == {"half": 8 if dense else 0, "twice": 0,
                     "fft2": 0 if dense else 8, "ifft2": 0 if dense else 8}


def test_readout_average_matches_numeric_record_integration():
    # the per-step record integral done by brute quadrature, nothing shared
    # with the closed form
    g = SpatialGrid(3.0, 5)
    tg = TimeGrid(0.6, 3)
    ham = HamiltonianSpec.harmonic(g, omega=1.2)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.3, width=0.7)
    kappa = 0.8
    got = readout_average(psi0, kappa, ham, obs, g, tg).rho
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    ref = oracles.average_density_numeric(
        pure_density(psi0), kernel, obs.values, kappa, tg.dt, tg.n_steps
    )
    assert np.max(np.abs(got - ref)) < 1e-12


def test_readout_average_approaches_lindblad_with_refinement():
    g = SpatialGrid(6.0, 8)
    ham = HamiltonianSpec.harmonic(g, omega=0.9)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.5, width=0.8)
    kappa, t_final = 0.6, 1.0
    gaps = []
    for n in (16, 32, 64):
        tg = TimeGrid(t_final, n)
        a = readout_average(psi0, kappa, ham, obs, g, tg).rho
        b = lindblad_evolve(pure_density(psi0), kappa, ham, obs, g, tg)
        gaps.append(np.max(np.abs(a - b)))
    assert gaps[2] < gaps[1] < gaps[0]
    order = math.log2(gaps[0] / gaps[2]) / 2.0
    assert order > 0.8  # boundary half-step conjugation: clean first order


def test_readout_average_mc_agrees_with_quadrature():
    # the sampled ideal average is superpropagate's; readout_average is the
    # exact (quadrature) sweep it must agree with
    g, tg, ham, obs, psi0, kappa, _ = _coarse_setup()
    exact = readout_average(psi0, kappa, ham, obs, g, tg).rho
    spec = InfluenceKernelSpec("ideal", kappa)
    rho0 = pure_density(psi0)
    mc = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=1500, seed=7)
    err = np.abs(mc.rho - exact)
    assert np.all(err < 5.0 * np.maximum(mc.stderr, 1e-300))
    assert mc.n_samples == 1500
    again = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=1500, seed=7)
    assert np.array_equal(mc.rho, again.rho)


def test_observer_is_refused_where_no_sweep_calls_it():
    g, tg, ham, obs, psi0, kappa, ff = _coarse_setup()
    rho0 = pure_density(psi0)
    seen = []

    def watch(i, rho):
        seen.append(i)

    spec = InfluenceKernelSpec("medium_firstorder", kappa, form_factor=ff, ell=1.0)
    refused = [
        (lambda: superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, g, tg,
                                mode="mc", samples=10, observer=watch), "mode='mc'"),
        (lambda: superpropagate(rho0, InfluenceKernelSpec("coarse", kappa, ff), ham, obs, g, tg,
                                observer=watch), "'coarse' contraction"),
        (lambda: superpropagate(rho0, spec, ham, obs, g, tg, observer=watch),
         "'medium_firstorder' contraction"),
    ]
    for call, path in refused:
        with pytest.raises(ValueError, match=f"observer .* not by .*{path}"):
            call()
    assert not seen
    # the exact ideal sweeps call it once per step, delta-profile "coarse" included
    superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, g, tg, observer=watch)
    superpropagate(rho0, InfluenceKernelSpec("coarse", kappa, FormFactor.delta()), ham, obs,
                   g, tg, observer=watch)
    assert seen == 2 * list(range(tg.n_steps))


def test_superpropagate_coarse_matches_path_enumeration():
    g, tg, ham, obs, psi0, kappa, ff = _coarse_setup()
    rho0 = pure_density(psi0)
    got = superpropagate(
        rho0, InfluenceKernelSpec("coarse", kappa, form_factor=ff), ham, obs, g, tg
    ).rho
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    ref = oracles.brute_superpropagator_final(
        rho0, kernel, obs.values, kappa, tg.dt, ff.window_matrix(tg.n_steps, tg.dt)
    )
    assert np.max(np.abs(got - ref)) < 1e-13
    # windowed averaging still preserves trace (record integral is unitary)
    assert_allclose(density_trace(got, g), 1.0, atol=1e-12)


def test_superpropagate_coarse_delta_is_bitwise_ideal():
    g, tg, ham, obs, psi0, kappa, _ = _coarse_setup()
    rho0 = pure_density(psi0)
    a = superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, g, tg).rho
    b = superpropagate(
        rho0,
        InfluenceKernelSpec("coarse", kappa, form_factor=FormFactor.delta()),
        ham,
        obs,
        g,
        tg,
    ).rho
    assert np.array_equal(a, b)


def test_superpropagate_coarse_mc_agrees_within_errors():
    g, tg, ham, obs, psi0, kappa, ff = _coarse_setup()
    rho0 = pure_density(psi0)
    spec = InfluenceKernelSpec("coarse", kappa, form_factor=ff)
    exact = superpropagate(rho0, spec, ham, obs, g, tg).rho
    mc = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=800, seed=3)
    err = np.abs(mc.rho - exact)
    assert np.all(err < 5.0 * np.maximum(mc.stderr, 1e-300))


def _lobed_profile():
    # a tabulated profile with negative side lobes: at dt = 0.1 its time
    # kernel over three or more slices has a clearly negative eigenvalue
    return FormFactor.from_arrays(
        np.linspace(-0.3, 0.3, 7), np.array([-0.3, 0.2, 0.8, 1.0, 0.8, 0.2, -0.3])
    )


def test_medium_pair_sum_oracle_matches_the_pair_weights():
    g, tg, ham, obs, rho0, ff = _medium_setup()
    paths = obs.values[oracles.all_paths(g.n_points, tg.n_steps + 1)]
    for spec, weight_fn in (
        (InfluenceKernelSpec("medium_exact", 0.9, form_factor=ff, ell=1.4),
         lambda pp: influence_exact(pp, ff, 0.9, 1.4, tg.dt)),
        (InfluenceKernelSpec("medium_firstorder", 0.9, form_factor=ff, ell=1.4),
         lambda pp: oracles.influence_firstorder(pp, ff, 0.9, tg.dt)),
    ):
        got = np.exp(oracles.medium_pair_log_weights(paths, paths, spec, tg.dt))
        ref = np.array([[weight_fn(PathPair(x, y)) for y in paths] for x in paths])
        assert_allclose(got, ref, rtol=1e-13, atol=0)


def test_superpropagate_medium_kinds_match_pair_sums():
    # exact mode contracts the doubled chain; the oracle enumerates every
    # path pair, for Gaussian profiles across the slice coupling range and
    # for a time kernel that is not a covariance, which exact mode accepts
    def check(g, tg, ham, obs, rho0, ff):
        kernel = short_time_kernel_matrix(ham, g, tg.dt)
        for kind in ("medium_exact", "medium_firstorder"):
            spec = InfluenceKernelSpec(kind, 0.9, form_factor=ff, ell=1.4)
            got = superpropagate(rho0, spec, ham, obs, g, tg).rho
            ref = oracles.brute_medium_final(rho0, kernel, obs.values, spec, tg.dt, tg.n_steps)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (
                g.n_points, tg.n_steps, ff, kind)

    check(*_medium_setup())
    dt = 0.1
    assert np.linalg.eigvalsh(_lobed_profile().stationary_matrix(3, dt))[0] < -1e-3
    profiles = [FormFactor.gaussian(f * dt) for f in (0.3, 1.0, 3.0)] + [_lobed_profile()]
    for n in (2, 3):
        g = SpatialGrid(3.0, n)
        ham = oracles.hamiltonian_from_potential(g, lambda q: 0.5 * q**2, mass=1.3)
        obs = ObservableSpec.position(g)
        rho0 = pure_density(gaussian_packet(g, center=0.3, width=0.8, momentum=0.5))
        for n_steps in (1, 2, 3, 4):
            for ff in profiles:
                check(g, TimeGrid(n_steps * dt, n_steps), ham, obs, rho0, ff)


@pytest.mark.parametrize("kind", ["medium_exact", "medium_firstorder"])
def test_superpropagate_medium_reaches_long_records(kind):
    # n = 4 over 64 steps: 4^130 path pairs, out of reach of enumeration;
    # the doubled contraction at tau = 0.4 dt keeps three slices live
    g = SpatialGrid(3.0, 4)
    tg = TimeGrid(6.4, 64)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.5 * q**2, mass=1.3)
    obs = ObservableSpec.position(g)
    rho0 = pure_density(gaussian_packet(g, width=0.8))
    spec = InfluenceKernelSpec(kind, 0.9, form_factor=FormFactor.gaussian(0.4 * tg.dt), ell=1.4)
    rho = superpropagate(rho0, spec, ham, obs, g, tg).rho
    assert abs(density_trace(rho, g) - 1.0) < 1e-12
    rep = check_density_matrix(rho, g)
    assert max(rep["herm_error"], rep["trace_error"], -rep["min_eigenvalue"]) <= 1e-8, rep
    mc = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=400, seed=4)
    assert np.all(np.abs(mc.rho - rho) < 4.0 * mc.stderr)


def test_superpropagate_medium_mc_agrees_within_errors():
    g, tg, ham, obs, rho0, ff = _medium_setup()
    spec = InfluenceKernelSpec("medium_exact", 0.9, form_factor=ff, ell=1.4)
    exact = superpropagate(rho0, spec, ham, obs, g, tg).rho
    mc = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=3000, seed=5)
    err = np.abs(mc.rho - exact)
    assert np.all(err < 5.0 * np.maximum(mc.stderr, 3e-4))


def test_superpropagate_medium_firstorder_mc_agrees_within_errors():
    g, tg, ham, obs, rho0, ff = _medium_setup()
    spec = InfluenceKernelSpec("medium_firstorder", 0.9, form_factor=ff, ell=1.4)
    exact = superpropagate(rho0, spec, ham, obs, g, tg).rho
    mc = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=3000, seed=6)
    err = np.abs(mc.rho - exact)
    assert np.all(err < 5.0 * np.maximum(mc.stderr, 3e-4))


def _all_kind_specs(ff):
    return [
        InfluenceKernelSpec("ideal", 0.9),
        InfluenceKernelSpec("coarse", 0.9, form_factor=ff),
        InfluenceKernelSpec("medium_exact", 0.9, form_factor=ff, ell=1.4),
        InfluenceKernelSpec("medium_firstorder", 0.9, form_factor=ff, ell=1.4),
    ]


@pytest.mark.parametrize("kind_index", range(4))
def test_mc_averages_are_valid_states_for_every_kind(kind_index):
    # each field sample is a unitary evolution of rho0, so the sampled
    # average keeps the trace to roundoff and stays hermitian and positive
    g, tg, ham, obs, rho0, ff = _medium_setup()
    spec = _all_kind_specs(ff)[kind_index]
    res = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=50, seed=2)
    assert res.n_samples == 50 and res.stderr is not None
    assert abs(density_trace(res.rho, g) - 1.0) < 1e-12
    rep = check_density_matrix(res.rho, g)
    assert max(rep["herm_error"], rep["trace_error"], -rep["min_eigenvalue"]) <= 1e-8, rep


def test_mc_field_average_reruns_bit_identically():
    g, tg, ham, obs, rho0, ff = _medium_setup()
    for spec in _all_kind_specs(ff):
        a = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=40, seed=9)
        b = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=40, seed=9)
        assert np.array_equal(a.rho, b.rho) and np.array_equal(a.stderr, b.stderr)


RHO0_SHAPES = ("pure", "mixed", "rank2", "non_hermitian", "zero")


def _rho0_of_shape(shape, g, pure):
    # a full-rank state, a rank-2 state and a non-Hermitian matrix, seeded
    z = np.random.default_rng(3).standard_normal((3, g.n_points, g.n_points, 2)) @ [1, 1j]
    mixed, rank2 = z[0] @ z[0].conj().T, z[1][:, :2] @ z[1][:, :2].conj().T
    return {
        "pure": pure,
        "mixed": mixed / density_trace(mixed, g),
        "rank2": rank2 / density_trace(rank2, g),
        "non_hermitian": z[2],
        "zero": np.zeros_like(pure),
    }[shape]


@pytest.mark.parametrize("shape", RHO0_SHAPES)
@pytest.mark.parametrize("kind_index", range(4))
def test_mc_field_average_matches_the_identity_sweep(kind_index, shape):
    # sweeping a factor of rho0 draws the same samples as sweeping the
    # identity and conjugating rho0 after; only roundoff may differ
    g, tg, ham, obs, pure, ff = _medium_setup()
    spec, rho0 = _all_kind_specs(ff)[kind_index], _rho0_of_shape(shape, g, pure)
    res = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=40, seed=8)
    rho, stderr = oracles.field_average_identity_sweep(rho0, spec, ham, obs, g, tg, 40, 8)
    assert np.max(np.abs(res.rho - rho)) <= 1e-12 * np.max(np.abs(rho))
    assert np.max(np.abs(res.stderr - stderr)) <= 1e-12 * np.max(np.abs(stderr))


@pytest.mark.parametrize("shape", RHO0_SHAPES)
def test_mc_field_average_does_not_depend_on_the_batch(monkeypatch, shape):
    # 1 to 3 samples per batch instead of all 40 in one: the same samples
    g, tg, ham, obs, pure, ff = _medium_setup()
    spec, rho0 = _all_kind_specs(ff)[1], _rho0_of_shape(shape, g, pure)
    whole = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=40, seed=8)
    monkeypatch.setattr(selective, "_FIELD_BATCH_ELEMENTS", 20)
    small = superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=40, seed=8)
    assert np.max(np.abs(small.rho - whole.rho)) <= 1e-14 * np.max(np.abs(whole.rho))
    assert np.max(np.abs(small.stderr - whole.stderr)) <= 1e-14 * np.max(np.abs(whole.stderr))


@pytest.mark.parametrize("shape, columns", [("pure", 1), ("rank2", 2), ("mixed", 4),
                                            ("zero", 1), ("non_hermitian", 8)])
def test_mc_field_average_sweeps_one_column_per_rank(monkeypatch, shape, columns):
    g, tg, ham, obs, psi0, kappa, _ = _coarse_setup()
    rho0 = _rho0_of_shape(shape, g, pure_density(psi0))
    sweep, starts = nonselective._field_sweep, []

    def recorded(plan, start, *args):
        starts.append(start.shape)
        return sweep(plan, start, *args)

    monkeypatch.setattr(nonselective, "_field_sweep", recorded)
    superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, g, tg, mode="mc",
                   samples=4, seed=1)
    assert starts == [(g.n_points, columns)]


def test_slow_detector_mc_matches_path_enumeration():
    # tau = dt: the window couples every slice of the record, which puts the
    # exact doubled contraction (working set n^(2 buffer)) out of reach at
    # all but the smallest lattices; n = 3 keeps brute enumeration possible
    g = SpatialGrid(3.0, 3)
    tg = TimeGrid(0.8, 4)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.4 * q**2, mass=0.8)
    obs = ObservableSpec.position(g)
    rho0 = pure_density(gaussian_packet(g, center=0.2, width=0.9))
    kappa, ff = 1.5, FormFactor.gaussian(tg.dt)
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    exact = oracles.brute_superpropagator_final(
        rho0, kernel, obs.values, kappa, tg.dt, ff.window_matrix(tg.n_steps, tg.dt)
    )
    mc = superpropagate(
        rho0, InfluenceKernelSpec("coarse", kappa, form_factor=ff), ham, obs, g, tg,
        mode="mc", samples=4000, seed=21,
    )
    assert np.all(np.abs(mc.rho - exact) < 4.0 * mc.stderr)
    assert abs(density_trace(mc.rho, g) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["medium_exact", "medium_firstorder"])
def test_medium_mc_refuses_a_kernel_that_is_not_a_covariance(kind):
    # a tabulated profile with negative side lobes gives a time kernel with
    # a clearly negative eigenvalue: no Gaussian field has it as covariance
    g, _, ham, obs, rho0, _ = _medium_setup()
    tg = TimeGrid(0.2, 2)
    spec = InfluenceKernelSpec(kind, 0.9, form_factor=_lobed_profile(), ell=1.4)
    with pytest.raises(ValueError, match="time kernel is not positive semidefinite"):
        superpropagate(rho0, spec, ham, obs, g, tg, mode="mc", samples=10, seed=1)


def test_superpropagate_medium_cap(monkeypatch):
    g, tg, ham, obs, rho0, ff = _medium_setup()
    spec = InfluenceKernelSpec("medium_exact", 0.9, form_factor=ff, ell=1.4)
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", 100)
    with pytest.raises(ValueError, match="mc"):
        superpropagate(rho0, spec, ham, obs, g, tg)


def test_unitarity_ideal_is_machine_exact():
    g, tg, ham, obs, _, kappa, _ = _coarse_setup()
    rep = check_generalized_unitarity(kappa, ham, obs, g, tg)
    assert rep.stderr is None and rep.n_samples is None
    assert rep.deviation < 1e-12
    assert rep.passed(1e-12)


def test_unitarity_coarse_exact_matches_enumeration():
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    rep = check_generalized_unitarity(kappa, ham, obs, g, tg, form_factor=ff)
    assert rep.deviation < 1e-12
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    ref = oracles.brute_unitarity_matrix(
        kernel, obs.values, kappa, tg.dt, ff.window_matrix(tg.n_steps, tg.dt)
    )
    assert np.max(np.abs(rep.matrix - ref)) < 1e-12


def test_unitarity_mc_modes():
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    rep = check_generalized_unitarity(
        kappa, ham, obs, g, tg, mode="mc", samples=400, seed=11
    )
    assert rep.stderr is not None and rep.n_samples == 400
    assert rep.deviation < 5.0 * rep.stderr + 0.05
    rep_c = check_generalized_unitarity(
        kappa, ham, obs, g, tg, form_factor=ff, mode="mc", samples=400, seed=12
    )
    assert rep_c.deviation < 5.0 * rep_c.stderr + 0.05


def test_unitarity_mc_refuses_a_window_above_the_cap(monkeypatch):
    # records are conditioned only exactly: a window whose contraction does
    # not fit the cap is refused, as in mode "exact", not estimated
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", 10)
    with pytest.raises(ValueError, match="above the cap"):
        check_generalized_unitarity(kappa, ham, obs, g, tg, form_factor=ff, mode="mc",
                                    samples=600, seed=13)


def test_unitarity_mc_batches_identity_columns_under_the_cap(monkeypatch):
    # the windowed core contracts records x identity columns in batches as
    # large as the cap allows: here 1 column of 1 record, 2 and 3 columns,
    # all 4 columns of 2 records, and of 16 (one block of the windowed
    # sweep); every batching gives the same estimate
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    work = WindowSpec.plan(ff.window_matrix(tg.n_steps, tg.dt), g.n_points).work_elements
    mats = []
    for cap in (work, 2 * work, 3 * work, 8 * work, DEFAULT_WORK_CAP):
        monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", cap)
        mats.append(check_generalized_unitarity(kappa, ham, obs, g, tg, form_factor=ff,
                                                mode="mc", samples=20, seed=7).matrix)
    for m in mats[1:]:
        assert np.max(np.abs(m - mats[0])) <= 1e-15 * np.max(np.abs(mats[0]))


@pytest.mark.parametrize("factor", [1, 2, 3, 8, 1000])
def test_unitarity_mc_contractions_stay_within_the_cap(monkeypatch, factor):
    # each contraction holds records x identity columns x work elements: at
    # most the cap, and at most one block of the windowed sweep once it holds
    # two records
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    work = WindowSpec.plan(ff.window_matrix(tg.n_steps, tg.dt), g.n_points).work_elements
    contract, sizes = nonselective._contract_windowed, []

    def recorded(vec0, *args):
        sizes.append((vec0.shape[0], math.prod(vec0.shape[:-1]) * work))
        return contract(vec0, *args)

    monkeypatch.setattr(nonselective, "_contract_windowed", recorded)
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", factor * work)
    check_generalized_unitarity(kappa, ham, obs, g, tg, form_factor=ff, mode="mc",
                                samples=10, seed=7)
    assert sum(records for records, _ in sizes) == 10 * math.ceil(g.n_points / min(factor, 4))
    for records, elements in sizes:
        assert elements <= factor * work
        assert records == 1 or elements <= _SWEEP_BLOCK_ELEMENTS


@pytest.mark.parametrize("case", ["ideal", "ideal_multi_batch", "windowed", "windowed_small_cap"])
def test_unitarity_mc_batches_match_the_per_record_loop(monkeypatch, case):
    # records conditioned side by side give the estimate of conditioning them
    # one at a time from the same stream, up to the order of sums
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    work = WindowSpec.plan(ff.window_matrix(tg.n_steps, tg.dt), g.n_points).work_elements
    if case == "ideal_multi_batch":  # batches of 4 records of 64 x 64
        g = SpatialGrid(8.0, 64)
        ham = oracles.hamiltonian_from_potential(g, lambda q: 0.3 * q**2)
        obs, tg = ObservableSpec.position(g), TimeGrid(0.6, 3)
    if case == "windowed_small_cap":
        monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", 3 * work)
    kw = {"form_factor": ff} if case.startswith("windowed") else {}
    rep = check_generalized_unitarity(kappa, ham, obs, g, tg, mode="mc", samples=100, seed=5, **kw)
    ref = oracles.unitarity_mc_per_record(kappa, ham, obs, g, tg, samples=100, seed=5, **kw)
    assert np.max(np.abs(rep.matrix - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", ["free_monitored.ini", "slow_detector.ini"])
def test_mixture_records_are_the_per_record_draws_bit_for_bit(scenario, seed):
    # the batched draws and weights of the ideal and the windowed demo are the
    # scipy-weighted reference's, record by record
    cfg = load_config(SCENARIOS / scenario)
    vals, kappa, dt, n_steps = cfg.obs.values, cfg.meas.kappa, cfg.tgrid.dt, cfg.tgrid.n_steps
    a, log_q = nonselective._mixture_records(np.random.default_rng(seed), vals, kappa, dt,
                                             n_steps, 5)
    rng = np.random.default_rng(seed)
    for a_i, log_q_i in zip(a, log_q):
        ref_a, ref_log_q = oracles.mixture_record(rng, vals, kappa, dt, n_steps)
        assert np.array_equal(a_i, ref_a) and log_q_i == ref_log_q


@pytest.mark.parametrize("samples", [0, 1])
@pytest.mark.parametrize("windowed", [False, True])
def test_unitarity_mc_refuses_too_few_samples(samples, windowed):
    # samples=0 gave a NaN deviation, samples=1 a bare ZeroDivisionError
    g, tg, ham, obs, _, kappa, ff = _coarse_setup()
    with pytest.raises(ValueError, match="at least 2 samples"):
        check_generalized_unitarity(kappa, ham, obs, g, tg, form_factor=ff if windowed else None,
                                    mode="mc", samples=samples, seed=1)


def test_influence_eval_step_kinds():
    dt, kappa = 0.2, 0.9
    rng = np.random.default_rng(1)
    p1, p2 = rng.normal(size=6), rng.normal(size=6)
    w = oracles.influence_eval(p1, p2, InfluenceKernelSpec("ideal", kappa), dt)
    manual = math.exp(-0.5 * kappa * dt * np.sum((p1[:-1] - p2[:-1]) ** 2))
    assert_allclose(w, manual, rtol=1e-14)
    # delta-window coarse collapses to ideal
    w_d = oracles.influence_eval(
        p1, p2, InfluenceKernelSpec("coarse", kappa, form_factor=FormFactor.delta()), dt
    )
    assert w_d == w
    ff = FormFactor.gaussian(0.3)
    w_c = oracles.influence_eval(
        p1, p2, InfluenceKernelSpec("coarse", kappa, form_factor=ff), dt
    )
    window = ff.window_matrix(5, dt)
    manual_c = math.exp(-0.5 * kappa * dt * np.sum((window @ (p1 - p2)) ** 2))
    assert_allclose(w_c, manual_c, rtol=1e-14)
    assert 0.0 < w_c <= 1.0


def test_influence_eval_medium_kinds_delegate():
    dt = 0.2
    rng = np.random.default_rng(2)
    p1, p2 = rng.normal(size=5), rng.normal(size=5)
    ff = FormFactor.gaussian(0.3)
    spec_e = InfluenceKernelSpec("medium_exact", 0.9, form_factor=ff, ell=1.1)
    assert_allclose(
        oracles.influence_eval(p1, p2, spec_e, dt),
        influence_exact(PathPair(p1, p2), ff, 0.9, 1.1, dt),
        rtol=1e-15,
    )
    spec_f = InfluenceKernelSpec("medium_firstorder", 0.9, form_factor=ff, ell=1.1)
    assert_allclose(
        oracles.influence_eval(p1, p2, spec_f, dt),
        math.exp(firstorder_log_weights(PathPair(p1, p2), ff, 0.9, 1.1, dt)[1]),
        rtol=1e-15,
    )


def test_influence_kernel_spec_validation():
    with pytest.raises(ValueError):
        InfluenceKernelSpec("bogus", 1.0)
    with pytest.raises(ValueError):
        InfluenceKernelSpec("coarse", 1.0)  # missing form factor
    with pytest.raises(ValueError):
        InfluenceKernelSpec("medium_exact", 1.0, form_factor=FormFactor.gaussian(0.3))
    with pytest.raises(ValueError):
        InfluenceKernelSpec("ideal", -1.0)
    with pytest.raises(ValueError):
        superpropagate(
            np.eye(2), InfluenceKernelSpec("ideal", 1.0), None, None,
            SpatialGrid(1.0, 2), TimeGrid(1.0, 1), mode="bogus",
        )

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import influence_firstorder, influence_single_frequency, verify_window_moment_identity
from corridors.medium import (
    MediumSpec,
    PathPair,
    SpectralDensity,
    correlation_function,
    firstorder_log_weights,
    form_factor_from_medium,
    influence_exact,
    load_path_pair,
    nu_of_omega,
    reduce_to_phenomenological,
)
from corridors.readout import FormFactor


def test_response_density_unit_value():
    # all parameters 1: nu(1) = (pi/2)^(3/2) / 4
    m = MediumSpec(density=1.0, range_l=1.0)
    assert_allclose(float(nu_of_omega(m, 1.0)), (math.pi / 2.0) ** 1.5 / 4.0, rtol=1e-14)
    # scaling: ~ n gamma^2 l^3 / (hbar m_osc omega)
    m2 = MediumSpec(density=3.0, range_l=1.0, m_osc=2.0, hbar=0.5, coupling=2.0)
    assert_allclose(
        float(nu_of_omega(m2, 4.0)),
        3.0 * (math.pi / 2.0) ** 1.5 * 4.0 / (4.0 * 0.5 * 2.0 * 4.0),
        rtol=1e-14,
    )
    with pytest.raises(ValueError):
        nu_of_omega(m, 0.0)
    with pytest.raises(ValueError):
        MediumSpec(density=-1.0, range_l=1.0)


def test_frequency_dependent_coupling():
    m = MediumSpec(density=1.0, range_l=1.0, coupling=lambda w: w)  # gamma = omega
    vals = nu_of_omega(m, np.array([1.0, 2.0]))
    assert_allclose(vals[1] / vals[0], 2.0, rtol=1e-12)  # gamma^2/omega ~ omega


def test_correlation_function_band_closed_form_vs_quadrature():
    sd = SpectralDensity.gaussian_band(nu_peak=0.4, sigma_omega=2.0, range_l=1.5)
    numeric = SpectralDensity(nu=sd.nu, range_l=1.5, omega_max=sd.omega_max)  # no band meta
    for t in (0.0, 0.3, 1.0):
        assert_allclose(correlation_function(sd, t), correlation_function(numeric, t), rtol=1e-9)
    # C(0) = integral of nu over the half line
    assert_allclose(
        correlation_function(sd, 0.0), 0.4 * 2.0 * math.sqrt(math.pi / 2.0), rtol=1e-12
    )


def test_single_frequency_weight_basics():
    m = MediumSpec(density=1.0, range_l=1.2)
    same = PathPair(np.ones(4), np.ones(4))
    assert influence_single_frequency(same, 1.0, m, 0.1) == 1.0
    pp = PathPair(np.zeros(1), np.array([0.8]))
    w = influence_single_frequency(pp, 1.3, m, 0.2)
    # J = 1 closed form: exp(-nu dt^2 (2 - 2 exp(-d^2 / 2 l^2)))
    nu = float(nu_of_omega(m, 1.3))
    expect = math.exp(-nu * 0.04 * (2.0 - 2.0 * math.exp(-0.64 / (2.0 * 1.44))))
    assert_allclose(w, expect, rtol=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pp = PathPair(rng.normal(size=6), rng.normal(size=6))
        assert 0.0 < influence_single_frequency(pp, 0.7, m, 0.15) <= 1.0


def test_band_integrated_single_frequency_matches_exact_weight():
    # integrating the per-frequency exponent over a zero-centered band must
    # rebuild the influence weight evaluated through the reduced form factor
    rng = np.random.default_rng(3)
    dt, ell = 0.1, 1.5
    pp = PathPair(rng.normal(size=6) * 0.5, rng.normal(size=6) * 0.5)
    sd = SpectralDensity.gaussian_band(nu_peak=0.4, sigma_omega=2.0, range_l=ell)
    ff, kappa = form_factor_from_medium(sd)
    pref = (math.pi * ell**2 / 2.0) ** 1.5 / (4.0 * 1.0 * 1.0)

    def gamma(w):
        return math.sqrt(sd.nu(w) * w / pref)

    medium = MediumSpec(density=1.0, range_l=ell, coupling=gamma)
    omegas = np.linspace(1e-4, 16.0, 2001)
    logs = [math.log(influence_single_frequency(pp, w, medium, dt)) for w in omegas]
    band_total = np.trapezoid(np.array(logs), omegas)
    exact = math.log(influence_exact(pp, ff, kappa, ell, dt))
    assert_allclose(band_total, exact, rtol=1e-4)


def test_form_factor_from_zero_centered_band():
    sd = SpectralDensity.gaussian_band(nu_peak=0.4, sigma_omega=2.0, range_l=1.5)
    ff, kappa = form_factor_from_medium(sd)
    assert ff.kind == "gaussian"
    assert_allclose(ff.tau, 0.5, rtol=1e-12)  # 1 / sigma_omega
    assert_allclose(kappa, 2.0 * math.pi * 0.4 / 1.5**2, rtol=1e-12)


def test_form_factor_from_off_center_band_is_tabulated():
    sd = SpectralDensity.gaussian_band(nu_peak=0.4, sigma_omega=2.0, range_l=1.5, center=2.0)
    ff, kappa = form_factor_from_medium(sd)
    assert ff.kind == "tabulated"
    assert_allclose(kappa, 2.0 * math.pi * 0.4 * math.exp(-0.5) / 1.5**2, rtol=1e-9)
    s = np.linspace(-ff.support, ff.support, 2001)
    assert_allclose(np.trapezoid(ff.density(s), s), 1.0, atol=1e-6)


def test_form_factor_from_far_band_raises():
    sd = SpectralDensity.gaussian_band(nu_peak=0.4, sigma_omega=0.5, range_l=1.5, center=25.0)
    with pytest.raises(ValueError, match="non-normalizable"):
        form_factor_from_medium(sd)


def test_influence_exact_properties():
    rng = np.random.default_rng(1)
    ff = FormFactor.gaussian(0.3)
    dt = 0.1
    base = rng.normal(size=7)
    same = PathPair(base, base.copy())
    assert influence_exact(same, ff, 0.9, 1.2, dt) == 1.0
    pp = PathPair(rng.normal(size=7), rng.normal(size=7))
    w1 = influence_exact(pp, ff, 0.9, 1.2, dt)
    w2 = influence_exact(pp, ff, 1.8, 1.2, dt)
    assert 0.0 < w2 < w1 < 1.0  # stronger coupling suppresses more
    assert_allclose(w2, w1**2, rtol=1e-12)  # exponent linear in kappa


def test_influence_weights_on_3d_paths():
    rng = np.random.default_rng(4)
    ff = FormFactor.gaussian(0.3)
    pp = PathPair(rng.normal(size=(5, 3)) * 0.3, rng.normal(size=(5, 3)) * 0.3)
    w = influence_exact(pp, ff, 0.9, 2.0, 0.1)
    assert 0.0 < w <= 1.0
    wf = influence_firstorder(pp, ff, 0.9, 0.1)
    assert abs(math.log(wf) - math.log(w)) < 0.1 * abs(math.log(w))


def test_firstorder_gap_scales_as_squared_excursion():
    rng = np.random.default_rng(3)
    ff = FormFactor.gaussian(0.25)
    base1, base2 = rng.normal(size=8), rng.normal(size=8)
    rel = []
    for s in (0.1, 0.2, 0.4):
        pp = PathPair(s * base1, s * base2)
        le, lf = firstorder_log_weights(pp, ff, 0.9, 2.0, 0.1)
        rel.append(abs(le - lf) / abs(lf))
    ratios = np.array(rel[1:]) / np.array(rel[:-1])
    assert np.all(ratios > 2.8) and np.all(ratios < 5.5)  # ~4 per doubling


def test_window_moment_identity_random_instances():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        j = int(rng.integers(3, 9))
        rows = int(rng.integers(2, 7))
        window = rng.normal(size=(rows, j))
        pp = PathPair(rng.normal(size=(j, 2)), rng.normal(size=(j, 2)))
        lhs, rhs, diff = verify_window_moment_identity(pp, window, 0.17)
        worst = max(worst, diff / max(abs(lhs), 1.0))
    assert worst < 1e-12
    with pytest.raises(ValueError):
        verify_window_moment_identity(pp, np.ones((2, j + 1)), 0.17)


def test_reduction_is_exact_and_kernel_reconstructs():
    rng = np.random.default_rng(3)
    dt = 0.1
    pp = PathPair(rng.normal(size=40) * 0.4, rng.normal(size=40) * 0.4)
    ff = FormFactor.gaussian(0.3)
    red = reduce_to_phenomenological(pp, ff, 0.9, dt)
    assert red.rel_gap < 1e-12
    assert 0.0 < red.w_corridor <= 1.0
    # reconstructed kernel approaches the profile's stationary matrix away
    # from the lattice edges
    target = ff.stationary_matrix(40, dt)
    mid = slice(15, 25)
    assert np.max(np.abs(red.kernel[mid, mid] - target[mid, mid])) < 5e-4
    with pytest.raises(ValueError):
        reduce_to_phenomenological(pp, FormFactor.from_arrays(
            np.linspace(-1, 1, 21), np.ones(21)), 0.9, dt)


def test_path_pair_validation():
    with pytest.raises(ValueError):
        PathPair(np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        PathPair(np.zeros((4, 4)), np.zeros((4, 4)))  # d > 3
    with pytest.raises(ValueError):
        PathPair(np.array([1.0, np.inf]), np.array([1.0, 2.0]))
    pp = PathPair([0.0, 1.0], [1.0, 2.0])
    assert pp.n_slices == 2
    r1, r2 = pp.planar()
    assert r1.shape == (2, 1)


def test_load_path_pair_roundtrip(tmp_path):
    t = 0.25 * np.arange(6)
    r1 = np.sin(t)
    r2 = np.cos(t)
    p = tmp_path / "pair1d.txt"
    np.savetxt(p, np.column_stack([t, r1, r2]))
    pp, dt = load_path_pair(p)
    assert_allclose(dt, 0.25)
    assert_allclose(pp.r1, r1)
    assert pp.r1.ndim == 1

    r1_3 = np.stack([t, t**2, np.ones_like(t)], axis=1)
    r2_3 = r1_3 + 0.1
    p3 = tmp_path / "pair3d.txt"
    np.savetxt(p3, np.column_stack([t, r1_3, r2_3]))
    pp3, _ = load_path_pair(p3)
    assert pp3.r1.shape == (6, 3)
    assert_allclose(pp3.r2, r2_3)

    bad = tmp_path / "bad.txt"
    np.savetxt(bad, np.column_stack([t**2, r1, r2]))  # non-uniform times
    with pytest.raises(ValueError):
        load_path_pair(bad)
    bad2 = tmp_path / "bad2.txt"
    np.savetxt(bad2, np.column_stack([t, r1]))  # missing second path
    with pytest.raises(ValueError):
        load_path_pair(bad2)

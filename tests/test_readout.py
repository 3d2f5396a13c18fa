import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from oracles import coarse_grain, weight_coarse, weight_ideal
from corridors.readout import (
    FormFactor,
    MeasurementSpec,
    readout_measure_factor,
)


def test_measurement_spec_roundtrip():
    spec = MeasurementSpec.from_error(error_width=0.2, duration=5.0)
    assert_allclose(spec.kappa, 1.0 / (5.0 * 0.04))
    with pytest.raises(ValueError):
        MeasurementSpec(kappa=0.0)
    with pytest.raises(ValueError):
        MeasurementSpec.from_error(-1.0, 2.0)


def test_measure_factor_normalizes_the_step_marginal():
    kappa, dt = 0.7, 0.13
    c = readout_measure_factor(kappa, dt)
    # integral of c * exp(-2 kappa dt a^2) over the line is exactly 1
    val, err = quad(lambda a: c * math.exp(-2.0 * kappa * dt * a**2), -np.inf, np.inf)
    assert_allclose(val, 1.0, atol=1e-12)


def test_weight_ideal_frozen_value():
    path = np.array([0.0, 1.0, 2.0])
    readout = np.array([0.5, 0.5])
    w = weight_ideal(path, readout, kappa=1.0, dt=0.1)
    # exponent: -0.1 * ((0-0.5)^2 + (1-0.5)^2) = -0.05; final slice unused
    assert_allclose(w, math.exp(-0.05), rtol=1e-15)
    with pytest.raises(ValueError):
        weight_ideal(path, np.array([0.5, 0.5, 0.5]), 1.0, 0.1)


def test_weight_coarse_delta_is_bitwise_ideal():
    rng = np.random.default_rng(7)
    path = rng.normal(size=9)
    readout = rng.normal(size=8)
    a = weight_ideal(path, readout, kappa=0.9, dt=0.21)
    b = weight_coarse(path, readout, FormFactor.delta(), kappa=0.9, dt=0.21)
    assert a == b  # identical code path, not merely close


def test_window_matrix_shape_and_rows():
    ff = FormFactor.gaussian(tau=0.6)
    n, dt = 12, 0.3
    w = ff.window_matrix(n, dt)
    assert w.shape == (n, n + 1)
    assert_allclose(w.sum(axis=1), 1.0, atol=1e-14)
    # each row peaks on its own step's slice
    assert np.array_equal(np.argmax(w, axis=1), np.arange(n))
    # symmetric band truncated beyond TRUNCATION_WIDTHS * tau
    assert w[0, 5] > 0 and w[0, 11] == 0.0


def test_window_matrix_delta_identity_block():
    w = FormFactor.delta().window_matrix(5, 0.1)
    assert w.shape == (5, 6)
    assert_allclose(w[:, :5], np.eye(5), atol=0)
    assert_allclose(w[:, 5], 0.0, atol=0)


def test_coarse_grain_preserves_constants_exactly():
    ff = FormFactor.gaussian(tau=0.45)
    path = np.full(21, 3.7)
    out = coarse_grain(path, ff, dt=0.2)
    assert out.shape == (20,)
    assert_allclose(out, 3.7, rtol=1e-15)


def test_gaussian_smoothing_moments():
    # smoothing a linear path leaves interior values unchanged; smoothing a
    # quadratic one adds tau^2 - textbook gaussian moments, and an
    # independent check of the window quadrature
    tau, dt, n = 0.5, 0.05, 200
    ff = FormFactor.gaussian(tau)
    t = dt * np.arange(n + 1)
    interior = slice(80, 120)
    lin = coarse_grain(t, ff, dt)
    assert_allclose(lin[interior], (dt * np.arange(n))[interior], atol=5e-4)
    quadr = coarse_grain(t**2, ff, dt)
    expect = (dt * np.arange(n))[interior] ** 2 + tau**2
    assert_allclose(quadr[interior], expect, rtol=2e-3)


def test_stationary_matrix_properties():
    ff = FormFactor.gaussian(tau=0.4)
    k = ff.stationary_matrix(60, 0.1)
    assert_allclose(k, k.T, atol=0)
    assert_allclose(k[0, 0], 0.1 / (0.4 * math.sqrt(2 * math.pi)), rtol=1e-15)
    # interior rows integrate the unit-area profile
    assert_allclose(k[30].sum(), 1.0, atol=1e-6)
    # delta kind: lattice Dirac kernel under a double sum
    assert_allclose(FormFactor.delta().stationary_matrix(4, 0.3), np.eye(4), atol=0)


def test_factorize_gaussian_convolution_property():
    ff = FormFactor.gaussian(tau=0.8)
    half = ff.factorize()
    assert half.kind == "gaussian"
    assert_allclose(half.tau, 0.8 / math.sqrt(2.0))
    # numeric convolution of the factor with itself reproduces the profile
    s = np.linspace(-4.0, 4.0, 4001)
    ds = s[1] - s[0]
    conv = np.convolve(half.density(s), half.density(s), mode="same") * ds
    assert_allclose(conv[1000:3001], ff.density(s)[1000:3001], atol=2e-4)
    assert FormFactor.delta().factorize().is_delta
    tab = FormFactor.from_arrays(np.linspace(-1, 1, 41), np.exp(-np.linspace(-1, 1, 41) ** 2))
    with pytest.raises(ValueError):
        tab.factorize()


def test_factor_windows_reconstruct_the_kernel():
    # P^T P for the factorized square window approaches the stationary
    # matrix of the original profile away from the edges
    tau, dt, n = 0.4, 0.05, 120
    ff = FormFactor.gaussian(tau)
    p = ff.factorize().square_window(n, dt)
    recon = p.T @ p
    target = ff.stationary_matrix(n, dt)
    mid = slice(40, 80)
    assert np.max(np.abs(recon[mid, mid] - target[mid, mid])) < 1e-4


def test_tabulated_form_factor():
    s = np.linspace(-2.0, 2.0, 201)
    vals = np.exp(-(s**2) / (2 * 0.5**2))  # unnormalized gaussian, tau=0.5
    ff = FormFactor.from_arrays(s, vals)
    assert ff.kind == "tabulated"
    assert_allclose(np.trapezoid(ff.density(s), s), 1.0, atol=1e-12)
    assert_allclose(ff.tau, 0.5, atol=5e-3)
    assert ff.density(3.0) == 0.0  # outside support
    w = ff.window_matrix(10, 0.2)
    assert_allclose(w.sum(axis=1), 1.0, atol=1e-14)


def test_tabulated_loader(tmp_path):
    path = tmp_path / "profile.txt"
    s = np.linspace(-1.0, 1.0, 51)
    np.savetxt(path, np.column_stack([s, 1.0 - np.abs(s)]))
    ff = FormFactor.from_table(path)
    assert_allclose(ff.density(0.0), 1.0, rtol=1e-12)  # triangle has unit area already
    with pytest.raises(ValueError):
        FormFactor.from_arrays(s[::-1], 1.0 - np.abs(s))  # decreasing lags
    with pytest.raises(ValueError):
        FormFactor.from_arrays(s, np.zeros_like(s))  # zero area

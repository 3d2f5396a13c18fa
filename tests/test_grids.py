import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import oracles
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    build_grids,
    check_density_matrix,
    density_trace,
    gaussian_packet,
    norm_sq,
    pure_density,
    purity,
    short_time_kernel_matrix,
    unitary_step,
)


def test_spatial_grid_basics():
    g = SpatialGrid(extent=8.0, n_points=16)
    assert g.spacing == 0.5
    q = g.coords
    assert q.shape == (16,)
    assert q[0] == -4.0
    assert_allclose(np.diff(q), 0.5)


def test_time_grid_basics():
    tg = TimeGrid(duration=2.0, n_steps=8)
    assert tg.dt == 0.25
    assert tg.times.shape == (9,)
    assert tg.times[-1] == 2.0


@pytest.mark.parametrize("bad", [0, 1, -4, 2.5])
def test_spatial_grid_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        SpatialGrid(extent=1.0, n_points=bad)


def test_build_grids_requires_power_of_two():
    build_grids(4.0, 8, 1.0, 4)  # fine
    with pytest.raises(ValueError):
        build_grids(4.0, 6, 1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(duration=-1.0, n_steps=4)


def test_gaussian_packet_moments():
    g = SpatialGrid(extent=40.0, n_points=512)
    psi = gaussian_packet(g, center=1.5, width=0.8, momentum=2.0)
    assert_allclose(norm_sq(psi, g), 1.0, atol=1e-12)
    prob = np.abs(psi) ** 2 * g.spacing
    mean = np.sum(prob * g.coords)
    var = np.sum(prob * (g.coords - mean) ** 2)
    assert_allclose(mean, 1.5, atol=1e-9)
    assert_allclose(math.sqrt(var), 0.8, rtol=1e-9)
    # mean momentum read off in the FFT basis
    k = oracles.angular_wavenumbers(g)
    amp_k = np.fft.fft(psi)
    w = np.abs(amp_k) ** 2
    assert_allclose(np.sum(w * k) / np.sum(w), 2.0, atol=1e-9)


def test_position_state_norm_and_density():
    g = SpatialGrid(extent=4.0, n_points=8)
    psi = oracles.position_state(g, 3)
    assert_allclose(norm_sq(psi, g), 1.0)
    rho = pure_density(psi)
    assert_allclose(density_trace(rho, g), 1.0)
    assert_allclose(purity(rho, g), 1.0, atol=1e-12)


def test_purity_of_mixture_below_one():
    g = SpatialGrid(extent=4.0, n_points=8)
    rho = 0.5 * (pure_density(oracles.position_state(g, 1))
                 + pure_density(oracles.position_state(g, 5)))
    assert_allclose(density_trace(rho, g), 1.0)
    assert_allclose(purity(rho, g), 0.5, atol=1e-12)
    rep = check_density_matrix(rho, g)
    assert max(rep["herm_error"], rep["trace_error"], -rep["min_eigenvalue"]) <= 1e-10, rep


def test_check_density_matrix_flags_bad_input():
    g = SpatialGrid(extent=4.0, n_points=8)
    rho = pure_density(oracles.position_state(g, 2))
    rho[0, 1] = 0.3  # break hermiticity
    rep = check_density_matrix(rho, g)
    assert set(rep) == {"herm_error", "trace", "trace_error", "min_eigenvalue"}
    assert rep["herm_error"] > 0.1


def test_unitary_step_preserves_norm():
    g = SpatialGrid(extent=20.0, n_points=128)
    ham = HamiltonianSpec.harmonic(g, omega=1.3)
    psi = gaussian_packet(g, center=2.0, width=0.7)
    for _ in range(50):
        psi = unitary_step(psi, ham, g, 0.05)
    assert_allclose(norm_sq(psi, g), 1.0, atol=1e-12)


def test_unitary_step_free_particle_exact():
    # with V = 0 the splitting error vanishes: one big step equals expm
    g = SpatialGrid(extent=16.0, n_points=16)
    ham = HamiltonianSpec.free(g, mass=0.7)
    psi0 = gaussian_packet(g, width=1.2, momentum=0.9)
    h = oracles.dense_hamiltonian(ham, g)
    psi_ref = expm(-1j * h * 0.8 / ham.hbar) @ psi0
    psi = unitary_step(psi0, ham, g, 0.8)
    assert_allclose(psi, psi_ref, atol=1e-12)


def test_unitary_step_infinite_mass_is_pure_phase():
    g = SpatialGrid(extent=6.0, n_points=8)
    v = np.linspace(0.0, 3.0, 8)
    ham = HamiltonianSpec(mass=math.inf, potential=v, hbar=2.0)
    psi0 = gaussian_packet(g, width=1.0)
    psi = unitary_step(psi0, ham, g, 0.37)
    assert_allclose(psi, np.exp(-1j * v * 0.37 / 2.0) * psi0, atol=1e-14)


def test_split_step_second_order_against_expm():
    g = SpatialGrid(extent=12.0, n_points=16)
    ham = HamiltonianSpec.harmonic(g, omega=1.0, mass=1.0)
    h = oracles.dense_hamiltonian(ham, g)
    psi0 = gaussian_packet(g, center=1.0, width=0.9)
    t_final = 0.5
    errs = []
    for n in (8, 16, 32):
        dt = t_final / n
        psi = psi0.copy()
        for _ in range(n):
            psi = unitary_step(psi, ham, g, dt)
        ref = expm(-1j * h * t_final) @ psi0
        errs.append(np.max(np.abs(psi - ref)))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.8 and order2 > 1.8


def test_harmonic_coherent_state_returns_after_a_period():
    g = SpatialGrid(extent=24.0, n_points=256)
    omega = 1.0
    ham = HamiltonianSpec.harmonic(g, omega=omega)
    # ground-state width; displaced => coherent state, period 2 pi / omega
    psi0 = gaussian_packet(g, center=1.5, width=1.0 / math.sqrt(2.0))
    n = 2000
    dt = 2.0 * math.pi / omega / n
    psi = psi0.copy()
    for _ in range(n):
        psi = unitary_step(psi, ham, g, dt)
    overlap = abs(np.sum(psi0.conj() * psi) * g.spacing)
    assert overlap > 1.0 - 1e-6


def test_short_time_kernel_matrix_matches_step():
    g = SpatialGrid(extent=8.0, n_points=8)
    ham = HamiltonianSpec.harmonic(g, omega=0.8, mass=1.2)
    m = short_time_kernel_matrix(ham, g, 0.3)
    psi = gaussian_packet(g, width=1.1)
    assert_allclose(m @ psi, unitary_step(psi, ham, g, 0.3), atol=1e-13)
    # unitary to machine precision
    assert_allclose(m.conj().T @ m, np.eye(8), atol=1e-12)


def test_short_time_kernel_matrix_cap():
    g = SpatialGrid(extent=8.0, n_points=32)
    ham = HamiltonianSpec.free(g)
    with pytest.raises(ValueError):
        short_time_kernel_matrix(ham, g, 0.1)


def test_dense_hamiltonian_free_spectrum():
    g = SpatialGrid(extent=10.0, n_points=16)
    ham = HamiltonianSpec.free(g, mass=2.0, hbar=1.5)
    h = oracles.dense_hamiltonian(ham, g)
    assert_allclose(h, h.conj().T, atol=1e-14)
    k = oracles.angular_wavenumbers(g)
    expect = np.sort(ham.hbar**2 * k**2 / (2.0 * ham.mass))
    assert_allclose(np.sort(np.linalg.eigvalsh(h)), expect, atol=1e-10)


def test_dense_hamiltonian_harmonic_ground_energy():
    g = SpatialGrid(extent=30.0, n_points=256)
    ham = HamiltonianSpec.harmonic(g, omega=1.0)
    e0 = np.linalg.eigvalsh(oracles.dense_hamiltonian(ham, g))[0]
    assert_allclose(e0, 0.5, atol=1e-8)


def test_hamiltonian_from_table(tmp_path):
    g = SpatialGrid(extent=4.0, n_points=8)
    p = tmp_path / "pot.txt"
    q_tab = np.linspace(-3.0, 3.0, 25)
    np.savetxt(p, np.column_stack([q_tab, q_tab**2]))
    ham = HamiltonianSpec.from_table(g, p)
    assert_allclose(ham.potential, g.coords**2, atol=1e-12)


def test_observable_specs():
    g = SpatialGrid(extent=4.0, n_points=8)
    a = ObservableSpec.position(g)
    assert_allclose(a.values, g.coords)
    with pytest.raises(ValueError):
        ObservableSpec(values=np.array([1.0, np.nan, 0.0]))


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(mass=0.0, potential=np.zeros(8))
    with pytest.raises(ValueError):
        HamiltonianSpec(mass=1.0, potential=np.full(8, np.inf))

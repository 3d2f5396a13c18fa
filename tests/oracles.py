"""Independent brute-force references for the engine tests.

Everything here is deliberately naive: explicit enumeration of all
lattice paths, dense matrix exponentials, and plain numeric quadrature.
The engines must reproduce these numbers; nothing here shares code with
the package beyond the one-step kernel: the matrices handed in by the
tests and the public `unitary_step`.
"""

import math

import numpy as np
from scipy.linalg import expm

from corridors.grids import unitary_step


def all_paths(n_sites, n_slices):
    """(n_sites**n_slices, n_slices) array of every site-index path."""
    grids = np.meshgrid(*([np.arange(n_sites)] * n_slices), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def path_amplitudes(psi0, kernel, paths):
    """Unitary amplitude of each path, seeded by the initial vector."""
    amps = np.asarray(psi0, dtype=complex)[paths[:, 0]].copy()
    for j in range(1, paths.shape[1]):
        amps *= kernel[paths[:, j], paths[:, j - 1]]
    return amps


def smoothed_values(site_values, paths, window):
    """Window-smoothed observable value of each path at each step."""
    vals = np.asarray(site_values, dtype=float)[paths]  # (n_paths, n_slices)
    return vals @ np.asarray(window).T  # (n_paths, n_steps)


def ideal_window(n_steps):
    w = np.zeros((n_steps, n_steps + 1))
    w[np.arange(n_steps), np.arange(n_steps)] = 1.0
    return w


def brute_conditioned_state(psi0, kernel, site_values, readout, kappa, dt, window):
    """Sum over every path of amplitude x corridor weight."""
    n = len(site_values)
    n_steps = window.shape[0]
    paths = all_paths(n, n_steps + 1)
    amps = path_amplitudes(psi0, kernel, paths)
    dev = smoothed_values(site_values, paths, window) - np.asarray(readout)[None, :]
    weights = np.exp(-kappa * dt * np.sum(dev**2, axis=1))
    out = np.zeros(n, dtype=complex)
    np.add.at(out, paths[:, -1], amps * weights)
    return out


def dry_run_window_plan(window):
    """(bandwidth, buffer_len) of a windowed contraction, slice by slice.

    Follows the live slice axes [lo, j] through the sweep: slice j is
    appended, then every slice that no pending row (one whose last nonzero
    column lies after j) reaches back to is summed out.
    """
    window = np.asarray(window)
    n_steps = window.shape[0]
    cols = [np.nonzero(row)[0] for row in window]
    first, last = [int(c[0]) for c in cols], [int(c[-1]) for c in cols]
    bandwidth = max(max(i - first[i], last[i] - i) for i in range(n_steps))
    lo, peak = 0, 1
    for j in range(n_steps + 1):
        peak = max(peak, j - lo + 1)
        pending = [first[i] for i in range(n_steps) if last[i] > j]
        lo = max(lo, min(pending + [j]))
    return bandwidth, peak


def aux_field_conditioned_state(psi0, kernel, site_values, readout, kappa, dt, window, xi):
    """Mean over the rows of ``xi`` of the auxiliary-field sample, one at a time.

    Sample xi multiplies exp(A (2 kappa dt b_j + i sqrt(2 kappa dt) (P^T xi)_j))
    in at slices j = 0 .. N, the kernel stepping between slices, and the
    whole by exp(-kappa dt ||a||^2); P is the window, b = P^T a.
    """
    vals = np.asarray(site_values, dtype=float)
    readout = np.asarray(readout, dtype=float)
    b = window.T @ readout
    prefactor = math.exp(-kappa * dt * float(np.sum(readout**2)))
    total = np.zeros(vals.size, dtype=complex)
    for x in xi:
        field = window.T @ x
        psi = prefactor * np.asarray(psi0, dtype=complex)
        for j in range(window.shape[1]):
            if j:
                psi = kernel @ psi
            psi = psi * np.exp(vals * (2.0 * kappa * dt * b[j]
                                       + 1j * math.sqrt(2.0 * kappa * dt) * field[j]))
        total += psi
    return total / len(xi)


def pair_step_integral_numeric(x, y, kappa, dt, span=40.0, n_nodes=40001):
    """integral c da exp(-kappa dt [(x-a)^2 + (y-a)^2]) by brute quadrature.

    Used to validate the closed form the engines rely on; the grid is wide
    and fine enough that the trapezoid error is far below 1e-12.
    """
    c = np.sqrt(2.0 * kappa * dt / np.pi)
    half = span / np.sqrt(2.0 * kappa * dt) + max(abs(x), abs(y))
    a = np.linspace(-half, half, n_nodes)
    f = np.exp(-kappa * dt * ((x - a) ** 2 + (y - a) ** 2))
    return float(c * np.trapezoid(f, a))


def pair_step_integral_gh(x, y, kappa, dt, n_nodes=64):
    """The same integral by Gauss-Hermite quadrature about (x + y) / 2."""
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    # substitute a = u / sqrt(2 kappa dt) + (x + y) / 2
    a = nodes / np.sqrt(2.0 * kappa * dt) + 0.5 * (x + y)
    f = np.exp(-kappa * dt * ((x - a) ** 2 + (y - a) ** 2) + nodes**2)
    return float(np.sum(weights * f) / np.sqrt(np.pi))


def brute_superpropagator_final(rho0, kernel, site_values, kappa, dt, window):
    """Readout-averaged final density matrix by double-path enumeration.

    The per-step readout integral of a weight pair has the closed form
    exp(-kappa dt (xbar - ybar)^2 / 2); `pair_step_integral_numeric`
    validates that identity separately, so using it here keeps the
    enumeration exact without nested numeric integrals.
    """
    n = len(site_values)
    n_steps = window.shape[0]
    paths = all_paths(n, n_steps + 1)
    amps = path_amplitudes(np.ones(n), kernel, paths)
    sm = smoothed_values(site_values, paths, window)
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    # pairwise decay between smoothed step values of the two branches
    diff2 = np.sum((sm[:, None, :] - sm[None, :, :]) ** 2, axis=2)
    decay = np.exp(-0.5 * kappa * dt * diff2)
    contrib = (
        amps[:, None]
        * amps[None, :].conj()
        * decay
        * rho0[paths[:, 0][:, None], paths[:, 0][None, :]]
    )
    np.add.at(out, (paths[:, -1][:, None], paths[:, -1][None, :]), contrib)
    return out


def brute_unitarity_matrix(kernel, site_values, kappa, dt, window):
    """integral d[a] U[a]^dagger U[a] by double-path enumeration."""
    n = len(site_values)
    n_steps = window.shape[0]
    paths = all_paths(n, n_steps + 1)
    amps = path_amplitudes(np.ones(n), kernel, paths)
    sm = smoothed_values(site_values, paths, window)
    diff2 = np.sum((sm[:, None, :] - sm[None, :, :]) ** 2, axis=2)
    decay = np.exp(-0.5 * kappa * dt * diff2)
    # entry (k0, k0'): branches start at k0 / k0' and must end together
    same_end = paths[:, -1][:, None] == paths[:, -1][None, :]
    contrib = amps[:, None].conj() * amps[None, :] * decay * same_end
    out = np.zeros((n, n), dtype=complex)
    np.add.at(out, (paths[:, 0][:, None], paths[:, 0][None, :]), contrib)
    return out


def average_density_numeric(rho0, kernel, site_values, kappa, dt, n_steps, span=30.0, n_nodes=3001):
    """Readout-averaged evolution with the per-step integral done numerically.

    rho <- sum_a c da  K (d_a rho d_a) K^dagger,  d_a = exp(-kappa dt (A-a)^2).
    Independent of the closed-form decay factor used by the engines.
    """
    vals = np.asarray(site_values, dtype=float)
    half = span / np.sqrt(2.0 * kappa * dt) + np.max(np.abs(vals))
    a_grid = np.linspace(-half, half, n_nodes)
    da = a_grid[1] - a_grid[0]
    c = np.sqrt(2.0 * kappa * dt / np.pi)
    rho = np.asarray(rho0, dtype=complex).copy()
    for _ in range(n_steps):
        acc = np.zeros_like(rho)
        for a in a_grid:
            d = np.exp(-kappa * dt * (vals - a) ** 2)
            acc += (d[:, None] * d[None, :]) * rho
        rho = kernel @ (c * da * acc) @ kernel.conj().T
    return rho


def effective_step(psi, a_value, kappa, ham, obs, grid, dt):
    """One symmetrically split step of the damped one-record generator.

    Propagates psi by exp(dt * G) with G = -i H / hbar - kappa (A - a)^2
    using the Strang form  D(dt/2) U(dt) D(dt/2),  D the Gaussian damping
    half-factor: second-order accurate in dt as a standalone integrator.
    The engines pair the *full* weight with each step (left rule) instead,
    trading the per-step order for exact aggregate probability
    conservation; see `evolve_selective_ideal`.
    """
    half = np.exp(-0.5 * kappa * dt * (obs.values - a_value) ** 2)
    return half * unitary_step(half * psi, ham, grid, dt)


def conjugate_by_column_sweeps(plan, rho):
    """M rho M^dagger by two FFT sweeps over the columns of a plan."""
    return plan.fft_step(plan.fft_step(rho).conj().T).conj().T


def damped_generator_step(h_dense, site_values, a_value, kappa, hbar, dt):
    """Dense expm of the one-record damped generator over one step."""
    g = -1j * h_dense / hbar - kappa * np.diag((np.asarray(site_values) - a_value) ** 2)
    return expm(g * dt)

"""Independent brute-force references for the engine tests.

Everything here is deliberately naive: explicit enumeration of all
lattice paths, dense matrix exponentials, and plain numeric quadrature.
The engines must reproduce these numbers; nothing here shares code with
the package beyond the one-step kernel: the matrices handed in by the
tests and the public `unitary_step`.

The next section holds the closed-form single-path and path-pair weights,
lattice states and dense Hamiltonian that only the tests evaluate.  They
use the package's data types (form factors, path pairs) and, where a
weight delegates, its public medium weights.

The last section is the one exception to independence: the one-record-
at-a-time loop of the Monte-Carlo unitarity check, on the package's own
conditioning cores.  It is the reference for batching records side by
side, which must change nothing but the order of sums.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import logsumexp

from corridors.grids import HamiltonianSpec, _StepPlan, unitary_step
from corridors.medium import PathPair, influence_exact, nu_of_omega
from corridors.readout import readout_measure_factor
from corridors.selective import (
    DEFAULT_WORK_CAP,
    WindowSpec,
    _contract_windowed,
    _corridor_rows,
    _ideal_sweep,
)


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
    """(bandwidth, buffer_len, live, emit) of a windowed contraction, slice by slice.

    Follows the live slice axes [lo, j] through the sweep: slice j is
    appended, the rows whose last nonzero column is j are applied, then
    every slice that no pending row (one whose last nonzero column lies
    after j) reaches back to is summed out.  live[j] is that slice's lo
    after the sum, emit[j] the rows it applies.
    """
    window = np.asarray(window)
    n_steps = window.shape[0]
    cols = [np.nonzero(row)[0] for row in window]
    first, last = [int(c[0]) for c in cols], [int(c[-1]) for c in cols]
    bandwidth = max(max(i - first[i], last[i] - i) for i in range(n_steps))
    lo, peak, live, emit = 0, 1, [], []
    for j in range(n_steps + 1):
        peak = max(peak, j - lo + 1)
        emit.append(tuple(i for i in range(n_steps) if last[i] == j))
        pending = [first[i] for i in range(n_steps) if last[i] > j]
        lo = max(lo, min(pending + [j]))
        live.append(lo)
    return bandwidth, peak, tuple(live), tuple(emit)


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


def medium_pair_log_weights(x, y, kernel_spec, dt):
    """ln W of every pair (x_p, y_q) of 1-D site-value paths, shaped (P, Q).

    The double-time bracket sums of `influence_exact` (Gaussian well) and
    `influence_firstorder` (squared distances) over the stationary time
    kernel, written out slice pair by slice pair.
    """
    n_slices = x.shape[1]
    time = kernel_spec.form_factor.stationary_matrix(n_slices, dt)
    exact = kernel_spec.kind == "medium_exact"
    total = 0.0
    for a in range(n_slices):
        for b in range(n_slices):
            same_x = (x[:, a] - x[:, b])[:, None] ** 2
            same_y = (y[:, a] - y[:, b])[None, :] ** 2
            cross = (y[None, :, a] - x[:, None, b]) ** 2
            if exact:
                s = 2.0 * kernel_spec.ell**2
                bracket = np.exp(-same_x / s) + np.exp(-same_y / s) - 2.0 * np.exp(-cross / s)
            else:
                bracket = 2.0 * cross - same_x - same_y
            total = total + time[a, b] * bracket
    if exact:
        return -0.5 * kernel_spec.kappa * kernel_spec.ell**2 * dt * total
    return -0.25 * kernel_spec.kappa * dt * total


def brute_medium_final(rho0, kernel, site_values, kernel_spec, dt, n_steps):
    """Final density matrix under a medium pair weight, by double-path enumeration."""
    n = len(site_values)
    paths = all_paths(n, n_steps + 1)
    amps = path_amplitudes(np.ones(n), kernel, paths)
    vals = np.asarray(site_values, dtype=float)[paths]
    weight = np.exp(medium_pair_log_weights(vals, vals, kernel_spec, dt))
    rho0 = np.asarray(rho0, dtype=complex)
    contrib = (
        amps[:, None]
        * amps[None, :].conj()
        * weight
        * rho0[paths[:, 0][:, None], paths[:, 0][None, :]]
    )
    out = np.zeros((n, n), dtype=complex)
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
    The sum over the record nodes a is the same every step, so it is formed
    once, as the matrix sum_a c da d_a d_a^T.  Independent of the
    closed-form decay factor used by the engines.
    """
    vals = np.asarray(site_values, dtype=float)
    half = span / np.sqrt(2.0 * kappa * dt) + np.max(np.abs(vals))
    a_grid = np.linspace(-half, half, n_nodes)
    da = a_grid[1] - a_grid[0]
    c = np.sqrt(2.0 * kappa * dt / np.pi)
    d = np.exp(-kappa * dt * (vals[None, :] - a_grid[:, None]) ** 2)  # (nodes, sites)
    record_sum = c * da * (d.T @ d)
    rho = np.asarray(rho0, dtype=complex).copy()
    for _ in range(n_steps):
        rho = kernel @ (record_sum * rho) @ kernel.conj().T
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


# ----------------------------------------------------------------------
# closed-form weights, states and operators that only the tests evaluate


def angular_wavenumbers(grid):
    """FFT-ordered angular wavenumbers k (so that p = hbar k)."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)


def hamiltonian_from_potential(grid, v, mass=1.0, hbar=1.0):
    """H = p^2/(2 mass) + V(q) from a callable v(q) or an array on the grid."""
    if callable(v):
        v = v(grid.coords)
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_points,):
        raise ValueError(f"potential shape {v.shape} does not match grid ({grid.n_points},)")
    return HamiltonianSpec(mass=mass, potential=v, hbar=hbar)


def position_state(grid, k):
    """Unit-norm state concentrated in cell k (lattice delta)."""
    psi = np.zeros(grid.n_points, dtype=complex)
    psi[k] = 1.0 / math.sqrt(grid.spacing)
    return psi


def dense_hamiltonian(ham, grid):
    """Dense Hermitian matrix of H on the lattice (for small-grid checks).

    Kinetic part built by conjugating the diagonal hbar^2 k^2 / (2m)
    multiplier with the FFT, so it is consistent with the stepping scheme's
    periodic momentum space rather than with any finite-difference stencil.
    """
    n = grid.n_points
    k = angular_wavenumbers(grid)
    if math.isinf(ham.mass):
        t_op = np.zeros((n, n), dtype=complex)
    else:
        w = ham.hbar**2 * k**2 / (2.0 * ham.mass)
        t_op = np.fft.ifft(w[:, None] * np.fft.fft(np.eye(n, dtype=complex), axis=0), axis=0)
    h = t_op + np.diag(ham.potential).astype(complex)
    return 0.5 * (h + h.conj().T)


def coarse_grain(path, form_factor, dt):
    """Smooth an (N+1)-slice path into the N per-step values seen by the
    instrument.  Delta resolution returns path[:-1] unchanged (exactly)."""
    path = np.asarray(path, dtype=float)
    if path.ndim != 1 or path.size < 2:
        raise ValueError("path must be a 1-D array of at least two slice values")
    n = path.size - 1
    if form_factor.is_delta:
        return path[:-1].copy()
    return form_factor.window_matrix(n, dt) @ path


def _gaussian_weight(step_values, readout, kappa, dt):
    step_values = np.asarray(step_values, dtype=float)
    readout = np.asarray(readout, dtype=float)
    if step_values.shape != readout.shape:
        raise ValueError(
            f"per-step values {step_values.shape} and readout {readout.shape} differ"
        )
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return float(np.exp(-kappa * dt * np.sum((step_values - readout) ** 2)))


def weight_ideal(path, readout, kappa, dt):
    """Corridor weight of an (N+1)-slice path against an N-step readout."""
    path = np.asarray(path, dtype=float)
    if path.size != np.asarray(readout).size + 1:
        raise ValueError("path must have exactly one more slice than the readout has steps")
    return _gaussian_weight(path[:-1], readout, kappa, dt)


def weight_coarse(path, readout, form_factor, kappa, dt):
    """Corridor weight with the path smoothed by the instrument profile."""
    readout = np.asarray(readout, dtype=float)
    smoothed = coarse_grain(path, form_factor, dt)
    return _gaussian_weight(smoothed, readout, kappa, dt)


def influence_eval(path1, path2, kernel_spec, dt):
    """Decoherence weight of a pair of observable-value paths.

    The ideal and coarse kinds are step functionals: inputs are
    (N+1)-slice paths and the weight is the record integral of the two
    corridor weights, exp(-(kappa/2) dt sum_i |x_i - y_i|^2) with x, y
    the (smoothed) per-step values.  The medium kinds are double-time
    integrals over all J slices with the microscopic brackets.
    """
    pair = PathPair(r1=np.asarray(path1, dtype=float), r2=np.asarray(path2, dtype=float))
    kind, kappa = kernel_spec.kind, kernel_spec.kappa
    if kind == "medium_exact":
        return influence_exact(pair, kernel_spec.form_factor, kappa, kernel_spec.ell, dt)
    if kind == "medium_firstorder":
        return influence_firstorder(pair, kernel_spec.form_factor, kappa, dt)
    r1, r2 = pair.planar()
    if pair.n_slices < 2:
        raise ValueError("step-functional kinds need at least two slices")
    if kind == "coarse" and not kernel_spec.form_factor.is_delta:
        window = kernel_spec.form_factor.window_matrix(pair.n_slices - 1, dt)
        x, y = window @ r1, window @ r2
    else:
        x, y = r1[:-1], r2[:-1]
    return float(np.exp(-0.5 * kappa * dt * np.sum((x - y) ** 2)))


def _sq_dists(x, y):
    """(J, J) matrix of |x_j - y_k|^2 for (J, d) paths."""
    return np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)


def influence_firstorder(pair, form_factor, kappa, dt):
    """Small-excursion (phenomenological) limit of the medium weight of one
    path pair: the linear bracket 2|r2 - r1|^2 - |r1 - r1|^2 - |r2 - r2|^2
    over slice pairs, summed with the raw stationary time kernel."""
    r1, r2 = pair.planar()
    bracket = 2.0 * _sq_dists(r2, r1) - _sq_dists(r1, r1) - _sq_dists(r2, r2)
    kernel = form_factor.stationary_matrix(pair.n_slices, dt)
    return float(np.exp(-0.25 * kappa * dt * np.sum(kernel * bracket)))


def influence_single_frequency(pair, omega, medium, dt):
    """Suppression from a unit-bandwidth slice of the medium at omega.

    Exponent: -nu(omega) * dt^2 sum_{jk} cos(omega (t_j - t_k)) *
    [three-Gaussian bracket]; the full medium is the product (integral in
    the exponent) of these over its band.
    """
    t = dt * np.arange(pair.n_slices)
    cos_kernel = np.cos(omega * (t[:, None] - t[None, :]))
    r1, r2 = pair.planar()
    s = 2.0 * medium.range_l**2
    bracket = (np.exp(-_sq_dists(r1, r1) / s) + np.exp(-_sq_dists(r2, r2) / s)
               - 2.0 * np.exp(-_sq_dists(r2, r1) / s))
    nu = float(nu_of_omega(medium, omega))
    return float(np.exp(-nu * dt**2 * np.sum(cos_kernel * bracket)))


def verify_window_moment_identity(pair, window, dt):
    """Check the algebraic collapse of the double-window bracket sum.

    For any real matrix P (rows: readout times, columns: path slices),

        dt * sum_i sum_{jk} P_ij P_ik B_jk
            = 2 dt * sum_i |(P r2)_i - (P r1)_i|^2

    with B the linearized bracket: the squared-difference terms cancel
    through first and second moments.  Returns (lhs, rhs, |lhs - rhs|);
    the identity is exact, so the difference is pure roundoff.
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[1] != pair.n_slices:
        raise ValueError(
            f"window needs {pair.n_slices} columns to match the paths, got {window.shape}"
        )
    r1, r2 = pair.planar()
    bracket = 2.0 * _sq_dists(r2, r1) - _sq_dists(r1, r1) - _sq_dists(r2, r2)
    lhs = dt * float(np.sum((window.T @ window) * bracket))
    gap = window @ (r2 - r1)
    rhs = 2.0 * dt * float(np.sum(gap**2))
    return lhs, rhs, abs(lhs - rhs)


# ----------------------------------------------------------------------
# the per-record Monte-Carlo unitarity loop (reference for record batches)


def mixture_record(rng, values, kappa, dt, n_steps):
    """Draw a record from the per-step equal-weight mixture of normals
    centered on the observable's lattice values; returns (a, log q(a))."""
    n = values.size
    sigma = 1.0 / math.sqrt(4.0 * kappa * dt)
    centers = values[rng.integers(0, n, size=n_steps)]
    a = centers + sigma * rng.standard_normal(n_steps)
    z = -((a[:, None] - values[None, :]) ** 2) / (2.0 * sigma**2)
    log_q = float(
        np.sum(logsumexp(z, axis=1))
        - n_steps * (math.log(n) + math.log(sigma * math.sqrt(2.0 * math.pi)))
    )
    return a, log_q


def unitarity_mc_per_record(kappa, ham, obs, sgrid, tgrid, form_factor=None, samples=200,
                            seed=None, cap=DEFAULT_WORK_CAP):
    """The mean of `check_generalized_unitarity(mode="mc")`, one record at a time.

    Each record is drawn, conditioned and weighted in turn from one stream,
    so a seed gives the same records as the batched check.
    """
    n, dt, n_steps = sgrid.n_points, tgrid.dt, tgrid.n_steps
    plan = _StepPlan(ham, sgrid, dt)
    rng = np.random.default_rng(seed)
    vals, eye = obs.values, np.eye(n, dtype=complex)
    window = None if form_factor is None or form_factor.is_delta else \
        form_factor.window_matrix(n_steps, dt)
    if window is not None:
        spec = WindowSpec.plan(window, n, cap)
        batch = max(1, cap // spec.work_elements)

    def conditioned(a):
        if window is None:
            return _ideal_sweep(plan, eye, a, kappa, vals, dt)
        rows = _corridor_rows(window, vals, a, kappa, dt)
        return np.concatenate([_contract_windowed(eye[c:c + batch], plan.matrix, spec, rows)
                               for c in range(0, n, batch)]).T

    log_c = math.log(readout_measure_factor(kappa, dt))
    total = np.zeros((n, n), dtype=complex)
    for _ in range(samples):
        a, log_q = mixture_record(rng, vals, kappa, dt, n_steps)
        w = math.exp(n_steps * log_c - log_q)
        u = conditioned(a)
        total += w * (u.conj().T @ u)
    return total / samples

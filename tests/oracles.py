"""Independent brute-force references for the engine tests.

Everything here is deliberately naive: explicit enumeration of all
lattice paths, dense matrix exponentials, plain numeric quadrature, and
the windowed sweep one slice and one weight row at a time.
The engines must reproduce these numbers; nothing here shares code with
the package beyond the one-step kernel: the matrices handed in by the
tests and the public `unitary_step`.

The next section holds the closed-form single-path and path-pair weights,
lattice states, dense Hamiltonian and the medium's microscopic response
density (`MediumSpec`, `nu_of_omega`) that only the tests evaluate.  They
use the package's data types (form factors, path pairs) and, where a
weight delegates, its public medium weights.

The last section is the one exception to independence: the one-record-
at-a-time loop of the Monte-Carlo unitarity check, which conditions an
ideal record by its own per-step loop on `unitary_step` but a windowed
one by the package's own windowed contraction; the identity-block sweep
of the field-sampled average, on the package's own field sweep; and the
one-step-at-a-time loops of the averaged ideal sweep, of its adjoint and
of the master equation (two half steps, or dense with them composed), on
the package's own step plan's phases and matrices.  They are the
references for batching records side by side, for sweeping a factor of
rho0, for composing the half steps and for the plan's fused sweep, which
must change nothing but roundoff and the order of sums (and nothing at
all on a dense plan).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg import expm
from scipy.special import logsumexp

from corridors.grids import HamiltonianSpec, _StepPlan, unitary_step
from corridors.medium import PathPair, influence_exact
from corridors.nonselective import _decay_matrix, _field_factors
from corridors.readout import readout_measure_factor
from corridors.selective import (
    WindowSpec,
    _contract_windowed,
    _corridor_rows,
    _field_sweep,
    _ldexp,
    _Moments,
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


def brute_log_norm_sq(psi0, kernel, site_values, readout, kappa, dt, window, spacing):
    """log ||psi_N||^2 of `brute_conditioned_state`, summed in the log domain:
    every path's log weight less the largest over the paths, whose value is
    added apart, so no weight underflows however far the record lies."""
    n = len(site_values)
    paths = all_paths(n, window.shape[0] + 1)
    amps = path_amplitudes(psi0, kernel, paths)
    dev = smoothed_values(site_values, paths, window) - np.asarray(readout)[None, :]
    log_weights = -kappa * dt * np.sum(dev**2, axis=1)
    top = float(np.max(log_weights))
    out = np.zeros(n, dtype=complex)
    np.add.at(out, paths[:, -1], amps * np.exp(log_weights - top))
    return math.log(float(np.sum(np.abs(out) ** 2)) * spacing) + 2.0 * top


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


def contract_windowed_per_slice(vec0, kernel, spec, log_row):
    """`selective._contract_windowed` one row at a time, the kernel first.

    Each slice j appends its axis as the full product state[..., x_{j-1},
    None] * K^T[x_{j-1}, x_j], then multiplies in exp(log_row(i)) for each
    row i of spec.emit[j] in turn, then sums every axis older than
    spec.live[j]; the same call contract as the package's fused sweep.
    """
    kernel_t = np.ascontiguousarray(np.asarray(kernel, dtype=complex).T)
    state = np.asarray(vec0, dtype=complex).copy()
    lead = state.ndim - 1  # batch axes ahead of the live slice axes
    oldest = 0  # slice index carried by axis `lead` of `state`

    def place(j, values):
        shape = [1] * state.ndim
        shape[lead + j - oldest] = values.size
        return values.reshape(shape)

    for j, (lo, rows) in enumerate(zip(spec.live, spec.emit)):
        if j:
            state = state[..., :, None] * kernel_t
        for i in rows:
            weight = log_row(i, place)
            state *= np.exp(weight, out=weight)
        while oldest < lo:
            state = state.sum(axis=lead)
            oldest += 1
    return state


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


def aux_field_log_norm_sq(psi0, kernel, site_values, readout, kappa, dt, window, xi, spacing):
    """log ||mean||^2 of `aux_field_conditioned_state`'s samples, each sample
    rescaled to a largest entry of 1 after every slice, its log scale summed
    apart, and the samples averaged on the largest of the scales: no factor
    leaves the double range, whatever the weights."""
    vals = np.asarray(site_values, dtype=float)
    readout = np.asarray(readout, dtype=float)
    b = window.T @ readout
    states, scales = [], []
    for x in xi:
        field = window.T @ x
        psi, scale = np.asarray(psi0, dtype=complex), -kappa * dt * float(np.sum(readout**2))
        for j in range(window.shape[1]):
            if j:
                psi = kernel @ psi
            log_weight = vals * 2.0 * kappa * dt * b[j]
            top = float(np.max(log_weight))
            phase = vals * math.sqrt(2.0 * kappa * dt) * field[j]
            psi = psi * np.exp(log_weight - top + 1j * phase)
            largest = float(np.max(np.abs(psi)))
            psi, scale = psi / largest, scale + top + math.log(largest)
        states.append(psi)
        scales.append(scale)
    top = max(scales)
    mean = sum(psi * math.exp(scale - top) for psi, scale in zip(states, scales)) / len(xi)
    return math.log(float(np.sum(np.abs(mean) ** 2)) * spacing) + 2.0 * top


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


def log_density_in_segments(psi0, record, kappa, ham, obs, grid, dt, segment=32):
    """log of a record's probability density, log ||psi_N||^2 + N log c, by
    the left-rule loop on `unitary_step`, each step's corridor factor divided
    by its largest, the state renormalized after every ``segment`` steps, and
    the logs of both summed: no factor underflows."""
    psi, log_norm = np.asarray(psi0, dtype=complex), 0.0
    for i, a in enumerate(record):
        log_gain = -kappa * dt * (obs.values - a) ** 2
        top = float(np.max(log_gain))
        log_norm += 2.0 * top  # of the squared norm
        psi = unitary_step(np.exp(log_gain - top) * psi, ham, grid, dt)
        if (i + 1) % segment == 0 or i + 1 == len(record):
            norm2 = float(np.sum(np.abs(psi) ** 2) * grid.spacing)
            log_norm += math.log(norm2)
            psi = psi / math.sqrt(norm2)
    return log_norm + len(record) * math.log(readout_measure_factor(kappa, dt))


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


@dataclass(frozen=True)
class MediumSpec:
    """Microscopic medium parameters.

    density  : oscillators per unit volume
    range_l  : interaction range l of the Gaussian well
    m_osc    : mass of one medium oscillator (distinct from the monitored
               particle's mass, which lives in HamiltonianSpec)
    coupling : gamma, either a constant or a callable gamma(omega)
    """

    density: float
    range_l: float
    m_osc: float = 1.0
    hbar: float = 1.0
    coupling: float | object = 1.0

    def __post_init__(self):
        for name in ("density", "range_l", "m_osc", "hbar"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")

    def gamma(self, omega):
        if callable(self.coupling):
            return self.coupling(omega)
        return self.coupling


def nu_of_omega(medium: MediumSpec, omega):
    """Response density of the medium at frequency omega > 0:
    nu = n (pi l^2 / 2)^(3/2) gamma_omega^2 / (4 hbar m_osc omega)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("nu(omega) is defined for omega > 0")
    pref = medium.density * (math.pi * medium.range_l**2 / 2.0) ** 1.5
    gam = np.vectorize(medium.gamma)(omega) if callable(medium.coupling) else medium.coupling
    return pref * np.asarray(gam, dtype=float) ** 2 / (4.0 * medium.hbar * medium.m_osc * omega)


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
# the per-record Monte-Carlo unitarity loop (reference for record batches),
# the identity-block field average (reference for the factor sweep) and the
# per-step averaged sweeps (references for the plan's fused sweep)


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
                            seed=None):
    """The mean of `check_generalized_unitarity(mode="mc")`, one record at a time.

    Each record is drawn, conditioned and weighted in turn from one stream,
    so a seed gives the same records as the batched check; a windowed one
    contracts its identity columns in chunks under the plan's cap.
    """
    n, dt, n_steps = sgrid.n_points, tgrid.dt, tgrid.n_steps
    plan = _StepPlan(ham, sgrid, dt)
    rng = np.random.default_rng(seed)
    vals, eye = obs.values, np.eye(n, dtype=complex)
    window = None if form_factor is None or form_factor.is_delta else \
        form_factor.window_matrix(n_steps, dt)
    if window is not None:
        spec = WindowSpec.plan(window, n)
        batch = max(1, spec.cap // spec.work_elements)

    def conditioned(a):
        if window is None:  # left rule: each corridor factor, then one step
            u = eye
            for value in a:
                u = unitary_step(np.exp(-kappa * dt * (vals - value) ** 2)[:, None] * u,
                                 ham, sgrid, dt)
            return u
        rows, shift = _corridor_rows(window, vals, a, kappa, dt)
        chunks = [_contract_windowed(eye[c:c + batch], plan.matrix, spec, rows)
                  for c in range(0, n, batch)]
        return np.concatenate([part * math.ldexp(1.0, k + shift) for part, k in chunks]).T

    log_c = math.log(readout_measure_factor(kappa, dt))
    total = np.zeros((n, n), dtype=complex)
    for _ in range(samples):
        a, log_q = mixture_record(rng, vals, kappa, dt, n_steps)
        w = math.exp(n_steps * log_c - log_q)
        u = conditioned(a)
        total += w * (u.conj().T @ u)
    return total / samples


def field_average_identity_sweep(rho0, kernel_spec, ham, obs, sgrid, tgrid, samples, seed):
    """(rho, stderr) of `superpropagate(mode="mc")` by sweeping the identity.

    Each sample's full U_xi runs from the n identity columns through the
    package's field sweep, then forms U_xi rho0 U_xi^dagger; the xi stream
    is the same, so a seed gives the same samples as the factor sweep.
    """
    n = sgrid.n_points
    moments = _Moments((n, n), samples)
    plan = _StepPlan(ham, sgrid, tgrid.dt)
    for block, exponent in _field_sweep(plan, np.eye(n), *_field_factors(kernel_spec, obs, tgrid),
                                        samples, np.random.default_rng(seed)):
        u = block.transpose(1, 0, 2)  # u[s] is 2^-exponent U_xi of sample s
        moments.add(u @ rho0 @ u.conj().transpose(0, 2, 1), axis=0, exponent=2 * exponent)
    return _ldexp(moments.mean(), moments.exponent), _ldexp(moments.stderr(), moments.exponent)


def conjugate_per_step(plan, rho):
    """M rho M^dagger by the plan's dense matrix or by one 2-D FFT pair, on
    fresh arrays: one plain conjugation, no gain folded in."""
    if plan.dense:
        return plan.matrix @ rho @ plan.matrix_h
    v2 = plan.half_v * plan.half_v.conj().T
    out = scipy.fft.fft2(v2 * rho, overwrite_x=True)
    out *= plan.kinetic * plan.kinetic.conj().T
    out = scipy.fft.ifft2(out, overwrite_x=True)
    out *= v2
    return out


def ideal_average_steps(rho0, kappa, ham, obs, sgrid, tgrid, observer=None,
                        conjugate=conjugate_per_step):
    """`superpropagate`'s exact ideal sweep one step at a time:
    rho <- M (D . rho) M^dagger, each conjugation by ``conjugate(plan, rho)``,
    with ``observer(i, rho)`` after each step."""
    rho = np.asarray(rho0, dtype=complex)
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    plan = _StepPlan(ham, sgrid, tgrid.dt)
    for i in range(tgrid.n_steps):
        rho = conjugate(plan, rho * decay)
        if observer is not None:
            observer(i, rho)
    return rho


def ideal_adjoint_steps(x, kappa, ham, obs, sgrid, tgrid, conjugate=conjugate_per_step):
    """`_ideal_adjoint` one step at a time: X <- D . (M^dagger X M), the
    conjugation by the plan for -dt."""
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    back = _StepPlan(ham, sgrid, -tgrid.dt)
    for _ in range(tgrid.n_steps):
        x = decay * conjugate(back, x)
    return x


def lindblad_two_half_steps(rho0, kappa, ham, obs, sgrid, tgrid, observer=None,
                            conjugate=conjugate_per_step):
    """`lindblad_evolve` as two half-step conjugations around the decay, every step.

    rho <- M_h (D . (M_h rho M_h^dagger)) M_h^dagger, with ``observer(i, rho)``
    after each step: the Strang scheme the composed sweep must reproduce.
    """
    rho = np.asarray(rho0, dtype=complex)
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    half = _StepPlan(ham, sgrid, 0.5 * tgrid.dt)
    for i in range(tgrid.n_steps):
        rho = conjugate(half, conjugate(half, rho) * decay)
        if observer is not None:
            observer(i, rho)
    return rho


def lindblad_composed_dense(rho0, kappa, ham, obs, sgrid, tgrid):
    """`lindblad_evolve` on a dense plan one step at a time, the half steps
    that meet between steps composed into one conjugation by M_h M_h:
    tau <- D . (W tau W^dagger) from tau = D . (M_h rho0 M_h^dagger)."""
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    half = _StepPlan(ham, sgrid, 0.5 * tgrid.dt)
    assert half.dense
    square, square_h = half.squared
    tau = conjugate_per_step(half, np.asarray(rho0, dtype=complex)) * decay
    for _ in range(tgrid.n_steps - 1):
        tau = square @ tau @ square_h
        tau *= decay
    return conjugate_per_step(half, tau)

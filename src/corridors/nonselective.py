"""Non-selective dynamics: readout-averaged states and decoherence.

Averaging the conditioned evolution over all records turns the Gaussian
corridor weights into a pairwise decay of position coherences: the
per-step readout integral

    integral c da exp(-kappa dt [(A_k - a)^2 + (A_l - a)^2])
        = exp(-kappa dt (A_k - A_l)^2 / 2)

is exact, so the ideal averaged step is  rho <- U (decay . rho) U†  with
no quadrature error, and composing steps gives the monitoring master
equation  d rho/dt = -i[H, rho]/hbar - (kappa/2) [A, [A, rho]]  in Strang
form.  Finite time resolution correlates the decay across a window of
steps; the doubled (bra x ket) lattice chain is then contracted exactly
with the same sliding-buffer sweep the selective engine uses.

Every averaged weight here (ideal, windowed, or from the medium) is the
characteristic function of a Gaussian phase field, so the averaged state
is also E_xi[U_xi rho U_xi†], U_xi the plain dynamics under random slice
phases (Kubo's identity; Chenu, Beau, Cao & del Campo, PRL 118, 140403
(2017)).  The "mc" modes sample that field: each sample is a valid
state, at a cost independent of the window width.

`check_generalized_unitarity` verifies the defining property of the
corridor decomposition — the record-integrated U†U is the identity —
either in closed form (ideal), by an exact time-reversed doubled
contraction (windowed), or by importance-sampled records with error
bars.  `influence_eval` and `superpropagate` accept pluggable two-path
weights, including the oscillator-medium kernels, so the same machinery
covers phenomenological and microscopic decoherence models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .grids import _StepPlan, pure_density
from .medium import PathPair, influence_exact, influence_firstorder
from .readout import FormFactor, readout_measure_factor
from .selective import DEFAULT_WORK_CAP, WindowSpec, _contract_windowed, _Moments

__all__ = [
    "InfluenceKernelSpec",
    "AverageResult",
    "UnitarityReport",
    "lindblad_evolve",
    "readout_average",
    "superpropagate",
    "check_generalized_unitarity",
    "influence_eval",
]

KERNEL_KINDS = ("ideal", "coarse", "medium_exact", "medium_firstorder")

# relative eigenvalue floor of a medium kernel factored as a field
# covariance (see _psd_factor)
PSD_RTOL = 1e-6
# complex elements in one batch of sampled propagators (256 KB)
_FIELD_BATCH_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class InfluenceKernelSpec:
    """Which two-path decoherence weight to use, with its parameters.

    kind:
      ideal             — per-step Gaussian decay (delta-resolution limit)
      coarse            — window-smoothed Gaussian decay (needs form_factor)
      medium_exact      — oscillator medium, full Gaussian-well bracket
                          (needs form_factor for the time kernel and the
                          interaction range ell)
      medium_firstorder — small-excursion limit of the medium bracket
    """

    kind: str
    kappa: float
    form_factor: FormFactor | None = None
    ell: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and nonnegative, got {self.kappa!r}")
        if self.kind != "ideal" and self.form_factor is None:
            raise ValueError(f"kind {self.kind!r} requires a form_factor")
        if self.kind in ("medium_exact", "medium_firstorder"):
            if self.ell is None or not (math.isfinite(self.ell) and self.ell > 0):
                raise ValueError("medium kinds require a positive interaction range ell")


@dataclass(frozen=True)
class AverageResult:
    """A readout-averaged density matrix, with errors when sampled."""

    rho: np.ndarray
    mode: str
    stderr: np.ndarray | None = None
    n_samples: int | None = None


@dataclass(frozen=True)
class UnitarityReport:
    """Result of the record-integrated U†U = 1 verification."""

    matrix: np.ndarray
    deviation: float
    mode: str
    stderr: float | None = None
    n_samples: int | None = None

    def passed(self, tol):
        slack = 0.0 if self.stderr is None else 3.0 * self.stderr
        return self.deviation <= tol + slack


# ----------------------------------------------------------------------
# ideal (per-step closed form) averaging


def _decay_matrix(values, kappa, dt):
    d = values[:, None] - values[None, :]
    return np.exp(-0.5 * kappa * dt * d**2)


def lindblad_evolve(rho0, kappa, ham, obs, sgrid, tgrid, observer=None):
    """Master-equation evolution in Strang form.

    Per step: half a unitary step, exact coherence decay
    exp(-(kappa dt / 2)(A_k - A_l)^2), half a unitary step.  Each step is
    completely positive and trace preserving, so the trajectory is a
    valid state at every step (up to roundoff).  ``observer(i, rho)``
    sees the state after each full step.
    """
    rho = np.asarray(rho0, dtype=complex)
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    half = _StepPlan(ham, sgrid, 0.5 * tgrid.dt)
    for i in range(tgrid.n_steps):
        rho = half.conjugate(half.conjugate(rho) * decay)
        if observer is not None:
            observer(i, rho)
    return rho


def _ideal_average_sweep(rho0, kappa, ham, obs, sgrid, tgrid, observer=None):
    # decay first, then the kernel: the averaged left-rule selective step
    rho = np.asarray(rho0, dtype=complex)
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    plan = _StepPlan(ham, sgrid, tgrid.dt)
    for i in range(tgrid.n_steps):
        rho = plan.conjugate(rho * decay)
        if observer is not None:
            observer(i, rho)
    return rho


def readout_average(
    psi0,
    kappa,
    ham,
    obs,
    sgrid,
    tgrid,
    mode="quadrature",
    form_factor=None,
    samples=1000,
    seed=None,
    observer=None,
):
    """Average the conditioned evolution of a pure state over all records.

    mode "quadrature" integrates each step's record in closed form (see
    module docstring) and requires ideal (delta) resolution — windowed
    averaging needs either the doubled contraction (`superpropagate`
    with a coarse kernel) or mode "mc", which averages unitary evolutions
    under the Gaussian phase field equivalent to the (windowed) record
    average and reports entrywise standard errors.
    """
    rho0 = pure_density(np.asarray(psi0, dtype=complex))
    is_ideal = form_factor is None or form_factor.is_delta
    if mode == "quadrature":
        if not is_ideal:
            raise ValueError(
                "quadrature averaging has no windowed form; use superpropagate "
                "with a coarse kernel, or mode='mc'"
            )
        rho = _ideal_average_sweep(rho0, kappa, ham, obs, sgrid, tgrid, observer)
        return AverageResult(rho=rho, mode=mode)
    if mode != "mc":
        raise ValueError(f"mode must be 'quadrature' or 'mc', got {mode!r}")
    spec = InfluenceKernelSpec("ideal" if is_ideal else "coarse", kappa, form_factor)
    return _field_average(rho0, *_field_factors(spec, obs, tgrid), ham, sgrid, tgrid,
                          samples, seed)


# ----------------------------------------------------------------------
# record sampling machinery (unitarity mc)


def _mixture_record(rng, values, kappa, dt, n_steps):
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


def _conditioned_operator(readout, window, kappa, plan, obs, tgrid, cap, rng, inner):
    """The (unnormalized) propagator U[a] for one record, as a matrix.

    Ideal records sweep the identity block with per-step diagonal weight
    factors; windowed records run one exact contraction per column when
    the working set fits the cap, otherwise an auxiliary-field estimate
    averaged over ``inner`` field samples (unbiased; pair two independent
    calls when a product like U†U must stay unbiased).
    """
    n, dt, n_steps = plan.n, tgrid.dt, tgrid.n_steps
    vals = obs.values
    if window is None:
        block = np.eye(n, dtype=complex)
        for i in range(n_steps):
            block = plan.step(np.exp(-kappa * dt * (vals - readout[i]) ** 2)[:, None] * block)
        return block
    if _plan_fits(window, n, cap):
        cols = [
            _contract_windowed(np.eye(n, dtype=complex)[:, j], plan.matrix, vals, readout,
                               kappa, window, dt)
            for j in range(n)
        ]
        return np.stack(cols, axis=1)
    # auxiliary-field fallback: same decoupling as the selective mc engine,
    # applied to the whole identity block per field sample
    b = window.T @ readout
    log_pref = -kappa * dt * float(np.sum(readout**2))
    drift = 2.0 * kappa * dt * b
    acc = np.zeros((n, n), dtype=complex)
    for _ in range(inner):
        coef = drift + 1j * math.sqrt(2.0 * kappa * dt) * (window.T @ rng.standard_normal(n_steps))
        block = np.eye(n, dtype=complex) * np.exp(vals * coef[0] + log_pref)[:, None]
        for j in range(1, n_steps + 1):
            block = plan.step(block)
            block *= np.exp(vals * coef[j])[:, None]
        acc += block
    return acc / inner


def _plan_fits(window, n_sites, cap):
    try:
        WindowSpec.plan(window, n_sites, cap)
        return True
    except ValueError:
        return False


# ----------------------------------------------------------------------
# superpropagator


def superpropagate(
    rho0,
    kernel_spec: InfluenceKernelSpec,
    ham,
    obs,
    sgrid,
    tgrid,
    mode="exact",
    samples=1000,
    seed=None,
    cap=DEFAULT_WORK_CAP,
    observer=None,
):
    """Evolve a density matrix under a two-path decoherence weight.

    Mode "exact": kind "ideal" (and "coarse" with a delta profile) runs
    the per-step closed-form sweep, kind "coarse" contracts the doubled
    bra x ket chain through the resolution window, and the medium kinds
    enumerate lattice path pairs under the microscopic influence weight
    (small grids only).  Mode "mc", for every kind, averages unitary
    evolutions under the Gaussian phase field whose characteristic
    function is the weight, and reports entrywise standard errors.
    Paths take values in the monitored observable, which the medium
    kernels interpret as positions in the interaction-range metric.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    kind, kappa = kernel_spec.kind, kernel_spec.kappa
    ff = kernel_spec.form_factor
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if mode == "mc":
        return _field_average(rho0, *_field_factors(kernel_spec, obs, tgrid), ham, sgrid,
                              tgrid, samples, seed)

    if kind == "ideal" or (kind == "coarse" and ff.is_delta):
        rho = _ideal_average_sweep(rho0, kappa, ham, obs, sgrid, tgrid, observer)
        return AverageResult(rho=rho, mode=mode)

    if kind == "coarse":
        window = ff.window_matrix(tgrid.n_steps, tgrid.dt)
        kernel = _StepPlan(ham, sgrid, tgrid.dt).matrix
        rho = _doubled_contraction(rho0, kernel, obs, kappa, window, tgrid.dt, cap)
        return AverageResult(rho=rho, mode=mode)

    rho = _medium_enumerate(rho0, kernel_spec, ham, obs, sgrid, tgrid, cap)
    return AverageResult(rho=rho, mode=mode)


def _doubled_contraction(rho0, kernel, obs, kappa, window, dt, cap):
    """kernel rho kernel^dagger per step, through the doubled windowed chain."""
    n = kernel.shape[0]
    WindowSpec.plan(window, n * n, cap)
    vals_diff = (obs.values[:, None] - obs.values[None, :]).ravel()
    vec = _contract_windowed(rho0.ravel(), np.kron(kernel, kernel.conj()), vals_diff,
                             np.zeros(window.shape[0]), 0.5 * kappa, window, dt)
    return vec.reshape(n, n)


def _medium_log_weight_parts(kernel_spec, vpaths, time_kernel):
    """Self and cross sums of the medium bracket over site-value paths.

    Returns (self_terms, cross) with ln W(p, p') assembled by the caller:
      exact      : -(kappa l^2 / 2) dt [ g-self(p) + g-self(p') - 2 g-cross(p', p) ]
      firstorder : -(kappa / 4) dt [ 2 d2-cross(p', p) - d2-self(p) - d2-self(p') ]
    where g is the Gaussian well and d2 the squared difference.
    """
    n_paths, j = vpaths.shape
    exact = kernel_spec.kind == "medium_exact"
    two_l2 = None if not exact else 2.0 * kernel_spec.ell**2

    def pair_fn(x, y):
        d2 = (x - y) ** 2
        return np.exp(-d2 / two_l2) if exact else d2

    self_terms = np.zeros(n_paths)
    cross = np.zeros((n_paths, n_paths))
    for a in range(j):
        for b in range(j):
            k = time_kernel[a, b]
            if k == 0.0:
                continue
            self_terms += k * pair_fn(vpaths[:, a], vpaths[:, b])
            cross += k * pair_fn(vpaths[:, a][:, None], vpaths[:, b][None, :])
    return self_terms, cross


def _medium_pair_log_w(kernel_spec, self_terms, cross, dt):
    kind, kappa = kernel_spec.kind, kernel_spec.kappa
    s1 = self_terms[:, None]
    s2 = self_terms[None, :]
    # cross[p1, p2] above sums K_ab f(vp1_a, vp2_b); the bracket wants the
    # (second path, first path) orientation, which is cross.T — but the time
    # kernel is symmetric, so the two agree
    if kind == "medium_exact":
        return -0.5 * kappa * kernel_spec.ell**2 * dt * (s1 + s2 - 2.0 * cross)
    return -0.25 * kappa * dt * (2.0 * cross - s1 - s2)


def _medium_enumerate(rho0, kernel_spec, ham, obs, sgrid, tgrid, cap):
    n, n_steps, dt = sgrid.n_points, tgrid.n_steps, tgrid.dt
    j = n_steps + 1
    n_paths = n**j
    if n_paths**2 > cap:
        raise ValueError(
            f"medium enumeration needs {n_paths}^2 = {n_paths**2:.3g} path pairs, "
            f"above the cap {cap:.3g}; use mode='mc'"
        )
    paths = _all_site_paths(n, j)
    kernel = _StepPlan(ham, sgrid, dt).matrix
    amps = np.ones(n_paths, dtype=complex)
    for s in range(1, j):
        amps *= kernel[paths[:, s], paths[:, s - 1]]
    vpaths = obs.values[paths]
    time_kernel = kernel_spec.form_factor.stationary_matrix(j, dt)
    self_terms, cross = _medium_log_weight_parts(kernel_spec, vpaths, time_kernel)
    log_w = _medium_pair_log_w(kernel_spec, self_terms, cross, dt)
    contrib = (
        amps[:, None]
        * amps[None, :].conj()
        * np.exp(log_w)
        * rho0[paths[:, 0][:, None], paths[:, 0][None, :]]
    )
    out = np.zeros((n, n), dtype=complex)
    np.add.at(out, (paths[:, -1][:, None], paths[:, -1][None, :]), contrib)
    return out


def _all_site_paths(n_sites, n_slices):
    mesh = np.meshgrid(*([np.arange(n_sites)] * n_slices), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ----------------------------------------------------------------------
# random-field unraveling (every mc average)


def _psd_factor(matrix, name):
    """F with F F^T = matrix, for a symmetric positive semidefinite matrix.

    Eigenvalues down to -PSD_RTOL times the largest count as zero.  That is
    safe: dropping them moves the covariance by at most that fraction of
    its norm, far below any sampling error.  The 5-tau truncation of a
    Gaussian profile leaves about -4e-7 of the largest; a profile with a
    real negative lobe gives orders of magnitude more and is refused.
    """
    lam, vec = np.linalg.eigh(matrix)
    if lam[0] < -PSD_RTOL * max(lam[-1], 0.0):
        raise ValueError(
            f"the {name} is not positive semidefinite (smallest eigenvalue {lam[0]:.3g}, "
            f"largest {lam[-1]:.3g}), so no Gaussian field has it as covariance"
        )
    keep = lam > 0.0
    return vec[:, keep] * np.sqrt(lam[keep])


def _field_factors(kernel_spec, obs, tgrid):
    """Time and space factors (T, S) of the phase field phi = T xi S^T.

    The field's covariance T T^T (x) S S^T is chosen so that the average
    of exp(i (phi . x - phi . y)) over xi ~ N(0, 1) is the kernel's weight
    of the path pair (x, y): the window P gives T = sqrt(kappa dt) P^T
    (the delta profile gives [I | 0]), the medium kinds a factor of the
    stationary time kernel K and, for the exact bracket, of the spatial
    Gaussian well.
    """
    kind, kappa, ff = kernel_spec.kind, kernel_spec.kappa, kernel_spec.form_factor
    n_steps, dt = tgrid.n_steps, tgrid.dt
    values = obs.values[:, None]
    if kind in ("ideal", "coarse"):
        profile = ff if kind == "coarse" else FormFactor.delta()
        return math.sqrt(kappa * dt) * profile.window_matrix(n_steps, dt).T, values
    time = _psd_factor(ff.stationary_matrix(n_steps + 1, dt), "time kernel")
    if kind == "medium_firstorder":
        return math.sqrt(kappa * dt) * time, values
    ell = kernel_spec.ell
    well = _psd_factor(np.exp(-((values - values.T) ** 2) / (2.0 * ell**2)), "spatial well")
    return math.sqrt(kappa * ell**2 * dt) * time, well


def _field_average(rho0, time_factor, space_factor, ham, sgrid, tgrid, samples, seed):
    """E_xi[U_xi rho0 U_xi^dagger] over the phase field phi = T xi S^T.

    U_xi is the split-operator evolution with exp(i phi_j) multiplied in
    at slices 0 .. N, phi_j the row of phi for slice j over the sites.
    Samples run in batches, the identity block of each swept through
    the steps side by side.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for an error estimate")
    rng = np.random.default_rng(seed)
    n, n_steps = sgrid.n_points, tgrid.n_steps
    plan = _StepPlan(ham, sgrid, tgrid.dt)
    moments = _Moments((n, n))
    batch = max(1, _FIELD_BATCH_ELEMENTS // (n * n))
    while moments.count < samples:
        m = min(batch, samples - moments.count)
        xi = rng.standard_normal((m, time_factor.shape[1], space_factor.shape[1]))
        block = np.broadcast_to(np.eye(n, dtype=complex)[:, None, :], (n, m, n)).copy()
        for j in range(n_steps + 1):  # block[:, s, :] is U so far of sample s
            if j:
                block = plan.step(block.reshape(n, m * n)).reshape(n, m, n)
            block *= np.exp(1j * (time_factor[j] @ xi @ space_factor.T)).T[:, :, None]
        u = block.transpose(1, 0, 2)
        moments.add(u @ rho0 @ u.conj().transpose(0, 2, 1), axis=0)
    return AverageResult(rho=moments.mean(), mode="mc", stderr=moments.stderr(),
                         n_samples=int(samples))


# ----------------------------------------------------------------------
# generalized unitarity


def check_generalized_unitarity(
    kappa,
    ham,
    obs,
    sgrid,
    tgrid,
    form_factor=None,
    mode="exact",
    samples=200,
    seed=None,
    cap=DEFAULT_WORK_CAP,
    inner_samples=32,
):
    """Verify that the record-integrated U[a]† U[a] is the identity.

    Ideal resolution uses the backward closed-form recursion
    X <- decay . (M† X M), which collapses to the identity up to the
    roundoff of the one-step kernels; M† X M is the conjugation by the
    plan for -dt, whose phases are the conjugates.  A windowed profile
    couples the record integrals across steps; mode "exact" contracts the
    doubled chain backward in time (the window matrix is flipped
    accordingly), mode "mc" importance-samples records and reports a
    standard error.
    """
    n, dt, n_steps = sgrid.n_points, tgrid.dt, tgrid.n_steps
    is_ideal = form_factor is None or form_factor.is_delta
    plan = _StepPlan(ham, sgrid, dt)
    if mode == "exact":
        if is_ideal:
            back = _StepPlan(ham, sgrid, -dt)
            decay = _decay_matrix(obs.values, kappa, dt)
            matrix = np.eye(n, dtype=complex)
            for _ in range(n_steps):
                matrix = decay * back.conjugate(matrix)
        else:
            window = form_factor.window_matrix(n_steps, dt)[::-1, ::-1].copy()
            matrix = _doubled_contraction(np.eye(n, dtype=complex), plan.matrix_h, obs, kappa,
                                          window, dt, cap)
        deviation = float(np.max(np.abs(matrix - np.eye(n))))
        return UnitarityReport(matrix=matrix, deviation=deviation, mode=mode)
    if mode != "mc":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if kappa <= 0:
        raise ValueError("record sampling requires kappa > 0")
    rng = np.random.default_rng(seed)
    window = None if is_ideal else form_factor.window_matrix(n_steps, dt)
    nested = window is not None and not _plan_fits(window, n, cap)
    log_c = math.log(readout_measure_factor(kappa, dt))
    moments = _Moments((n, n))
    for _ in range(int(samples)):
        a, log_q = _mixture_record(rng, obs.values, kappa, dt, n_steps)
        w = math.exp(n_steps * log_c - log_q)
        u1 = _conditioned_operator(a, window, kappa, plan, obs, tgrid, cap, rng, inner_samples)
        u2 = u1 if not nested else _conditioned_operator(
            a, window, kappa, plan, obs, tgrid, cap, rng, inner_samples
        )
        moments.add((w * (u1.conj().T @ u2))[None])
    mean = moments.mean()
    deviation = float(np.max(np.abs(mean - np.eye(n))))
    return UnitarityReport(
        matrix=mean,
        deviation=deviation,
        mode=mode,
        stderr=float(moments.stderr().max()),
        n_samples=int(samples),
    )


# ----------------------------------------------------------------------
# standalone two-path weights


def influence_eval(path1, path2, kernel_spec: InfluenceKernelSpec, dt):
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

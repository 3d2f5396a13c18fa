"""Non-selective dynamics: readout-averaged states and decoherence.

Averaging the conditioned evolution over all records turns the Gaussian
corridor weights into a pairwise decay of position coherences: the
per-step readout integral

    integral c da exp(-kappa dt [(A_k - a)^2 + (A_l - a)^2])
        = exp(-kappa dt (A_k - A_l)^2 / 2)

is exact, so the ideal averaged step is  rho <- U (decay . rho) U†  with
no quadrature error, and composing steps gives the monitoring master
equation  d rho/dt = -i[H, rho]/hbar - (kappa/2) [A, [A, rho]]  in Strang
form.  `lindblad_evolve` sweeps that equation on the mid-step state: the
two half steps that meet between steps are one conjugation by their
product, once per step on the dense plan and two transform pairs on the
FFT plan.  The ideal sweep, its adjoint and the master equation run their
steps as `_StepPlan.sweep`s, each N identical steps X -> g . (W X W†)
with one decay, W = M or the merged half steps' W = M M.  On the FFT a
sweep folds the decay between the potential phases around it and
transforms in place, so no step allocates.  On a dense lattice of at
most 32 points it takes a sweep of at least n^3 decay steps as one power
of the step's real superoperator, which drifts from stepping by about
N eps.  An observer, which sees every full step, gets one-step sweeps
and fresh arrays that nothing writes again.  Finite time resolution
correlates the decay across a window of steps; the doubled (bra x ket)
lattice chain is then contracted exactly with the same sliding-buffer
sweep the selective engine uses.  The
oscillator medium's pair influence couples slices through the
stationary time kernel in the same way (a Feynman-Vernon influence with
that kernel as its memory), so its exact mode is the same doubled
contraction with other weight rows, under the same `WindowSpec.plan` cap.

Every averaged weight here (ideal, windowed, or from the medium) is the
characteristic function of a Gaussian phase field, so the averaged state
is also E_xi[U_xi rho U_xi†], U_xi the plain dynamics under random slice
phases (Kubo's identity; Chenu, Beau, Cao & del Campo, PRL 118, 140403
(2017)).  The "mc" modes sample that field with the selective engines'
field sweep: each sample is a valid state, at a cost independent of the
window width.  A sample sweeps a factor of rho0, not the identity: a
state rho0 = C C† gives U rho0 U† = (U C)(U C)†, so it runs rank(rho0)
columns, 1 for a pure state, against n for the full U; any other
rho0 = A B† runs the 2 rank(rho0) columns [A | B].

`check_generalized_unitarity` verifies the defining property of the
corridor decomposition — the record-integrated U†U is the identity —
either in closed form (ideal), by an exact time-reversed doubled
contraction (windowed), or by importance-sampled records with error
bars.  The sampled records are conditioned exactly in batches, side by
side: an ideal batch is one `_StepPlan.apply` over the identity columns
of every record, each record's corridor factors its gains, within the
samplers' batch (`_FIELD_BATCH_ELEMENTS`), and a windowed batch one
contraction, with records x identity columns x live elements within one
block of the windowed sweep (`_SWEEP_BLOCK_ELEMENTS`) and the plan's
cap.  The ideal batches, like the field samples, run side by side, one
per usable core (`selective._batch_map`), bit for bit as on one.  A window
above the cap is refused in both modes: no sampled estimate of U[a]
stands in for it.
`superpropagate` accepts pluggable two-path weights, including the
oscillator-medium kernels, so the same machinery covers phenomenological
and microscopic decoherence models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import _LN2, _StepPlan, pure_density
from .readout import FormFactor, _check_kappa
from .selective import (
    _FIELD_BATCH_ELEMENTS,
    _SWEEP_BLOCK_ELEMENTS,
    WindowSpec,
    _batch_map,
    _contract_windowed,
    _corridor_gains,
    _corridor_rows,
    _field_sweep,
    _ldexp,
    _log_measure_factor,
    _logsumexp,
    _Moments,
)

__all__ = [
    "InfluenceKernelSpec",
    "AverageResult",
    "UnitarityReport",
    "lindblad_evolve",
    "readout_average",
    "superpropagate",
    "check_generalized_unitarity",
]

KERNEL_KINDS = ("ideal", "coarse", "medium_exact", "medium_firstorder")

# relative eigenvalue floor of a medium kernel factored as a field
# covariance (see _psd_factor)
PSD_RTOL = 1e-6


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
        _check_kappa(self.kappa)
        if self.kind != "ideal" and self.form_factor is None:
            raise ValueError(f"kind {self.kind!r} requires a form_factor")
        if self.kind in ("medium_exact", "medium_firstorder"):
            if self.ell is None or not (math.isfinite(self.ell) and self.ell > 0):
                raise ValueError("medium kinds require a positive interaction range ell")


@dataclass(frozen=True)
class AverageResult:
    """A readout-averaged density matrix, with errors when sampled."""

    rho: np.ndarray
    stderr: np.ndarray | None = None
    n_samples: int | None = None


@dataclass(frozen=True)
class UnitarityReport:
    """Result of the record-integrated U†U = 1 verification."""

    matrix: np.ndarray
    deviation: float
    stderr: float | None = None
    n_samples: int | None = None

    def passed(self, tol):
        slack = 0.0 if self.stderr is None else 3.0 * self.stderr
        return self.deviation <= tol + slack


# ----------------------------------------------------------------------
# ideal (per-step closed form) averaging


def _decay_matrix(values, kappa, dt):
    d = values[:, None] - values[None, :]
    d *= d
    d *= -0.5 * kappa * dt
    return np.exp(d, out=d)


def lindblad_evolve(rho0, kappa, ham, obs, sgrid, tgrid, observer=None):
    """Master-equation evolution in Strang form.

    Per step: half a unitary step, exact coherence decay
    exp(-(kappa dt / 2)(A_k - A_l)^2), half a unitary step.  Each step is
    completely positive and trace preserving, so the trajectory is a
    valid state at every step (up to roundoff).  ``observer(i, rho)``
    sees the state after each full step.

    Without an observer the sweep runs on the mid-step state
    tau_i = D . (M_h rho_i M_h^dagger):

        tau_{i+1} = D . (M_h M_h tau_i (M_h M_h)^dagger),
        rho_N = M_h tau_{N-1} M_h^dagger,

    three `_StepPlan.sweep` calls: tau_0 by one half step with the decay,
    tau_{N-1} by N - 1 steps with W = M_h M_h (``twice``), and rho_N by a
    half step without it.  Up to the plan's dense crossover W is one
    conjugation by the cached M_h M_h; above it W is two FFT transform
    pairs with V2_h^2 between them and V2_h^2 . D after them.  An
    observer needs every rho_i, so it gets two one-step sweeps of a half
    conjugation per step.
    """
    _check_kappa(kappa)
    rho = np.asarray(rho0, dtype=complex)
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    half = _StepPlan(ham, sgrid, 0.5 * tgrid.dt)
    if observer is None:
        tau = half.sweep(half.sweep(rho, decay, 1), decay, tgrid.n_steps - 1, twice=True)
        return half.sweep(tau, None, 1)
    for i in range(tgrid.n_steps):
        rho = half.sweep(half.sweep(rho, decay, 1), None, 1)
        observer(i, rho)
    return rho


def _ideal_adjoint(x, kappa, ham, obs, sgrid, tgrid):
    """E†^N(X) for the ideal averaged step E(rho) = M (decay . rho) M†: the recursion
    X <- decay . (M† X M), M† X M the conjugation by the plan for -dt."""
    back = _StepPlan(ham, sgrid, -tgrid.dt)
    decay = _decay_matrix(obs.values, kappa, tgrid.dt)
    return back.sweep(np.asarray(x, dtype=complex), decay, tgrid.n_steps)


def readout_average(psi0, kappa, ham, obs, sgrid, tgrid):
    """Average the conditioned evolution of a pure state over all records.

    The pure-state front of `superpropagate`'s exact ideal sweep, started
    from psi0 psi0†: each step's record is integrated in closed form (see
    module docstring).  Sampled, windowed and observed averages are
    `superpropagate`'s.
    """
    return superpropagate(pure_density(psi0), InfluenceKernelSpec("ideal", kappa), ham, obs,
                          sgrid, tgrid)


# ----------------------------------------------------------------------
# record sampling machinery (unitarity mc)


def _mixture_records(rng, values, kappa, dt, n_steps, count):
    """Draw ``count`` records, each from the per-step equal-weight mixture
    of normals centered on the observable's lattice values and in turn
    from ``rng``; returns the (count, N) records a and their log q(a), each
    step's mixture density summed by `_logsumexp` (scipy's steps in numpy)."""
    n = values.size
    sigma = 1.0 / math.sqrt(4.0 * kappa * dt)
    a = np.array([values[rng.integers(0, n, size=n_steps)] + sigma * rng.standard_normal(n_steps)
                  for _ in range(count)])
    z = -((a[:, :, None] - values) ** 2) / (2.0 * sigma**2)
    log_q = np.sum(_logsumexp(z, axis=2), axis=1) - n_steps * (
        math.log(n) + math.log(sigma * math.sqrt(2.0 * math.pi)))
    return a, log_q


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
    observer=None,
):
    """Evolve a density matrix under a two-path decoherence weight.

    Mode "exact": kind "ideal" (and "coarse" with a delta profile) runs
    the per-step closed-form sweep, decay then kernel (the averaged
    left-rule selective step), the one path that calls ``observer(i, rho)``
    and that accepts one.  Kind "coarse" contracts the doubled bra x ket
    chain through the resolution window, and the medium kinds the same
    chain under the microscopic influence weight, whose slice couplings
    are the stationary time kernel.  The call refuses a contraction whose
    working tensor is above `WindowSpec.plan`'s cap.  Exact mode takes any
    time kernel.  Mode "mc", for every kind, averages unitary evolutions
    under the Gaussian phase field whose characteristic function is the
    weight, and reports entrywise standard errors.  Paths take values in
    the monitored observable, which the medium kernels interpret as
    positions in the interaction-range metric.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    kind, kappa = kernel_spec.kind, kernel_spec.kappa
    ff = kernel_spec.form_factor
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    ideal = kind == "ideal" or (kind == "coarse" and ff.is_delta)
    if observer is not None and not (ideal and mode == "exact"):
        path = "mode='mc'" if mode == "mc" else f"the exact {kind!r} contraction"
        raise ValueError(f"observer is called only by the exact ideal sweep, not by {path}")
    if mode == "mc":
        return _field_average(rho0, *_field_factors(kernel_spec, obs, tgrid), ham, sgrid,
                              tgrid, samples, seed)

    if ideal:
        decay = _decay_matrix(obs.values, kappa, tgrid.dt)
        plan = _StepPlan(ham, sgrid, tgrid.dt)
        if observer is None:
            rho = plan.sweep(plan.sweep(rho0 * decay, decay, tgrid.n_steps - 1), None, 1)
        else:
            rho = rho0
            for i in range(tgrid.n_steps):
                rho = plan.sweep(rho * decay, None, 1)
                observer(i, rho)
        return AverageResult(rho=rho)

    if kind == "coarse":
        rows = _coarse_rows(ff.window_matrix(tgrid.n_steps, tgrid.dt), obs, kappa, tgrid.dt)
    else:
        rows = _medium_rows(kernel_spec, obs, tgrid)
    kernel = _StepPlan(ham, sgrid, tgrid.dt).matrix
    return AverageResult(rho=_doubled_contraction(rho0, kernel, *rows))


def _doubled_contraction(rho0, kernel, pattern, log_row):
    """kernel rho kernel^dagger per step, through the doubled windowed chain.

    The doubled site (x, y), bra x and ket y, is flattened as x n + y;
    ``pattern`` (planned by `WindowSpec.plan`) and ``log_row`` give its weight rows.
    """
    n = kernel.shape[0]
    spec = WindowSpec.plan(pattern, n * n)
    vec, k = _contract_windowed(rho0.ravel(), np.kron(kernel, kernel.conj()), spec, log_row)
    return _ldexp(vec, k).reshape(n, n)


def _coarse_rows(window, obs, kappa, dt):
    """(pattern, log_row) of the record-averaged windowed corridor weight on
    the doubled chain: exp(-(kappa/2) dt (P (x - y))_i^2) for step i.  Its
    rows never shift: (P (x - y))_i takes the record's 0 at x = y."""
    vals_diff = (obs.values[:, None] - obs.values[None, :]).ravel()
    log_row, _ = _corridor_rows(window, vals_diff, np.zeros(window.shape[0]), 0.5 * kappa, dt)
    return window, log_row


def _medium_rows(kernel_spec, obs, tgrid):
    """Rows of a medium kind's pair influence weight on the doubled chain.

    The weight is exp(-(s/2) sum_ab K_ab u(a) . u(b)), K the stationary
    time kernel over slices 0 .. N and u = S(x) - S(y) on the doubled
    sites (see `_medium_space`).  Each coupling K_ab with a <= b, doubled
    when a != b, goes into row b - 1, and the (0, 0) term into row 0.
    """
    n_steps, dt = tgrid.n_steps, tgrid.dt
    scale, space = _medium_space(kernel_spec, obs, dt)
    # u[r] over the doubled sites, one contiguous row per space column r
    u = (space.T[:, :, None] - space.T[:, None, :]).reshape(space.shape[1], -1)
    time = kernel_spec.form_factor.stationary_matrix(n_steps + 1, dt)
    coupling = np.triu(time + time.T, 1) + np.diag(np.diag(time))
    owner = np.maximum(np.arange(n_steps + 1) - 1, 0)  # the row of slice b's couplings
    pattern = np.eye(n_steps, n_steps + 1, 1, dtype=bool)  # no row is left empty
    np.logical_or.at(pattern, owner, coupling.T != 0)
    slices = [np.flatnonzero(owner == i) for i in range(n_steps)]
    partners = [np.flatnonzero(coupling[:, b]) for b in range(n_steps + 1)]

    def log_row(i, place):
        total = 0.0
        for b in slices[i]:
            for ur in u:
                inner = 0.0
                for a in partners[b]:
                    inner = inner + coupling[a, b] * place(a, ur)
                total = total + place(b, ur) * inner
        return -0.5 * scale * total

    return pattern, log_row


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
    if kind in ("ideal", "coarse"):
        profile = ff if kind == "coarse" else FormFactor.delta()
        return math.sqrt(kappa * dt) * profile.window_matrix(n_steps, dt).T, obs.values[:, None]
    time = _psd_factor(ff.stationary_matrix(n_steps + 1, dt), "time kernel")
    scale, space = _medium_space(kernel_spec, obs, dt)
    return math.sqrt(scale) * time, space


def _medium_space(kernel_spec, obs, dt):
    """(s, S) of a medium kind: its pair weight is
    exp(-(s/2) sum_ab K_ab sum_r u_r(a) u_r(b)), u_r = S_r(x) - S_r(y).

    First order has s = kappa dt and S = A, so u is the path difference;
    the exact bracket has s = kappa l^2 dt and S a factor of the Gaussian
    well exp(-(A_k - A_l)^2 / (2 l^2)).
    """
    values = obs.values[:, None]
    if kernel_spec.kind == "medium_firstorder":
        return kernel_spec.kappa * dt, values
    ell = kernel_spec.ell
    well = _psd_factor(np.exp(-((values - values.T) ** 2) / (2.0 * ell**2)), "spatial well")
    return kernel_spec.kappa * ell**2 * dt, well


def _density_factor(rho0):
    """(C, hermitian): rho0 = C C^dagger when hermitian, else C = [A | B]
    with rho0 = A B^dagger, over the fewest columns.

    A Hermitian rho0 with no eigenvalue below -n eps times the largest
    factors by one eigh over the eigenvalues above that floor; any other
    rho0 by one SVD, A = U_s S and B = V_s over the singular values above
    n eps times the largest.  Each keeps at least one column, so a zero
    rho0 sweeps one zero column.
    """
    n = rho0.shape[0]
    floor = n * np.finfo(float).eps
    if np.max(np.abs(rho0 - rho0.conj().T)) <= floor * np.max(np.abs(rho0)):
        lam, vec = np.linalg.eigh(rho0)
        if lam[0] >= -floor * lam[-1]:
            keep = lam > floor * lam[-1]
            keep[-1] = True
            return vec[:, keep] * np.sqrt(lam[keep]), True
    left, sing, right_h = np.linalg.svd(rho0)
    r = max(1, np.count_nonzero(sing > floor * sing[0]))
    return np.concatenate([left[:, :r] * sing[:r], right_h[:r].conj().T], axis=1), False


def _field_average(rho0, time_factor, space_factor, ham, sgrid, tgrid, samples, seed):
    """E_xi[U_xi rho0 U_xi^dagger] over the phase field phi = T xi S^T.

    U_xi is the split-operator evolution with exp(i phi_j) multiplied in
    at slices 0 .. N, phi_j the row of phi for slice j over the sites.
    Each sample sweeps a factor of rho0 (`_density_factor`), not the n
    columns of U_xi, through `_field_sweep`: a state rho0 = C C^dagger
    runs its rank(rho0) columns, 1 for a pure state, and each sample
    (U_xi C)(U_xi C)^dagger is Hermitian and positive semidefinite; any
    other rho0 = A B^dagger runs the 2 r columns [A | B].
    """
    n = sgrid.n_points
    start, hermitian = _density_factor(rho0)
    r = start.shape[1] if hermitian else start.shape[1] // 2
    moments = _Moments((n, n), samples)
    plan = _StepPlan(ham, sgrid, tgrid.dt)
    for block, exponent in _field_sweep(plan, start, time_factor, space_factor, samples,
                                        np.random.default_rng(seed)):
        a = block[:, :, :r].transpose(1, 0, 2)
        b = a if hermitian else block[:, :, r:].transpose(1, 0, 2)
        moments.add(a @ b.conj().transpose(0, 2, 1), axis=0, exponent=2 * exponent)
    return AverageResult(rho=_ldexp(moments.mean(), moments.exponent),
                         stderr=_ldexp(moments.stderr(), moments.exponent),
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
):
    """Verify that the record-integrated U[a]† U[a] is the identity.

    Ideal resolution uses the backward closed-form recursion
    X <- decay . (M† X M), which collapses to the identity up to the
    roundoff of the one-step kernels; M† X M is the conjugation by the
    plan for -dt, whose phases are the conjugates.  A windowed profile
    couples the record integrals across steps; mode "exact" contracts the
    doubled chain backward in time (the window matrix is flipped
    accordingly), mode "mc" importance-samples records (at least 2) and
    reports a standard error.

    Mode "mc" conditions its records exactly, in batches: m records side by
    side in one ideal sweep within `_FIELD_BATCH_ELEMENTS`, or in one
    windowed contraction whose records x identity columns x live elements
    stay within one block of the sweep, `_SWEEP_BLOCK_ELEMENTS`, and the
    plan's cap (at least one record per batch, its columns split under the
    cap), which refuses the window it does not fit, as in mode "exact".
    Records are drawn in turn from one stream, so a seed fixes the estimate
    up to the order of sums whatever the batch size.  Ideal batches are
    conditioned side by side through `_batch_map`, one per usable core, the
    records drawn here and the batches summed in order, so the estimate and
    its stderr are bit for bit those of one thread.  Windowed batches stay
    on this thread: their contractions of a few sites hold the GIL, and two
    threads ran them slower than one.
    """
    _check_kappa(kappa)
    n, dt, n_steps = sgrid.n_points, tgrid.dt, tgrid.n_steps
    is_ideal = form_factor is None or form_factor.is_delta
    if mode == "exact":
        if is_ideal:
            matrix = _ideal_adjoint(np.eye(n, dtype=complex), kappa, ham, obs, sgrid, tgrid)
        else:
            window = form_factor.window_matrix(n_steps, dt)[::-1, ::-1].copy()
            matrix = _doubled_contraction(np.eye(n, dtype=complex),
                                          _StepPlan(ham, sgrid, dt).matrix_h,  # M^dagger
                                          *_coarse_rows(window, obs, kappa, dt))
        deviation = float(np.max(np.abs(matrix - np.eye(n))))
        return UnitarityReport(matrix=matrix, deviation=deviation)
    if mode != "mc":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if kappa <= 0:
        raise ValueError("record sampling requires kappa > 0")
    plan = _StepPlan(ham, sgrid, dt)
    moments = _Moments((n, n), samples)
    samples = int(samples)
    rng = np.random.default_rng(seed)
    vals, eye = obs.values, np.eye(n, dtype=complex)
    window = None if is_ideal else form_factor.window_matrix(n_steps, dt)
    # records side by side: records x identity columns x live elements stay
    # within the samplers' batch or, windowed, within one block of the
    # windowed sweep and the plan's cap
    cols = work = n
    limit = _FIELD_BATCH_ELEMENTS
    if window is not None:
        spec = WindowSpec.plan(window, n)  # one plan for every batch and column chunk
        work = spec.work_elements
        cols, limit = min(n, spec.cap // work), min(_SWEEP_BLOCK_ELEMENTS, spec.cap)
    batch = max(1, limit // (cols * work))

    log_c = _log_measure_factor(kappa, dt)

    def records():
        for done in range(0, samples, batch):
            yield _mixture_records(rng, vals, kappa, dt, n_steps, min(batch, samples - done))

    def weighted_pairs(drawn):
        a, log_q = drawn
        starts = np.broadcast_to(eye, (len(a), n, n))  # per record, the identity
        if window is None:  # u is 2^-k times the batch's U[a]
            u, k = plan.apply(starts.transpose(1, 0, 2), _corridor_gains(vals, a, kappa, dt))
            u = u.transpose(1, 0, 2)
        else:
            # the records and the identity columns ride as two leading batch axes
            rows, shift = _corridor_rows(window, vals, a, kappa, dt)
            chunks = [_contract_windowed(starts[:, c:c + cols], plan.matrix, spec, rows)
                      for c in range(0, n, cols)]
            k = max(e for _, e in chunks)  # the column chunks on their largest exponent
            u = np.concatenate([_ldexp(v, e - k) for v, e in chunks], axis=1).transpose(0, 2, 1)
            k += shift
        pairs = u.conj().transpose(0, 2, 1) @ u
        # libm's exp per record (numpy's vectorized exp can differ in the last bit),
        # so a record weighs what it weighs alone; 4^k puts the exponent back
        w = np.array([math.exp(n_steps * log_c - q + 2 * k * _LN2) for q in log_q])
        return w[:, None, None] * pairs

    # windowed batches stay serial: their small contractions hold the GIL
    for weighted in (_batch_map if window is None else map)(weighted_pairs, records()):
        moments.add(weighted)
    mean = moments.mean()
    deviation = float(np.max(np.abs(mean - np.eye(n))))
    return UnitarityReport(
        matrix=mean,
        deviation=deviation,
        stderr=float(moments.stderr().max()),
        n_samples=int(samples),
    )

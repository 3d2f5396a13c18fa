"""Selective evolution: the state conditioned on one measurement record.

Given a readout a_0 .. a_{N-1}, the conditioned (unnormalized) state is
the sum over lattice paths of the unitary amplitude times the Gaussian
corridor weight.  For ideal time resolution the weight factorizes over
steps, so the sum collapses to an alternation of diagonal weight factors
and one-step kernels — a single forward sweep.  With a finite-resolution
window the weight couples slices up to the window width apart and the
path sum no longer factorizes; it is still exactly contractible with a
sliding buffer of live slice axes (a transfer-tensor sweep) whose size
is set by the window band, and that is what `evolve_selective_coarse`
does.  When the buffer would not fit in memory, a Monte-Carlo unraveling
(`evolve_selective_coarse_mc`) decouples the window with an auxiliary
Gaussian field: every sample is again a diagonal-factor sweep, unbiased
for the exact result, with errors dropping as 1/sqrt(samples).

All engines use the left-rule weight pairing (the step-i factor
multiplies the state before the step-i kernel); for that discretization
the readout-integrated dynamics conserves probability exactly at every
step size, not just in the small-step limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import _StepPlan, norm_sq, normalized
# unused here, kept as a module name: the benchmark's tracer self-test
# checks that selective.unitary_step is rebound and restored
from .grids import unitary_step  # noqa: F401
from .readout import readout_measure_factor

__all__ = [
    "WindowSpec",
    "SelectiveResult",
    "DEFAULT_WORK_CAP",
    "evolve_selective_ideal",
    "evolve_selective_coarse",
    "evolve_selective_coarse_mc",
]

# hard ceiling on the windowed-contraction working tensor, in complex
# elements (8e8 bytes at complex128); beyond this the exact sweep refuses
# and callers should fall back to the Monte-Carlo unraveling
DEFAULT_WORK_CAP = 100_000_000


@dataclass(frozen=True)
class SelectiveResult:
    """Outcome of a conditioned evolution.

    final_state is unnormalized: its squared norm (times the readout
    measure factor, one sqrt(2 kappa dt / pi) per step) is the record's
    probability density.  The Monte-Carlo engine also fills the stderr
    fields (per-component for the state, scalar for the density).
    """

    final_state: np.ndarray
    norm_sq: float
    measure_factor: float
    probability_density: float
    state_stderr: np.ndarray | None = None
    probability_stderr: float | None = None
    n_samples: int | None = None

    def normalized_state(self, grid):
        return normalized(self.final_state, grid)


# ----------------------------------------------------------------------
# window bookkeeping


def _band_structure(window):
    """Per-row nonzero column ranges and the emission schedule.

    Row i of the window can only be turned into a weight factor once its
    last contributing slice exists; emit_at[j] lists the rows that become
    complete when slice j is added.  Derived from the actual nonzero
    pattern, so shifted or asymmetric bands (including time-reversed
    windows) schedule correctly.
    """
    n_rows = window.shape[0]
    cols = [np.nonzero(window[i])[0] for i in range(n_rows)]
    for i, c in enumerate(cols):
        if c.size == 0:
            raise ValueError(f"window row {i} is identically zero")
    first = np.array([c[0] for c in cols])
    last = np.array([c[-1] for c in cols])
    emit_at = {}
    for i in range(n_rows):
        emit_at.setdefault(int(last[i]), []).append(i)
    return cols, first, last, emit_at


def _keep_from(first, last, j):
    # oldest slice still needed: pending rows' earliest column, or the
    # current slice itself
    pending = [int(first[i]) for i in range(len(first)) if int(last[i]) > j]
    return min(pending + [j])


@dataclass(frozen=True)
class WindowSpec:
    """Resource plan for a windowed contraction.

    buffer_len is the peak number of simultaneously live slice axes and
    work_elements = n_sites ** buffer_len the peak working-tensor size
    (transients during a step allocate a small constant multiple of it).
    """

    n_sites: int
    n_steps: int
    bandwidth: int
    buffer_len: int
    work_elements: int
    cap: int

    @classmethod
    def plan(cls, window, n_sites, cap=DEFAULT_WORK_CAP):
        """Dry-run the contraction schedule (indices only) and check the cap."""
        window = np.asarray(window)
        n_steps = window.shape[0]
        if window.shape[1] != n_steps + 1:
            raise ValueError(
                f"window must be (N, N+1), got {window.shape}"
            )
        _, first, last, _ = _band_structure(window)
        bandwidth = int(max(np.max(np.arange(n_steps) - first), np.max(last - np.arange(n_steps))))
        buf_lo, buf_hi = 0, 0  # live slice axes are the contiguous range [lo, hi]
        peak = 1
        for j in range(n_steps + 1):
            buf_hi = j
            peak = max(peak, buf_hi - buf_lo + 1)
            buf_lo = max(buf_lo, min(_keep_from(first, last, j), buf_hi))
        work = n_sites**peak
        if work > cap:
            raise ValueError(
                f"windowed contraction needs a working tensor of {n_sites}^{peak} "
                f"= {work:.3g} elements, above the cap {cap:.3g}; reduce the window "
                "width or use the Monte-Carlo engine (evolve_selective_coarse_mc)"
            )
        return cls(
            n_sites=int(n_sites),
            n_steps=int(n_steps),
            bandwidth=bandwidth,
            buffer_len=int(peak),
            work_elements=int(work),
            cap=int(cap),
        )


def _contract_windowed(vec0, kernel, site_values, readout, kappa, window, dt):
    """Sum over lattice paths of amplitude x windowed Gaussian weight.

    vec0        : initial vector over n sites (any flat dimension)
    kernel      : (n, n) one-step amplitude matrix, applied N times
    site_values : observable value attached to each site
    readout     : N record values (row i of the window compares against it)
    window      : (N, N+1) smoothing matrix (rows: steps, cols: slices)

    Returns the final vector over slice-N sites.  Live slice axes are kept
    in chronological order; a slice axis is contracted through the kernel
    as soon as no un-emitted window row references it.
    """
    window = np.asarray(window, dtype=float)
    n_steps = window.shape[0]
    readout = np.asarray(readout, dtype=float)
    if readout.shape != (n_steps,):
        raise ValueError(f"readout must have {n_steps} entries, got {readout.shape}")
    cols, first, last, emit_at = _band_structure(window)
    site_values = np.asarray(site_values, dtype=float)
    n = site_values.size
    kernel_t = np.ascontiguousarray(np.asarray(kernel, dtype=complex).T)

    state = np.asarray(vec0, dtype=complex).copy()
    oldest = 0  # slice index carried by axis 0 of `state`

    def emit(state, i):
        # multiply in the weight factor of window row i; its smoothed value
        # is a broadcast sum over the live axes it touches
        smoothed = 0.0
        for j in cols[i]:
            axis = j - oldest
            shape = [1] * state.ndim
            shape[axis] = n
            smoothed = smoothed + window[i, j] * site_values.reshape(shape)
        return state * np.exp(-kappa * dt * (smoothed - readout[i]) ** 2)

    def trim(state, oldest, j):
        keep = _keep_from(first, last, j)
        while oldest < keep and state.ndim > 1:
            state = state.sum(axis=0)
            oldest += 1
        return state, oldest

    for i in emit_at.get(0, ()):
        state = emit(state, i)
    state, oldest = trim(state, oldest, 0)
    for j in range(1, n_steps + 1):
        # append the axis for slice j; the kernel contraction over slice
        # j-1 is deferred until that axis is trimmed
        state = state[..., :, None] * kernel_t
        for i in emit_at.get(j, ()):
            state = emit(state, i)
        state, oldest = trim(state, oldest, j)
    while state.ndim > 1:
        state = state.sum(axis=0)
    return state


# ----------------------------------------------------------------------
# engines


def evolve_selective_ideal(psi0, readout, kappa, ham, obs, sgrid, tgrid, observer=None):
    """Conditioned evolution at ideal time resolution.

    Applies exp(-kappa dt (A - a_i)^2) then the one-step unitary kernel,
    for each of the N record values.  ``observer(i, psi)`` — if given —
    sees the unnormalized working state after every step.
    """
    readout = np.asarray(readout, dtype=float)
    n_steps = tgrid.n_steps
    if readout.shape != (n_steps,):
        raise ValueError(f"readout must have {n_steps} entries, got {readout.shape}")
    dt, a_vals = tgrid.dt, obs.values
    psi = np.asarray(psi0, dtype=complex)
    plan = _StepPlan(ham, sgrid, dt)
    for i in range(n_steps):
        psi = plan.step(np.exp(-kappa * dt * (a_vals - readout[i]) ** 2) * psi)
        if observer is not None:
            observer(i, psi)
    return _wrap_result(psi, kappa, sgrid, tgrid)


def evolve_selective_coarse(
    psi0, readout, form_factor, kappa, ham, obs, sgrid, tgrid, cap=DEFAULT_WORK_CAP
):
    """Conditioned evolution through a finite-resolution window (exact).

    Delta-resolution profiles dispatch to `evolve_selective_ideal`
    unchanged, so the ideal engine is literally the window -> 0 limit.
    Otherwise runs the windowed path-sum contraction; raises with a
    pointer at the Monte-Carlo engine if the window band needs a working
    tensor above ``cap`` elements.
    """
    if form_factor.is_delta:
        return evolve_selective_ideal(psi0, readout, kappa, ham, obs, sgrid, tgrid)
    window = form_factor.window_matrix(tgrid.n_steps, tgrid.dt)
    WindowSpec.plan(window, sgrid.n_points, cap)
    kernel = _StepPlan(ham, sgrid, tgrid.dt).matrix
    psi = _contract_windowed(np.asarray(psi0, dtype=complex), kernel, obs.values, readout,
                             kappa, window, tgrid.dt)
    return _wrap_result(psi, kappa, sgrid, tgrid)


def evolve_selective_coarse_mc(
    psi0,
    readout,
    form_factor,
    kappa,
    ham,
    obs,
    sgrid,
    tgrid,
    samples=1000,
    seed=None,
    batch=256,
):
    """Monte-Carlo estimate of the windowed conditioned evolution.

    Decouples the quadratic window exponent with an auxiliary Gaussian
    field xi ~ N(0, 1)^N:

        W[A; a] = e^{-kappa dt ||a||^2}
                  * E_xi prod_j exp( A_j (2 kappa dt b_j
                                     + i sqrt(2 kappa dt) (P^T xi)_j) )

    with P the window matrix and b = P^T a, so each sample costs one
    diagonal-factor sweep regardless of the window width.  The estimate
    is unbiased; at kappa = 0 the estimator is exact with zero variance.
    Per-component standard errors of the state mean are returned, and a
    linearized standard error for the probability density.
    """
    readout = np.asarray(readout, dtype=float)
    n_steps, dt = tgrid.n_steps, tgrid.dt
    if readout.shape != (n_steps,):
        raise ValueError(f"readout must have {n_steps} entries, got {readout.shape}")
    if samples < 2:
        raise ValueError("need at least 2 samples for an error estimate")
    window = form_factor.window_matrix(n_steps, dt)
    rng = np.random.default_rng(seed)

    a_vals = obs.values
    n = a_vals.size
    b = window.T @ readout
    log_pref = -kappa * dt * float(np.sum(readout**2))
    drift = 2.0 * kappa * dt * b  # real part of the per-slice coefficients

    psi0 = np.asarray(psi0, dtype=complex)
    plan = _StepPlan(ham, sgrid, dt)
    moments = _Moments(n, parts=(np.real, np.imag))
    while moments.count < samples:
        m = min(batch, samples - moments.count)
        xi = rng.standard_normal((m, n_steps))
        coef = drift[None, :] + 1j * math.sqrt(2.0 * kappa * dt) * (xi @ window)
        block = np.broadcast_to(psi0[:, None], (n, m)).copy()
        block *= np.exp(a_vals[:, None] * coef[:, 0][None, :] + log_pref)
        for j in range(1, n_steps + 1):
            block = plan.step(block)
            block *= np.exp(a_vals[:, None] * coef[:, j][None, :])
        moments.add(block, axis=1)

    mean = moments.mean()
    var_re, var_im = moments.variances()
    result = _wrap_result(mean, kappa, sgrid, tgrid)
    # linearized error of ||mean||^2 * c^N through the component means
    var_norm = float(
        np.sum((2.0 * mean.real) ** 2 * var_re + (2.0 * mean.imag) ** 2 * var_im)
        / samples
        * sgrid.spacing**2
    )
    prob_stderr = result.measure_factor * math.sqrt(var_norm)
    return SelectiveResult(
        final_state=result.final_state,
        norm_sq=result.norm_sq,
        measure_factor=result.measure_factor,
        probability_density=result.probability_density,
        state_stderr=moments.stderr(),
        probability_stderr=prob_stderr,
        n_samples=int(samples),
    )


class _Moments:
    """Entrywise mean and standard error of i.i.d. complex samples.

    The spread is that of the real projections in ``parts``: the modulus,
    or the real and imaginary parts for a caller that needs both variances.
    """

    def __init__(self, shape, parts=(np.abs,)):
        self.count, self.parts = 0, parts
        self.total = np.zeros(shape, dtype=complex)
        self.squares = [np.zeros(shape) for _ in parts]

    def add(self, batch, axis=0):
        """Add the samples stacked along ``axis`` of ``batch``."""
        self.count += batch.shape[axis]
        self.total += batch.sum(axis=axis)
        for sq, part in zip(self.squares, self.parts):
            sq += np.sum(part(batch) ** 2, axis=axis)

    def mean(self):
        return self.total / self.count

    def variances(self):
        """Bessel-corrected sample variance of each part."""
        mean, n = self.mean(), self.count
        return [
            np.maximum(sq / n - part(mean) ** 2, 0.0) * (n / (n - 1.0))
            for sq, part in zip(self.squares, self.parts)
        ]

    def stderr(self):
        return np.sqrt(sum(self.variances()) / self.count)


def _wrap_result(psi, kappa, sgrid, tgrid):
    n2 = norm_sq(psi, sgrid)
    c = readout_measure_factor(kappa, tgrid.dt) if kappa > 0 else 0.0
    measure = c**tgrid.n_steps
    return SelectiveResult(
        final_state=psi,
        norm_sq=n2,
        measure_factor=measure,
        probability_density=n2 * measure,
    )

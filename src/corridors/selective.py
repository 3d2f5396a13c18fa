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
does.  `WindowSpec.plan` is the one place that sweep is scheduled: which
slice axes stay live after each slice and which weight rows apply there,
under a cap on the buffer.  `_contract_windowed` replays a plan and takes
its weight rows from the caller, so the averaged engines of
`nonselective` run the same sweep on the doubled (bra x ket) chain, for
the windowed decay and the medium weights.  When the buffer would not
fit in memory, `plan` refuses: its cap is the one exact-or-sample rule,
and a caller that may sample falls back on that refusal to a Monte-Carlo
unraveling (`evolve_selective_coarse_mc`), which decouples the window
with an auxiliary Gaussian field: every sample is again a
diagonal-factor sweep, unbiased for the exact result, with errors
dropping as 1/sqrt(samples).  One field sweep, `_field_sweep`, runs both
this sampler and the random-phase samplers of `nonselective`, and that
module's Monte-Carlo unitarity check conditions its records through the
exact cores here, in batches side by side: the ideal sweep or the
contraction, on one plan per call.  A window above the cap is refused
there as here; no auxiliary-field estimate of U[a] replaces it.

All engines use the left-rule weight pairing (the step-i factor
multiplies the state before the step-i kernel); for that discretization
the readout-integrated dynamics conserves probability exactly at every
step size, not just in the small-step limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import _StepPlan, norm_sq
# unused here, kept as a module name: the benchmark's tracer self-test
# checks that selective.unitary_step is rebound and restored
from .grids import unitary_step  # noqa: F401
from .readout import _check_kappa, readout_measure_factor

__all__ = [
    "WindowSpec",
    "SelectiveResult",
    "DEFAULT_WORK_CAP",
    "evolve_selective_ideal",
    "evolve_selective_coarse",
    "evolve_selective_coarse_mc",
]

# hard ceiling on the windowed-contraction working tensor, in complex
# elements (1.6e9 bytes at complex128); beyond this the exact sweep refuses
# and callers should fall back to the Monte-Carlo unraveling
DEFAULT_WORK_CAP = 100_000_000
# complex elements in one batch of samples side by side (256 KB): sampled
# propagators here, and the records the Monte-Carlo unitarity check
# conditions together (records x columns x live elements, within the cap)
_FIELD_BATCH_ELEMENTS = 1 << 14


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


# ----------------------------------------------------------------------
# window bookkeeping


@dataclass(frozen=True)
class WindowSpec:
    """Resource plan and schedule of a windowed contraction.

    buffer_len is the peak number of simultaneously live slice axes and
    work_elements = n_sites ** buffer_len the peak working-tensor size
    (transients during a step allocate a small constant multiple of it).
    live[j] is the oldest slice still live once slice j is added and its
    rows applied, and emit[j] the rows whose last slice is j: the schedule
    `_contract_windowed` replays.
    """

    n_sites: int
    n_steps: int
    bandwidth: int
    buffer_len: int
    work_elements: int
    cap: int
    live: tuple = field(repr=False)
    emit: tuple = field(repr=False)

    @classmethod
    def plan(cls, window, n_sites, cap=DEFAULT_WORK_CAP):
        """Schedule the contraction (indices only) and check the cap.

        ``window`` is the (N, N+1) window, or any weight pattern of that
        shape whose nonzero entries are the slices each row couples.  Row
        i can only be turned into a weight factor once its last nonzero
        slice exists, and a slice axis can be summed out once no pending
        row reaches back to it.  So live[j] is the earliest first column
        among the rows completed after j (a suffix-min), capped at j; it
        never decreases.  The schedule is derived from the actual nonzero
        pattern, so shifted or asymmetric bands (including time-reversed
        windows) schedule correctly.
        """
        nonzero = np.asarray(window) != 0
        n_steps = nonzero.shape[0]
        if nonzero.shape[1] != n_steps + 1:
            raise ValueError(f"window must be (N, N+1), got {nonzero.shape}")
        empty = np.flatnonzero(~nonzero.any(axis=1))
        if empty.size:
            raise ValueError(f"window row {empty[0]} is identically zero")
        first = np.argmax(nonzero, axis=1)
        last = n_steps - np.argmax(nonzero[:, ::-1], axis=1)
        # reach[s]: earliest first column among the rows completed at slice s
        reach = np.full(n_steps + 2, n_steps + 1)
        np.minimum.at(reach, last, first)
        pending = np.minimum.accumulate(reach[::-1])[::-1][1:]
        live = np.minimum(pending, np.arange(n_steps + 1))
        emit = [[] for _ in range(n_steps + 1)]
        for i, s in enumerate(last.tolist()):
            emit[s].append(i)
        steps = np.arange(n_steps)
        bandwidth = int(max(np.max(steps - first), np.max(last - steps)))
        # slice j joins the live axes [live[j - 1], j]
        peak = int(np.max(np.arange(1, n_steps + 2) - np.concatenate(([0], live[:-1]))))
        work = n_sites**peak
        if work > cap:
            raise ValueError(
                f"windowed contraction needs a working tensor of {n_sites}^{peak} "
                f"= {work:.3g} elements, above the cap {cap:.3g}; reduce the window "
                "width or use a Monte-Carlo engine: evolve_selective_coarse_mc, or "
                "mode='mc' of superpropagate"
            )
        return cls(int(n_sites), int(n_steps), bandwidth, peak, int(work), int(cap),
                   tuple(live.tolist()), tuple(map(tuple, emit)))


def _contract_windowed(vec0, kernel, spec, log_row):
    """Sum over lattice paths of amplitude x a slice-coupled weight.

    vec0    : initial vector over n sites, after any leading batch axes
    kernel  : (n, n) one-step amplitude matrix, applied N times
    spec    : the `WindowSpec` of the weight's (N, N+1) nonzero pattern,
              whose schedule the sweep replays
    log_row : log_row(i, place) is row i's log weight, a new real array
              built from place(j, values), which puts per-site values of
              slice j on that slice's live axis; it broadcasts over the
              live axes and may vary along the batch axes

    Returns the final vector over slice-N sites (after the batch axes).
    Live slice axes are kept in chronological order; after slice j is
    added and the rows spec.emit[j] applied, the axes older than
    spec.live[j] are contracted through the kernel; live[N] == N, so after
    the last slice only its axis is left.  This is Makri & Makarov's
    augmented propagator (J. Chem. Phys. 102, 4600 (1995)).
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
            # append the axis for slice j; the kernel contraction over
            # slice j-1 is deferred until that axis is summed out
            state = state[..., :, None] * kernel_t
        for i in rows:
            weight = log_row(i, place)
            state *= np.exp(weight, out=weight)
        while oldest < lo:
            state = state.sum(axis=lead)
            oldest += 1
    return state


def _corridor_rows(window, site_values, readout, kappa, dt):
    """log_row of the windowed Gaussian corridor weight; its pattern is the window.

    Row i is -kappa dt ((P A)_i - readout_i)^2: the window-smoothed
    observable of the live slices against record value i.  ``readout`` is
    one (N,) record, or (m, N) for m records on the contraction's first
    batch axis.
    """
    window = np.asarray(window, dtype=float)
    readout = np.asarray(readout, dtype=float)
    if readout.ndim not in (1, 2) or readout.shape[-1] != window.shape[0]:
        raise ValueError(f"readout must have {window.shape[0]} entries, got {readout.shape}")
    cols = [np.flatnonzero(row) for row in window]
    site_values = np.asarray(site_values, dtype=float)
    records = readout.shape[:-1]

    def log_row(i, place):
        # the smoothed value is a broadcast sum over the live axes it touches
        smoothed = 0.0
        for j in cols[i]:
            smoothed = smoothed + window[i, j] * place(j, site_values)
        # allocates: the records' axis reaches beyond the smoothed value's shape
        out = smoothed - readout[..., i].reshape(records + (1,) * (smoothed.ndim - len(records)))
        np.square(out, out=out)
        out *= -kappa * dt
        return out

    return log_row


# ----------------------------------------------------------------------
# engines


def _ideal_sweep(plan, block, readout, kappa, values, dt, observer=None):
    """Left-rule conditioned sweep of a vector, or of the columns of a block.

    ``readout`` is one (N,) record, or (m, N) for m records side by side:
    record r then conditions block[:, r] of an (n, m, ...) block.
    """
    values = np.reshape(values, (-1,) + (1,) * (np.ndim(block) - 1))
    # step i's record values, on the block's record axis when there is one
    steps = readout.T.reshape(readout.shape[::-1] + (1,) * (np.ndim(block) - readout.ndim))
    # a vector or an (n, k) block steps as it is, with no per-step reshape
    step = plan.step if np.ndim(block) <= 2 else \
        (lambda b: plan.step(b.reshape(plan.n, -1)).reshape(b.shape))
    for i, a in enumerate(steps):
        block = step(np.exp(-kappa * dt * (values - a) ** 2) * block)
        if observer is not None:
            observer(i, block)
    return block


def evolve_selective_ideal(psi0, readout, kappa, ham, obs, sgrid, tgrid, observer=None):
    """Conditioned evolution at ideal time resolution.

    Applies exp(-kappa dt (A - a_i)^2) then the one-step unitary kernel,
    for each of the N record values.  ``observer(i, psi)`` — if given —
    sees the unnormalized working state after every step.
    """
    _check_kappa(kappa)
    readout = np.asarray(readout, dtype=float)
    if readout.shape != (tgrid.n_steps,):
        raise ValueError(f"readout must have {tgrid.n_steps} entries, got {readout.shape}")
    psi = _ideal_sweep(_StepPlan(ham, sgrid, tgrid.dt), np.asarray(psi0, dtype=complex),
                       readout, kappa, obs.values, tgrid.dt, observer)
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
    _check_kappa(kappa)
    window = form_factor.window_matrix(tgrid.n_steps, tgrid.dt)
    spec = WindowSpec.plan(window, sgrid.n_points, cap)
    kernel = _StepPlan(ham, sgrid, tgrid.dt).matrix
    psi = _contract_windowed(np.asarray(psi0, dtype=complex), kernel, spec,
                             _corridor_rows(window, obs.values, readout, kappa, tgrid.dt))
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
):
    """Monte-Carlo estimate of the windowed conditioned evolution.

    Decouples the quadratic window exponent with an auxiliary Gaussian
    field xi ~ N(0, 1)^N:

        W[A; a] = e^{-kappa dt ||a||^2}
                  * E_xi prod_j exp( A_j (2 kappa dt b_j
                                     + i sqrt(2 kappa dt) (P^T xi)_j) )

    with P the window matrix and b = P^T a, so each sample costs one
    diagonal-factor sweep regardless of the window width.  Samples run
    side by side in batches of about _FIELD_BATCH_ELEMENTS state
    elements, drawn in order from one stream, so a seed fixes the samples
    whatever the batch size.  The estimate is unbiased; at kappa = 0 the
    estimator is exact with zero variance.  Per-component standard errors
    of the state mean are returned, and a linearized standard error for
    the probability density.
    """
    _check_kappa(kappa)
    readout = np.asarray(readout, dtype=float)
    n_steps, dt = tgrid.n_steps, tgrid.dt
    if readout.shape != (n_steps,):
        raise ValueError(f"readout must have {n_steps} entries, got {readout.shape}")
    moments = _Moments(sgrid.n_points, samples, parts=(np.real, np.imag))
    window = form_factor.window_matrix(n_steps, dt)
    # the field T = sqrt(2 kappa dt) P^T, S = A, and the real log weight
    # 2 kappa dt b_j A, with -kappa dt ||a||^2 at slice 0
    log_weight = np.outer(2.0 * kappa * dt * (window.T @ readout), obs.values)
    log_weight[0] -= kappa * dt * float(np.sum(readout**2))
    plan = _StepPlan(ham, sgrid, dt)
    for block in _field_sweep(plan, psi0, math.sqrt(2.0 * kappa * dt) * window.T,
                              obs.values[:, None], samples, np.random.default_rng(seed),
                              log_weight):
        moments.add(block[:, :, 0], axis=1)

    mean = moments.mean()
    var_re, var_im = moments.variances()
    result = _wrap_result(mean, kappa, sgrid, tgrid)
    # linearized error of ||mean||^2 * c^N through the component means
    var_norm = float(
        np.sum((2.0 * mean.real) ** 2 * var_re + (2.0 * mean.imag) ** 2 * var_im)
        / samples
        * sgrid.spacing**2
    )
    return replace(result, state_stderr=moments.stderr(),
                   probability_stderr=result.measure_factor * math.sqrt(var_norm),
                   n_samples=int(samples))


# ----------------------------------------------------------------------
# Gaussian-field sampling (the aux-field and random-phase samplers)


def _field_sweep(plan, start, time_factor, space_factor, samples, rng, log_weight=None):
    """Batches of U_xi applied to ``start``, over the field phi = T xi S^T.

    U_xi is the split-operator evolution with exp(log_weight_j + i phi_j)
    multiplied in at slices 0 .. N: phi_j is the row of phi for slice j
    over the sites, log_weight an optional real (N+1, n) array.  Each
    sample's xi ~ N(0, 1), shaped (T columns, S columns), is drawn in turn
    from ``rng``.  Yields (n, m, k) blocks, m samples side by side, k the
    columns of ``start``, each of about _FIELD_BATCH_ELEMENTS elements.
    """
    n = plan.n
    start = np.asarray(start, dtype=complex).reshape(n, 1, -1)
    k = start.shape[2]
    batch = max(1, _FIELD_BATCH_ELEMENTS // (n * k))
    for done in range(0, samples, batch):
        m = min(batch, samples - done)
        xi = rng.standard_normal((m, time_factor.shape[1], space_factor.shape[1]))
        time_part = np.tensordot(time_factor, xi, axes=(1, 1))  # (N+1, m, S columns)
        block = np.broadcast_to(start, (n, m, k)).copy()
        for j, part in enumerate(time_part):
            if j:
                block = plan.step(block.reshape(n, m * k)).reshape(n, m, k)
            # (n, m); keep a vectorized ufunc between the BLAS product and the
            # exp: numpy's scalar complex exp measured 10x slower right after one
            exponent = 1j * (space_factor @ part.T)
            if log_weight is not None:
                exponent += log_weight[j][:, None]
            block *= np.exp(exponent)[:, :, None]
        yield block


class _Moments:
    """Entrywise mean and standard error of i.i.d. complex samples.

    The spread is that of the real projections in ``parts``: the modulus,
    or the real and imaginary parts for a caller that needs both variances.
    ``samples``, the count the caller will add, must be at least 2.
    """

    def __init__(self, shape, samples, parts=(np.abs,)):
        if samples < 2:
            raise ValueError("need at least 2 samples for an error estimate")
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

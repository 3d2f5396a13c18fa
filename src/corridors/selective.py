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
the windowed decay and the medium weights.  Per slice it takes the weight
and the sums first and the kernel after: the slice's rows make one real
weight, the weight and the sum over the axes leaving the buffer are one
real product, and the one-step kernel multiplies that product, a tensor
n times smaller than the weight.  Every slice is one loop of independent
blocks along one axis, each block a function of its part of the state
and of that axis's values; a slice whose weight would pass
`_SWEEP_BLOCK_ELEMENTS` (512 KB) has several, so no slice forms its
full-size weight and each block's weight stays in the L2 cache.  Such a
slice's blocks run through `grids._split` on `_BATCH_WORKERS` threads, in
contiguous runs on the calling thread and on the package's one kept pool,
each writing its own part of the slice, so the bits do not depend on the
worker count.  When
the buffer would not fit in memory, `plan` refuses: its cap,
`DEFAULT_WORK_CAP` read at every call, is the one exact-or-sample rule,
and a caller that may sample falls back on that refusal alone
(`_AboveCap`) to a Monte-Carlo unraveling (`evolve_selective_coarse_mc`),
which decouples the window with an auxiliary Gaussian field: every
sample is again a diagonal-factor sweep, unbiased for the exact result,
with errors dropping as 1/sqrt(samples).
One field sweep, `_field_sweep`, runs both this sampler and the
random-phase samplers of `nonselective`, and that module's Monte-Carlo
unitarity check conditions its records through the exact cores here, in
batches side by side: the ideal sweep or the contraction, on one plan
per call.  Long records leave the double range: every conditioned sweep
rescales by powers of two and hands back the exponent, which the ideal
and windowed engines carry into `SelectiveResult.log_norm_sq` and the
field sampler into each batch and the moments' common exponent, with the
whole bits that shift a far record's weights back into range (in
`_StepPlan.apply` and `_corridor_rows`, past 2^+-_SHIFT_BITS); the
linear fields of a result are rounded from the logs and saturate.  The
sampler batches run on worker threads, one per usable core
(`grids._USABLE_CORES`), through one ordered batch map, `_batch_map`:
the calling thread draws the random numbers in stream order and sums the
results in batch order, so they are bit for bit those of one thread.
The workers are separate from BLAS's own threads
(``OPENBLAS_NUM_THREADS``); with both above one they oversubscribe the
cores.  Windowed unitarity records stay on the calling thread (their
small contractions hold the GIL).  Every ideal sweep and every field
sample steps through the plan's one column sweep, `_StepPlan.apply`, with
the logs of the corridor factors (`_corridor_gains`) or of the field's
factors as gains.  A window above the cap is refused there as here; no
auxiliary-field estimate of U[a] replaces it.

All engines use the left-rule weight pairing (the step-i factor
multiplies the state before the step-i kernel); for that discretization
the readout-integrated dynamics conserves probability exactly at every
step size, not just in the small-step limit.
"""

from __future__ import annotations

import contextvars
import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, islice

import numpy as np

from .grids import (
    _CHECK_BITS,
    _LN2,
    _RANGE_BITS,
    _SHIFT_BITS,
    _USABLE_CORES,
    _rescale,
    _split,
    _StepPlan,
    norm_sq,
)
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
# elements (1.6e9 bytes at complex128); beyond this `WindowSpec.plan` refuses
# and callers should fall back to the Monte-Carlo unraveling.  A sweep's
# traced peak is 0.18 such tensors at a 16^5 plan on one thread and 0.22 on
# two, so about 3.5e8 bytes here
DEFAULT_WORK_CAP = 100_000_000
# real elements of one block of a windowed slice's weight (512 KB):
# `_contract_windowed` evaluates a slice whose weight is larger in blocks of
# this size, and the Monte-Carlo unitarity check puts records side by side up
# to it (records x identity columns x live elements)
_SWEEP_BLOCK_ELEMENTS = 1 << 16
# complex elements in one batch of samples side by side (256 KB): sampled
# propagators here, and the records the Monte-Carlo unitarity check
# conditions together in one ideal sweep (records x columns x sites)
_FIELD_BATCH_ELEMENTS = 1 << 14
# the package's one thread count, the cores this process may run on
# (`grids._USABLE_CORES`): `_batch_map`'s threads sweep sampler batches side by
# side (a pool per call), and `grids._split` runs a wide windowed slice's
# blocks beside the caller on the package's one kept pool.  `grids` reads its
# own name for the FFT sweep's transforms and for the power's squaring bands,
# which share that pool
_BATCH_WORKERS = _USABLE_CORES


@dataclass(frozen=True)
class SelectiveResult:
    """Outcome of a conditioned evolution.

    final_state is unnormalized: its squared norm (times the readout
    measure factor c^N, one c = sqrt(2 kappa dt / pi) per step) is the
    record's probability density.  The logs are carried separately:
    log_norm_sq comes from the sweep's rescaled state and its exponent, and
    log_probability_density = log_norm_sq + N log c.  Every engine rescales,
    so both stay finite where a long record's state leaves the double range.
    The linear fields final_state, norm_sq and probability_density are the
    logs' values rounded into doubles, so they may still underflow to 0.0
    or overflow to inf.  The Monte-Carlo engine also fills the stderr
    fields (per-component for the state, scalar for the density).
    """

    final_state: np.ndarray
    norm_sq: float
    log_norm_sq: float
    probability_density: float
    log_probability_density: float
    state_stderr: np.ndarray | None = None
    probability_stderr: float | None = None
    n_samples: int | None = None


# ----------------------------------------------------------------------
# window bookkeeping


class _AboveCap(ValueError):
    """`WindowSpec.plan`'s refusal of a working tensor above the cap."""


@dataclass(frozen=True)
class WindowSpec:
    """Resource plan and schedule of a windowed contraction.

    buffer_len is the peak number of simultaneously live slice axes and
    work_elements = n_sites ** buffer_len the peak working-tensor size.
    At its peak a sweep holds 0.18 complex tensors of that size on one
    thread and 0.22 on two (x 16 work_elements bytes, traced by tracemalloc
    over one `evolve_selective_coarse` call at n = 16, tau = 0.4 dt and 64
    steps, a 16^5 plan): the live slices, at most 1/n of the work, and
    the blocks of the weight in flight; a tier-1 test bounds it at 0.5.
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
    def plan(cls, window, n_sites):
        """Schedule the contraction (indices only) and check it against the cap.

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
        if work > DEFAULT_WORK_CAP:
            raise _AboveCap(
                f"windowed contraction needs a working tensor of {n_sites}^{peak} "
                f"= {work:.3g} elements, above the cap {DEFAULT_WORK_CAP:.3g}; reduce the window "
                "width or use a Monte-Carlo engine: evolve_selective_coarse_mc, or "
                "mode='mc' of superpropagate"
            )
        return cls(int(n_sites), int(n_steps), bandwidth, peak, int(work), int(DEFAULT_WORK_CAP),
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

    Returns (state, k), state 2^k the final vector over slice-N sites
    (after the batch axes).  Live slice axes are kept in chronological
    order; after slice j is added and the rows spec.emit[j] applied, the
    axes older than spec.live[j] are summed out; live[N] == N, so after the
    last slice only its axis is left.  This is Makri & Makarov's augmented
    propagator (J. Chem. Phys. 102, 4600 (1995)).  As `_StepPlan.apply`
    does, a state whose largest part leaves 2^+-(_RANGE_BITS - _CHECK_BITS)
    after a slice is scaled into [1/2, 1) by a power of two, so the next
    slice has 540 bits of headroom and a run inside that window is bit for
    bit an unscaled one; a single slice that moves the state past its
    headroom can still underflow.

    Per slice j the rows it emits are added, in place where the shapes
    allow, and exponentiated once, to a real weight over the live axes and
    slice j.  When the slice also sums axes older than x_{j-1}, weight and
    sum are one batched real product on the (re, im) view of the state
    before slice j's axis exists, and the kernel factor K[x_j, x_{j-1}]
    multiplies the result, n or more times smaller than the weight.  A sum
    over x_{j-1} itself comes after the kernel.  The per-slice sweep in
    the tests' oracles is the reference.

    Every slice is one loop of blocks along the oldest axis it keeps, slice
    `cut` (the product's first batch axis, or the oldest live axis); one
    block if its weight fits `_SWEEP_BLOCK_ELEMENTS` (the state times n
    elements).  A block is a function of its part of the state, its rows
    of the kernel and its `part` of slice cut's values, which its own
    `place` hands its rows, so blocks are independent and bit for bit one
    block.  A slice that keeps no live axis (the last slice of a
    time-reversed window) runs in blocks of one index of x_{j-1}, which it
    sums after the kernel, added in the order of the one-block sum.

    A slice of two or more kept-axis blocks hands them to `grids._split` on
    `_BATCH_WORKERS` threads, each block writing its part of the slice;
    `_split` returns once every block is done, before the slice rescales.
    numpy drops the GIL in the blocks' exp and products.  One-block slices,
    the summed blocks of a slice that keeps no axis and a single worker stay
    inline, so a plan whose weights all fit one block never opens the pool.
    """
    n = kernel.shape[0]
    kernel_t = np.ascontiguousarray(np.asarray(kernel, dtype=complex).T)
    state = np.array(vec0, dtype=complex, order="C")  # a new array: the (re, im) view is free
    lead = state.ndim - 1  # batch axes ahead of the live slice axes
    oldest = 0  # slice carried by axis `lead` of `state`
    k, limit = 0, _RANGE_BITS - _CHECK_BITS  # state 2^k is the sum so far

    def advance(state, kernel_t, part):
        # slice j on one block; nothing it reads changes between blocks
        def place(s, values):
            if s == cut:
                values = values[part]
            shape = [1] * (lead + j + 1 - oldest)  # the live axes once slice j is in
            shape[lead + s - oldest] = values.size
            return values.reshape(shape)

        weight = None
        for i in rows:
            term = log_row(i, place)
            if weight is None:
                weight = term
            elif weight.shape == np.broadcast_shapes(weight.shape, term.shape):
                weight += term
            else:
                weight = weight + term
        if weight is not None:
            np.exp(weight, out=weight)
        if summed:
            # sum_O weight[.., O, .., x_{j-1}, x_j] state[.., O, .., x_{j-1}] with
            # the O axes merged, as one matmul per kept index: weight's
            # (x_j, O) by the state's (O, re/im)
            before, after = weight.shape[:lead], weight.shape[lead + summed:]
            if weight.shape[lead:lead + summed] != (n,) * summed:  # a row skips an O slice
                weight = np.broadcast_to(weight, before + (n,) * summed + after)
            weight = weight.reshape(before + (-1,) + after)
            kept = state.ndim - summed + 1  # the re/im axis, after x_{j-1}
            batch = (*range(lead), *range(lead + 1, kept))
            parts = state.view(float).reshape(state.shape[:lead] + (-1,)
                                              + state.shape[lead + summed:] + (2,))
            state = weight.transpose(*batch, kept, lead) @ parts.transpose(*batch, lead, kept)
            state = state.view(complex)[..., 0] * kernel_t
        else:
            if j:
                state = state[..., None] * kernel_t
            if weight is not None:
                state *= weight
        if sums_last:
            state = state.sum(axis=-2)
        return state

    def block(start):
        # the block of slice j at `start` of slice cut
        part = slice(start, start + step)
        return advance(state[(slice(None),) * (lead + summed) + (part,)],
                       kernel_t[part] if cut == j - 1 else kernel_t, part)

    def fill(start):
        # a kept-axis block, into its part of `out`
        out[(slice(None),) * lead + (slice(start, start + step),)] = block(start)

    for j, (lo, rows) in enumerate(zip(spec.live, spec.emit)):
        # axes older than x_{j-1} summed here; the plan sums them only where
        # the rows reaching back to them end, so only where there is a weight
        summed = max(0, min(lo, j - 1) - oldest)
        # blocks along slice `cut`, each index of it carrying at most state.size
        # weight elements; of one index where the slice sums x_{j-1}, its cut
        cut, sums_last = oldest + summed, bool(j) and lo == j
        step = max(1, _SWEEP_BLOCK_ELEMENTS // state.size)
        step = n if step >= n or not (rows and j) else 1 if sums_last else step
        starts = range(0, n, step)
        if sums_last or step == n:  # one block, or blocks added in the order of the one-block sum
            out = block(0)
            for start in starts[1:]:
                out += block(start)
        else:  # the kept axis comes first after the batch axes
            out = np.empty(state.shape[:lead] + state.shape[lead + summed:] + (n,), complex)
            _split(fill, starts, _BATCH_WORKERS)
        state = out
        k += _rescale(state, limit)
        oldest = j if sums_last else oldest + summed
    return state, k


def _corridor_rows(window, site_values, readout, kappa, dt):
    """(log_row, shift) of the windowed Gaussian corridor weight; its pattern
    is the window.

    Row i is -kappa dt ((P A)_i - readout_i)^2, the window-smoothed
    observable of the live slices against record value i, less s_i log 2:
    s_i is its largest value over the lattice in whole bits where that
    passes 2^+-_SHIFT_BITS, else 0 (records side by side share the nearest
    one's), and shift the sum of the s_i.  ``readout`` is one (N,) record,
    or (m, N) for m records on the contraction's first batch axis: a record
    `_check_readout` passed, sampled ones, or zeros.
    """
    window = np.asarray(window, dtype=float)
    readout = np.asarray(readout, dtype=float)
    cols = [np.flatnonzero(row) for row in window]
    site_values = np.asarray(site_values, dtype=float)
    records = readout.shape[:-1]
    # (P A)_i spans mid_i +- half_i over the lattice, each weight at the end of A its sign picks
    mid = window.sum(axis=1) * (np.max(site_values) + np.min(site_values)) / 2
    half = np.abs(window).sum(axis=1) * np.ptp(site_values) / 2
    far = np.maximum(np.abs(readout - mid) - half, 0.0).reshape(-1, len(window))
    top = np.round(-kappa * dt * np.min(far, axis=0) ** 2 / _LN2)
    top[np.abs(top) <= _SHIFT_BITS] = 0.0

    def log_row(i, place):
        # (P A)_i - a_i as a broadcast sum over the live axes it touches, from
        # the newest slice back: each add runs over the newer slices'
        # contiguous partial sum, and the record value goes on the smallest
        *rest, last = cols[i]
        out = window[i, last] * place(last, site_values)
        out = out - readout[..., i].reshape(records + (1,) * (out.ndim - len(records)))
        for j in reversed(rest):
            out = out + window[i, j] * place(j, site_values)
        np.square(out, out=out)
        out *= -kappa * dt
        if top[i]:
            out -= top[i] * _LN2
        return out

    return log_row, int(np.sum(top))


# ----------------------------------------------------------------------
# engines


def _check_readout(readout, n_steps):
    """One (N,) record of finite values, as floats."""
    readout = np.asarray(readout, dtype=float)
    if readout.shape != (n_steps,):
        raise ValueError(f"readout must have {n_steps} entries, got {readout.shape}")
    bad = np.flatnonzero(~np.isfinite(readout))
    if bad.size:
        raise ValueError(f"readout value at step {bad[0]} is {readout[bad[0]]}, not finite")
    return readout


def _corridor_gains(values, readout, kappa, dt):
    """The log gains of the left-rule conditioned sweep, for `_StepPlan.apply`:
    -kappa dt (A - a_i)^2 before each step i, and a zero row after the last.

    ``readout`` is one (N,) record, giving (n,) rows, or (m, N) for m
    records side by side, giving (n, m, 1) rows that condition record r on
    column block [:, r] of an (n, m, k) block.  The chunks of steps reuse
    one real buffer of _FIELD_BATCH_ELEMENTS / 2 elements, which with
    `apply`'s complex gains fills one batch: a chunk holds until the next
    one is drawn, as `apply` uses them.
    """
    lead = (1,) * (readout.ndim - 1)
    values = np.reshape(values, (-1,) + lead + lead)
    steps = readout.T.reshape(readout.shape[::-1] + lead)  # step i's values, on the record axis
    chunk = max(1, _FIELD_BATCH_ELEMENTS // (2 * values.size * steps[0].size))
    buffer = np.empty(np.broadcast_shapes(values.shape, steps[:chunk, None].shape))
    for lo in range(0, len(steps), chunk):
        part = steps[lo:lo + chunk, None]
        log_gain = np.subtract(values, part, out=buffer[:len(part)])
        np.square(log_gain, out=log_gain)
        log_gain *= -kappa * dt
        yield log_gain, None
    yield np.zeros((1,) + buffer.shape[1:]), None


def evolve_selective_ideal(psi0, readout, kappa, ham, obs, sgrid, tgrid, observer=None):
    """Conditioned evolution at ideal time resolution.

    Applies exp(-kappa dt (A - a_i)^2) then the one-step unitary kernel,
    for each of the N record values.  The sweep (`_StepPlan.apply`) shifts
    the gains and rescales the state by powers of two and carries the
    exponent, so `log_norm_sq` and `log_probability_density` stay finite
    where the state leaves the double range, a record far from the lattice
    values included.  ``observer(i, psi, k)``, if given, sees the working
    state after every step as 2^k psi, psi a copy of the sweep's block.
    """
    _check_kappa(kappa)
    readout = _check_readout(readout, tgrid.n_steps)
    plan = _StepPlan(ham, sgrid, tgrid.dt)
    steps = iter(range(tgrid.n_steps))
    watch = None if observer is None else lambda block, k: observer(next(steps), block.copy(), k)
    psi, exponent = plan.apply(np.asarray(psi0, dtype=complex),
                               _corridor_gains(obs.values, readout, kappa, tgrid.dt), watch)
    return _wrap_result(psi, exponent, kappa, sgrid, tgrid)


def evolve_selective_coarse(psi0, readout, form_factor, kappa, ham, obs, sgrid, tgrid):
    """Conditioned evolution through a finite-resolution window (exact).

    Delta-resolution profiles dispatch to `evolve_selective_ideal`
    unchanged, so the ideal engine is literally the window -> 0 limit.
    Otherwise runs the windowed path-sum contraction; raises with a
    pointer at the Monte-Carlo engine if the window band needs a working
    tensor above `WindowSpec.plan`'s cap.
    """
    if form_factor.is_delta:
        return evolve_selective_ideal(psi0, readout, kappa, ham, obs, sgrid, tgrid)
    _check_kappa(kappa)
    readout = _check_readout(readout, tgrid.n_steps)
    window = form_factor.window_matrix(tgrid.n_steps, tgrid.dt)
    spec = WindowSpec.plan(window, sgrid.n_points)
    kernel = _StepPlan(ham, sgrid, tgrid.dt).matrix
    log_row, shift = _corridor_rows(window, obs.values, readout, kappa, tgrid.dt)
    psi, k = _contract_windowed(np.asarray(psi0, dtype=complex), kernel, spec, log_row)
    return _wrap_result(psi, k + shift, kappa, sgrid, tgrid)


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
    the probability density.  The batches come with base-2 exponents
    (`_field_sweep`) and the moments sum on a common one, so the logs stay
    finite when the samples leave the double range.
    """
    _check_kappa(kappa)
    n_steps, dt = tgrid.n_steps, tgrid.dt
    readout = _check_readout(readout, n_steps)
    moments = _Moments(sgrid.n_points, samples, parts=(np.real, np.imag))
    window = form_factor.window_matrix(n_steps, dt)
    # the field T = sqrt(2 kappa dt) P^T, S = A, and the real log weight
    # 2 kappa dt b_j A, with -kappa dt ||a||^2 at slice 0
    log_weight = np.outer(2.0 * kappa * dt * (window.T @ readout), obs.values)
    log_weight[0] -= kappa * dt * float(np.sum(readout**2))
    plan = _StepPlan(ham, sgrid, dt)
    for block, exponent in _field_sweep(plan, psi0, math.sqrt(2.0 * kappa * dt) * window.T,
                                        obs.values[:, None], samples,
                                        np.random.default_rng(seed), log_weight):
        moments.add(block[:, :, 0], axis=1, exponent=exponent)

    # the moments at their common exponent e: the mean is 2^-e times its true value
    mean, e = moments.mean(), moments.exponent
    var_re, var_im = moments.variances()
    result = _wrap_result(mean, e, kappa, sgrid, tgrid)
    # linearized error of ||mean||^2 * c^N through the component means
    var_norm = float(
        np.sum((2.0 * mean.real) ** 2 * var_re + (2.0 * mean.imag) ** 2 * var_im)
        / samples
        * sgrid.spacing**2
    )
    log_stderr = _log(var_norm) / 2 + 2 * e * _LN2 + tgrid.n_steps * _log_measure_factor(kappa, dt)
    return replace(result, state_stderr=_ldexp(moments.stderr(), e),
                   probability_stderr=_exp(log_stderr), n_samples=int(samples))


# ----------------------------------------------------------------------
# Gaussian-field sampling (the aux-field and random-phase samplers)


def _field_sweep(plan, start, time_factor, space_factor, samples, rng, log_weight=None):
    """Batches of U_xi applied to ``start``, over the field phi = T xi S^T.

    U_xi is the split-operator evolution with exp(log_weight_j + i phi_j)
    multiplied in at slices 0 .. N: phi_j is the row of phi for slice j
    over the sites, log_weight an optional real (N+1, n) array.  Each
    sample's xi ~ N(0, 1), shaped (T columns, S columns), is drawn in turn
    from ``rng``.  Yields pairs (block, e): (n, m, k) blocks, m samples side
    by side, k the columns of ``start``, each of about
    _FIELD_BATCH_ELEMENTS elements, and 2^e block the batch's true value.
    The batches sweep on `_batch_map`'s worker threads, each batch's xi
    drawn here in stream order, and come back in that order, so the
    blocks do not depend on the worker count.

    The log weight and phases go to `_StepPlan.apply` as log gains, in chunks
    of about _FIELD_BATCH_ELEMENTS elements, and e carries its shifts and
    rescalings: a block with e != 0 has its largest entry in [1/2, 1), one
    with e = 0 is bit for bit that of the unscaled sweep.
    """
    start = np.asarray(start, dtype=complex).reshape(plan.n, 1, -1)
    batch = max(1, _FIELD_BATCH_ELEMENTS // start.size)

    def draws():
        for done in range(0, samples, batch):
            yield rng.standard_normal((min(batch, samples - done), time_factor.shape[1],
                                       space_factor.shape[1]))

    def sweep(xi):
        time_part = np.tensordot(time_factor, xi, axes=(1, 1))  # (N+1, m, S columns)
        chunk = max(1, _FIELD_BATCH_ELEMENTS // (plan.n * len(xi)))

        def log_gains():  # (L, n, m, 1) phases per chunk of L slices
            for lo in range(0, len(time_part), chunk):
                rows = None if log_weight is None else log_weight[lo:lo + chunk, :, None, None]
                yield rows, (space_factor @ time_part[lo:lo + chunk].transpose(0, 2, 1))[..., None]

        return plan.apply(start, log_gains())

    return _batch_map(sweep, draws())


def _batch_map(fn, inputs):
    """map(fn, inputs), the calls running side by side on worker threads.

    ``inputs`` is consumed here, on the calling thread, in order, so the
    random draws behind each batch come from the caller's stream in stream
    order; each fn(x) runs on one of `_BATCH_WORKERS` threads in a copy of
    the caller's context (numpy's errstate is context-local), and the
    results are yielded in input order, so every sum over them runs in the
    same order at any worker count and the results are bit for bit those
    of the serial map.  numpy drops the GIL in BLAS and in large ufuncs,
    which is where a sampler batch spends its time.  At most one input per
    worker is in flight.  A single input, or a single worker, runs inline,
    and `concurrent.futures` is imported only when a pool is needed.  fn
    must not call the package's public functions: a tracer wrapping them
    need not be thread-safe.
    """
    inputs = iter(inputs)
    head = list(islice(inputs, 2))
    workers = _BATCH_WORKERS
    if len(head) < 2 or workers < 2:
        yield from map(fn, chain(head, inputs))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for x in chain(head, inputs):
            if len(pending) == workers:
                pending[0].result()  # wait for the oldest: one input per worker
            pending.append(pool.submit(contextvars.copy_context().run, fn, x))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


class _Moments:
    """Entrywise mean and standard error of i.i.d. complex samples.

    The spread is that of the real projections in ``parts``: the modulus,
    or the real and imaginary parts for a caller that needs both variances.
    ``samples``, the count the caller will add, must be at least 2.  The
    sums are kept on one base-2 exponent, the largest of the batches so
    far: `mean`, `variances` and `stderr` are 2^-exponent, 4^-exponent and
    2^-exponent times the true values.
    """

    def __init__(self, shape, samples, parts=(np.abs,)):
        if samples < 2:
            raise ValueError("need at least 2 samples for an error estimate")
        self.count, self.parts, self.exponent = 0, parts, 0
        self.total = np.zeros(shape, dtype=complex)
        self.squares = [np.zeros(shape) for _ in parts]

    def add(self, batch, axis=0, exponent=0):
        """Add the samples stacked along ``axis`` of ``batch``, whose true
        values are 2^exponent batch."""
        if exponent > self.exponent or not self.count:
            shift, self.exponent = self.exponent - exponent, exponent
            self.total = _ldexp(self.total, shift)
            self.squares = [_ldexp(sq, 2 * shift) for sq in self.squares]
        batch = _ldexp(batch, exponent - self.exponent)
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


def _wrap_result(psi, exponent, kappa, sgrid, tgrid):
    """The `SelectiveResult` of the conditioned state 2^exponent psi.  With a
    nonzero exponent, psi is first scaled to a largest part in [1/2, 1), so
    log_norm_sq is exact to roundoff whatever the state's size; the linear
    fields are formed from the logs and saturate at 0.0 and inf."""
    if exponent:
        psi = psi.copy()
        exponent += _rescale(psi, -1)
    n2 = norm_sq(psi, sgrid)
    log_n2 = _log(n2) + 2 * exponent * _LN2
    log_measure = tgrid.n_steps * _log_measure_factor(kappa, tgrid.dt)
    return SelectiveResult(
        final_state=_ldexp(psi, exponent),
        norm_sq=float(_ldexp(np.float64(n2), 2 * exponent)),
        log_norm_sq=log_n2,
        probability_density=_exp(log_n2 + log_measure),
        log_probability_density=log_n2 + log_measure,
    )


def _log_measure_factor(kappa, dt):
    """log c, c = sqrt(2 kappa dt / pi) the readout measure factor of a step
    (-inf at kappa = 0)."""
    return math.log(readout_measure_factor(kappa, dt)) if kappa > 0 else -math.inf


def _log(x):
    """log x for x >= 0 (-inf at 0), NaN for NaN."""
    return math.log(x) if x > 0 else -math.inf if x == 0 else math.nan


def _exp(x):
    """e^x, saturating at inf where math.exp raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _logsumexp(z, axis):
    """log sum e^z along axis for finite z, by scipy.special.logsumexp's steps
    (Blanchard, Higham & Higham 2021): with the m ties at the maximum split
    out, log1p(sum of the other e^(z - max) / m) + log m + max."""
    top = np.max(z, axis=axis, keepdims=True)
    at_top = z == top
    m = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
    terms = np.exp(z - top)
    terms[at_top] = 0.0
    s = np.sum(terms, axis=axis, keepdims=True) / m
    return np.squeeze(np.log1p(s) + np.log(m) + top, axis=axis)


def _ldexp(x, e):
    """2^e x for a real or complex array x, as a new array rounded once and
    saturating at 0 and inf; x itself when e = 0."""
    if not e:
        return x
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return _ldexp(np.ascontiguousarray(x).view(float), e).view(complex)
    if e < 0:  # nothing overflows
        return np.ldexp(x, e)
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)

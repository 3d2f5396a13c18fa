"""Spatial and temporal lattices for one-dimensional monitored dynamics.

Everything downstream lives on a uniform periodic grid of ``n_points``
cells covering ``[-extent/2, extent/2)`` with cell-centered coordinates
q_k = -extent/2 + k*spacing.  Wavefunctions are complex arrays with the
cell-sum normalization  sum_k |psi_k|^2 * spacing = 1,  and density
matrices are (n, n) arrays with  trace = sum_k rho_kk * spacing = 1.
With that convention a pure-state density matrix is the plain outer
product psi psi^dagger and all measure factors are explicit.

Unitary propagation over one step uses the split-operator scheme: half a
step of potential phase, a full kinetic step applied in momentum space
via the FFT, and a second potential half step.  The scheme is exactly
norm preserving and second-order accurate in the step size.  A mass of
``math.inf`` is allowed and turns the kinetic phase off exactly, which
is the natural way to express potential-only (pointer-basis) models.
Engines plan the step once per call and, up to a measured lattice size,
step by products with its dense matrix, which is cheaper there than the FFT.
Above it a density matrix is conjugated, M rho M^dagger, by one 2-D FFT pair
with the phases applied as outer products; this relies on the kinetic phase
being even in k, which k^2 on the FFT-ordered lattice is at every n.  An
averaged engine runs its steps as sweeps of the plan, each N identical steps
with one gain.  A sweep folds the diagonal factors between two transform
pairs (the closing potential phase, the gain and the next opening phase)
into one precomputed product and transforms in place with numpy.fft, so a
step allocates no array; on a small dense lattice a long sweep is one power
of the step's real superoperator instead, squared only until a few dozen
factors remain, which it applies to the state one product at a time.  A
large squaring, and each pass of a sweep's 1-D transforms from 256 points,
runs in fixed bands of at least 128 rows that `_split` hands out to the
calling thread and to the package's one kept pool (`_sweep_pool`, shared
with the windowed sweep's wide slices and the samplers' batches) on every
core the process may use (`_USABLE_CORES`, the package's one thread count),
so the bits do not depend on the thread count.  Every vector or column
block, conditioned or field-sampled, steps through the plan's one column
sweep, `apply`, with a diagonal gain between steps that it forms from the
caller's log gains: it steps between two buffers allocated once per call,
keeps gains and block inside the double range by exact power-of-two shifts
and rescalings, and returns the base-2 exponent it took out for the caller
to carry.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "HamiltonianSpec",
    "ObservableSpec",
    "build_grids",
    "gaussian_packet",
    "norm_sq",
    "pure_density",
    "density_trace",
    "purity",
    "check_density_matrix",
    "unitary_step",
    "short_time_kernel_matrix",
]

# Largest lattice short_time_kernel_matrix serves (the exhaustive path-space
# work it exists for is out of reach above it); engine stepping is not capped.
DENSE_KERNEL_MAX_POINTS = 16
# Largest lattice the engines step by dense matrix products rather than the
# FFT (measured crossover: dense wins at 128 points and loses at 256; only
# M rho M^dagger by the 2-D FFT pair already wins at 128).
_DENSE_STEP_MAX_POINTS = 128
# Largest lattice on which a long run of identical dense steps is taken as one
# power of the step's real n^2 x n^2 superoperator (8 MB a buffer at 32 points)
_POWER_MAX_POINTS = 32
# A power stops squaring once at most this many factors of the power so far
# remain, or n^2/4 on a smaller lattice, and applies them to its two columns
# one product at a time: one more squaring S saves r/2 products p of the r
# left, so it pays while r > 2 S/p, which grows with n^2 until the product
# leaves the cache.  Measured (one BLAS thread, 2-core VM; S on one core | on
# two):
#     n    S                      p         2 S/p      stop
#     4    0.001 ms | inline      1.1 us    2          4
#     8    0.010 ms | inline      2.0 us    10         16
#     16   0.62 ms | 0.37-0.42    12 us     100 | 66   64
#     32   36.6 ms | 18.5-20.5    0.75 ms   98 | 52   64
_POWER_TAIL = 64
# The fewest rows of a band that `_split` hands to a thread (`_bands`): a squaring
# runs in n^2 // _BAND_ROWS row bands and each pass of the FFT sweep in
# n // _BAND_ROWS bands of rows or columns, fixed by the lattice, and a single
# band runs inline (two threads on bands of 80 FFT rows, at n = 160, ran
# slower than one thread on all 160)
_BAND_ROWS = 128
# Rescaling of a column sweep (`_StepPlan.apply`): a check every _CHECK_BITS
# of worst-case movement of the block's largest entry keeps it within
# 2^+-_RANGE_BITS, clear of the subnormals below 2^-1022 and of overflow; a
# slice of gains past 2^+-_SHIFT_BITS (log +-177) is shifted by whole bits
_CHECK_BITS = 480
_RANGE_BITS = 960
_SHIFT_BITS = 256
_LN2 = math.log(2.0)
# the cores this process may run on, the package's one thread count: the FFT
# sweep, the power's squarings, the windowed sweep's wide slices and the
# samplers' batches read it at every call
_USABLE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic position lattice.

    extent : total length L of the periodic box
    n_points : number of cells (>= 2)
    """

    extent: float
    n_points: int

    def __post_init__(self):
        if not (isinstance(self.n_points, (int, np.integer)) and self.n_points >= 2):
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points!r}")
        if not (math.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be finite and positive, got {self.extent!r}")

    @property
    def spacing(self) -> float:
        return self.extent / self.n_points

    @property
    def coords(self) -> np.ndarray:
        """Cell-centered coordinates, q_k = -L/2 + k*spacing (length n_points)."""
        return -0.5 * self.extent + self.spacing * np.arange(self.n_points)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time lattice: N steps of size dt covering [0, duration]."""

    duration: float
    n_steps: int

    def __post_init__(self):
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")

    @property
    def dt(self) -> float:
        return self.duration / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """Slice times t_0 .. t_N (length n_steps + 1)."""
        return self.dt * np.arange(self.n_steps + 1)


def build_grids(extent, n_points, duration, n_steps):
    """Validated grid construction for configuration-driven runs.

    Beyond the dataclass invariants this requires ``n_points`` to be a
    power of two, so the FFT stepping path is always in its fast regime.
    Tests and library callers that need odd lattices (e.g. exhaustive
    path enumeration) can instantiate :class:`SpatialGrid` directly.
    """
    n_points = int(n_points)
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise ValueError(f"n_points must be a power of two >= 2, got {n_points}")
    return SpatialGrid(float(extent), n_points), TimeGrid(float(duration), int(n_steps))


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = p^2/(2 mass) + V(q) on a :class:`SpatialGrid`.

    ``potential`` holds V sampled at the grid coordinates.  ``mass`` may be
    ``math.inf`` for potential-only dynamics.  ``hbar`` is carried here so a
    single object fixes the unit system of the dynamical phase.
    """

    mass: float
    potential: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.potential, dtype=float)
        object.__setattr__(self, "potential", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("potential must be a 1-D array matching the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential contains non-finite entries")
        if not (self.mass > 0):  # inf passes, nan/0/negative fail
            raise ValueError(f"mass must be positive (inf allowed), got {self.mass!r}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be finite and positive, got {self.hbar!r}")

    @classmethod
    def free(cls, grid: SpatialGrid, mass=1.0, hbar=1.0):
        return cls(mass=mass, potential=np.zeros(grid.n_points), hbar=hbar)

    @classmethod
    def harmonic(cls, grid: SpatialGrid, omega, mass=1.0, hbar=1.0):
        q = grid.coords
        return cls(mass=mass, potential=0.5 * mass * omega**2 * q**2, hbar=hbar)

    @classmethod
    def from_table(cls, grid: SpatialGrid, path, mass=1.0, hbar=1.0):
        """Interpolate a two-column (q, V) text table onto the grid."""
        tab = np.loadtxt(path)
        if tab.ndim != 2 or tab.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (q, V)")
        q_tab, v_tab = tab[:, 0], tab[:, 1]
        order = np.argsort(q_tab)
        v = np.interp(grid.coords, q_tab[order], v_tab[order])
        return cls(mass=mass, potential=v, hbar=hbar)


@dataclass(frozen=True)
class ObservableSpec:
    """A diagonal (multiplicative) observable: its values on the grid."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", a)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("observable values must be a 1-D array matching the grid")
        if not np.all(np.isfinite(a)):
            raise ValueError("observable values contain non-finite entries")

    @classmethod
    def position(cls, grid: SpatialGrid):
        return cls(values=grid.coords)


# ----------------------------------------------------------------------
# states


def gaussian_packet(grid, center=0.0, width=1.0, momentum=0.0, hbar=1.0):
    """Normalized Gaussian wavepacket.

    ``width`` is the position-spread sigma of |psi|^2, i.e.
    |psi(q)|^2 ~ exp(-(q-center)^2 / (2 width^2));  ``momentum`` is the mean
    momentum <p> (the phase factor is exp(i <p> q / hbar)).
    """
    q = grid.coords
    psi = np.exp(-((q - center) ** 2) / (4.0 * width**2) + 1j * momentum * q / hbar)
    return normalized(psi, grid)


def norm_sq(psi, grid):
    """<psi|psi> = sum |psi_k|^2 * spacing."""
    return float(np.sum(np.abs(psi) ** 2) * grid.spacing)


def normalized(psi, grid):
    n2 = norm_sq(psi, grid)
    if n2 <= 0:
        raise ValueError("cannot normalize a zero state")
    return np.asarray(psi, dtype=complex) / math.sqrt(n2)


def pure_density(psi):
    """rho = psi psi^dagger (trace equals the state's squared norm)."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def density_trace(rho, grid):
    return complex(np.trace(rho) * grid.spacing).real


def purity(rho, grid):
    """tr(rho^2) with the lattice measure, = 1 for a normalized pure state."""
    return float(np.real(np.sum(rho * rho.T)) * grid.spacing**2)


def check_density_matrix(rho, grid):
    """Diagnostics for a density matrix: hermiticity, trace, positivity.

    Returns a dict with ``herm_error`` (sup-norm of rho - rho^dagger),
    ``trace`` and ``trace_error`` (distance from 1) and ``min_eigenvalue``
    (of the hermitized, measure-weighted matrix rho*spacing, whose
    eigenvalues sum to the trace), each for the caller to bound.
    """
    rho = np.asarray(rho)
    herm_error = float(np.max(np.abs(rho - rho.conj().T)))
    tr = density_trace(rho, grid)
    sym = 0.5 * (rho + rho.conj().T) * grid.spacing
    min_eig = float(np.linalg.eigvalsh(sym).min())
    return {
        "herm_error": herm_error,
        "trace": tr,
        "trace_error": abs(tr - 1.0),
        "min_eigenvalue": min_eig,
    }


# ----------------------------------------------------------------------
# propagation


class _SplitStep:
    """The split-operator step's phases, computed once: `unitary_step`'s plan,
    which steps one vector and so builds no dense M."""

    def __init__(self, ham, grid, dt):
        self.n = grid.n_points
        self.half_v = np.exp(-0.5j * ham.potential * dt / ham.hbar)[:, None]
        # FFT-ordered angular wavenumbers (p = hbar k)
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)[:, None]
        self.kinetic = np.ones_like(k, dtype=complex) if math.isinf(ham.mass) else \
            np.exp(-1j * ham.hbar * k**2 * dt / (2.0 * ham.mass))

    def fft_step(self, block):
        """The split-operator step of a vector or of every column of a block."""
        out = self.half_v * np.reshape(block, (self.n, -1))
        out = np.fft.ifft(self.kinetic * np.fft.fft(out, axis=0), axis=0)
        return (self.half_v * out).reshape(np.shape(block))


class _StepPlan(_SplitStep):
    """The one-step propagator M, its phases computed once per engine call.

    ``dense`` (lattices up to ``_DENSE_STEP_MAX_POINTS``): every step is one
    product with M, built with the plan (the batches of `_batch_map` share
    it and only read it); otherwise every step runs the FFT, and a
    conjugation is one 2-D transform pair,

        M rho M^dagger = V2 . ifft2(K2 . fft2(V2 . rho)),

    with ``.`` the elementwise product, V2 = v v^dagger and K2 = k k^dagger
    the outer products of the half-potential and kinetic phases.  The
    right-hand FFT of rho M^dagger is a transform of the conjugate
    frequency -k, so the identity needs the kinetic phase to be even in k.
    It is: k^2 of the FFT-ordered wavenumbers is exactly even at every n,
    the self-paired Nyquist bin of an even lattice included.  A plan for
    -dt has exactly the conjugate phases, so it is M^dagger.

    `sweep` is the one stepping kernel of the averaged engines: N identical
    steps X -> g . (W X W^dagger), W = M or, ``twice``, W = M M (the engines
    sweep with no gain for one step only).  On the FFT it runs in the frame
    s = V2 . x: between two transform pairs the closing V2 of one
    conjugation, the gain and the opening V2 of the next fold into one
    product V2 . g . V2, formed once per call if a step uses it (inside
    W = M M: V2 . V2 by its column and row factors), and V2 then g close the
    last pair.  A pair is numpy.fft's 1-D transforms, each written in place
    (``out=``), with the ifft2's 1/n^2 folded into K2, and the products are
    in place, so no step allocates.  A step is two passes, each one `_split`
    over ``n // _BAND_ROWS`` fixed bands (two at n = 256, one, inline,
    below) on ``_USABLE_CORES`` threads, read at every call: a row pass
    transforms its band of rows of s forward, takes K2 and transforms them
    back; a column pass copies its band of columns of s into rows of a
    second buffer t, transforms them back (closing the conjugation), takes
    the product between two pairs and transforms them forward (opening the
    next), and copies them back.  As rows of t the column transforms and
    products run on contiguous memory: the products on a band of columns
    in place ran four times slower.  Every transform and product touches
    only its own band, so the sweep is bit for bit that of one thread
    (at n=256 on one thread about 3% slower a step than scipy.fft's 2-D
    pair over the longest series, 2.21 against 2.15 ms, the copies about
    0.24 ms of it; 0.49 and 0.73 ms at n=160 and 192, in one band; two
    threads: `BENCH_numpy_fft.json`).  `fft_step`, the column sweep's
    numpy.fft branch, is not banded: above the crossover it runs inside
    `_batch_map`'s batches, one per core.  The crossover stays one rule at
    128 for both sweeps: the 2-D pair beats dense there (0.32 against
    0.51 ms a step), but dense still wins on vectors and column blocks.
    Dense, a step is W x, then (W x) W^dagger, then the gain, into two
    buffers per call, with the cached M M (`squared`) as W when ``twice``.

    N dense steps are one power when n <= ``_POWER_MAX_POINTS``, N >= n^3
    and the gain is real and symmetric (`_takes_power`): the ideal sweeps
    at fine dt.  On the Hermitian coordinates h = vec(Re X + Im X),
    one-to-one between Hermitian and real n x n matrices, the step
    X -> g . (W X W^dagger) is the real n^2 x n^2 matrix
    Q = g[:, None] . (Re K + (Im K) Pi), with K = W (x) conj(W) on the
    row-major vec and Pi the transpose permutation; any other X runs as its
    two Hermitian parts.  Q^N takes about log2(N / ``_POWER_TAIL``)
    squarings, real n^2 x n^2 GEMMs that BLAS runs near its peak, where a
    step's two n x n complex GEMMs run at a small fraction of it, and at
    most ``_POWER_TAIL`` products with h; from n = 16 each squaring runs in
    row bands on every usable core.  Measured on the adjoint sweep (power
    against stepping, one BLAS thread, both cores of a 2-core VM):

        n    power already faster at    stepping still faster at
        4    N=32    (0.22 vs 0.26 ms)  N=16   (0.25 vs 0.17 ms)
        8    N=64    (0.32 vs 0.48 ms)  N=32   (0.30 vs 0.27 ms)
        16   N=512   (3.9 vs 4.6 ms)    N=256  (3.9 vs 2.4 ms)
        32   N=16384 (321 vs 367 ms)    N=8192 (282 vs 197 ms)

    On one core power first wins at N=1024 for n=16 (5.4 vs 8.6 ms) and at
    N=32768 for n=32 (462 vs 869 ms).  The rule stays N >= n^3, which two
    cores now beat from n^3/8 at n=16 and from n^3/2 at n=32.

    Q is a 2-norm contraction (h keeps the Frobenius norm of X), so the
    squarings are stable, but their rounding is coherent: the power drifts
    from stepping by about N eps, 4e-12 relative at n=16, N=8192, where
    stepping's own error against a long-double reference is 2e-14.

    `apply` is the one stepping kernel of vectors and column blocks, the
    gains unfolded: a fold pays only against (n, n) passes.  It steps
    between two buffers, M by one BLAS call with ``out=`` and the gain in
    place, so no step allocates on the dense branch.  It forms the gains
    from log gains, shifting a slice past 2^+-``_SHIFT_BITS`` by whole bits;
    from a chunk's largest log modulus it knows how many steps may pass
    before the block's largest entry could move ``_CHECK_BITS``, checks
    that entry that often (never per step, unless one step alone may move
    that far), and rescales by a power of two only when it has left a
    window that keeps the next stretch inside 2^+-``_RANGE_BITS``.  It
    returns one exponent, which the callers carry: into ``log_norm_sq``
    (the ideal selective sweep), a batch's exponent (the field samples) or
    a record's weight (the ideal Monte-Carlo unitarity check).
    """

    def __init__(self, ham, grid, dt):
        super().__init__(ham, grid, dt)
        self.dense = self.n <= _DENSE_STEP_MAX_POINTS
        if self.dense:
            self.matrix  # built now: the plan's users only read it

    @cached_property
    def matrix(self):
        """Dense M: column k is the split-operator image of basis vector k;
        an FFT plan builds it on first use (a windowed kernel's)."""
        return self.fft_step(np.eye(self.n, dtype=complex))

    @cached_property
    def matrix_h(self):  # M^dagger, contiguous
        return np.ascontiguousarray(self.matrix.conj().T)

    def apply(self, x, log_gains, observe=None):
        """g_N . M (... g_1 . M (g_0 . x)) over the columns of an (n, ...) x, for
        the gains g_j = exp(r_j + i p_j) of slices 0 .. N, each broadcasting
        against x.  ``log_gains`` yields chunks of consecutive slices as pairs
        (r, p) of (L, ...) arrays, the log moduli and the phases, one of them
        possibly None (zero).  Returns (y, k), y a new array and y 2^k the
        product, k the base-2 exponent the shifts and rescalings took out (y's
        largest part then in [1/2, 1)); x and the chunks are never written.
        ``observe(y, k)``, if given, sees the block after each product with M,
        before its gain, as y 2^k with y the working buffer (read it, do not
        keep it).

        A slice whose largest r passes 2^+-``_SHIFT_BITS`` is first shifted by
        it, in whole bits.  A chunk's gains fill one reused complex buffer: a
        real exp into its real part without phases (numpy would cast a real
        gain at every step), else one complex exp of i p + r.  The block steps
        between two buffers, M by `np.dot` (a vector) or `np.matmul` (a block)
        into the other, the gain multiplied in place; the FFT branch steps by
        `fft_step`.  Every column of M x keeps its 2-norm, so a step moves the
        block's largest entry by at most b + log2(n)/2 bits either way, b the
        chunk's largest |r| in bits.  Before the first step, after every
        ``_CHECK_BITS`` of that worst case and after the last step, one check
        reads the largest entry and, when it lies outside 2^+-(``_RANGE_BITS``
        - the worst case to the next check), scales the block by the power of
        two that brings it into [1/2, 1): exact, so a run that never shifts or
        rescales is bit for bit that of an unscaled sweep, and no underflow or
        overflow hides between two checks.  One exponent serves the whole
        block: a column far below the block's largest can still underflow.
        """
        x, cur, buffer = np.asarray(x, dtype=complex), None, None
        k, room = 0, -math.inf  # room: the worst-case bits left to the next check
        for r, p in log_gains:
            bits = 0.0 if r is None else max(r.max(), -r.min()) / _LN2  # the largest |r|
            top = np.zeros(1)  # each slice's shift, in bits
            if bits > _SHIFT_BITS:  # then each slice's largest may pass: shift by it
                top = np.round(r.reshape(len(r), -1).max(axis=1) / _LN2)
                top[np.abs(top) <= _SHIFT_BITS] = 0.0
                r, k = r - (top * _LN2).reshape((-1,) + (1,) * (r.ndim - 1)), k + int(top.sum())
                bits = max(r.max(), -r.min()) / _LN2
            shape = np.broadcast_shapes(np.shape(r), np.shape(p))
            if buffer is None or buffer.shape[1:] != shape[1:] or len(buffer) < shape[0]:
                buffer = np.zeros(shape, complex)
            gains = buffer[:shape[0]]
            if p is None:
                gains.imag = 0.0
                np.exp(r, out=gains.real)
            else:
                np.multiply(p, 1j, out=gains)
                gains += 0.0 if r is None else r
                np.exp(gains, out=gains)
            move = bits + 0.5 * math.log2(self.n)  # worst-case bits a step moves the block
            limit = _RANGE_BITS - max(_CHECK_BITS, move)
            if cur is None:  # slice 0, x first: numpy rounds a complex product by operand order
                cur, nxt = np.empty((2,) + np.broadcast_shapes(x.shape, gains[0].shape), complex)
                np.multiply(x, gains[0], out=cur)
                # the buffers as the product's operands: vectors, or (n, columns) views
                dot, cur_2d, nxt_2d = (np.dot, cur, nxt) if cur.ndim == 1 else \
                    (np.matmul, cur.reshape(self.n, -1), nxt.reshape(self.n, -1))
                gains = gains[1:]
            if observe is not None:  # at each step, the shifts of the gains the block lacks
                owed = np.cumsum(np.broadcast_to(top, shape[:1])[::-1])[::-1]
                owed = iter(owed[shape[0] - len(gains):].astype(int).tolist())
            for g in gains:
                room -= move
                if room < 0:
                    k, room = k + _rescale(cur, limit), _CHECK_BITS - move
                if self.dense:
                    dot(self.matrix, cur_2d, out=nxt_2d)
                    cur, nxt, cur_2d, nxt_2d = nxt, cur, nxt_2d, cur_2d
                else:
                    cur = self.fft_step(cur)
                if observe is not None:
                    observe(cur, k - next(owed))
                cur *= g
        return cur, k + _rescale(cur, -1 if k else limit)

    @cached_property
    def kinetic_2d(self):  # K2 = k k^dagger, with the inverse pair's 1/n^2 folded in
        return self.kinetic * (self.kinetic.conj().T / self.n**2)

    @cached_property
    def squared(self):
        """(M M, (M M)^dagger) of the dense plan.  The product is rounded once
        from long double: a sweep repeats its rounding at every step, which
        from a double product drifts by about N eps from conjugating by M twice
        (2.6e-13 against 5.0e-15 relative to a long-double reference at n=64,
        N=800, harmonic)."""
        m = self.matrix.astype(np.clongdouble)
        square = (m @ m).astype(complex)
        return square, np.ascontiguousarray(square.conj().T)

    def sweep(self, x, gain, n_steps, twice=False):
        """(X -> g . (W X W^dagger))^N applied to the (n, n) x, as a new array, for
        N = n_steps, the gain g (None: no gain) and W = M, or W = M M when
        ``twice``; x is never written, and N = 0 returns a copy."""
        if self.dense:
            m, m_h = self.squared if twice else (self.matrix, self.matrix_h)
            if self._takes_power(n_steps, gain):
                return self._power(m, gain, n_steps, x)
            out = np.array(x, dtype=complex)
            tmp = np.empty_like(out)
            for _ in range(n_steps):
                np.matmul(m, out, out=tmp)
                np.matmul(tmp, m_h, out=out)
                if gain is not None:
                    out *= gain
            return out
        if not n_steps:
            return np.array(x, dtype=complex)
        # the column passes work on rows of t = s^T, so every factor is
        # transposed: V2^T = v v_h with the row v = half_v^T, the column v_h
        v, v_h = self.half_v.T, self.half_v.conj()
        v_sq, v_h_sq = v * v, v_h * v_h
        opening, inner = (v, v_h), (v_sq, v_h_sq)  # V2, and V2 . V2 inside W = M M
        closing = opening if gain is None else opening + (gain.T,)
        folded = None  # V2 . g . V2, the product between two steps
        if n_steps > 1:
            folded = v_sq * v_h_sq
            if gain is not None:
                folded *= gain.T
        k2 = self.kinetic_2d
        s, t = np.empty((self.n, self.n), complex), np.empty((self.n, self.n), complex)
        bands = _bands(self.n)

        def rows(b):  # a conjugation's row transforms and K2, on a band of rows of s
            band = s[b]
            np.fft.fft(band, axis=1, out=band)
            band *= k2[b]
            np.fft.ifft(band, axis=1, out=band, norm="forward")  # K2 holds the 1/n^2

        def columns(b, factors, first=False, last=False):
            # a band of columns of s (of x, first) as rows of t: the inverse
            # column transforms closing a conjugation, the factors, the forward
            # ones opening the next
            band = t[b]
            np.copyto(band, (x if first else s)[:, b].T)
            if not first:
                np.fft.ifft(band, axis=1, out=band, norm="forward")
            for f in factors:
                band *= f if len(f) == 1 else f[b]
            if not last:
                np.fft.fft(band, axis=1, out=band)
            np.copyto(s[:, b], band.T)

        _split(lambda b: columns(b, opening, first=True), bands, _USABLE_CORES)
        for c in range(1, n_steps * (1 + twice)):
            _split(rows, bands, _USABLE_CORES)
            between = inner if twice and c % 2 else (folded,)
            _split(lambda b: columns(b, between), bands, _USABLE_CORES)
        _split(rows, bands, _USABLE_CORES)
        _split(lambda b: columns(b, closing, last=True), bands, _USABLE_CORES)
        return s

    def _takes_power(self, n_steps, g):
        """Whether n_steps identical dense steps, each followed by the gain g, are
        taken as one power: on lattices up to ``_POWER_MAX_POINTS``, for at least
        n^3 steps, and for a real symmetric (n, n) gain, so that the step maps
        Hermitian matrices to Hermitian matrices; a gainless sweep steps."""
        n = self.n
        return n <= _POWER_MAX_POINTS and n_steps >= n**3 and np.isrealobj(g) \
            and np.shape(g) == (n, n) and np.array_equal(g, g.T)

    def _power(self, m, g, k, x):
        """(X -> g . (m X m^dagger))^k applied to x, as a new array: the k-th
        power of the step's real superoperator Q on Hermitian coordinates.  x
        is carried as its Hermitian parts (x + x^dagger)/2 and
        (x - x^dagger)/2i, two columns of h.  Q is squared into two buffers
        while more than ``_POWER_TAIL`` (at most n^2/4) factors of the power
        so far remain, and the rest are applied to h one product at a time.  A squaring runs
        in row bands of at least ``_BAND_ROWS`` rows, each its own product,
        through `_split` on ``_USABLE_CORES`` threads: the bands do not
        depend on the thread count, so neither do the bits, and a squaring
        below 256 rows (n < 16), where a second thread gains too little, is
        one product."""
        n = self.n
        nn = n * n
        re, im = m.real, m.imag
        q = np.kron(re, re)
        q += np.kron(im, im)  # Re K, K = m (x) conj(m) on the row-major vec
        im_k = np.kron(im, re)
        im_k -= np.kron(re, im)
        q3 = q.reshape(nn, n, n)
        q3 += im_k.reshape(nn, n, n).transpose(0, 2, 1)  # + Im K . Pi, Pi the transpose
        del im_k  # before the squaring buffer: three n^4 arrays at most
        q *= g.reshape(nn, 1)
        parts = np.stack([x + x.conj().T, (x - x.conj().T) * -1j]) * 0.5
        h = (parts.real + parts.imag).reshape(2, nn).T
        buf = np.empty_like(q)
        bands = _bands(nn)

        def square(rows):
            np.matmul(q[rows], q, out=buf[rows])

        while k > min(_POWER_TAIL, nn // 4):
            if k & 1:
                h = q @ h
            k >>= 1
            _split(square, bands, _USABLE_CORES)
            q, buf = buf, q
        for _ in range(k):
            h = q @ h
        h = h.T.reshape(2, n, n)
        h_t = h.transpose(0, 2, 1)
        parts = 0.5 * ((h + h_t) + 1j * (h - h_t))  # Re X = sym(h), Im X = antisym(h)
        return parts[0] + 1j * parts[1]


def _bands(rows):
    """``rows`` rows cut into rows // ``_BAND_ROWS`` contiguous bands (at least
    one), as slices: fixed by the size alone, never by the thread count."""
    count = max(1, rows // _BAND_ROWS)
    return [slice(rows * b // count, rows * (b + 1) // count) for b in range(count)]


def _split(fn, parts, workers):
    """fn(part) for every part, on up to ``workers`` threads: the parts split
    into as many contiguous runs, the caller runs the first and
    `_sweep_pool`'s threads the others, each in a copy of the caller's context
    (numpy's errstate is context-local).  The caller returns once every run
    is done, even past an error.  A single part or worker runs inline and
    opens no pool, as does a call from a pool thread (from a sampler batch
    of `selective._batch_map`), which could wait on itself.  Each fn(part)
    must write only its own part of the result, so the bits do not depend
    on the thread count."""
    runs = min(workers, len(parts))
    if runs < 2 or threading.current_thread().name.startswith(_POOL_PREFIX):
        for part in parts:
            fn(part)
        return
    ends = [len(parts) * r // runs for r in range(runs + 1)]

    def run(chunk):
        for part in chunk:
            fn(part)

    pool = _sweep_pool(workers - 1)
    futures = [pool.submit(contextvars.copy_context().run, run, parts[a:b])
               for a, b in zip(ends[1:], ends[2:])]
    try:
        run(parts[:ends[1]])
    finally:  # every run is done before the caller reads the result
        for future in futures:
            future.exception()
    for future in futures:
        future.result()


_kept_pool = None  # `_sweep_pool`'s threads, once a call has needed them
_pool_lock = threading.Lock()  # two calls that open it at once open one pool
_POOL_PREFIX = "corridors-split"  # the names of the pool's threads


def _sweep_pool(threads):
    """The package's one kept pool: ``threads`` threads beside the caller for
    `_split`'s parts and `selective._batch_map`'s batches, opened on first
    need and kept for the process (a pool per call costs up to 2.4 ms)."""
    global _kept_pool
    with _pool_lock:
        if _kept_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _kept_pool = ThreadPoolExecutor(threads, thread_name_prefix=_POOL_PREFIX)
        return _kept_pool


def _forget_sweep_pool():
    """After a fork: the child has none of the parent's threads, so its next
    split opens a pool of its own (and a lock held by one of them is never
    released)."""
    global _kept_pool, _pool_lock
    _kept_pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_sweep_pool)


def _rescale(block, limit):
    """Scale the C-contiguous complex ``block`` in place by 2^-e when |e| > limit,
    e the binary exponent of its largest real or imaginary part, which then lies
    in [1/2, 1); returns the exponent taken out, e or 0 (always 0 for a zero or
    non-finite block)."""
    parts = block.view(float)
    e = math.frexp(max(parts.max(), -parts.min()))[1]
    if e and abs(e) > limit:
        np.ldexp(parts, -e, out=parts)
        return e
    return 0


def unitary_step(psi, ham, grid, dt):
    """One split-operator step of exp(-i H dt / hbar) applied to psi."""
    return _SplitStep(ham, grid, dt).fft_step(psi)


def short_time_kernel_matrix(ham, grid, dt):
    """The one-step propagator as a dense (n, n) matrix.

    Matches :func:`unitary_step` exactly (column k is the image of the
    k-th basis vector).  Refuses grids larger than
    ``DENSE_KERNEL_MAX_POINTS``: the kernel is handed out for exhaustive
    path-space work, which small lattices only can afford.
    """
    if grid.n_points > DENSE_KERNEL_MAX_POINTS:
        raise ValueError(
            f"dense kernels are capped at n_points <= {DENSE_KERNEL_MAX_POINTS} "
            f"(got {grid.n_points}); use unitary_step for large grids"
        )
    return _StepPlan(ham, grid, dt).matrix


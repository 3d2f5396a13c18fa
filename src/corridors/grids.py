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
being even in k, which k^2 on the FFT-ordered lattice is at every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "HamiltonianSpec",
    "ObservableSpec",
    "build_grids",
    "gaussian_packet",
    "position_state",
    "norm_sq",
    "normalized",
    "pure_density",
    "density_trace",
    "purity",
    "check_density_matrix",
    "angular_wavenumbers",
    "unitary_step",
    "short_time_kernel_matrix",
    "dense_hamiltonian",
]

# Largest lattice short_time_kernel_matrix serves (the exhaustive path-space
# work it exists for is out of reach above it); engine stepping is not capped.
DENSE_KERNEL_MAX_POINTS = 16
# Largest lattice the engines step by dense matrix products rather than the
# FFT (measured crossover: dense wins at 128 points and loses at 256; only
# M rho M^dagger by the 2-D FFT pair already wins at 128).
_DENSE_STEP_MAX_POINTS = 128


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
    def from_potential(cls, grid: SpatialGrid, v, mass=1.0, hbar=1.0):
        """Build from a callable v(q) or an array already on the grid."""
        if callable(v):
            v = v(grid.coords)
        v = np.asarray(v, dtype=float)
        if v.shape != (grid.n_points,):
            raise ValueError(f"potential shape {v.shape} does not match grid ({grid.n_points},)")
        return cls(mass=mass, potential=v, hbar=hbar)

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

    @classmethod
    def from_callable(cls, grid: SpatialGrid, f):
        return cls(values=np.asarray(f(grid.coords), dtype=float))


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


def position_state(grid, k):
    """Unit-norm state concentrated in cell k (lattice delta)."""
    psi = np.zeros(grid.n_points, dtype=complex)
    psi[k] = 1.0 / math.sqrt(grid.spacing)
    return psi


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


def check_density_matrix(rho, grid, tol=1e-10):
    """Diagnostics for a density matrix: hermiticity, trace, positivity.

    Returns a dict with ``herm_error`` (sup-norm of rho - rho^dagger),
    ``trace`` and ``trace_error`` (distance from 1), ``min_eigenvalue``
    (of the hermitized, measure-weighted matrix rho*spacing, whose
    eigenvalues sum to the trace) and the boolean ``ok`` verdict at
    tolerance ``tol``.
    """
    rho = np.asarray(rho)
    herm_error = float(np.max(np.abs(rho - rho.conj().T)))
    tr = density_trace(rho, grid)
    sym = 0.5 * (rho + rho.conj().T) * grid.spacing
    min_eig = float(np.linalg.eigvalsh(sym).min())
    ok = herm_error <= tol and abs(tr - 1.0) <= tol and min_eig >= -tol
    return {
        "herm_error": herm_error,
        "trace": tr,
        "trace_error": abs(tr - 1.0),
        "min_eigenvalue": min_eig,
        "ok": bool(ok),
    }


# ----------------------------------------------------------------------
# propagation


def angular_wavenumbers(grid):
    """FFT-ordered angular wavenumbers k (so that p = hbar k)."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)


class _StepPlan:
    """The one-step propagator M, its phases computed once per engine call.

    ``dense`` (lattices up to ``_DENSE_STEP_MAX_POINTS``): every step is one
    product with M, built on first use; otherwise every step runs the FFT,
    and a conjugation is one 2-D transform pair,

        M rho M^dagger = V2 . ifft2(K2 . fft2(V2 . rho)),

    with ``.`` the elementwise product, V2 = v v^dagger and K2 = k k^dagger
    the outer products of the half-potential and kinetic phases.  The
    right-hand FFT of rho M^dagger is a transform of the conjugate
    frequency -k, so the identity needs the kinetic phase to be even in k.
    It is: k^2 of the FFT-ordered wavenumbers is exactly even at every n,
    the self-paired Nyquist bin of an even lattice included.  A plan for
    -dt has exactly the conjugate phases, so it is M^dagger.
    """

    def __init__(self, ham, grid, dt):
        self.n = grid.n_points
        self.half_v = np.exp(-0.5j * ham.potential * dt / ham.hbar)[:, None]
        k = angular_wavenumbers(grid)[:, None]
        self.kinetic = np.ones_like(k, dtype=complex) if math.isinf(ham.mass) else \
            np.exp(-1j * ham.hbar * k**2 * dt / (2.0 * ham.mass))
        self.dense = self.n <= _DENSE_STEP_MAX_POINTS

    def fft_step(self, block):
        """The split-operator step of a vector or of every column of a block."""
        out = self.half_v * np.reshape(block, (self.n, -1))
        out = np.fft.ifft(self.kinetic * np.fft.fft(out, axis=0), axis=0)
        return (self.half_v * out).reshape(np.shape(block))

    @cached_property
    def matrix(self):
        """Dense M: column k is the split-operator image of basis vector k."""
        return self.fft_step(np.eye(self.n, dtype=complex))

    @cached_property
    def matrix_h(self):  # M^dagger, contiguous
        return np.ascontiguousarray(self.matrix.conj().T)

    def step(self, block):
        """M applied to a vector or to an (n, m) column block."""
        return self.matrix @ block if self.dense else self.fft_step(block)

    @cached_property
    def outer_phases(self):  # (V2, K2) of the 2-D conjugation
        return self.half_v * self.half_v.conj().T, self.kinetic * self.kinetic.conj().T

    def conjugate(self, rho):
        """M rho M^dagger."""
        if self.dense:
            return self.matrix @ rho @ self.matrix_h
        v2, k2 = self.outer_phases
        out = scipy.fft.fft2(v2 * rho, overwrite_x=True)
        out *= k2
        out = scipy.fft.ifft2(out, overwrite_x=True)
        out *= v2
        return out


def unitary_step(psi, ham, grid, dt):
    """One split-operator step of exp(-i H dt / hbar) applied to psi."""
    return _StepPlan(ham, grid, dt).fft_step(psi)


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

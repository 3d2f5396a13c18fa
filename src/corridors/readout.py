"""Measurement records, Gaussian corridor weights, and resolution windows.

A continuous monitoring of an observable A over [0, T] with N steps is
represented by a *readout*: N real values a_0 .. a_{N-1}, one per step.
The probability weight a given system path A_0 .. A_N receives relative
to the record is the discrete Gaussian corridor functional

    w[A; a] = exp( -kappa * dt * sum_{i<N} (A_i - a_i)^2 )

(the left-rule discretization: slice i is paired with step i, so the
weight of step i multiplies the state *before* the step's kernel; this
is the quadrature for which the sum over paths is exactly
probability-conserving).  kappa has dimensions 1/(time * A^2); a device
that pins A to within +-Delta_a over a run of duration T corresponds to
kappa = 1 / (T * Delta_a^2).

Finite time resolution enters through a *form factor*: a normalized
profile Pi(s) through which the instrument sees the observable,

    Abar(t) = integral Pi(t - t') A(t') dt',

so the corridor weight compares the record against the smoothed path
Abar instead of A.  On the lattice the smoothing is a row-stochastic
(N, N+1) window matrix built from the profile; a delta profile makes it
an identity block, and every downstream consumer treats that case as
bit-for-bit identical to ideal resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeasurementSpec",
    "FormFactor",
    "ReadoutSample",
    "readout_measure_factor",
    "coarse_grain",
    "weight_ideal",
    "weight_coarse",
    "sample_readout",
]

# profiles with tails (gaussian) are truncated to zero beyond this many
# widths; this is what gives window matrices a finite band and the
# windowed engines a finite working set
TRUNCATION_WIDTHS = 5.0


@dataclass(frozen=True)
class MeasurementSpec:
    """Monitoring strength.  kappa > 0, units 1/(time * A^2)."""

    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa!r}")

    @classmethod
    def from_error(cls, error_width, duration):
        """Strength of a device that resolves A to +-error_width over duration."""
        if not (error_width > 0 and duration > 0):
            raise ValueError("error_width and duration must be positive")
        return cls(kappa=1.0 / (duration * error_width**2))

    def error_width(self, duration):
        """The +-Delta_a this strength corresponds to over the given duration."""
        return 1.0 / math.sqrt(self.kappa * duration)


def readout_measure_factor(kappa, dt):
    """Per-step readout measure normalization c = sqrt(2 kappa dt / pi).

    With one factor of c per step, the readout probability density
    ||psi_T||^2 * c^N integrates to 1 over records exactly when the
    conditioned dynamics conserves probability in the aggregate.
    """
    return math.sqrt(2.0 * kappa * dt / math.pi)


# ----------------------------------------------------------------------
# form factors / resolution windows


@dataclass(frozen=True)
class FormFactor:
    """Instrument time-resolution profile Pi(s).

    kind is one of:

    - ``"delta"``      — ideal resolution; windows are identity blocks.
    - ``"gaussian"``   — Pi(s) = exp(-s^2/(2 tau^2)) / (tau sqrt(2 pi)),
                         truncated to zero beyond TRUNCATION_WIDTHS * tau.
    - ``"tabulated"``  — Pi interpolated from a sampled (lag, value) table,
                         zero outside the tabulated support, rescaled on
                         construction so the net area is 1.

    ``tau`` is the profile's characteristic width: the Gaussian sigma, the
    absolute-value-weighted rms lag for tables, and 0 for delta.
    """

    kind: str
    tau: float = 0.0
    lags: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "gaussian", "tabulated"):
            raise ValueError(f"unknown form factor kind {self.kind!r}")
        if self.kind == "gaussian" and not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"gaussian form factor needs tau > 0, got {self.tau!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def delta(cls):
        return cls(kind="delta", tau=0.0)

    @classmethod
    def gaussian(cls, tau):
        return cls(kind="gaussian", tau=float(tau))

    @classmethod
    def from_arrays(cls, lags, values):
        lags = np.asarray(lags, dtype=float)
        values = np.asarray(values, dtype=float)
        if lags.ndim != 1 or lags.shape != values.shape or lags.size < 2:
            raise ValueError("need matching 1-D lag and value arrays (>= 2 samples)")
        if not (np.all(np.isfinite(lags)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated form factor contains non-finite entries")
        if np.any(np.diff(lags) <= 0):
            raise ValueError("lags must be strictly increasing")
        area = np.trapezoid(values, lags)
        if abs(area) < 1e-300:
            raise ValueError("tabulated profile has zero net area; cannot normalize")
        values = values / area
        mass = np.trapezoid(np.abs(values), lags)
        tau = math.sqrt(np.trapezoid(lags**2 * np.abs(values), lags) / mass)
        return cls(kind="tabulated", tau=tau, lags=lags, values=values)

    @classmethod
    def from_table(cls, path):
        """Load a two-column (lag, value) text table."""
        tab = np.loadtxt(path)
        if tab.ndim != 2 or tab.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (lag, value)")
        return cls.from_arrays(tab[:, 0], tab[:, 1])

    # -- profile --------------------------------------------------------

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"

    @property
    def support(self) -> float:
        """Half-width of the interval outside which the profile is zero."""
        if self.kind == "gaussian":
            return TRUNCATION_WIDTHS * self.tau
        if self.kind == "tabulated":
            return float(max(abs(self.lags[0]), abs(self.lags[-1])))
        return 0.0

    def density(self, s):
        """Pi(s), vectorized.  Undefined for the delta kind."""
        s = np.asarray(s, dtype=float)
        if self.kind == "gaussian":
            out = np.exp(-(s**2) / (2.0 * self.tau**2)) / (self.tau * math.sqrt(2.0 * math.pi))
            return np.where(np.abs(s) > self.support, 0.0, out)
        if self.kind == "tabulated":
            return np.interp(s, self.lags, self.values, left=0.0, right=0.0)
        raise ValueError("delta form factor has no pointwise density")

    # -- lattice windows -------------------------------------------------

    def _raw_band(self, row_times, col_times, dt):
        s = row_times[:, None] - col_times[None, :]
        return self.density(s) * dt

    def window_matrix(self, n_steps, dt):
        """(n_steps, n_steps + 1) row-stochastic smoothing window.

        Row i holds the weights with which slice values A_0 .. A_N enter
        the smoothed value seen by readout step i; rows sum to 1 exactly.
        """
        n = int(n_steps)
        if self.is_delta:
            w = np.zeros((n, n + 1))
            w[np.arange(n), np.arange(n)] = 1.0
            return w
        raw = self._raw_band(dt * np.arange(n), dt * np.arange(n + 1), dt)
        return _renormalize_rows(raw, "window_matrix")

    def square_window(self, n, dt):
        """(n, n) row-stochastic window on a common slice grid."""
        if self.is_delta:
            return np.eye(int(n))
        t = dt * np.arange(int(n))
        return _renormalize_rows(self._raw_band(t, t, dt), "square_window")

    def stationary_matrix(self, n, dt):
        """Raw symmetric kernel matrix K_jk = Pi(t_j - t_k) * dt.

        No row renormalization: this is the quadrature of a stationary
        two-time kernel, used by influence-functional sums where the
        symmetry (and with it positivity of quadratic forms) matters.
        The delta kind yields the identity, the lattice version of a
        Dirac kernel under a double time integral.
        """
        if self.is_delta:
            return np.eye(int(n))
        t = dt * np.arange(int(n))
        return self._raw_band(t, t, dt)

    def factorize(self):
        """A profile p with p * p (convolution) equal to this profile.

        Gaussians factor into gaussians of width tau/sqrt(2); the delta
        factors into itself.  General tables do not factor within this
        family, so the tabulated kind raises.
        """
        if self.kind == "gaussian":
            return FormFactor.gaussian(self.tau / math.sqrt(2.0))
        if self.kind == "delta":
            return FormFactor.delta()
        raise ValueError(
            "no factorization available for a tabulated form factor; "
            "supply a gaussian or delta profile"
        )


def _renormalize_rows(raw, where):
    sums = raw.sum(axis=1)
    if np.any(np.abs(sums) < 1e-300):
        raise ValueError(
            f"{where}: a window row has zero weight; the profile support "
            "is too narrow for this step size"
        )
    return raw / sums[:, None]


# ----------------------------------------------------------------------
# weights


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


# ----------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class ReadoutSample:
    """A sampled record with its sampling density (for importance weights)."""

    values: np.ndarray
    log_density: float

    @property
    def density(self) -> float:
        return math.exp(self.log_density)


def sample_readout(mean_path, kappa, dt, seed=None, rng=None, n_steps=None):
    """Draw a readout around a fixed system path.

    For a system held on the path A the per-step record is exactly
    Gaussian: a_i ~ N(A_i, 1/(4 kappa dt)), with the readout measure
    factor absorbed so the density is a plain product of normals.
    ``mean_path`` holds the per-step means; pass ``n_steps`` to hand in
    an (N+1)-slice path instead (its final slice is then dropped,
    matching the left-rule pairing of slices with steps).
    """
    if kappa <= 0:
        raise ValueError("sampling a readout requires kappa > 0")
    means = np.asarray(mean_path, dtype=float)
    if means.ndim != 1 or means.size < 1:
        raise ValueError("mean_path must be a 1-D array")
    if n_steps is not None:
        if means.size == n_steps + 1:
            means = means[:-1]
        elif means.size != n_steps:
            raise ValueError(
                f"mean_path has {means.size} entries; expected {n_steps} or {n_steps + 1}"
            )
    if rng is None:
        rng = np.random.default_rng(seed)
    sigma = 1.0 / math.sqrt(4.0 * kappa * dt)
    values = means + sigma * rng.standard_normal(means.size)
    resid = (values - means) / sigma
    log_density = float(
        -0.5 * np.sum(resid**2) - means.size * math.log(sigma * math.sqrt(2.0 * math.pi))
    )
    return ReadoutSample(values=values, log_density=log_density)

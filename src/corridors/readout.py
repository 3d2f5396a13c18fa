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
    "readout_measure_factor",
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

    On a lattice of step dt the profile is the stationary kernel
    K_jk = Pi(t_j - t_k) dt (the identity for delta); the smoothing
    windows are its rows renormalized to sum to 1.
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
        return self.density(t[:, None] - t[None, :]) * dt

    def window_matrix(self, n_steps, dt):
        """(n_steps, n_steps + 1) row-stochastic smoothing window.

        Row i holds the weights with which slice values A_0 .. A_N enter
        the smoothed value seen by readout step i; rows sum to 1 exactly.
        These are the first N rows of the stationary kernel, renormalized.
        """
        n = int(n_steps)
        return _renormalize_rows(self.stationary_matrix(n + 1, dt)[:n], "window_matrix")

    def square_window(self, n, dt):
        """(n, n) row-stochastic window on a common slice grid: the
        stationary kernel with its rows renormalized."""
        return _renormalize_rows(self.stationary_matrix(n, dt), "square_window")

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

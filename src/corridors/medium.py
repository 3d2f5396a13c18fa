"""Oscillator-medium model of the monitoring environment.

The monitored particle couples to a dilute gas of oscillators through a
Gaussian interaction well of range ``l``; integrating the oscillators
out leaves an influence weight on pairs of system paths.  The medium is
summarized by a response density nu(omega) — oscillators per unit
frequency, weighted by coupling —

    nu(omega) = n (pi l^2 / 2)^(3/2) gamma_omega^2 / (4 hbar m_osc omega),

and the weight of a path pair (r1, r2) over slices t_0 .. t_{J-1} is

    W = exp( - integral domega nu(omega)
             integral dt' dt'' cos(omega (t'-t''))
             [ e^{-u} + e^{-v} - 2 e^{-w} ] / ... )

with u, v, w the squared distances |r1(t')-r1(t'')|^2, |r2(t')-r2(t'')|^2,
|r2(t')-r1(t'')|^2, each over 2 l^2.  The bracket vanishes when the two
paths coincide (W = 1) and the double sum is nonnegative for any
positive-semidefinite time kernel, so W is a genuine suppression factor.

When path excursions are small compared to l the bracket linearizes and
the medium reduces to the phenomenological Gaussian corridor weight with

    kappa = (2 / l^2) integral dt C(t),   C(t) = integral domega nu cos(omega t),

i.e. kappa = 2 pi nu(0) / l^2, and the normalized profile
Pi(t) = C(t) / (pi nu(0)) plays the role of the instrument form factor.
`form_factor_from_medium` performs that reduction,
`firstorder_log_weights` evaluates both sides for one path pair at
finite amplitude (`influence_exact` is its exact side as a weight), and
`reduce_to_phenomenological` exhibits the exact equivalence of the
first-order kernel with a factorized smoothing window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .readout import FormFactor

__all__ = [
    "MediumSpec",
    "SpectralDensity",
    "PathPair",
    "ReductionResult",
    "nu_of_omega",
    "correlation_function",
    "form_factor_from_medium",
    "influence_exact",
    "firstorder_log_weights",
    "reduce_to_phenomenological",
    "load_path_pair",
]


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
    """Response density of the medium at frequency omega > 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("nu(omega) is defined for omega > 0")
    pref = medium.density * (math.pi * medium.range_l**2 / 2.0) ** 1.5
    gam = np.vectorize(medium.gamma)(omega) if callable(medium.coupling) else medium.coupling
    return pref * np.asarray(gam, dtype=float) ** 2 / (4.0 * medium.hbar * medium.m_osc * omega)


@dataclass(frozen=True)
class SpectralDensity:
    """nu(omega) as a standalone object, with quadrature metadata.

    ``band`` carries ("gaussian", peak, sigma, center) when the density is
    known to be a Gaussian band, which unlocks closed forms; ``omega_max``
    bounds the support for numeric work.
    """

    nu: object  # callable omega -> density
    range_l: float
    omega_max: float
    band: tuple | None = None

    @classmethod
    def gaussian_band(cls, nu_peak, sigma_omega, range_l, center=0.0):
        if not (nu_peak > 0 and sigma_omega > 0 and range_l > 0 and center >= 0):
            raise ValueError("band parameters must be positive (center may be zero)")

        def nu(omega):
            return nu_peak * np.exp(-((omega - center) ** 2) / (2.0 * sigma_omega**2))

        return cls(
            nu=nu,
            range_l=float(range_l),
            omega_max=float(center + 8.0 * sigma_omega),
            band=("gaussian", float(nu_peak), float(sigma_omega), float(center)),
        )


def correlation_function(density: SpectralDensity, t):
    """C(t) = integral_0^inf nu(omega) cos(omega t) domega."""
    if density.band is not None and density.band[3] == 0.0:
        _, peak, sigma, _ = density.band
        # half-line integral of a centered gaussian times cosine
        return peak * sigma * math.sqrt(math.pi / 2.0) * np.exp(-(sigma * np.asarray(t)) ** 2 / 2.0)
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    for idx, ti in np.ndenumerate(t):
        val, _ = quad(
            lambda w: density.nu(w) * math.cos(w * ti), 0.0, density.omega_max, limit=400
        )
        out[idx] = val
    return out if out.shape else float(out)


# ----------------------------------------------------------------------
# path pairs and distance brackets


@dataclass(frozen=True)
class PathPair:
    """Two system paths sampled on a common uniform time grid.

    Arrays are (J,) for one-dimensional motion or (J, d) with d <= 3;
    both paths must share the shape.
    """

    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        r1 = np.atleast_1d(np.asarray(self.r1, dtype=float))
        r2 = np.atleast_1d(np.asarray(self.r2, dtype=float))
        if r1.shape != r2.shape:
            raise ValueError(f"path shapes differ: {r1.shape} vs {r2.shape}")
        if r1.ndim not in (1, 2) or (r1.ndim == 2 and r1.shape[1] > 3):
            raise ValueError("paths must be (J,) or (J, d) with d <= 3")
        if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))):
            raise ValueError("paths contain non-finite entries")
        if r1.shape[0] == 0:
            raise ValueError("a path pair needs n_slices >= 1, got empty paths")
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

    @property
    def n_slices(self) -> int:
        return self.r1.shape[0]

    def planar(self):
        """Both paths as (J, d) arrays."""
        if self.r1.ndim == 1:
            return self.r1[:, None], self.r2[:, None]
        return self.r1, self.r2


def _cross_sq_dists(x, y):
    # (J, J) matrix of |x_j - y_k|^2 for (J, d) inputs
    diff = x[:, None, :] - y[None, :, :]
    return np.sum(diff**2, axis=2)


def _distance_brackets(pair: PathPair):
    """u, v, w squared-distance matrices: same-path (1,1), (2,2) and cross
    (2->1).  The linear bracket is 2 w - u - v."""
    r1, r2 = pair.planar()
    return _cross_sq_dists(r1, r1), _cross_sq_dists(r2, r2), _cross_sq_dists(r2, r1)


# ----------------------------------------------------------------------
# influence weights


def influence_exact(pair: PathPair, form_factor: FormFactor, kappa, ell, dt):
    """Medium influence weight with the full Gaussian-well bracket: the
    exponential of `firstorder_log_weights`'s exact log weight."""
    return float(np.exp(firstorder_log_weights(pair, form_factor, kappa, ell, dt)[0]))


def firstorder_log_weights(pair: PathPair, form_factor: FormFactor, kappa, ell, dt):
    """(log W_exact, log W_firstorder) of one path pair.

    Both brackets are summed over the raw stationary matrix of the form
    factor (symmetric, so each exponent is a positive-semidefinite
    quadratic form and W <= 1, with equality only for coinciding paths):
    the Gaussian well of range ``ell`` for the exact weight, and its
    small-excursion limit, the linear bracket, for the first-order one.
    """
    if not (math.isfinite(ell) and ell > 0):
        raise ValueError(f"the medium weight requires a positive interaction range ell, "
                         f"got {ell!r}")
    kernel = form_factor.stationary_matrix(pair.n_slices, dt)
    u, v, w = _distance_brackets(pair)
    s = 2.0 * ell**2
    well = np.exp(-u / s) + np.exp(-v / s) - 2.0 * np.exp(-w / s)
    log_exact = -0.5 * kappa * ell**2 * dt * float(np.sum(kernel * well))
    log_first = -0.25 * kappa * dt * float(np.sum(kernel * (2.0 * w - u - v)))
    return log_exact, log_first


# ----------------------------------------------------------------------
# reduction to the phenomenological corridor


def form_factor_from_medium(density: SpectralDensity, n_lags=401):
    """Reduce a medium response to (form factor, kappa).

    kappa = 2 pi nu(0) / l^2 and the smoothing profile is the normalized
    correlation function Pi(t) = C(t) / (pi nu(0)).  A zero-centered
    Gaussian band reduces in closed form to a Gaussian profile with
    tau = 1 / sigma_omega; other densities are tabulated numerically.
    Raises if nu(0) is (numerically) zero — such a medium has no
    normalizable profile and no corridor-strength reduction.
    """
    nu0 = float(density.nu(0.0))
    scale = float(density.nu(max(density.omega_max / 8.0, 1e-12)))
    scale = max(abs(nu0), abs(scale))
    if scale <= 0.0 or abs(nu0) < 1e-9 * scale:
        raise ValueError(
            "medium response vanishes at zero frequency; the correlation "
            "profile is non-normalizable and has no phenomenological reduction"
        )
    kappa = 2.0 * math.pi * nu0 / density.range_l**2
    if density.band is not None and density.band[3] == 0.0:
        sigma = density.band[2]
        return FormFactor.gaussian(tau=1.0 / sigma), kappa
    # numeric profile: tabulate C out to where a smooth band has decayed
    t_max = 12.0 / (density.omega_max / 8.0)
    lags = np.linspace(-t_max, t_max, int(n_lags))
    values = correlation_function(density, lags) / (math.pi * nu0)
    return FormFactor.from_arrays(lags, values), kappa


@dataclass(frozen=True)
class ReductionResult:
    """Both sides of the medium -> corridor reduction for one path pair."""

    w_model: float  # first-order medium weight, kernel rebuilt as P^T P
    w_corridor: float  # Gaussian corridor weight of the window-smoothed paths
    gap: float
    rel_gap: float
    kappa: float
    window: np.ndarray
    kernel: np.ndarray


def reduce_to_phenomenological(pair: PathPair, form_factor: FormFactor, kappa, dt):
    """Exhibit the first-order medium weight as a smoothed corridor weight.

    Factorizes the profile (Pi = p * p), builds the row-stochastic square
    window P of the factor on the path's slice grid, and evaluates

      model side    : exp(-(kappa/4) dt sum (P^T P) . B)
      corridor side : exp(-(kappa/2) dt sum_i |(P r1)_i - (P r2)_i|^2)

    which agree identically by the moment identity — the returned gap is
    roundoff.  The reconstructed kernel P^T P differs from the profile's
    own stationary matrix only by quadrature edge effects.
    """
    factor = form_factor.factorize()
    window = factor.square_window(pair.n_slices, dt)
    kernel = window.T @ window
    u, v, w = _distance_brackets(pair)
    bracket = 2.0 * w - u - v
    w_model = float(np.exp(-0.25 * kappa * dt * np.sum(kernel * bracket)))
    r1, r2 = pair.planar()
    gap_vec = window @ (r2 - r1)
    w_corr = float(np.exp(-0.5 * kappa * dt * np.sum(gap_vec**2)))
    gap = abs(w_model - w_corr)
    return ReductionResult(
        w_model=w_model,
        w_corridor=w_corr,
        gap=gap,
        rel_gap=gap / max(w_corr, 1e-300),
        kappa=float(kappa),
        window=window,
        kernel=kernel,
    )


def load_path_pair(path):
    """Read a path pair from a text table.

    Columns: t, then d columns of r1, then d columns of r2 (d inferred).
    The time column must be uniform; returns (PathPair, dt).
    """
    tab = np.loadtxt(path, ndmin=2)
    if tab.shape[1] < 3 or (tab.shape[1] - 1) % 2 != 0:
        raise ValueError(f"{path}: expected columns t, r1 (d cols), r2 (d cols)")
    d = (tab.shape[1] - 1) // 2
    t = tab[:, 0]
    if t.size < 2:
        raise ValueError(f"{path}: need at least two time samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-8, atol=0):
        raise ValueError(f"{path}: time column must be uniformly increasing")
    r1 = tab[:, 1 : 1 + d]
    r2 = tab[:, 1 + d :]
    if d == 1:
        r1, r2 = r1[:, 0], r2[:, 0]
    return PathPair(r1=r1, r2=r2), dt

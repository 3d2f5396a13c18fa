"""Property tests of the ideal averaged dynamics on random systems.

Random potential, observable values, strength kappa in (0, 5], step dt and
lattice size: the averaged state stays a state (trace, hermiticity,
positivity), the record-integrated U†U is the identity, and the backward
recursion of the unitarity check is the adjoint of the forward averaged
sweep.  The last is the witness that can fail: the recursion started from
the identity stays the identity whatever its one-step conjugation is.
Duality and physical states are also drawn on runs long enough for the
dense sweeps' power path.  The step plan's column sweep keeps every
column's norm under phase gains.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    _StepPlan,
    check_density_matrix,
)
from corridors.nonselective import (
    InfluenceKernelSpec,
    _ideal_adjoint,
    check_generalized_unitarity,
    lindblad_evolve,
    superpropagate,
)


def _system(draw, n, n_steps):
    dt = draw(st.floats(1e-3, 0.5))
    kappa = draw(st.floats(0.0, 5.0, exclude_min=True))
    mass = draw(st.floats(0.2, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sgrid = SpatialGrid(float(n), n)
    ham = HamiltonianSpec(mass=mass, potential=rng.uniform(-5.0, 5.0, n))
    obs = ObservableSpec(rng.uniform(-3.0, 3.0, n))
    return kappa, ham, obs, sgrid, TimeGrid(dt * n_steps, n_steps), rng


@st.composite
def systems(draw):
    return _system(draw, draw(st.integers(4, 16)), draw(st.integers(1, 8)))


@st.composite
def power_systems(draw):
    # runs of n^3 to 4 n^3 steps, which the dense sweeps take as one power of
    # the step's superoperator
    n = draw(st.sampled_from([4, 8]))
    return _system(draw, n, draw(st.integers(n**3, 4 * n**3)))


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_pure_state(rng, sgrid):
    # rank one, so roundoff that pushed an eigenvalue below zero would show
    psi = rng.standard_normal(sgrid.n_points) + 1j * rng.standard_normal(sgrid.n_points)
    return np.outer(psi, psi.conj()) / (np.vdot(psi, psi).real * sgrid.spacing)


def duality_gap(kappa, ham, obs, sgrid, tgrid, rng):
    """|tr(X E^N(rho)) - tr(E†^N(X) rho)| over ||X|| ||rho|| (Frobenius),
    which bounds both sides: E is a unitary conjugation after a Schur
    product with entries of modulus <= 1."""
    x, rho = random_complex(rng, sgrid.n_points), random_complex(rng, sgrid.n_points)
    forward = superpropagate(rho, InfluenceKernelSpec("ideal", kappa), ham, obs, sgrid, tgrid).rho
    backward = _ideal_adjoint(x, kappa, ham, obs, sgrid, tgrid)
    gap = abs(np.trace(x @ forward) - np.trace(backward @ rho))
    return gap / (np.linalg.norm(x) * np.linalg.norm(rho))


@settings(max_examples=40, deadline=None)
@given(st.one_of(systems(), power_systems()))
def test_ideal_adjoint_is_dual_to_the_averaged_sweep(system):
    assert duality_gap(*system) <= 1e-12


def test_ideal_adjoint_is_dual_on_the_fft_plan():
    # n = 256 conjugates by the 2-D FFT pair instead of the dense matrix
    rng = np.random.default_rng(7)
    sgrid = SpatialGrid(20.0, 256)
    ham = HamiltonianSpec(mass=1.0, potential=0.3 * sgrid.coords**2)
    obs = ObservableSpec.position(sgrid)
    assert duality_gap(0.8, ham, obs, sgrid, TimeGrid(0.1, 5), rng) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.one_of(systems(), power_systems()))
def test_averaged_engines_keep_states_physical(system):
    kappa, ham, obs, sgrid, tgrid, rng = system
    rho0 = random_pure_state(rng, sgrid)
    spec = InfluenceKernelSpec("ideal", kappa)
    for rho in (superpropagate(rho0, spec, ham, obs, sgrid, tgrid).rho,
                lindblad_evolve(rho0, kappa, ham, obs, sgrid, tgrid)):
        rep = check_density_matrix(rho, sgrid)
        assert max(rep["herm_error"], rep["trace_error"], -rep["min_eigenvalue"]) <= 1e-10, rep


@settings(max_examples=40, deadline=None)
@given(systems())
def test_exact_ideal_unitarity(system):
    kappa, ham, obs, sgrid, tgrid, _ = system
    assert check_generalized_unitarity(kappa, ham, obs, sgrid, tgrid).deviation <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(2, 40), st.sampled_from([129, 200, 256])),  # dense and FFT plans
    columns=st.integers(1, 4),
    n_steps=st.integers(1, 12),
    dt=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_sweep_with_phase_gains_keeps_every_norm(n, columns, n_steps, dt, seed):
    # M is unitary and a gain of unit modulus is a phase, so the column sweep
    # must keep each column's norm
    rng = np.random.default_rng(seed)
    sgrid = SpatialGrid(float(n), n)
    ham = HamiltonianSpec(mass=1.0, potential=rng.uniform(-5.0, 5.0, n))
    x = rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns))
    phases = ((None, rng.uniform(-np.pi, np.pi, (1, n, columns))) for _ in range(n_steps + 1))
    out, exponent = _StepPlan(ham, sgrid, dt).apply(x, phases)
    assert exponent == 0
    before, after = np.linalg.norm(x, axis=0), np.linalg.norm(out, axis=0)
    assert np.max(np.abs(after - before) / before) <= 1e-12

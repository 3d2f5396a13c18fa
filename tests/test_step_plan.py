"""The planned one-step propagator: its dense and FFT branches agree.

Engines step with the dense matrix M on lattices up to the crossover and
with the split-operator FFT above it, where a conjugation M rho M^dagger is
one 2-D transform pair.  Both branches are the same operator, so they must
agree to roundoff on every lattice, odd or even, and the engines' outputs
must not depend on which branch ran.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corridors import grids
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    build_grids,
    gaussian_packet,
    pure_density,
    unitary_step,
)
from corridors.nonselective import check_generalized_unitarity, lindblad_evolve, readout_average
from corridors.readout import FormFactor
from corridors.selective import (
    _contract_windowed,
    _corridor_rows,
    evolve_selective_coarse,
    evolve_selective_ideal,
)


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@settings(max_examples=40, deadline=None)
@given(
    # powers of two as configured runs use, and any size SpatialGrid takes:
    # the 2-D conjugation relies on the kinetic phase being even in k
    n=st.one_of(st.integers(1, 8).map(lambda e: 2**e), st.integers(2, 257)),
    mass=st.one_of(st.just(math.inf), st.floats(0.05, 20.0)),
    dt=st.floats(1e-4, 2.0),
    extent=st.floats(1.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_and_fft_branches_agree(n, mass, dt, extent, seed):
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(extent, n)
    ham = HamiltonianSpec(mass=mass, potential=rng.uniform(-30.0, 30.0, n))
    plan, back = grids._StepPlan(ham, grid, dt), grids._StepPlan(ham, grid, -dt)
    assert plan.dense == back.dense == (n <= grids._DENSE_STEP_MAX_POINTS)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ x.conj().T
    adjoint = plan.matrix_h @ x @ plan.matrix  # M^dagger X M
    out = {}
    for dense in (True, False):
        plan.dense = back.dense = dense
        out[dense] = plan.step(block), plan.step(block[:, 0]), plan.conjugate(rho)
        assert rel_gap(back.conjugate(x), adjoint) <= 1e-12
    for dense_out, fft_out in zip(out[True], out[False]):
        assert rel_gap(dense_out, fft_out) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 127, 128, 129, 255, 256, 257])
def test_kinetic_phase_is_exactly_even_in_k(n):
    # the precondition of the 2-D conjugation, Nyquist bin included
    grid = SpatialGrid(7.3, n)
    kinetic = grids._StepPlan(HamiltonianSpec.free(grid), grid, 0.37).kinetic
    assert np.array_equal(kinetic, kinetic[-np.arange(n)])


def test_plan_matrices_are_the_fft_image_of_the_identity():
    grid = SpatialGrid(8.0, 16)
    ham = HamiltonianSpec.harmonic(grid, 0.9)
    plan = grids._StepPlan(ham, grid, 0.01)
    columns = [unitary_step(e, ham, grid, 0.01) for e in np.eye(16, dtype=complex)]
    assert np.array_equal(plan.matrix, np.stack(columns, axis=1))
    assert np.array_equal(plan.matrix_h, plan.matrix.conj().T)


def chained_state(psi0, record, kappa, ham, obs, sgrid, dt, segment=32):
    # normalized final state of the ideal selective sweep, run in segments
    # renormalized in between: an 8192-step record underflows in one piece
    psi = psi0
    for start in range(0, record.size, segment):
        part = record[start : start + segment]
        tgrid = grids.TimeGrid(dt * part.size, part.size)
        res = evolve_selective_ideal(psi, part, kappa, ham, obs, sgrid, tgrid)
        psi = res.final_state / math.sqrt(res.norm_sq)
    return psi


def test_engines_match_the_fft_branch_at_the_long_ideal_shape(monkeypatch):
    # n = 16, N = 8192: the engines step densely; forcing every plan onto
    # the FFT must move their outputs by roundoff only
    kappa = 1.0
    sgrid, tgrid = build_grids(8.0, 16, 1.0, 8192)
    ham = HamiltonianSpec.free(sgrid)
    obs = ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.0, 1.2, 0.4)
    rng = np.random.default_rng(5)
    record = rng.standard_normal(tgrid.n_steps) / math.sqrt(4.0 * kappa * tgrid.dt)

    def outputs():
        return (
            lindblad_evolve(pure_density(psi0), kappa, ham, obs, sgrid, tgrid),
            readout_average(psi0, kappa, ham, obs, sgrid, tgrid).rho,
            chained_state(psi0, record, kappa, ham, obs, sgrid, tgrid.dt),
        )

    assert grids._StepPlan(ham, sgrid, tgrid.dt).dense
    dense = outputs()
    monkeypatch.setattr(grids, "_DENSE_STEP_MAX_POINTS", 0)
    assert not grids._StepPlan(ham, sgrid, tgrid.dt).dense
    for dense_out, fft_out in zip(dense, outputs()):
        assert rel_gap(dense_out, fft_out) <= 1e-11


def test_windowed_contraction_is_bit_identical_to_a_column_built_kernel():
    kappa, n = 1.0, 16
    sgrid = SpatialGrid(6.0, n)
    tgrid = grids.TimeGrid(0.6, 6)
    dt = tgrid.dt
    ham = HamiltonianSpec.harmonic(sgrid, 0.9)
    obs = ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.3, 1.0, 0.0)
    record = np.random.default_rng(2).standard_normal(6)
    ff = FormFactor.gaussian(0.2 * dt)
    kernel = np.stack([unitary_step(e, ham, sgrid, dt) for e in np.eye(n, dtype=complex)], axis=1)
    window = ff.window_matrix(tgrid.n_steps, dt)
    expect = _contract_windowed(psi0, kernel, *_corridor_rows(window, obs.values, record, kappa, dt))
    got = evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid).final_state
    assert np.array_equal(got, expect)


def wide_ideal_shape():
    # the ideal_wide benchmark shape: free packet, n = 256, N = 128
    sgrid, tgrid = build_grids(32.0, 256, 1.0, 128)
    ham = HamiltonianSpec.free(sgrid)
    obs = ObservableSpec.position(sgrid)
    return sgrid, tgrid, ham, obs, gaussian_packet(sgrid, 0.0, 1.2, 0.4)


def test_engines_match_the_column_sweeps_at_the_wide_ideal_shape(monkeypatch):
    # above the crossover every conjugation is the 2-D FFT pair; the two
    # column sweeps it replaced must give the same densities to roundoff
    kappa = 1.0
    sgrid, tgrid, ham, obs, psi0 = wide_ideal_shape()
    assert not grids._StepPlan(ham, sgrid, tgrid.dt).dense

    def outputs():
        return (
            lindblad_evolve(pure_density(psi0), kappa, ham, obs, sgrid, tgrid),
            readout_average(psi0, kappa, ham, obs, sgrid, tgrid).rho,
        )

    new = outputs()
    monkeypatch.setattr(grids._StepPlan, "conjugate", oracles.conjugate_by_column_sweeps)
    for new_out, old_out in zip(new, outputs()):
        assert rel_gap(new_out, old_out) <= 1e-11


def test_exact_ideal_unitarity_at_the_wide_ideal_shape():
    sgrid, tgrid, ham, obs, _ = wide_ideal_shape()
    report = check_generalized_unitarity(1.0, ham, obs, sgrid, tgrid)
    assert report.deviation <= 1e-12

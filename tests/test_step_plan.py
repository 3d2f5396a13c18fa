"""The planned one-step propagator: its dense and FFT branches agree.

Engines step with the dense matrix M on lattices up to the crossover and
with the split-operator FFT above it, where a conjugation M rho M^dagger is
one 2-D transform pair.  Both branches are the same operator, so they must
agree to roundoff on every lattice, odd or even, and the engines' outputs
must not depend on which branch ran.  The FFT sweep's transforms run on
every usable core and must keep the one-worker bits, in a forked child too.
"""

import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corridors import grids, selective
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    build_grids,
    gaussian_packet,
    pure_density,
    unitary_step,
)
from corridors.nonselective import (
    InfluenceKernelSpec,
    _ideal_adjoint,
    check_generalized_unitarity,
    lindblad_evolve,
    readout_average,
    superpropagate,
)
from corridors.readout import FormFactor
from corridors.selective import (
    WindowSpec,
    _contract_windowed,
    _corridor_rows,
    evolve_selective_coarse,
    evolve_selective_coarse_mc,
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
    unit = [(np.zeros((2, 1)), None)]  # two slices of unit gains: one step
    out = {}
    for dense in (True, False):
        plan.dense = back.dense = dense
        out[dense] = (plan.apply(block, unit)[0], plan.apply(block[:, 0], unit)[0],
                      plan.sweep(rho, None, 1))
        assert rel_gap(back.sweep(x, None, 1), adjoint) <= 1e-12
    for dense_out, fft_out in zip(out[True], out[False]):
        assert rel_gap(dense_out, fft_out) <= 1e-12


def plan_step_loop(plan, x, gains):
    """g_N . M (... g_1 . M (g_0 . x)) one step at a time: M x by the plan's
    dense matrix, or by its FFT step."""
    x = np.asarray(x, dtype=complex)
    for i, g in enumerate(gains):
        if i:
            x = np.tensordot(plan.matrix, x, axes=1) if plan.dense else plan.fft_step(x)
        x = x * g
    return x


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("shape", [(), (3,), (4, 2)])
def test_apply_matches_per_step_loops(n, shape):
    # every vector sweep runs through apply: a vector, an (n, k) block and
    # an (n, m, k) block with per-record gains, from log moduli, phases or
    # both, in one chunk or several
    rng = np.random.default_rng(n + len(shape))
    grid = SpatialGrid(9.0, n)
    ham = HamiltonianSpec.harmonic(grid, 0.8)
    dt = 0.05
    plan = grids._StepPlan(ham, grid, dt)
    x = rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)
    gain_shape = (6, n) + shape[:1] + (1,) * len(shape[1:])
    r, p = rng.standard_normal(gain_shape), rng.standard_normal(gain_shape)
    for logs, gains in [((r, p), np.exp(1j * p + r)), ((r, None), np.exp(r)),
                        ((None, p), np.exp(1j * p)), ((np.zeros((6, 1)), None), np.ones((6, 1)))]:
        for cuts in ([0, 6], [0, 2, 5, 6]):  # one chunk, or three from a generator
            chunks = ((None if a is None else a[lo:hi] for a in logs)
                      for lo, hi in zip(cuts, cuts[1:]))
            got, exponent = plan.apply(x, (tuple(c) for c in chunks))
            assert exponent == 0  # a block of order 1 is never rescaled
            assert np.array_equal(got, plan_step_loop(plan, x, gains))
            assert got.shape == x.shape
        want = x * gains[0]
        for g in gains[1:]:
            want = unitary_step(want, ham, grid, dt) * g
        assert rel_gap(got, want) <= 1e-12
    x_before, r_before, p_before = x.copy(), r.copy(), p.copy()
    plan.apply(x, [(r, p)])
    plan.apply(x, [(r + 600.0, None)])  # shifted
    assert np.array_equal(x, x_before) and np.array_equal(r, r_before) \
        and np.array_equal(p, p_before)  # never written


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("shape", [(), (3,)])
@pytest.mark.parametrize("shift", [-600, -10, 10, 600])
def test_apply_rescales_by_powers_of_two_bit_for_bit(n, shape, shift):
    # log moduli offset by ``shift`` bits at each of 300 slices put the
    # product 300 shift bits out of the double range.  Past 2^+-_SHIFT_BITS
    # apply shifts every slice back by whole bits, exactly on a grid of log
    # moduli that the offset keeps exact; below it the block rescales, every
    # step while one site's gain alone moves 700 bits.  Either way
    # y 2^(k - 300 shift) is the unscaled per-step loop's block bit for bit,
    # with the unshifted gains or with the gains times 2^-shift.  With and
    # without phases
    rng = np.random.default_rng(n + len(shape))
    grid = SpatialGrid(9.0, n)
    plan = grids._StepPlan(HamiltonianSpec.harmonic(grid, 0.8), grid, 0.05)
    x = rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)
    gain_shape = (300, n) + (1,) * len(shape)
    base = rng.integers(-2**38, 2**38, gain_shape) * 2.0**-40  # |r| < 1/4, on 2^-40
    shifted = abs(shift) > grids._SHIFT_BITS
    if not shifted:
        base[:, 0] -= 700 * math.log(2.0)
    r = base + shift * math.log(2.0)
    for p in (None, rng.uniform(-np.pi, np.pi, gain_shape)):
        got, k = plan.apply(x, [(r, p)])
        assert k != 0
        phase = 0.0 if p is None else 1j * p
        gains = np.exp(phase + base) if shifted else \
            np.ldexp(np.exp(phase + r).astype(complex).view(float), -shift).view(complex)
        back = k - shift * len(r)  # got 2^back is the loop's block
        assert np.array_equal(np.ldexp(got.view(float), back).view(complex),
                              plan_step_loop(plan, x, gains))


def test_ideal_sweep_steps_in_two_buffers():
    # an 8192-step ideal sweep at n = 16 steps between two buffers, and at
    # its peak holds a few state vectors and one chunk of gains, never the
    # gains of all N steps
    kappa = 1.0
    sgrid, tgrid, ham, obs, psi0 = harmonic_shape(16, 8192)
    record = np.random.default_rng(6).standard_normal(tgrid.n_steps) / math.sqrt(
        4.0 * kappa * tgrid.dt)
    tracemalloc.start()
    try:
        evolve_selective_ideal(psi0, record, kappa, ham, obs, sgrid, tgrid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector, chunk = 16 * sgrid.n_points, 16 * selective._FIELD_BATCH_ELEMENTS  # bytes
    # numpy's ufunc buffer (np.getbufsize() doubles) serves the chunk's strided
    # exponent; 64 vectors cover the states and the plan's 16 x 16 matrix
    assert peak <= chunk + 8 * np.getbufsize() + 64 * vector
    buffers = []
    plan = grids._StepPlan(ham, sgrid, tgrid.dt)
    plan.apply(psi0, selective._corridor_gains(obs.values, record, kappa, tgrid.dt),
               lambda block, k: buffers.append(block))  # kept: a new array gets a new id
    assert len(buffers) == tgrid.n_steps and len({id(b) for b in buffers}) == 2


def test_apply_steps_once_per_call_or_batch(monkeypatch):
    # the ideal selective sweep, both field samplers and the ideal Monte-Carlo
    # unitarity records each step through one apply per call or batch
    calls = []
    apply = grids._StepPlan.apply

    def counted(plan, x, log_gains, observe=None):
        calls.append(np.shape(x))
        return apply(plan, x, log_gains, observe)

    monkeypatch.setattr(grids._StepPlan, "apply", counted)
    kappa = 1.0
    sgrid, tgrid, ham, obs, psi0 = harmonic_shape(64, 12)
    n, batch = sgrid.n_points, selective._FIELD_BATCH_ELEMENTS
    record = np.random.default_rng(1).standard_normal(tgrid.n_steps)
    ff = FormFactor.gaussian(0.4 * tgrid.dt)
    runs = [
        (lambda: evolve_selective_ideal(psi0, record, kappa, ham, obs, sgrid, tgrid), 1),
        (lambda: evolve_selective_coarse_mc(psi0, record, ff, kappa, ham, obs, sgrid, tgrid,
                                            samples=600, seed=2), math.ceil(600 / (batch // n))),
        (lambda: superpropagate(pure_density(psi0), InfluenceKernelSpec("coarse", kappa, ff), ham,
                                obs, sgrid, tgrid, mode="mc", samples=300, seed=3),
         math.ceil(300 / (batch // n))),
        (lambda: check_generalized_unitarity(kappa, ham, obs, sgrid, tgrid, mode="mc",
                                             samples=10, seed=4), math.ceil(10 / (batch // n**2))),
    ]
    for run, count in runs:
        calls.clear()
        run()
        assert len(calls) == count


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
    # n = 16, N = 8192: the averaged engines take the dense plan's power path
    # and the selective sweep steps densely; forcing every plan onto the FFT
    # must move their outputs by roundoff only
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
    log_row, shift = _corridor_rows(window, obs.values, record, kappa, dt)
    expect, k = _contract_windowed(psi0, kernel, WindowSpec.plan(window, n), log_row)
    assert k == shift == 0
    got = evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid).final_state
    assert np.array_equal(got, expect)


def wide_ideal_shape():
    # the ideal_wide benchmark shape: free packet, n = 256, N = 128
    sgrid, tgrid = build_grids(32.0, 256, 1.0, 128)
    ham = HamiltonianSpec.free(sgrid)
    obs = ObservableSpec.position(sgrid)
    return sgrid, tgrid, ham, obs, gaussian_packet(sgrid, 0.0, 1.2, 0.4)


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_engines_match_the_column_sweeps_at_the_wide_ideal_shape():
    # above the crossover every sweep steps by 2-D FFT pairs with the gains
    # folded between them; the per-step loops on the two column sweeps the
    # pairs replaced must give the same densities to roundoff
    kappa, columns = 1.0, oracles.conjugate_by_column_sweeps
    sgrid, tgrid, ham, obs, psi0 = wide_ideal_shape()
    rho0, x = pure_density(psi0), random_matrix(sgrid.n_points, 3)
    assert not grids._StepPlan(ham, sgrid, tgrid.dt).dense
    args = kappa, ham, obs, sgrid, tgrid
    pairs = [
        (lindblad_evolve(rho0, *args), oracles.lindblad_two_half_steps(rho0, *args, conjugate=columns)),
        (readout_average(psi0, *args).rho, oracles.ideal_average_steps(rho0, *args, conjugate=columns)),
        (_ideal_adjoint(x, *args), oracles.ideal_adjoint_steps(x, *args, conjugate=columns)),
    ]
    for new, old in pairs:
        assert rel_gap(new, old) <= 1e-11


def harmonic_shape(n, n_steps, omega=0.7):
    # a nonzero potential, so V2 != 1 and every folded factor counts (omega = 0:
    # the free packet); dt as in the ideal benchmark shapes
    sgrid, tgrid = build_grids(32.0 if n > 128 else 12.0, n, n_steps / 128, n_steps)
    ham = HamiltonianSpec.harmonic(sgrid, omega)
    obs = ObservableSpec.position(sgrid)
    return sgrid, tgrid, ham, obs, gaussian_packet(sgrid, 0.5, 1.2, 0.4)


def sweep_outputs(n, n_steps, kappa=1.0, omega=0.7):
    """(engine, per-step loop) pairs of every averaged sweep without an observer."""
    sgrid, tgrid, ham, obs, psi0 = harmonic_shape(n, n_steps, omega)
    rho0, x = pure_density(psi0), random_matrix(n, 4)  # x: neither Hermitian nor real
    args = kappa, ham, obs, sgrid, tgrid
    spec = InfluenceKernelSpec("ideal", kappa)
    lindblad = oracles.lindblad_composed_dense if n <= grids._DENSE_STEP_MAX_POINTS else \
        oracles.lindblad_two_half_steps
    average = oracles.ideal_average_steps(rho0, *args)
    return [
        (superpropagate(rho0, spec, ham, obs, sgrid, tgrid).rho, average),
        (readout_average(psi0, *args).rho, average),
        (_ideal_adjoint(x, *args), oracles.ideal_adjoint_steps(x, *args)),
        (lindblad_evolve(rho0, *args), lindblad(rho0, *args)),
    ]


def observed_states(n, n_steps, kappa=1.0):
    """(engine, per-step loop) pairs of the states each observer was handed;
    the engine's must be as they were when handed, after the call too."""
    sgrid, tgrid, ham, obs, psi0 = harmonic_shape(n, n_steps)
    rho0 = pure_density(psi0)
    args = kappa, ham, obs, sgrid, tgrid
    spec = InfluenceKernelSpec("ideal", kappa)
    pairs = []
    for engine, loop in [
        (lambda seen: lindblad_evolve(rho0, *args, observer=seen),
         lambda seen: oracles.lindblad_two_half_steps(rho0, *args, observer=seen)),
        (lambda seen: superpropagate(rho0, spec, ham, obs, sgrid, tgrid, observer=seen).rho,
         lambda seen: oracles.ideal_average_steps(rho0, *args, observer=seen)),
    ]:
        handed, copies, ref = [], [], []
        final = engine(lambda i, rho: (handed.append(rho), copies.append(rho.copy())))
        loop(lambda i, rho: ref.append(rho))
        assert final is handed[-1] and len(handed) == n_steps
        assert all(np.array_equal(h, c) for h, c in zip(handed, copies))
        pairs += zip(handed, ref)
    return pairs


@pytest.mark.parametrize("n_steps", [1, 2, 128])
def test_fused_fft_sweep_matches_the_per_step_loops_with_a_potential(n_steps):
    # V2 . g . V2 between the transform pairs and g . V2 after the last one
    # must reproduce the loops' V2, g, V2 products, to roundoff
    sgrid, tgrid, ham, _, _ = harmonic_shape(256, n_steps)
    assert not grids._StepPlan(ham, sgrid, tgrid.dt).dense
    for got, want in sweep_outputs(256, n_steps):
        assert rel_gap(got, want) <= 1e-12
    for got, want in observed_states(256, n_steps):
        assert rel_gap(got, want) <= 1e-12


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_dense_sweep_is_bit_identical_to_the_per_step_loops(n):
    # dense steps are the loops' products in the loops' order, into buffers
    for n_steps in (1, 2, 9):
        for got, want in sweep_outputs(n, n_steps) + observed_states(n, n_steps):
            assert np.array_equal(got, want)


def test_exact_ideal_unitarity_at_the_wide_ideal_shape():
    sgrid, tgrid, ham, obs, _ = wide_ideal_shape()
    report = check_generalized_unitarity(1.0, ham, obs, sgrid, tgrid)
    assert report.deviation <= 1e-12


def spy_powers(monkeypatch, refuse=False):
    """Count the dense sweeps' power-path runs, each of which builds the
    step's n^2 x n^2 superoperator; ``refuse``: fail on the first one."""
    calls = []
    power = grids._StepPlan._power

    def counted(plan, m, g, k, x):
        assert not refuse, f"superoperator built at n={plan.n} for a run of {k} steps"
        calls.append((plan.n, k))
        return power(plan, m, g, k, x)

    monkeypatch.setattr(grids._StepPlan, "_power", counted)
    return calls


@pytest.mark.parametrize("omega", [0.0, 0.7], ids=["free", "harmonic"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_power_path_matches_the_per_step_loops(monkeypatch, n, omega):
    # N = 2 n^3: each averaged sweep takes its long run of identical steps as
    # one power of the step's superoperator.  Its squarings round coherently,
    # so it drifts from the loops by about N eps, not by sqrt(N) eps
    n_steps = 2 * n**3
    powers = spy_powers(monkeypatch)
    pairs = sweep_outputs(n, n_steps, omega=omega)
    assert len(powers) == 4  # superpropagate, readout_average, the adjoint, lindblad
    for got, want in pairs:
        assert rel_gap(got, want) <= 10 * n_steps * np.finfo(float).eps


def power_case(n, twice=False):
    """A harmonic dense plan on n points (any n a SpatialGrid takes), its W = M
    or M M, a real symmetric decay gain and an (n, n) x."""
    grid = SpatialGrid(12.0, n)
    plan = grids._StepPlan(HamiltonianSpec.harmonic(grid, 0.7), grid, 0.01)
    w = plan.squared[0] if twice else plan.matrix
    g = np.exp(-0.01 * np.subtract.outer(grid.coords, grid.coords) ** 2)
    return plan, w, g, random_matrix(n, 10)


def spy_splits(monkeypatch):
    """The part count of every `grids._split` call, in order."""
    parts, split = [], grids._split

    def counted(fn, todo, workers):
        parts.append(len(todo))
        return split(fn, todo, workers)

    monkeypatch.setattr(grids, "_split", counted)
    return parts


@pytest.mark.parametrize("twice", [False, True], ids=["M", "MM"])
@pytest.mark.parametrize("n", range(16, grids._POWER_MAX_POINTS + 1))
def test_power_is_bit_identical_at_one_and_two_cores(monkeypatch, n, twice):
    # from 256 rows (n = 16) a squaring runs in row bands of 128 rows or more,
    # each its own product and the same bands at any thread count, so the
    # threaded power keeps the one-thread bits on every lattice, odd n too
    # (where a band of the product alone would not: BLAS rounds the band
    # and the whole product differently)
    plan, w, g, x = power_case(n, twice)
    splits = spy_splits(monkeypatch)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(grids, "_USABLE_CORES", cores)
        runs.append(plan._power(w, g, grids._POWER_TAIL + 1, x))  # one squaring
    assert splits == [n * n // 128] * 2
    assert np.array_equal(*runs)


def test_power_matches_the_per_step_loops_around_the_stop():
    # runs of k steps just below, at and above the stop at _POWER_TAIL
    # factors, and up to the ideal_long shape's 8192: applied factor by
    # factor or squared, the power stays within N eps of stepping
    plan, w, g, x = power_case(16)
    lengths = [63, 64, 65, 127, 128, 4097, 8191, 8192]
    assert grids._POWER_TAIL == 64
    want, done = x, 0
    for k in lengths:
        for _ in range(k - done):
            want = g * (w @ want @ w.conj().T)
        done = k
        assert rel_gap(plan._power(w, g, k, x), want) <= 10 * k * np.finfo(float).eps, k


@pytest.mark.parametrize("n, n_steps, squarings", [(16, 8192, 7), (8, 512, 5), (4, 128, 5)])
def test_a_power_squares_until_its_stop(monkeypatch, n, n_steps, squarings):
    # 8192 = 2^13 steps at n = 16 stop squaring at Q^128, 64 factors left,
    # where a full binary power would square 13 times; on smaller lattices
    # the stop is n^2/4 factors (16 at n = 8, 4 at n = 4).  Each squaring is
    # one split, in two bands from n = 16
    plan, w, g, x = power_case(n)
    splits = spy_splits(monkeypatch)
    plan.sweep(x, g, n_steps)
    assert splits == [max(1, n * n // 128)] * squarings


def test_threaded_power_gives_the_parent_bits_in_a_forked_child(monkeypatch):
    # the parent's squarings open the kept pool; a forked child has none of
    # its threads, forgets it at the fork and opens its own, bit for bit
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    plan, w, g, x = power_case(16)
    want = plan.sweep(x, g, 16**3)
    parent_pool = grids._kept_pool
    assert parent_pool is not None

    def child():
        forgotten = grids._kept_pool is None
        got = plan.sweep(x, g, 16**3)
        send.send((forgotten, grids._kept_pool is not None, got))

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    process = ctx.Process(target=child)
    process.start()
    try:
        assert recv.poll(60), "the forked child's power did not return"
        forgotten, opened, got = recv.recv()
    finally:
        process.join(10)
        if process.is_alive():
            process.kill()
    assert process.exitcode == 0
    assert forgotten and opened and grids._kept_pool is parent_pool
    assert np.array_equal(got, want)


def test_no_superoperator_is_built_off_the_power_rule(monkeypatch):
    # the ideal_wide shape (FFT plan), the free demo's (dense, 200 < 64^3
    # steps), runs shorter than n^3 steps and observer sweeps all step
    spy_powers(monkeypatch, refuse=True)
    kappa = 1.0
    shapes = [wide_ideal_shape(), harmonic_shape(64, 200, omega=0.0),
              harmonic_shape(4, 63), harmonic_shape(8, 511), harmonic_shape(16, 4095)]
    for sgrid, tgrid, ham, obs, psi0 in shapes:  # the three sweeps every averaged engine runs
        rho0, x = pure_density(psi0), random_matrix(sgrid.n_points, 5)
        args = kappa, ham, obs, sgrid, tgrid
        superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, sgrid, tgrid)
        lindblad_evolve(rho0, *args)
        _ideal_adjoint(x, *args)
    observed_states(4, 4**3 + 1)


@pytest.mark.parametrize("twice", [False, True], ids=["M", "MM"])
@pytest.mark.parametrize("n_steps", [0, 1, 4**3])
@pytest.mark.parametrize("path", ["dense", "power", "fft"])
def test_sweep_returns_a_new_array_and_never_writes_x(monkeypatch, path, n_steps, twice):
    # (X -> g . (W X W^dagger))^N with W = M or M M, on each branch: a complex
    # gain keeps the dense plan stepping, a real symmetric one takes the power
    # path at N = n^3, and the n = 4 plan is forced onto the FFT
    n = 4
    grid = SpatialGrid(5.0, n)
    plan = grids._StepPlan(HamiltonianSpec.harmonic(grid, 0.8), grid, 0.05)
    plan.dense = path != "fft"
    gain = np.exp(-np.subtract.outer(grid.coords, grid.coords) ** 2)
    if path == "dense":
        gain = gain * np.exp(1j * np.random.default_rng(7).standard_normal((n, n)))
    powers = spy_powers(monkeypatch)
    x = random_matrix(n, 6)
    x_before = x.copy()
    got = plan.sweep(x, gain, n_steps, twice)
    assert np.array_equal(x, x_before) and not np.shares_memory(got, x)
    assert len(powers) == (path == "power" and n_steps == n**3)
    w = plan.matrix @ plan.matrix if twice else plan.matrix
    want = x
    for _ in range(n_steps):
        want = gain * (w @ want @ w.conj().T)
    assert rel_gap(got, want) <= 1e-12


def fft_sweep_case(n, gain):
    """An FFT-branch plan (the n = 4 one forced onto it), an (n, n) x and a
    gain: None, a real decay or a complex gain."""
    grid = SpatialGrid(5.0 if n == 4 else 32.0, n)
    plan = grids._StepPlan(HamiltonianSpec.harmonic(grid, 0.8), grid, 0.05)
    plan.dense = False
    g = np.exp(-0.1 * np.subtract.outer(grid.coords, grid.coords) ** 2)
    if gain == "complex":
        g = g * np.exp(1j * np.random.default_rng(8).standard_normal((n, n)))
    return plan, random_matrix(n, 9), None if gain == "none" else g


def spy_fft_workers(monkeypatch):
    """The ``workers`` of every scipy.fft.fft2 and ifft2 call, in order."""
    import scipy.fft

    seen = []
    for name in ("fft2", "ifft2"):
        def spy(*args, _transform=getattr(scipy.fft, name), _name=name, **kwargs):
            seen.append((_name, kwargs.get("workers")))
            return _transform(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    return seen


@pytest.mark.parametrize("gain", ["none", "decay", "complex"])
@pytest.mark.parametrize("twice", [False, True], ids=["M", "MM"])
@pytest.mark.parametrize("n", [4, 256])
def test_fft_sweep_is_bit_identical_at_any_worker_count(monkeypatch, n, twice, gain):
    # pocketfft computes each 1-D transform of a pair as one worker would, so
    # the threaded sweep keeps the one-worker bits; every transform must be
    # handed the package's count, or a fall back to one worker would pass
    plan, x, g = fft_sweep_case(n, gain)
    seen = spy_fft_workers(monkeypatch)
    n_steps, runs = 3, []
    for workers in (1, 2):
        monkeypatch.setattr(grids, "_USABLE_CORES", workers)
        seen.clear()
        runs.append(plan.sweep(x, g, n_steps, twice))
        assert seen == [("fft2", workers), ("ifft2", workers)] * n_steps * (1 + twice)
    assert np.array_equal(*runs)


def test_threaded_fft_sweep_gives_the_parent_bits_in_a_forked_child(monkeypatch):
    # pocketfft keeps its threads for the process; a forked child has none of
    # them, so its pool must come back for the child's sweep, bit for bit
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    plan, x, g = fft_sweep_case(256, "complex")
    want = plan.sweep(x, g, 3)  # starts the threads in this process
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(plan.sweep(x, g, 3)))
    child.start()
    try:
        assert recv.poll(60), "the forked child's sweep did not return"
        got = recv.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(got, want)

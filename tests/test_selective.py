import math
import re
import sys
import threading
import tracemalloc
from itertools import groupby
from types import CellType, FunctionType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

import oracles
from corridors import grids, selective
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    build_grids,
    gaussian_packet,
    norm_sq,
    pure_density,
    short_time_kernel_matrix,
    unitary_step,
)
from corridors.nonselective import (
    InfluenceKernelSpec,
    _medium_rows,
    check_generalized_unitarity,
    lindblad_evolve,
    superpropagate,
)
from corridors.readout import FormFactor, readout_measure_factor
from corridors.selective import (
    _FIELD_BATCH_ELEMENTS,
    WindowSpec,
    _contract_windowed,
    _corridor_rows,
    evolve_selective_coarse,
    evolve_selective_coarse_mc,
    evolve_selective_ideal,
)


def _setup_a():
    g = SpatialGrid(6.0, 6)
    tg = TimeGrid(1.0, 5)
    ham = HamiltonianSpec.harmonic(g, omega=1.1)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.4, width=0.9)
    readout = np.array([0.3, -0.2, 0.5, 0.0, 0.1])
    return g, tg, ham, obs, psi0, readout, 0.8


def _setup_b():
    g = SpatialGrid(4.0, 4)
    tg = TimeGrid(0.8, 4)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.3 * q**2)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=-0.2, width=0.8)
    readout = np.array([0.2, -0.4, 0.1, 0.3])
    return g, tg, ham, obs, psi0, readout, 1.2


def test_effective_step_is_second_order_against_expm():
    g, _, ham, obs, psi0, _, kappa = _setup_a()
    h = oracles.dense_hamiltonian(ham, g)
    a_value = 0.4
    t_final = 0.4
    errs = []
    for n in (4, 8, 16):
        dt = t_final / n
        psi = psi0.copy()
        for _ in range(n):
            psi = oracles.effective_step(psi, a_value, kappa, ham, obs, g, dt)
        step = oracles.damped_generator_step(h, obs.values, a_value, kappa, ham.hbar, t_final / n)
        ref = np.linalg.matrix_power(step, n) @ psi0
        errs.append(np.max(np.abs(psi - ref)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.8), orders


def test_ideal_engine_matches_path_enumeration():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    res = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    ref = oracles.brute_conditioned_state(
        psi0, kernel, obs.values, readout, kappa, tg.dt, oracles.ideal_window(tg.n_steps)
    )
    assert np.max(np.abs(res.final_state - ref)) < 1e-13
    # frozen reference, guards engine and oracle against drifting together
    assert_allclose(res.norm_sq, 0.47001227286383446, rtol=1e-12)
    c = readout_measure_factor(kappa, tg.dt)
    assert_allclose(res.log_probability_density - res.log_norm_sq, 5 * math.log(c), rtol=1e-15)
    assert_allclose(res.probability_density, res.norm_sq * c**5, rtol=1e-15)


def test_ideal_engine_norm_never_grows():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    seen = []
    evolve_selective_ideal(
        psi0, readout, kappa, ham, obs, g, tg,
        observer=lambda i, psi, k: seen.append(math.ldexp(norm_sq(psi, g), 2 * k))
    )
    assert len(seen) == tg.n_steps
    assert seen[0] <= 1.0 + 1e-12
    assert np.all(np.diff(seen) <= 1e-12)


def test_kappa_zero_is_plain_unitary():
    g, tg, ham, obs, psi0, readout, _ = _setup_a()
    res = evolve_selective_ideal(psi0, readout, 0.0, ham, obs, g, tg)
    psi = psi0.copy()
    for _ in range(tg.n_steps):
        psi = unitary_step(psi, ham, g, tg.dt)
    assert_allclose(res.final_state, psi, atol=1e-14)
    assert_allclose(res.norm_sq, 1.0, atol=1e-12)


def test_coarse_delta_dispatch_is_bitwise_identical():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    a = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
    b = evolve_selective_coarse(psi0, readout, FormFactor.delta(), kappa, ham, obs, g, tg)
    assert np.array_equal(a.final_state, b.final_state)
    assert a.norm_sq == b.norm_sq


@pytest.mark.parametrize("tau_steps", [1.5, 0.4])
def test_coarse_engine_matches_path_enumeration(tau_steps):
    # wide window (no trimming until the end) and narrow window (sliding
    # buffer genuinely trims) both reduce to the brute-force path sum
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    ff = FormFactor.gaussian(tau_steps * tg.dt)
    res = evolve_selective_coarse(psi0, readout, ff, kappa, ham, obs, g, tg)
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    window = ff.window_matrix(tg.n_steps, tg.dt)
    ref = oracles.brute_conditioned_state(
        psi0, kernel, obs.values, readout, kappa, tg.dt, window
    )
    assert np.max(np.abs(res.final_state - ref)) < 1e-13


def test_coarse_engine_frozen_value():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    res = evolve_selective_coarse(
        psi0, readout, FormFactor.gaussian(0.3), kappa, ham, obs, g, tg
    )
    assert_allclose(res.norm_sq, 0.46530861109210397, rtol=1e-12)


def test_contraction_handles_shifted_bands():
    # a time-reversed window has its band off the diagonal; the emission
    # and trim schedule must follow the actual nonzero pattern
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    window = FormFactor.gaussian(0.4 * tg.dt).window_matrix(tg.n_steps, tg.dt)[::-1, ::-1].copy()
    kernel = short_time_kernel_matrix(ham, g, tg.dt)
    got, k = _contract_windowed(
        psi0.astype(complex), kernel, WindowSpec.plan(window, g.n_points),
        _corridor_rows(window, obs.values, readout, kappa, tg.dt)[0],
    )
    assert k == 0
    ref = oracles.brute_conditioned_state(
        psi0, kernel, obs.values, readout, kappa, tg.dt, window
    )
    assert np.max(np.abs(got - ref)) < 1e-13


def test_window_spec_plan_reports_and_caps(monkeypatch):
    dt = 0.2
    window = FormFactor.gaussian(0.4 * dt).window_matrix(20, dt)
    spec = WindowSpec.plan(window, n_sites=4)
    assert spec.bandwidth == 2
    assert spec.buffer_len == 2 * spec.bandwidth + 1
    assert spec.work_elements == 4**spec.buffer_len
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", 100)
    with pytest.raises(ValueError, match="evolve_selective_coarse_mc"):
        WindowSpec.plan(window, n_sites=4)
    with pytest.raises(ValueError):
        WindowSpec.plan(window[:, :-1], n_sites=4)  # not (N, N+1)


def random_band_window(rng, n_steps, reach, shift, reverse):
    """(N, N+1) weights on per-row spans around a shifted diagonal, with
    holes, both ends of each span set; time-reversed on request."""
    window = np.zeros((n_steps, n_steps + 1))
    for i in range(n_steps):
        lo = int(np.clip(i + shift - rng.integers(0, reach + 1), 0, n_steps))
        hi = int(np.clip(i + shift + rng.integers(0, reach + 1), lo, n_steps))
        window[i, lo : hi + 1] = rng.uniform(0.1, 1.0, hi - lo + 1) * (rng.random(hi - lo + 1) < 0.7)
        window[i, [lo, hi]] = 0.5
    return window[::-1, ::-1].copy() if reverse else window


@settings(max_examples=150, deadline=None)
@given(
    n_steps=st.integers(1, 40),
    reach=st.integers(0, 6),
    shift=st.integers(-4, 4),
    reverse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_spec_plan_matches_dry_run(n_steps, reach, shift, reverse, seed):
    # random bands: per-row spans around a shifted diagonal, with holes
    window = random_band_window(np.random.default_rng(seed), n_steps, reach, shift, reverse)
    spec = WindowSpec.plan(window, n_sites=2)
    expect = oracles.dry_run_window_plan(window)
    assert (spec.bandwidth, spec.buffer_len, spec.live, spec.emit) == expect
    assert spec.work_elements == 2**spec.buffer_len


def slice_kinds(spec):
    """(rows emitted, axes older than x_{j-1} summed, whether x_{j-1} is
    summed) of each slice j >= 1 of a plan, the counts capped at 2."""
    kinds = set()
    for j in range(1, spec.n_steps + 1):
        older = min(spec.live[j], j - 1) - spec.live[j - 1]
        kinds.add((min(len(spec.emit[j]), 2), min(older, 2), spec.live[j] == j))
    return kinds


def check_fused_sweep():
    """Check the fused sweep against the per-slice sweep on random draws.

    The draws are random bands (shifts, holes, reversed windows), corridor
    and medium rows, and rows varying along the batch axes.  Returns the
    `slice_kinds` of every plan drawn, and (corridor rows, axes older than
    x_{j-1} summed, batch axes, no older axis kept) of every slice whose
    rows were handed a block of a slice's values.
    """
    seen, blocked = set(), set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        n=st.integers(2, 4),
        kind=st.sampled_from(["corridor", "medium_firstorder", "medium_exact"]),
        batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        n_steps=st.integers(1, 12),
        reach=st.integers(0, 3),
        shift=st.integers(-3, 3),
        reverse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, kind, batch, n_steps, reach, shift, reverse, seed):
        rng = np.random.default_rng(seed)
        window = random_band_window(rng, n_steps, reach, shift, reverse)
        dt, kappa = 0.1, rng.uniform(0.5, 5.0)
        if kind == "corridor":
            pattern = window
            readout = rng.uniform(-1.0, 1.0, batch[:1] + (n_steps,))
            rows, _ = _corridor_rows(window, rng.uniform(-1.0, 1.0, n), readout, kappa, dt)
        else:
            # the doubled chain of 2 sites, its slice couplings the band made symmetric
            n = 4
            time = np.zeros((n_steps + 1, n_steps + 1))
            time[:n_steps] = window
            medium = InfluenceKernelSpec(kind, kappa, ell=rng.uniform(0.5, 2.0), form_factor=
                                         SimpleNamespace(stationary_matrix=lambda *_: time + time.T))
            obs = SimpleNamespace(values=rng.uniform(-1.0, 1.0, 2))
            pattern, rows = _medium_rows(medium, obs, SimpleNamespace(n_steps=n_steps, dt=dt))
        spec = WindowSpec.plan(pattern, n)
        assume(spec.work_elements * math.prod(batch) <= 4**7)
        # a per-record offset on every row, so the rows vary along each batch axis
        offset = rng.uniform(-0.5, 0.0, batch + (n_steps,))
        handed_blocks = set()  # rows handed part of a slice's values

        def log_row(i, place):
            def spy(s, values):
                out = place(s, values)
                if out.size < values.size:
                    handed_blocks.add(i)
                return out

            out = rows(i, spy)
            return out + offset[..., i].reshape(batch + (1,) * (out.ndim - len(batch)))

        kernel = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        vec0 = rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))
        got, k = _contract_windowed(vec0, kernel, spec, log_row)
        assert k == 0  # in range: the sweep never rescales
        expect = oracles.contract_windowed_per_slice(vec0, kernel, spec, log_row)
        assert got.shape == expect.shape == batch + (n,)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
        seen.update(slice_kinds(spec))
        for j, rows_j in enumerate(spec.emit):
            if handed_blocks.intersection(rows_j):
                older = min(spec.live[j], j - 1) > spec.live[j - 1]
                blocked.add((kind == "corridor", older, bool(batch), spec.live[j] == j))

    check()
    return seen, blocked


def test_fused_sweep_matches_the_per_slice_reference():
    # the fused sweep adds a slice's rows, folds weight and sum into one
    # product and multiplies the kernel after; it must give the per-slice
    # sweep's numbers.  These work tensors fit one block at every slice
    seen, blocked = check_fused_sweep()
    assert not blocked
    assert {rows for rows, _, _ in seen} == {0, 1, 2}
    assert {older for _, older, _ in seen} == {0, 1, 2}
    # rows, weight-and-sum product and the x_{j-1} sum at one slice
    assert any(rows and older and prev for rows, older, prev in seen)
    # a slice with no row sums x_{j-1} at most: an older axis stays live until
    # the rows reaching back to it end, so every older sum has a weight
    assert any(prev and not rows for rows, _, prev in seen)
    assert not any(older and not rows for rows, older, _ in seen)


def test_blocked_sweep_matches_the_per_slice_reference(monkeypatch):
    # with blocks of 16 weight elements most slices of the same draws run in
    # blocks, to the same bound: along a kept axis, or along x_{j-1} where
    # the slice keeps no older axis
    monkeypatch.setattr(selective, "_SWEEP_BLOCK_ELEMENTS", 16)
    _, blocked = check_fused_sweep()
    assert {corridor for corridor, _, _, _ in blocked} == {True, False}
    assert {older for _, older, _, _ in blocked} == {True, False}
    assert {none_kept for _, _, _, none_kept in blocked} == {True, False}
    assert any(batch for _, _, batch, _ in blocked)


def slow_detector_inputs(n):
    """A 64-step record at the slow detector's shape (tau = 0.4 dt), whose
    window plans a 16^5 working tensor at n = 16 and on the doubled chain
    of n = 4."""
    kappa, n_steps = 1.0, 64
    sgrid, tgrid = build_grids(6.0, n, 0.1 * n_steps, n_steps)
    ham, obs = HamiltonianSpec.harmonic(sgrid, 0.9), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.3, 1.0, 0.0)
    record = 0.3 + np.random.default_rng(99).standard_normal(n_steps) / math.sqrt(4.0 * kappa * tgrid.dt)
    return psi0, record, FormFactor.gaussian(0.4 * tgrid.dt), kappa, ham, obs, sgrid, tgrid


def test_coarse_engine_peak_memory_is_within_half_a_work_tensor(monkeypatch):
    # the cap's promise: a contraction allocates at most half a complex
    # working tensor (16 work_elements bytes) at its peak, here at the slow
    # detector's shape, since no slice forms its full-size weight; with a
    # second thread's blocks in flight too
    psi0, record, ff, kappa, ham, obs, sgrid, tgrid = slow_detector_inputs(16)
    work = WindowSpec.plan(ff.window_matrix(tgrid.n_steps, tgrid.dt), sgrid.n_points).work_elements
    assert work == 16**5
    for workers in (1, 2):
        monkeypatch.setattr(selective, "_BATCH_WORKERS", workers)
        tracemalloc.start()
        try:
            evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 16 * work


def slow_detector_sweeps(n):
    """run() -> the conditioned state at n sites, and on the doubled chain of
    n // 4 sites, whose window plans the same work, the averaged state and
    windowed exact unitarity's matrix."""
    psi0, record, ff, kappa, ham, obs, sgrid, tgrid = slow_detector_inputs(n)
    psi_d, _, _, _, *lattice_d = slow_detector_inputs(n // 4)  # ham, obs, sgrid, tgrid
    coarse = InfluenceKernelSpec("coarse", kappa, form_factor=ff)
    return lambda: (evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid).final_state,
                    superpropagate(pure_density(psi_d), coarse, *lattice_d).rho,
                    check_generalized_unitarity(kappa, *lattice_d, form_factor=ff).matrix)


def test_blocked_sweep_is_bit_identical_to_one_block(monkeypatch):
    # the 16^5 slices run in blocks; with the block above the work each slice
    # is one block, and the conditioned and averaged states keep every bit,
    # as does the time-reversed window's last slice, which keeps no older axis
    run = slow_detector_sweeps(16)
    blocked = run()
    monkeypatch.setattr(selective, "_SWEEP_BLOCK_ELEMENTS", 16 * 16**5)
    for got, one_block in zip(blocked, run()):
        assert np.array_equal(got, one_block)


@pytest.mark.parametrize("n, block, workers", [
    (16, None, 2),  # the 16^5 plans: slices of 16 blocks, two runs of 8
    (8, 1 << 10, 2),  # slices of 4 and 8 blocks
    (8, 3 << 9, 2),  # slices of 3 blocks (3, 3 and 2 indices): runs of 1 and 2 blocks
    (8, 1 << 10, 3),  # three runs: 1, 1 and 2 blocks, or 2, 3 and 3
])
def test_threaded_sweep_is_bit_identical_to_one_thread(monkeypatch, n, block, workers):
    # a wide slice's blocks split into contiguous runs, the caller's and a
    # kept pool's, each writing its own part of the slice: every bit is the
    # one-thread sweep's
    if block is not None:
        monkeypatch.setattr(selective, "_SWEEP_BLOCK_ELEMENTS", block)
    run = slow_detector_sweeps(n)
    monkeypatch.setattr(selective, "_BATCH_WORKERS", 1)
    serial = run()
    monkeypatch.setattr(selective, "_BATCH_WORKERS", workers)
    for got, want in zip(run(), serial):
        assert np.array_equal(got, want)


def test_threaded_sweep_blocks_run_in_the_callers_errstate(monkeypatch):
    # numpy's errstate is context-local, and the pool's runs see the
    # caller's: a record 1000 off the lattice shifts each row to its largest
    # log weight, and the far sites underflow in exp on both threads.  Under
    # under="raise" the sweep raises; under a handler, both threads call it
    # and the sweep keeps the one-thread bits
    psi0, record, ff, kappa, ham, obs, sgrid, tgrid = slow_detector_inputs(16)

    def run():
        return evolve_selective_coarse(psi0, record + 1000.0, ff, kappa, ham, obs, sgrid,
                                       tgrid).final_state

    monkeypatch.setattr(selective, "_BATCH_WORKERS", 1)
    serial = run()
    monkeypatch.setattr(selective, "_BATCH_WORKERS", 2)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        run()
    threads = set()
    with np.errstate(under="call", call=lambda *_: threads.add(threading.current_thread())):
        got = run()
    assert threading.main_thread() in threads and len(threads) > 1
    assert np.array_equal(got, serial)


def power_sweep(n):
    """run() -> lindblad_evolve of a free packet at N = n^3 + 1 steps, whose
    middle N - 1 are one power of the step's superoperator: its squarings
    split from n = 16."""
    sgrid, tgrid = build_grids(8.0, n, 1.0, n**3 + 1)
    rho0 = pure_density(gaussian_packet(sgrid, 0.0, 1.2, 0.4))
    ham, obs = HamiltonianSpec.free(sgrid), ObservableSpec.position(sgrid)
    return lambda: lindblad_evolve(rho0, 1.0, ham, obs, sgrid, tgrid)


def test_the_sweep_pool_opens_on_a_wide_slice_and_is_forgotten_after_a_fork(monkeypatch):
    # one kept pool serves both users of `grids._split`: the blocks of a wide
    # windowed slice and the row bands of a power's squarings.  No pool at
    # one worker, where every slice is one block (an 8^5 plan, whose weights
    # stay under 2^16 elements) or where a squaring is one band (n = 8); the
    # first wide slice or banded squaring opens it, the other user reuses
    # it, and the at-fork hook (called here directly) makes the next call
    # open another, also where the fork caught another thread holding the
    # pool's lock
    monkeypatch.setattr(grids, "_kept_pool", None)
    monkeypatch.setattr(grids, "_pool_lock", threading.Lock())
    psi0, record, ff, kappa, ham, obs, sgrid, tgrid = slow_detector_inputs(16)
    psi8, _, _, _, *lattice8 = slow_detector_inputs(8)

    def wide_slices():
        evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid)

    power16, power8 = power_sweep(16), power_sweep(8)
    opened = []
    try:
        monkeypatch.setattr(selective, "_BATCH_WORKERS", 1)
        monkeypatch.setattr(grids, "_USABLE_CORES", 1)
        wide_slices()
        power16()
        monkeypatch.setattr(selective, "_BATCH_WORKERS", 2)
        monkeypatch.setattr(grids, "_USABLE_CORES", 2)
        evolve_selective_coarse(psi8, record, ff, kappa, *lattice8)
        power8()
        assert grids._kept_pool is None
        for first, then in ((wide_slices, power16), (power16, wide_slices)):
            first()
            opened.append(grids._kept_pool)
            then()
            assert grids._kept_pool is opened[-1]
            grids._pool_lock.acquire()
            grids._forget_sweep_pool()
            assert grids._kept_pool is None and not grids._pool_lock.locked()
        assert opened[0] is not None and opened[1] not in (None, opened[0])
        assert opened[0]._max_workers == 1
    finally:
        for pool in opened:
            if pool is not None:
                pool.shutdown()


def test_no_part_on_the_pool_submits_to_the_pool(monkeypatch):
    # the kept pool may hold a single thread: a part running there that
    # submitted to the pool and waited for it would wait on itself.  Every
    # submission of a power sweep, of windowed sweeps (conditioned, averaged,
    # unitarity) and of a sampler comes from a thread outside the pool
    submitters, sweep_pool = [], grids._sweep_pool

    def spied(threads):
        pool = sweep_pool(threads)

        def submit(*args):
            submitters.append(threading.current_thread().name)
            return pool.submit(*args)

        return SimpleNamespace(submit=submit)

    monkeypatch.setattr(grids, "_sweep_pool", spied)
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    monkeypatch.setattr(selective, "_BATCH_WORKERS", 2)
    power_sweep(16)()
    slow_detector_sweeps(16)()
    psi0, record, ff, kappa, ham, obs, sgrid, tgrid = slow_detector_inputs(16)
    evolve_selective_coarse_mc(psi0, record, ff, kappa, ham, obs, sgrid, tgrid, samples=64, seed=1)
    assert submitters
    assert not [name for name in submitters if name.startswith("corridors-split")]


def record_sweep_blocks(run):
    """Every block `_contract_windowed` evaluates while run() runs, in order:
    (advance, the variables it reads from the sweep, the slice's whole
    state and kernel, its own arguments (state, kernel_t, part), its result)."""
    calls, open_calls = [], []

    def profile(frame, event, arg):
        if frame.f_code.co_name != "advance" or frame.f_globals is not vars(selective):
            return
        if event == "call":
            sweep = frame.f_back.f_locals
            fn = sweep["advance"]
            free = {name: frame.f_locals[name] for name in fn.__code__.co_freevars}
            args = tuple(frame.f_locals[name] for name in ("state", "kernel_t", "part"))
            open_calls.append((fn, free, (sweep["state"], sweep["kernel_t"]), args))
        elif event == "return":
            calls.append(open_calls.pop() + (arg,))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_blocks_of_a_slice_run_alone_in_any_order(monkeypatch):
    # a block is a function of its part of the state, its rows of the kernel
    # and its part of the blocked slice's values, and nothing it reads from
    # the sweep changes between the blocks of a slice: rebuilt after the
    # sweep on the first block's variables, every block of a kept-axis slice
    # run alone, last block first, gives its bits of the sweep, and together
    # the bits of the slice as one block.  A conditioned sweep (no batch
    # axis) and a sampled unitarity record's (records and identity columns
    # on two batch axes), in blocks of 1 and 2 indices
    psi8, record, ff, kappa, ham, obs, sgrid, tgrid = slow_detector_inputs(8)
    lattice4 = slow_detector_inputs(4)[4:]
    monkeypatch.setattr(selective, "_SWEEP_BLOCK_ELEMENTS", 1 << 10)
    # the profiler sees the calling thread only: every block runs there
    monkeypatch.setattr(selective, "_BATCH_WORKERS", 1)
    calls = record_sweep_blocks(lambda: (
        evolve_selective_coarse(psi8, record, ff, kappa, ham, obs, sgrid, tgrid),
        check_generalized_unitarity(kappa, *lattice4, form_factor=ff, mode="mc", samples=2,
                                    seed=1)))
    steps, leads = set(), set()
    for _, group in groupby(calls, key=lambda call: call[1]["j"]):
        (fn, free, (state, kernel_t), _, _), *rest = group = list(group)
        if len(group) == 1 or free["sums_last"]:
            continue
        assert all(call[1] == free for call in rest)
        cells = tuple(CellType(free[name]) for name in fn.__code__.co_freevars)
        block = FunctionType(fn.__code__, fn.__globals__, fn.__name__, None, cells)
        whole = block(state, kernel_t, slice(0, kernel_t.shape[0]))
        got = np.empty_like(whole)
        for *_, args, piece in reversed(group):
            alone = block(*args)
            assert np.array_equal(alone, piece)
            got[(slice(None),) * free["lead"] + (args[2],)] = alone
        assert np.array_equal(got, whole)
        first = group[0][3][2]  # the first block's part of slice cut
        steps.add(first.stop - first.start)
        leads.add(free["lead"])
    assert steps == {1, 2} and leads == {0, 2}


def test_window_spec_fits_is_the_plan_cap(monkeypatch):
    window = FormFactor.gaussian(0.08).window_matrix(20, 0.2)
    work = WindowSpec.plan(window, n_sites=4).work_elements
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", work)
    spec = WindowSpec.plan(window, 4)
    assert (spec.work_elements, spec.cap) == (work, work)
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", work - 1)
    with pytest.raises(ValueError, match=re.escape(f"above the cap {work - 1:.3g}")):
        WindowSpec.plan(window, 4)


def test_coarse_cap_is_enforced_by_engine(monkeypatch):
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", 10)
    with pytest.raises(ValueError, match="cap"):
        evolve_selective_coarse(psi0, readout, FormFactor.gaussian(0.3), kappa, ham, obs, g, tg)


def test_mc_engine_agrees_within_error_bars():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    ff = FormFactor.gaussian(0.3)
    exact = evolve_selective_coarse(psi0, readout, ff, kappa, ham, obs, g, tg)
    mc = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=4000, seed=5
    )
    err = np.abs(mc.final_state - exact.final_state)
    assert mc.n_samples == 4000
    assert np.all(err < 5.0 * np.maximum(mc.state_stderr, 1e-300))
    assert abs(mc.probability_density - exact.probability_density) < 5.0 * mc.probability_stderr
    # reproducible under the same seed
    again = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=4000, seed=5
    )
    assert np.array_equal(mc.final_state, again.final_state)


@pytest.mark.parametrize("extra", [0, 5])
def test_mc_engine_matches_naive_aux_field_loop(extra):
    # the random stream is a contract: sample s uses row s of one
    # (samples, N) standard-normal draw, at a batch boundary and off it
    g = SpatialGrid(8.0, 32)
    tg = TimeGrid(0.8, 4)
    ham = HamiltonianSpec.harmonic(g, omega=0.7)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.3, width=1.1)
    readout, kappa, ff = np.array([0.2, -0.4, 0.1, 0.3]), 1.2, FormFactor.gaussian(0.25)
    samples = 2 * (_FIELD_BATCH_ELEMENTS // g.n_points) + extra
    mc = evolve_selective_coarse_mc(psi0, readout, ff, kappa, ham, obs, g, tg,
                                    samples=samples, seed=21)
    xi = np.random.default_rng(21).standard_normal((samples, tg.n_steps))
    ref = oracles.aux_field_conditioned_state(
        psi0, unitary_step(np.eye(g.n_points), ham, g, tg.dt), obs.values, readout, kappa, tg.dt,
        ff.window_matrix(tg.n_steps, tg.dt), xi,
    )
    assert np.max(np.abs(mc.final_state - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mc_engine_error_shrinks_with_samples():
    g, tg, ham, obs, psi0, readout, kappa = _setup_b()
    ff = FormFactor.gaussian(0.3)
    small = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=500, seed=9
    )
    big = evolve_selective_coarse_mc(
        psi0, readout, ff, kappa, ham, obs, g, tg, samples=8000, seed=9
    )
    ratio = np.median(small.state_stderr / big.state_stderr)
    assert 2.0 < ratio < 8.0  # expect ~4 from 16x the samples


def test_mc_engine_exact_at_kappa_zero():
    g, tg, ham, obs, psi0, readout, _ = _setup_b()
    mc = evolve_selective_coarse_mc(
        psi0, readout, FormFactor.gaussian(0.3), 0.0, ham, obs, g, tg, samples=8, seed=2
    )
    psi = psi0.copy()
    for _ in range(tg.n_steps):
        psi = unitary_step(psi, ham, g, tg.dt)
    assert np.max(mc.state_stderr) < 1e-14
    assert_allclose(mc.final_state, psi, atol=1e-13)


def test_left_rule_composition_differs_from_strang_by_first_order():
    # the composition engine and repeated oracles.effective_step converge to the
    # same continuum limit; their mutual gap shrinks ~ dt
    g = SpatialGrid(6.0, 6)
    ham = HamiltonianSpec.harmonic(g, omega=1.1)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.4, width=0.9)
    kappa, t_final = 0.8, 0.8
    gaps = []
    for n in (16, 32, 64):
        tg = TimeGrid(t_final, n)
        readout = np.full(n, 0.25)
        res = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
        psi = psi0.copy()
        for i in range(n):
            psi = oracles.effective_step(psi, readout[i], kappa, ham, obs, g, tg.dt)
        gaps.append(np.max(np.abs(res.final_state - psi)))
    orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
    assert np.all(orders > 0.8), (gaps, orders)
    assert gaps[-1] < gaps[0] / 3.0


def test_log_density_survives_the_underflow_of_c_to_the_n():
    # the long ideal lattice (n = 16, extent 8, free, kappa = 1) at N = 4096:
    # c^N underflows, so the linear density reads exactly 0.0, beside a
    # finite norm; its log must match a renormalized per-step loop
    sgrid, tgrid = build_grids(8.0, 16, 1.0, 4096)
    ham, obs = HamiltonianSpec.free(sgrid), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.0, 1.2, 0.4)
    record = np.random.default_rng(1).uniform(-1.0, 1.0, tgrid.n_steps)
    res = evolve_selective_ideal(psi0, record, 1.0, ham, obs, sgrid, tgrid)
    assert res.probability_density == 0.0 and res.norm_sq > 0.1
    assert readout_measure_factor(1.0, tgrid.dt) ** tgrid.n_steps == 0.0
    ref = oracles.log_density_in_segments(psi0, record, 1.0, ham, obs, sgrid, tgrid.dt)
    assert abs(res.log_probability_density - ref) <= 1e-9 * abs(ref)


def test_log_density_is_the_log_of_the_density():
    g, tg, ham, obs, psi0, readout, kappa = _setup_a()
    res = evolve_selective_ideal(psi0, readout, kappa, ham, obs, g, tg)
    assert_allclose(res.log_probability_density, math.log(res.probability_density), rtol=1e-14)
    assert evolve_selective_ideal(psi0, readout, 0.0, ham, obs, g, tg).log_probability_density \
        == -math.inf  # c = 0 at kappa = 0


def test_log_density_of_a_born_scale_record_past_the_double_range():
    # the long ideal lattice at N = 4096 with a record drawn as
    # N(0, 1/(4 kappa dt)): the state itself leaves the double range, so
    # norm_sq reads exactly 0.0, and the sweep's exponent keeps its log, with
    # or without an observer
    kappa = 1.0
    sgrid, tgrid = build_grids(8.0, 16, 1.0, 4096)
    ham, obs = HamiltonianSpec.free(sgrid), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.0, 1.2, 0.4)
    record = np.random.default_rng(1).standard_normal(tgrid.n_steps) / math.sqrt(
        4.0 * kappa * tgrid.dt)
    res = evolve_selective_ideal(psi0, record, kappa, ham, obs, sgrid, tgrid)
    assert res.norm_sq == 0.0 and res.probability_density == 0.0
    assert not np.any(res.final_state)  # the true state, rounded into doubles
    ref = oracles.log_density_in_segments(psi0, record, kappa, ham, obs, sgrid, tgrid.dt)
    assert abs(res.log_probability_density - ref) <= 1e-12 * abs(ref)
    log_c = math.log(readout_measure_factor(kappa, tgrid.dt))
    assert res.log_probability_density == res.log_norm_sq + tgrid.n_steps * log_c
    steps = []
    watched = evolve_selective_ideal(psi0, record, kappa, ham, obs, sgrid, tgrid,
                                     observer=lambda i, psi, k: steps.append(i))
    assert steps == list(range(tgrid.n_steps))
    assert watched.log_norm_sq == res.log_norm_sq
    assert watched.log_probability_density == res.log_probability_density


def test_windowed_log_norm_survives_a_long_record():
    # the slow detector's lattice (n = 4, tau = 0.4 dt) at N = 2400, a record
    # drawn as 0.3 + N(0, 1/(4 kappa dt)): the state leaves the double range,
    # so norm_sq reads 0.0, and the contraction's exponent keeps its log.  The
    # per-slice reference stays in range from a start scaled by 2^s
    kappa, n_steps, dt, s = 1.0 / (0.6 * 1.3**2), 2400, 0.1, 1000
    sgrid, tgrid = build_grids(6.0, 4, dt * n_steps, n_steps)
    ham, obs = HamiltonianSpec.harmonic(sgrid, 0.9), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.3, 1.0, 0.0)
    ff = FormFactor.gaussian(0.04)
    record = 0.3 + np.random.default_rng(5).standard_normal(n_steps) / math.sqrt(4.0 * kappa * dt)
    res = evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid)
    assert res.norm_sq == 0.0 and math.isfinite(res.log_norm_sq)
    window = ff.window_matrix(n_steps, dt)
    ref = oracles.contract_windowed_per_slice(
        psi0 * math.ldexp(1.0, s), short_time_kernel_matrix(ham, sgrid, dt),
        WindowSpec.plan(window, sgrid.n_points),
        _corridor_rows(window, obs.values, record, kappa, dt)[0])
    log_ref = math.log(norm_sq(ref, sgrid)) - 2 * s * math.log(2.0)
    assert abs(res.log_norm_sq - log_ref) <= 1e-12 * abs(log_ref)


def test_ideal_log_norm_of_a_record_far_from_the_lattice():
    # the free demo's lattice read out at a constant 1000: every corridor
    # gain, about e^-4900, underflowed to 0.0 and the log read -inf; apply
    # shifts each slice by whole bits, and the log matches the loop that
    # divides every step's gain by its largest and renormalizes every step.
    # The observer's 2^k psi after step i carries the shifts of the gains
    # applied so far only: its log is that of the record's first i + 1
    # values, within and across apply's chunks of 128 slices
    kappa = 0.5
    sgrid, tgrid = build_grids(16.0, 64, 2.0, 200)
    ham, obs = HamiltonianSpec.free(sgrid), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, -1.0, 1.5, 0.6)
    record = np.full(tgrid.n_steps, 1000.0)
    seen = []
    res = evolve_selective_ideal(psi0, record, kappa, ham, obs, sgrid, tgrid,
                                 observer=lambda i, psi, k: seen.append(
                                     math.log(norm_sq(psi, sgrid)) + 2 * k * math.log(2.0)))
    ref = oracles.log_density_in_segments(psi0, record, kappa, ham, obs, sgrid, tgrid.dt,
                                          segment=1)
    assert res.norm_sq == 0.0
    assert abs(res.log_probability_density - ref) <= 1e-12 * abs(ref)
    for i in (0, 1, 126, 127, 128, 199):
        part = evolve_selective_ideal(psi0, record[:i + 1], kappa, ham, obs, sgrid,
                                      TimeGrid(tgrid.dt * (i + 1), i + 1))
        assert abs(seen[i] - part.log_norm_sq) <= 1e-12 * abs(part.log_norm_sq)


def test_windowed_log_norm_of_a_record_far_from_the_lattice():
    # the slow detector's lattice (n = 4, N = 6) at a constant record of 1000:
    # each row shifts by its largest possible log weight, and the log matches
    # the log-domain sum over all 4^7 paths
    kappa, dt = 1.0 / (0.6 * 1.3**2), 0.1
    sgrid, tgrid = build_grids(6.0, 4, 0.6, 6)
    ham, obs = HamiltonianSpec.harmonic(sgrid, 0.9), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.3, 1.0, 0.0)
    ff = FormFactor.gaussian(0.04)
    record = np.full(tgrid.n_steps, 1000.0)
    res = evolve_selective_coarse(psi0, record, ff, kappa, ham, obs, sgrid, tgrid)
    ref = oracles.brute_log_norm_sq(psi0, short_time_kernel_matrix(ham, sgrid, dt), obs.values,
                                    record, kappa, dt, ff.window_matrix(tgrid.n_steps, dt),
                                    sgrid.spacing)
    assert res.norm_sq == 0.0
    assert abs(res.log_norm_sq - ref) <= 1e-12 * abs(ref)


def test_measure_factor_saturates_where_c_exceeds_one():
    # kappa dt = 2 > pi/2 puts c above 1, and c^N at N = 8192 above the
    # largest float: it raised OverflowError; the call now returns, the
    # linear density saturates, and the finite logs match the segment-chained
    # reference
    kappa = 20.0
    sgrid, tgrid = build_grids(8.0, 16, 819.2, 8192)
    ham, obs = HamiltonianSpec.harmonic(sgrid, 0.9), ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.0, 1.2, 0.4)
    record = np.random.default_rng(2).standard_normal(tgrid.n_steps) / math.sqrt(
        4.0 * kappa * tgrid.dt)
    assert readout_measure_factor(kappa, tgrid.dt) > 1.0
    res = evolve_selective_ideal(psi0, record, kappa, ham, obs, sgrid, tgrid)
    log_measure = res.log_probability_density - res.log_norm_sq
    assert math.isfinite(res.log_norm_sq) and log_measure > math.log(sys.float_info.max)
    assert res.norm_sq == 0.0
    ref = oracles.log_density_in_segments(psi0, record, kappa, ham, obs, sgrid, tgrid.dt)
    assert abs(res.log_probability_density - ref) <= 1e-12 * abs(ref)
    assert res.probability_density == 0.0 and ref < -745.0  # below the smallest float


@pytest.mark.parametrize("a, kappa", [(5.0, 5.0), (15.0, 20.0)])
def test_field_sampler_keeps_its_log_past_the_double_range(a, kappa):
    # a constant record far out on a 40-wide, 32-point free lattice, N = 25,
    # tau = 0.04: the aux-field samples overflowed to a NaN norm at a = 5,
    # kappa = 5, and exp(-kappa dt ||a||^2) at slice 0 underflowed the state
    # to 0.0 at a = 15, kappa = 20 (tier-1 raised on either warning); the
    # slice shifts, the sweep's exponents and the moments' common exponent
    # keep the log of the sample mean
    g, tg = SpatialGrid(40.0, 32), TimeGrid(1.0, 25)
    ham, obs = HamiltonianSpec.free(g), ObservableSpec.position(g)
    psi0, ff, record = gaussian_packet(g, width=1.0), FormFactor.gaussian(0.04), np.full(25, a)
    res = evolve_selective_coarse_mc(psi0, record, ff, kappa, ham, obs, g, tg, samples=200,
                                     seed=3)
    xi = np.random.default_rng(3).standard_normal((200, tg.n_steps))  # the engine's stream
    ref = oracles.aux_field_log_norm_sq(psi0, selective._StepPlan(ham, g, tg.dt).matrix,
                                        obs.values, record, kappa, tg.dt,
                                        ff.window_matrix(tg.n_steps, tg.dt), xi, g.spacing)
    assert abs(res.log_norm_sq - ref) <= 1e-12 * abs(ref)
    log_c = math.log(readout_measure_factor(kappa, tg.dt))
    assert res.log_probability_density == res.log_norm_sq + tg.n_steps * log_c
    # the sample mean is far above the double range: its linear fields saturate
    assert res.norm_sq == math.inf and res.log_norm_sq > 1000.0
    fields = [res.final_state, res.state_stderr, res.norm_sq, res.probability_density,
              res.probability_stderr]
    assert not any(np.isnan(f).any() for f in fields)


def test_moments_on_a_common_exponent_match_the_unscaled_sums():
    # batches handed in as 2^-e of their values, e per batch, sum bit for bit
    # as the unscaled batches do, on the largest exponent
    rng = np.random.default_rng(4)
    batches = [rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)) for _ in range(4)]
    exponents = [0, 40, -30, 90]
    plain = selective._Moments(3, 20, parts=(np.real, np.imag))
    scaled = selective._Moments(3, 20, parts=(np.real, np.imag))
    for batch, e in zip(batches, exponents):
        plain.add(batch * 2.0**e)
        scaled.add(batch, exponent=e)
    assert scaled.exponent == 90
    assert np.array_equal(scaled.mean() * 2.0**90, plain.mean())
    assert all(np.array_equal(v * 4.0**90, w)
               for v, w in zip(scaled.variances(), plain.variances()))
    assert np.array_equal(scaled.stderr() * 2.0**90, plain.stderr())


def _logsumexp_cases():
    rng = np.random.default_rng(11)
    for _ in range(40):  # (count, N, n) records of the mixture sampler's spread
        shape = tuple(int(k) for k in rng.integers(1, 40, size=3))
        yield -rng.exponential(rng.choice([0.1, 10.0, 1e3]), size=shape)
    ties = np.round(-rng.exponential(2.0, size=(3, 50, 16)), 1)
    ties[..., :3] = ties.max(axis=2, keepdims=True)  # at least three maxima per row
    yield ties
    yield np.zeros((2, 5, 7))  # every element at the maximum
    yield -rng.exponential(3.0, size=(4, 9, 1))  # a one-element axis
    yield -1e5 + rng.standard_normal((3, 20, 64))  # deep in the tail


def test_logsumexp_is_scipys_bit_for_bit():
    for z in _logsumexp_cases():
        got = selective._logsumexp(z, axis=2)
        assert got.shape == z.shape[:2]
        assert np.array_equal(got, logsumexp(z, axis=2))

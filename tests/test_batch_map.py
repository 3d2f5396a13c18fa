"""Sampler batches sweep side by side on the package's one kept pool, bit for bit.

`selective._batch_map` draws each batch's random inputs on the calling
thread in stream order, in groups of `grids._USABLE_CORES`: the caller
sweeps the first of each group and the kept pool (`grids._sweep_pool`,
shared with `grids._split`) the others, and the results come back in
order, so every sampler gives the same bits at any worker count.  These
tests pin that contract and the constraints around it: no pool opens per
call, the kept one is reused and a forked child opens its own, the pool's
batches run in the caller's context, a split inside a pool batch runs
inline rather than wait on itself, the plan's lazy caches are filled
before dispatch, no public function of the package runs off the main
thread, windowed Monte-Carlo unitarity and single-batch calls stay on the
calling thread.
"""

import concurrent.futures
import contextvars
import importlib
import inspect
import multiprocessing
import sys
import threading
from functools import cached_property

import numpy as np
import pytest

import oracles
from corridors import grids, nonselective, selective
from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    _StepPlan,
    gaussian_packet,
    pure_density,
    unitary_step,
)
from corridors.nonselective import InfluenceKernelSpec
from corridors.readout import FormFactor

MODULES = ("grids", "readout", "selective", "nonselective", "medium", "scenario", "cli")
KAPPA = 1.2


def _unitarity_ideal():
    # batches of 4 records of 64 x 64: 25 batches
    g = SpatialGrid(8.0, 64)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.3 * q**2)
    obs, tg = ObservableSpec.position(g), TimeGrid(0.6, 3)
    rep = nonselective.check_generalized_unitarity(KAPPA, ham, obs, g, tg, mode="mc",
                                                   samples=100, seed=5)
    return (rep.matrix, rep.stderr), lambda: (
        oracles.unitarity_mc_per_record(KAPPA, ham, obs, g, tg, samples=100, seed=5), 1e-14)


def _field_setup():
    g = SpatialGrid(8.0, 32)
    tg = TimeGrid(0.8, 4)
    ham = HamiltonianSpec.harmonic(g, omega=0.7)
    obs = ObservableSpec.position(g)
    psi0 = gaussian_packet(g, center=0.3, width=1.1)
    # a pure state sweeps one column: 512 samples per batch, so 3 batches
    samples = 2 * (selective._FIELD_BATCH_ELEMENTS // g.n_points) + 5
    return g, tg, ham, obs, psi0, FormFactor.gaussian(0.25), samples


def _evolve_mc():
    g, tg, ham, obs, psi0, ff, samples = _field_setup()
    readout = np.array([0.2, -0.4, 0.1, 0.3])
    res = selective.evolve_selective_coarse_mc(psi0, readout, ff, KAPPA, ham, obs, g, tg,
                                               samples=samples, seed=21)
    xi = np.random.default_rng(21).standard_normal((samples, tg.n_steps))
    return (res.final_state, res.state_stderr, res.probability_stderr), lambda: (
        oracles.aux_field_conditioned_state(
            psi0, unitary_step(np.eye(g.n_points), ham, g, tg.dt), obs.values, readout, KAPPA,
            tg.dt, ff.window_matrix(tg.n_steps, tg.dt), xi), 1e-12)


def _superpropagate_mc():
    g, tg, ham, obs, psi0, ff, samples = _field_setup()
    spec = InfluenceKernelSpec("coarse", KAPPA, form_factor=ff)
    rho0 = pure_density(psi0)
    res = nonselective.superpropagate(rho0, spec, ham, obs, g, tg, mode="mc",
                                      samples=samples, seed=8)
    return (res.rho, res.stderr), lambda: (
        oracles.field_average_identity_sweep(rho0, spec, ham, obs, g, tg, samples, 8)[0], 1e-12)


# each run returns its outputs, the estimate first, and a thunk giving the
# one-at-a-time oracle's estimate and its relative tolerance
MULTI_BATCH = {"unitarity_ideal": _unitarity_ideal, "evolve_mc": _evolve_mc,
               "superpropagate_mc": _superpropagate_mc}


def _thread_spy(monkeypatch, owner, attr, seen):
    """Record, per call of owner.attr, whether it ran on the main thread."""
    original = getattr(owner, attr)

    def spy(*args, **kwargs):
        seen.append(threading.current_thread() is threading.main_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)


@pytest.fixture
def kept(monkeypatch):
    """Every thread pool opened while the test runs, in order.  The test
    starts with no kept pool, and the pools it opens are shut down after it."""
    opened = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(grids, "_kept_pool", None)
    monkeypatch.setattr(grids, "_pool_lock", threading.Lock())
    yield opened
    for pool in opened:  # a part left waiting on a cancelled one is freed
        pool.shutdown(wait=False, cancel_futures=True)


@pytest.mark.parametrize("case", sorted(MULTI_BATCH))
def test_worker_count_changes_no_bit(monkeypatch, kept, case):
    monkeypatch.setattr(grids, "_USABLE_CORES", 1)
    serial, oracle = MULTI_BATCH[case]()
    assert not kept
    # the estimate is the one of the one-at-a-time loop
    ref, rtol = oracle()
    assert np.max(np.abs(serial[0] - ref)) <= rtol * np.max(np.abs(ref))
    for workers in (2, 3):
        # a kept pool of workers - 1 threads beside the caller
        monkeypatch.setattr(grids, "_kept_pool", None)
        monkeypatch.setattr(grids, "_USABLE_CORES", workers)
        outputs, _ = MULTI_BATCH[case]()
        assert grids._kept_pool is kept[-1] and kept[-1]._max_workers == workers - 1
        for got, want in zip(outputs, serial):
            assert np.array_equal(got, want)
    assert len(kept) == 2


def test_at_the_process_core_count_the_bits_are_one_threads(monkeypatch, kept):
    # unpatched: on one core (`taskset -c 0`) no pool opens, on more the
    # kept pool does, and either way every sampler gives the one-thread bits
    cores = grids._USABLE_CORES
    got = {case: run()[0] for case, run in MULTI_BATCH.items()}
    assert len(kept) == (cores > 1) and grids._kept_pool is (kept[0] if kept else None)
    monkeypatch.setattr(grids, "_USABLE_CORES", 1)
    for case, run in MULTI_BATCH.items():
        for a, b in zip(got[case], run()[0]):
            assert np.array_equal(a, b)


def test_multi_batch_samplers_share_the_one_kept_pool(monkeypatch, kept):
    # no pool opens per call: the first multi-batch call opens the kept
    # pool, every later one reuses it, and the batches sweep both on the
    # calling thread and on the pool's thread
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    sweeps = []
    original = _StepPlan.apply

    def spy(*args, **kwargs):
        sweeps.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(_StepPlan, "apply", spy)
    for _ in range(2):
        for run in MULTI_BATCH.values():
            run()
            assert len(kept) == 1 and grids._kept_pool is kept[0]
    assert kept[0]._max_workers == 1
    assert {name.startswith(grids._POOL_PREFIX) for name in sweeps} == {False, True}
    assert threading.main_thread().name in sweeps


def test_a_forked_childs_sampler_gives_the_parent_bits(monkeypatch):
    # the parent's two-batch sampler opens the kept pool; a forked child has
    # none of its threads, forgets it at the fork and opens its own, bit for bit
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    g, tg, ham, obs, psi0, ff, _ = _field_setup()
    samples = selective._FIELD_BATCH_ELEMENTS // g.n_points + 5  # two batches

    def run():
        return selective.evolve_selective_coarse_mc(psi0, np.full(tg.n_steps, 0.1), ff, KAPPA,
                                                    ham, obs, g, tg, samples=samples,
                                                    seed=4).final_state

    want = run()
    parent_pool = grids._kept_pool
    assert parent_pool is not None

    def child():
        forgotten = grids._kept_pool is None
        got = run()
        send.send((forgotten, grids._kept_pool is not None, got))

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    process = ctx.Process(target=child)
    process.start()
    try:
        assert recv.poll(60), "the forked child's sampler did not return"
        forgotten, opened, got = recv.recv()
    finally:
        process.join(10)
        if process.is_alive():
            process.kill()
    assert process.exitcode == 0
    assert forgotten and opened and grids._kept_pool is parent_pool
    assert np.array_equal(got, want)


def test_a_split_inside_a_pool_batch_runs_inline(monkeypatch, kept):
    # at two workers the kept pool has one thread: a batch running there that
    # handed a split's parts to the pool and waited for them would wait on
    # itself.  A split called from the pool runs inline, the caller's own
    # splits still use the pool, and every batch keeps its one-thread bits
    def batch(x):
        out = np.empty((8, 64))

        def fill(i):
            out[i] = np.exp(np.linspace(-x, x, 64) * (i + 1)) @ np.ones((64, 64))

        grids._split(fill, range(8), grids._USABLE_CORES)
        return out

    monkeypatch.setattr(grids, "_USABLE_CORES", 1)
    want = list(map(batch, range(6)))
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    got = []
    caller = threading.Thread(target=lambda: got.extend(selective._batch_map(batch, range(6))),
                              daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive(), "a split on the pool waited on itself"
    assert len(kept) == 1 and kept[0]._max_workers == 1
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _public_callables():
    """(owner, attribute, wrapped original, name) of every public function and
    public method of the package, as the benchmark's tracer wraps them."""
    for short in MODULES:
        module = importlib.import_module(f"corridors.{short}")
        names = getattr(module, "__all__", None) or [n for n in vars(module)
                                                     if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, obj, f"{short}.{name}"
            elif inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if not attr.startswith("_") and (
                            inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))):
                        yield obj, attr, raw, f"{short}.{name}.{attr}"


def test_no_public_function_runs_off_the_main_thread(monkeypatch):
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    off_main = []

    def recorder(name, fn):
        def wrapped(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapped

    namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "corridors"]
    wrapped_names = []
    for owner, attr, raw, name in list(_public_callables()):
        wrapped_names.append(name)
        if isinstance(raw, (classmethod, staticmethod)):
            monkeypatch.setattr(owner, attr, type(raw)(recorder(name, raw.__func__)))
        elif inspect.isclass(owner):
            monkeypatch.setattr(owner, attr, recorder(name, raw))
        else:  # rebind it wherever another module imported it
            for ns in namespaces:
                if vars(ns).get(attr) is raw:
                    monkeypatch.setattr(ns, attr, recorder(name, raw))
    assert "nonselective.superpropagate" in wrapped_names
    sweeps = []
    _thread_spy(monkeypatch, _StepPlan, "apply", sweeps)
    for run in MULTI_BATCH.values():
        run()
    assert off_main == []
    assert not all(sweeps)  # the batches did sweep on the workers


@pytest.mark.parametrize("case", sorted(MULTI_BATCH))
def test_the_plans_lazy_caches_fill_before_dispatch(monkeypatch, case):
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    filled = []
    build = _StepPlan.__dict__["matrix"].func

    def spy(plan):
        filled.append(threading.current_thread() is threading.main_thread())
        return build(plan)

    prop = cached_property(spy)
    prop.__set_name__(_StepPlan, "matrix")
    monkeypatch.setattr(_StepPlan, "matrix", prop)
    MULTI_BATCH[case]()
    assert filled and all(filled)


def test_batch_map_runs_each_call_in_the_callers_context(monkeypatch, kept):
    # numpy's errstate is context-local: a pool thread outside the caller's
    # context would warn on the overflow the caller silenced.  At two
    # workers the caller sweeps the first input of each pair, the pool the
    # second
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    var = contextvars.ContextVar("var", default="unset")

    def overflow(x):
        return var.get(), np.exp(np.full(4, x)), threading.current_thread()

    token = var.set("caller")
    try:
        with np.errstate(over="ignore"):
            out = list(selective._batch_map(overflow, [1000.0] * 5))
    finally:
        var.reset(token)
    assert len(kept) == 1 and grids._kept_pool is kept[0]
    assert [v for v, _, _ in out] == ["caller"] * 5
    assert all(np.isinf(e).all() for _, e, _ in out)
    assert [t is threading.main_thread() for _, _, t in out] == [True, False, True, False, True]


def test_a_multi_batch_sampler_that_saturates_returns_inf_without_a_warning(monkeypatch, kept):
    # a record far out on a wide lattice: the batches, shifted and rescaled on
    # both threads, stay in range, and only the mean put back at its true
    # scale passes the double range; that saturates at inf with no
    # RuntimeWarning (the suite makes one an error), and the log stays finite
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    g, tg = SpatialGrid(40.0, 32), TimeGrid(1.0, 10)
    ham, obs = HamiltonianSpec.free(g), ObservableSpec.position(g)
    res = selective.evolve_selective_coarse_mc(
        gaussian_packet(g, width=1.0), np.full(10, 5.0), FormFactor.gaussian(0.04), 5.0,
        ham, obs, g, tg, samples=1000, seed=3)
    assert len(kept) == 1
    assert np.isinf(res.norm_sq) and not np.all(np.isfinite(res.final_state))
    assert np.isfinite(res.log_norm_sq)


def test_windowed_mc_unitarity_stays_on_the_calling_thread(monkeypatch, kept):
    # its small contractions hold the GIL: two threads made it slower
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    g, tg = SpatialGrid(4.0, 4), TimeGrid(0.8, 4)
    ham = oracles.hamiltonian_from_potential(g, lambda q: 0.3 * q**2)
    obs, ff = ObservableSpec.position(g), FormFactor.gaussian(0.3)
    contractions = []
    _thread_spy(monkeypatch, nonselective, "_contract_windowed", contractions)
    nonselective.check_generalized_unitarity(KAPPA, ham, obs, g, tg, form_factor=ff,
                                             mode="mc", samples=200, seed=5)
    assert len(contractions) > 1 and all(contractions)
    assert not kept and grids._kept_pool is None


@pytest.mark.parametrize("samples", [2, 512])
def test_a_single_batch_runs_inline(monkeypatch, kept, samples):
    monkeypatch.setattr(grids, "_USABLE_CORES", 2)
    g, tg, ham, obs, psi0, ff, _ = _field_setup()
    sweeps = []
    _thread_spy(monkeypatch, _StepPlan, "apply", sweeps)
    selective.evolve_selective_coarse_mc(psi0, np.zeros(tg.n_steps), ff, KAPPA, ham, obs, g,
                                         tg, samples=samples, seed=1)
    assert sweeps == [True]
    assert not kept and grids._kept_pool is None


def test_callers_sharing_the_kept_pool_each_get_their_results_in_order(monkeypatch, kept):
    # two callers on their own threads, four workers on a three-thread pool
    # (more than the cores), threads switched often: each call yields its
    # own results in input order, bit for bit the serial map's
    monkeypatch.setattr(grids, "_USABLE_CORES", 4)

    def batch(x):
        return np.cumsum(np.exp(np.linspace(-1.0, 1.0, 4096) * x))

    want = list(map(batch, range(40)))
    got = [[], []]
    callers = [threading.Thread(target=lambda out=out: out.extend(selective._batch_map(batch, range(40))),
                                daemon=True) for out in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(kept) == 1 and kept[0]._max_workers == 3
    for out in got:
        assert len(out) == len(want) and all(np.array_equal(a, b) for a, b in zip(out, want))

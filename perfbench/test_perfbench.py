"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench -q

References are made in the test from the code under test, so these check
the harness (every op runs and is checked, a wrong output fails, a failing
op is timed and counted, traced self times add up), not the package.
"""

import functools
import time

import run

run.import_package()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import make_refs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

TINY_IDEAL = functools.partial(workloads.Ideal, n=8, extent=8.0, n_steps=128)
TINY_SAMPLES = {
    "sel_coarse_mc": {6: 200},
    "sup_coarse_mc": {6: 20},
    "unit_mc_ideal": {6: 20},
    "unit_mc_coarse": {6: 20},
    "medium_mc": 100,
}
TINY_SAMPLED = functools.partial(workloads.SampledWindow, lengths=(6,), samples=TINY_SAMPLES)
TINY_CLI = functools.partial(
    workloads.CliScenarios,
    invocations=[
        ("slow", "evolve --readout sample --engine auto", None),
        ("slow", "evolve --readout sample --engine coarse", None),
        ("slow", "evolve --readout sample --engine mc --samples 50",
         "slow:evolve --readout sample --engine coarse"),
        ("slow", "average --engine superpropagator", None),
        ("slow", "average --engine superpropagator --mode mc --samples 20",
         "slow:average --engine superpropagator"),
        ("slow", "unitarity-check --mode exact", None),
        ("slow", "medium-compare --corpus 5 --ell 2.0", None),
        ("slow", "zeno-sweep", None),
    ],
)


def tiny(factory, seed=3, inputs=None):
    refs = make_refs.build(factory, inputs)
    return factory(seed, refs), refs


def sampled_inputs():
    inputs = {}
    for key, record in workloads.sampled_window_records().items():
        inputs.update(checks.pack(key, record))
    return inputs


@pytest.mark.parametrize("factory,inputs", [
    (TINY_IDEAL, None),
    (TINY_SAMPLED, "sampled"),
    (TINY_CLI, None),
])
def test_every_op_runs_and_is_checked(factory, inputs):
    workload, _ = tiny(factory, inputs=sampled_inputs() if inputs else None)
    try:
        done = run.run_pass(workload)
    finally:
        workload.close()
    assert [r.name for r in done.records] == [op.name for op in workload.ops]
    for r in done.records:
        assert r.wall > 0
        # only the listed known defects may fail
        assert not r.verdict.reasons or r.name in workload.known_failures, r.verdict.reasons


def test_perturbed_reference_is_a_failure():
    workload, refs = tiny(TINY_IDEAL)
    clean = run.run_pass(workload)
    assert not any(r.verdict.reasons for r in clean.records if r.name == "lindblad_evolve")
    key = "lindblad_evolve.rho.value"
    refs[key] = refs[key].copy()
    refs[key][0] += 1e-6
    perturbed = TINY_IDEAL(3, refs)
    record = next(r for r in run.run_pass(perturbed).records if r.name == "lindblad_evolve")
    assert any("differs from reference" in why for why in record.verdict.reasons)


def test_failing_op_is_timed_and_counted():
    workload, _ = tiny(TINY_IDEAL)

    def broken():
        time.sleep(0.02)
        raise FloatingPointError("boom")

    workload.ops.append(workloads.Op("broken", broken, lambda out, _: checks.Verdict(), 1))
    passes = [run.run_pass(workload) for _ in range(workload.min_passes)]
    record = passes[0].records[-1]
    assert record.wall >= 0.02
    assert record.verdict.reasons == ["broken: raised FloatingPointError: boom"]
    metrics, info = run.end_to_end(workload, passes, setup_s=0.1)
    n_ops = len(workload.ops)
    assert info["fail_frac"] == pytest.approx(1.0 / n_ops)
    assert metrics["ok_frac"] == pytest.approx(1.0 - 1.0 / n_ops)


def test_repeated_input_sets_do_not_change_the_operation_count():
    workload, _ = tiny(TINY_SAMPLED, inputs=sampled_inputs())
    sets = workload.input_sets
    assert sets > 1
    passes = [run.run_pass(workload) for _ in range(sets + 1)]
    # the pass past the input sets repeats the first one's outputs exactly
    for first, again in zip(passes[0].records, passes[sets].records):
        assert (first.name, first.input_set) == (again.name, again.input_set)
        assert first.verdict.reasons == again.verdict.reasons
        assert first.verdict.e == again.verdict.e
    attempted, failed = run.outcomes(passes)
    assert (attempted, failed) == run.outcomes(passes[:sets])
    assert attempted == sets * len(workload.ops)


def test_a_run_covers_every_input_set():
    for factory in workloads.WORKLOADS.values():
        assert factory.min_passes >= factory.input_sets


def test_traced_self_times_add_up_to_the_pass():
    workload, _ = tiny(TINY_IDEAL)
    untraced = run.run_pass(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == ["op." + op.name for op in workload.ops]
    root_total = sum(spans[i][2] - spans[i][1] for i in roots)
    # self times partition the root spans, which fill the timed pass
    assert sum(own.values()) == pytest.approx(root_total, rel=1e-9)
    assert root_total <= traced.wall
    assert root_total >= 0.95 * traced.wall
    # the package's self times add up to the untraced pass within the
    # reported overhead, plus the benchmark's glue between and around calls
    module_self = sum(t for i, t in own.items() if not spans[i][0].startswith("op."))
    glue = traced.wall - module_self
    assert 0 <= glue <= 0.05 * traced.wall
    overhead = traced.wall / untraced.wall - 1.0
    assert abs(module_self - untraced.wall) <= (abs(overhead) + 0.05) * untraced.wall


def test_tracer_rebinds_imported_names_and_restores_them():
    from corridors import grids, selective

    original = grids.unitary_step
    tracer = Tracer()
    tracer.install()
    try:
        assert selective.unitary_step is grids.unitary_step is not original
        assert grids.unitary_step.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert selective.unitary_step is grids.unitary_step is original


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 30, 54, 52, 200):
        q = run.tail_percentile(n)
        data = np.arange(n, dtype=float)
        assert np.sum(data > np.percentile(data, q)) >= 10
        assert np.sum(data > np.percentile(data, q + 1)) < 10


def test_reference_packing_round_trips_within_tolerance():
    rng = np.random.default_rng(0)
    array = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) * 1e-40
    array[0, 0] = np.nan
    store = checks.pack("x", array)
    back = checks.unpack(store, "x")
    assert not checks.compare("x", array, back).reasons

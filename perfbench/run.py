"""Run one corridors benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ideal_long --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout and nowhere else, so without it the run exits with code 2
and prints no result.  BLAS is pinned to one thread before numpy loads.

An untraced run (``--trace 0``) runs the workload's minimum number of
passes, then more while another still fits in ``--seconds``; it checks
every output of every pass and prints the end-to-end metrics.  An
operation is one op on one of the workload's input sets: passes past the
input sets repeat them for timing, so ``attempted`` and ``failed`` depend
on the seed only, not on how many passes fit.  A traced run
(``--trace 1``) alternates untraced and traced passes the same way,
derives the per-layer metrics from the spans of the traced ones, and
writes the spans to ``perfbench/out/`` at exit.  The last line of
standard output is the result object; the lines before it give the
machine, the tail percentile used and every failure with its reason.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
PROBE_CALLS = 50
# Seconds the calibration kernel takes on the reference machine, a shared
# 2-core VM, in its fast state (see README).
CAL_REF_S = 5.3e-3
_CAL_INPUT = []


def calibrate():
    """Seconds for a fixed numpy workload of the engines' kind (small FFT
    round trips and phase products), ~5 ms.

    The machine the benchmark runs on switches between speed states that
    differ by up to 50% within seconds.  Every time the metrics report is
    scaled by CAL_REF_S over this kernel's time measured next to it, so a
    slow stretch of the machine slows both and cancels out.
    """
    import numpy as np

    if not _CAL_INPUT:
        _CAL_INPUT.append(np.random.default_rng(0).standard_normal((16, 16)) + 0j)
    x = _CAL_INPUT[0]
    started = time.perf_counter()
    for _ in range(400):
        x = np.fft.ifft(np.exp(-1e-3j) * np.fft.fft(x, axis=0), axis=0)
    return time.perf_counter() - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import corridors from this checkout's src/ only; returns import seconds."""
    if not (SRC / "corridors" / "__init__.py").is_file():
        die(f"no corridors sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import corridors.cli  # noqa: F401  (imports every module of the package)
    import workloads  # noqa: F401
    elapsed = time.perf_counter() - started
    origin = Path(sys.modules["corridors"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        die(f"corridors was imported from {origin}, not from {SRC}")
    return elapsed


def machine_block():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# passes


class OpRecord:
    """One op of one pass: its wall time and, in ``ref``, that time scaled to
    the reference machine speed by the calibrations on either side."""

    __slots__ = ("name", "input_set", "wall", "ref", "verdict", "steps", "samples")

    def __init__(self, name, input_set, wall, ref, verdict, steps, samples):
        self.name, self.input_set = name, input_set
        self.wall, self.ref, self.verdict = wall, ref, verdict
        self.steps, self.samples = steps, samples


class Pass:
    def __init__(self, wall, records):
        self.wall, self.records = wall, records

    @property
    def ref(self):
        return sum(r.ref for r in self.records)


def run_pass(workload, tracer=None):
    """Time every op of the workload once, then check every output.

    An op that raises is timed like any other and fails its check; the
    checks run after the timed region so they never count as work.
    """
    from checks import failed

    workload.begin_pass()
    timed, cals = [], []
    started = time.perf_counter()
    for op in workload.ops:
        cals.append(calibrate())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span("op." + op.name):
                    out = op.call()
        except Exception as exc:  # a failing op is an outcome to record, not a crash
            out = exc
        timed.append((op, out, time.perf_counter() - t0))
    cals.append(calibrate())
    wall = time.perf_counter() - started - sum(cals)
    outputs = {op.name: out for op, out, _ in timed}
    records = []
    for k, (op, out, elapsed) in enumerate(timed):
        if isinstance(out, Exception):
            verdict = failed(f"{op.name}: raised {type(out).__name__}: {out}")
        else:
            try:
                verdict = op.check(out, outputs)
            except Exception as exc:  # a malformed output fails its op
                verdict = failed(f"{op.name}: check raised {type(exc).__name__}: {exc}")
        scale = CAL_REF_S / (0.5 * (cals[k] + cals[k + 1]))
        records.append(OpRecord(op.name, workload.input_set, elapsed, elapsed * scale, verdict,
                                op.steps, op.samples))
    workload.end_pass()
    return Pass(wall, records)


def outcomes(passes):
    """(attempted, failed): each op on each input set is one operation,
    however many passes repeated it, and it failed if any repeat failed."""
    bad = {}
    for p in passes:
        for r in p.records:
            key = (r.name, r.input_set)
            bad[key] = bad.get(key, False) or bool(r.verdict.reasons)
    return len(bad), sum(bad.values())


def fits(started, seconds, done):
    """Whether one more pass (or traced pair), as long as the mean one so
    far with its checks, still ends within the run's seconds."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def tail_percentile(n_samples):
    """Highest whole percentile with at least 10 of n samples beyond it
    (linear interpolation between order statistics)."""
    return max(0, math.ceil(100.0 * (n_samples - 10) / (n_samples - 1)) - 1)


def tta_factor(verdict):
    # (e / 1%)^2 times the samples reach a 1% error; an exact engine that
    # is within 1% needs no more than its one call
    factor = (max(verdict.e, 1e-12) / 0.01) ** 2
    return factor if verdict.sampled else max(1.0, factor)


def end_to_end(workload, passes, setup_s):
    """The end-to-end metrics of an untraced run.

    Times are reference-speed times (`OpRecord.ref`).  A pass's wall time
    is the sum over its ops of each op's median time across passes.
    """
    import numpy as np

    by_op = {}
    for p in passes:
        for r in p.records:
            by_op.setdefault(r.name, []).append(r)
    op_wall = {name: statistics.median(r.ref for r in rows) for name, rows in by_op.items()}
    wall = sum(op_wall.values())
    steps = sum(rows[0].steps for rows in by_op.values())
    # time to 1% accuracy: op medians, times the geometric mean over input
    # sets of each op's accuracy factor (every input set draws fresh samples;
    # a repeated set repeats its outputs)
    def log_factor(rows):
        first = {}
        for r in rows:
            first.setdefault(r.input_set, r)
        return statistics.fmean(math.log(tta_factor(r.verdict)) for r in first.values())

    log_tta = statistics.fmean(math.log(op_wall[name]) + log_factor(rows) for name, rows in by_op.items())
    records = [r for p in passes for r in p.records]
    # every op repeats identical work in each pass, so the spread of its
    # times is machine noise: the latency distribution takes each sample at
    # its op's median
    op_ms = np.array([op_wall[r.name] * 1e3 for r in records])
    q = tail_percentile(workload.min_passes * len(workload.ops))
    attempted, failures = outcomes(passes)
    raw_wall = sum(statistics.median(r.wall for r in rows) for rows in by_op.values())
    info = {"tail_percentile": q, "task_samples": int(op_ms.size), "passes": len(passes),
            "fail_frac": failures / attempted, "unscaled_wall_s": raw_wall,
            "time_scale": wall / raw_wall}
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "tta_s": math.exp(log_tta),
        "task_p50_ms": float(np.percentile(op_ms, 50)),
        "task_tail_ms": float(np.percentile(op_ms, q)),
        "ok_frac": 1.0 - failures / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, info


# ----------------------------------------------------------------------
# per-layer metrics of a traced run


def probe_us(call):
    """Median microseconds of one call over PROBE_CALLS calls; 0.0 when the
    call refuses its arguments (short_time_kernel_matrix above its cap)."""
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        try:
            call()
        except ValueError:
            return 0.0
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def sampler_metrics(traced, samplers):
    """us_per_sample, rel_var_per_sample and err_over_stderr per sampler op,
    medians over the traced passes (each pass draws fresh samples)."""
    out = {}
    for prefix, op_name in samplers.items():
        rows = [r for p in traced for r in p.records if r.name == op_name]
        details = [r.verdict.detail for r in rows if r.verdict.detail.get("stderr")]
        out[f"{prefix}.us_per_sample"] = (
            statistics.median(r.wall / r.samples * 1e6 for r in rows) if rows else 0.0
        )
        out[f"{prefix}.rel_var_per_sample"] = (
            statistics.median(d["samples"] * (d["stderr"] / d["scale"]) ** 2 for d in details)
            if details else 0.0
        )
        out[f"{prefix}.err_over_stderr"] = (
            statistics.median(d["err"] / d["stderr"] for d in details) if details else 0.0
        )
    return out


SAMPLERS = {
    f"selective.evolve_selective_coarse_mc.N{n}": f"sel_coarse_mc.N{n}" for n in (6, 64)
}
SAMPLERS.update({f"nonselective.superpropagate.coarse_mc.N{n}": f"sup_coarse_mc.N{n}" for n in (6, 64)})
SAMPLERS.update({f"nonselective.unitarity_mc_ideal.N{n}": f"unit_mc_ideal.N{n}" for n in (6, 64)})
SAMPLERS.update({f"nonselective.unitarity_mc_coarse.N{n}": f"unit_mc_coarse.N{n}" for n in (6, 64)})
SAMPLERS.update({
    "nonselective.medium_exact_mc": "medium_exact_mc",
    "nonselective.medium_firstorder_mc": "medium_firstorder_mc",
})


def per_layer(workload, untraced, traced, tracer, ranges):
    from corridors import grids
    from tracing import MODULES, self_times

    spans, n_traced = tracer.spans, len(traced)
    module_self, module_calls = dict.fromkeys(MODULES, 0.0), dict.fromkeys(MODULES, 0)
    by_name = {}  # span name -> [(duration, self time, info, index)]
    plan_work = {}  # span index -> work_elements of its first WindowSpec.plan child
    for first, last in ranges:
        own = self_times(spans, first, last)
        for i in range(first, last):
            name, start, end, parent, info = spans[i]
            module = name.split(".", 1)[0]
            if module in module_self:
                module_self[module] += own[i]
                module_calls[module] += 1
            by_name.setdefault(name, []).append((end - start, own[i], info or {}, i))
            if name == "selective.WindowSpec.plan" and info:
                plan_work.setdefault(parent, info["work"])

    def rows(name, variant=None):
        return [r for r in by_name.get(name, []) if variant is None or r[2].get("variant") == variant]

    def mean(name, variant=None, pick=lambda duration, own, info: duration):
        picked = [pick(*r[:3]) for r in rows(name, variant)]
        return statistics.fmean(picked) if picked else 0.0

    def per_step(name, variant=None):
        calls = rows(name, variant)
        steps = sum(r[2].get("steps", 0) for r in calls)
        return sum(r[0] for r in calls) / steps * 1e6 if steps else 0.0

    def per_elem_step(name, variant=None):
        # time / (WindowSpec.work_elements * N), the plan being the call's child
        calls = [r for r in rows(name, variant) if r[3] in plan_work]
        work = sum(plan_work[r[3]] * r[2].get("steps", 0) for r in calls)
        return sum(r[0] for r in calls) / work * 1e9 if work else 0.0

    psi, ham, sgrid, dt = workload.probe()
    attempted, failures = outcomes(untraced + traced)
    metrics = {
        "trace.overhead_frac": statistics.median(p.ref for p in traced)
        / statistics.median(p.ref for p in untraced) - 1.0,
        "fail_frac": failures / attempted,
        "grids.unitary_step.us": probe_us(lambda: grids.unitary_step(psi, ham, sgrid, dt)),
        "grids.short_time_kernel_matrix.us": probe_us(lambda: grids.short_time_kernel_matrix(ham, sgrid, dt)),
        "selective.evolve_selective_ideal.us_per_step": per_step("selective.evolve_selective_ideal"),
        "nonselective.lindblad_evolve.us_per_step": per_step("nonselective.lindblad_evolve"),
        "nonselective.readout_average.us_per_step": per_step("nonselective.readout_average", "quadrature"),
        "nonselective.superpropagate.us_per_step": per_step("nonselective.superpropagate", "ideal/exact"),
        "nonselective.check_generalized_unitarity.us_per_step": per_step(
            "nonselective.check_generalized_unitarity", "ideal/exact"),
        "readout.window_matrix.ms": mean("readout.FormFactor.window_matrix") * 1e3,
        "selective.WindowSpec.plan.ms": mean("selective.WindowSpec.plan") * 1e3,
        "selective.evolve_selective_coarse.ns_per_elem_step": per_elem_step("selective.evolve_selective_coarse"),
        "nonselective.superpropagate.coarse.ns_per_elem_step": per_elem_step(
            "nonselective.superpropagate", "coarse/exact"),
        "nonselective.check_generalized_unitarity.coarse.ns_per_elem_step": per_elem_step(
            "nonselective.check_generalized_unitarity", "coarse/exact"),
        "nonselective.superpropagate.medium_enum.ms": statistics.fmean(
            [mean("nonselective.superpropagate", variant=v) for v in ("medium_exact/exact", "medium_firstorder/exact")]
        ) * 1e3,
        "medium.reduce_to_phenomenological.us": mean("medium.reduce_to_phenomenological") * 1e6,
        "medium.influence_exact.us": mean("medium.influence_exact") * 1e6,
        "scenario.load_config.ms": mean("scenario.load_config") * 1e3,
        "scenario.run_scenario.self_ms": mean("scenario.run_scenario", pick=lambda d, own, i: own) * 1e3,
        "scenario.emit_plot_data.ms": mean("scenario.emit_plot_data") * 1e3,
        "scenario.emit_plot_data.bytes": mean("scenario.emit_plot_data", pick=lambda d, own, i: i.get("bytes", 0)),
        "scenario.file_sha256.ms": mean("scenario.file_sha256") * 1e3,
        "cli.main.self_ms": mean("cli.main", pick=lambda d, own, i: own) * 1e3,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module] / n_traced
        metrics[f"{module}.calls"] = module_calls[module] / n_traced
    metrics.update(sampler_metrics(traced, SAMPLERS))
    return metrics


# ----------------------------------------------------------------------


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    from tracing import Tracer
    from workloads import WORKLOADS, load_refs

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    declared = declared_metrics(args.trace)
    factory = WORKLOADS[args.workload]
    machine = machine_block()

    # set-up times are scaled like op times, by calibrations on either side
    # (the first calibration call also pays numpy's first-use costs)
    calibrate()
    setups, workload, cal = [], None, calibrate()
    import_s *= CAL_REF_S / cal
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = factory(args.seed, load_refs(args.workload))
        elapsed = time.perf_counter() - t0
        after = calibrate()
        setups.append(elapsed * CAL_REF_S / (0.5 * (cal + after)))
        cal = after
    setup_s = import_s + statistics.median(setups)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer()
    started = time.perf_counter()
    try:
        if args.trace:
            untraced, traced, ranges = [], [], []
            while len(untraced) + len(traced) < workload.input_sets or fits(started, args.seconds, len(traced)):
                untraced.append(run_pass(workload))
                first = len(tracer.spans)
                tracer.install()
                try:
                    traced.append(run_pass(workload, tracer))
                finally:
                    tracer.uninstall()
                ranges.append((first, len(tracer.spans)))
            passes = untraced + traced
            metrics = per_layer(workload, untraced, traced, tracer, ranges)
            info = {"passes": len(passes), "traced_passes": len(traced)}
        else:
            passes = []
            while len(passes) < workload.min_passes or fits(started, args.seconds, len(passes)):
                passes.append(run_pass(workload))
            metrics, info = end_to_end(workload, passes, setup_s)
    finally:
        workload.close()
        if args.trace:
            tracer.write(OUT / f"spans-{tag}.json")

    records = [r for p in passes for r in p.records]
    failures = {}  # op -> (passes failed, first reason)
    for r in records:
        if r.verdict.reasons:
            count, reason = failures.get(r.name, (0, r.verdict.reasons[0]))
            failures[r.name] = (count + 1, reason)
    unexpected = sorted(set(failures) - workload.known_failures)
    attempted, failed = outcomes(passes)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": {}}
    for entry in declared:
        value = metrics[entry["name"]]
        result["metrics"][entry["name"]] = {"value": float(value), "unit": entry["unit"]}

    ops = {}
    for r in records:
        ops.setdefault(r.name, {"wall_s": [], "ref_s": [], "e": [], "sampled": r.verdict.sampled})
        ops[r.name]["wall_s"].append(r.wall)
        ops[r.name]["ref_s"].append(r.ref)
        ops[r.name]["e"].append(r.verdict.e)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "info": info, "ops": ops,
              "failures": [{"op": n, "passes": c, "first_reason": why} for n, (c, why) in failures.items()],
              "unexpected_failures": unexpected, "result": result}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (count, reason) in sorted(failures.items()):
        known = "known" if name in workload.known_failures else "UNEXPECTED"
        print(f"FAIL [{known}] {name} in {count} of {len(passes)} passes; first: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: their inputs, their operations and each output's check.

A workload is built from the run seed and the stored references (that is
the set-up `setup_s` times) and exposes `ops`, the operations of one pass.
Every op calls the package through module attributes (``nonselective.
lindblad_evolve``, not a bound name), so the tracer's rebinding reaches it.
`Op.check(out, outputs)` judges one output, given all outputs of the pass.

Deterministic ops whose inputs do not depend on the seed are compared with
references stored from the commit that added the benchmark
(`refs/<workload>.npz`, written by `make_refs.py`).  The seeded selective record of the ideal workloads is
checked against a reference built by chaining short segments of the same
sweep with renormalization in between, exact because the sweep is linear.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from corridors import cli, grids, nonselective, readout, selective

import checks
from checks import Verdict, failed

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], Verdict]
    steps: int  # N of the engine call (what steps_per_s counts)
    samples: int | None = None  # Monte-Carlo samples, for samplers
    arrays: Callable[[object], dict] | None = None  # outputs stored as references


def load_refs(name):
    path = REFS / f"{name}.npz"
    if not path.is_file():
        return {}
    with np.load(path) as store:
        return {key: store[key] for key in store.files}


class Workload:
    min_passes = 1
    # Distinct input sets a run cycles through, one per pass: pass k uses
    # set k mod input_sets.  Passes past the first input_sets repeat earlier
    # inputs exactly, so how many passes fit in a run changes the timing
    # samples only, never which operations are checked.
    input_sets = 1
    known_failures = frozenset()  # ops that can fail in the reference code

    def __init__(self, refs):
        self.refs = refs
        self.ops = []
        self.passes_begun, self.input_set = 0, 0

    def ref(self, key):
        if f"{key}.shape" not in self.refs:
            return None
        return checks.unpack(self.refs, key)

    def ref_of(self, op_name, key):
        return self.ref(f"{op_key(op_name)}.{key}")

    def against_refs(self, op_name, arrays):
        v = Verdict()
        for key, value in arrays.items():
            ref = self.ref_of(op_name, key)
            if ref is None:
                v.add(failed(f"{op_name}.{key}: no stored reference"))
            else:
                v.add(checks.compare(f"{op_name}.{key}", value, ref))
        return v

    def probe(self):
        """(psi, ham, sgrid, dt) at which the one-step layer probes run."""
        raise NotImplementedError

    def begin_pass(self):
        self.input_set = self.passes_begun % self.input_sets
        self.passes_begun += 1

    def end_pass(self):
        pass

    def close(self):
        pass


def _lattice(n, extent, duration, n_steps, potential, center, width, momentum):
    sgrid, tgrid = grids.build_grids(extent, n, duration, n_steps)
    if potential == "free":
        ham = grids.HamiltonianSpec.free(sgrid)
    else:
        ham = grids.HamiltonianSpec.harmonic(sgrid, potential)
    obs = grids.ObservableSpec.position(sgrid)
    psi0 = grids.gaussian_packet(sgrid, center, width, momentum)
    return sgrid, tgrid, ham, obs, psi0


def sample_record(rng, psi0, obs, kappa, dt, n_steps):
    """A record drawn like ``--readout sample``: normals of variance
    1/(4 kappa dt) around the initial packet's mean of the observable."""
    prob = np.abs(psi0) ** 2
    mean = float(prob @ obs.values / prob.sum())
    return mean + rng.standard_normal(n_steps) / math.sqrt(4.0 * kappa * dt)


def _log_measure(kappa, dt, n_steps):
    return n_steps * 0.5 * math.log(2.0 * kappa * dt / math.pi)


# ----------------------------------------------------------------------
# ideal resolution: ideal_long and ideal_wide


def chained_selective(psi0, record, kappa, ham, obs, sgrid, dt, segment):
    """Normalized final state and log probability density of the ideal
    conditioned sweep, run as segments renormalized in between."""
    psi, log_norm = np.asarray(psi0, dtype=complex), 0.0
    for start in range(0, record.size, segment):
        part = record[start : start + segment]
        tgrid = grids.TimeGrid(dt * part.size, part.size)
        psi = selective.evolve_selective_ideal(psi, part, kappa, ham, obs, sgrid, tgrid).final_state
        norm2 = float(np.sum(np.abs(psi) ** 2) * sgrid.spacing)
        log_norm += math.log(norm2)
        psi = psi / math.sqrt(norm2)
    return psi, log_norm + _log_measure(kappa, dt, record.size)


class Ideal(Workload):
    """Free packet (width 1.2, momentum 0.4), kappa = 1, duration 1."""

    min_passes = 6
    segment = 32  # steps per chained segment; short enough that nothing underflows

    def __init__(self, seed, refs, n, extent, n_steps):
        super().__init__(refs)
        kappa = 1.0
        sgrid, tgrid, ham, obs, psi0 = _lattice(n, extent, 1.0, n_steps, "free", 0.0, 1.2, 0.4)
        rho0 = grids.pure_density(psi0)
        record = sample_record(np.random.default_rng(seed), psi0, obs, kappa, tgrid.dt, n_steps)
        self.chain = chained_selective(psi0, record, kappa, ham, obs, sgrid, tgrid.dt, self.segment)
        self.sgrid, self.tgrid, self.ham, self.psi0 = sgrid, tgrid, ham, psi0
        spec = nonselective.InfluenceKernelSpec("ideal", kappa)

        def density_op(name, call):
            def check(rho, _):
                v = self.against_refs(name, {"rho": rho})
                return v.add(checks.density(name, rho, sgrid.spacing))

            return Op(name, call, check, n_steps, arrays=lambda rho: {"rho": rho})

        self.ops = [
            density_op(
                "lindblad_evolve",
                lambda: nonselective.lindblad_evolve(rho0, kappa, ham, obs, sgrid, tgrid),
            ),
            density_op(
                "readout_average",
                lambda: nonselective.readout_average(psi0, kappa, ham, obs, sgrid, tgrid).rho,
            ),
            density_op(
                "superpropagate",
                lambda: nonselective.superpropagate(rho0, spec, ham, obs, sgrid, tgrid).rho,
            ),
            Op(
                "evolve_selective_ideal",
                lambda: selective.evolve_selective_ideal(
                    psi0, record, kappa, ham, obs, sgrid, tgrid
                ),
                self._check_selective,
                n_steps,
            ),
            Op(
                "check_generalized_unitarity",
                lambda: nonselective.check_generalized_unitarity(kappa, ham, obs, sgrid, tgrid),
                lambda report, _: checks.unitarity("check_generalized_unitarity", report.matrix),
                n_steps,
            ),
        ]

    def _check_selective(self, result, _):
        name = "evolve_selective_ideal"
        psi = np.asarray(result.final_state)
        if not np.all(np.isfinite(psi)):
            return failed(f"{name}: non-finite state")
        norm2 = float(np.sum(np.abs(psi) ** 2) * self.sgrid.spacing)
        v = Verdict()
        if norm2 == 0.0:
            v.add(failed(f"{name}: state underflowed to 0.0"))
        else:
            v.add(checks.compare(f"{name}.state", psi / math.sqrt(norm2), self.chain[0]))
        density = result.probability_density
        if not (math.isfinite(density) and density > 0.0):
            v.add(failed(f"{name}: probability density underflowed to {density!r}"))
        else:
            gap = abs(math.log(density) - self.chain[1])
            if gap > checks.REF_TOL * max(1.0, abs(self.chain[1])):
                v.add(failed(f"{name}: log probability density off by {gap:.3e}"))
        return v

    def probe(self):
        return self.psi0, self.ham, self.sgrid, self.tgrid.dt


class IdealLong(Ideal):
    known_failures = frozenset({"evolve_selective_ideal"})

    def __init__(self, seed, refs):
        super().__init__(seed, refs, n=16, extent=8.0, n_steps=8192)


class IdealWide(Ideal):

    def __init__(self, seed, refs):
        super().__init__(seed, refs, n=256, extent=32.0, n_steps=128)


# ----------------------------------------------------------------------
# finite resolution: sampled_window

# the physics of demos/scenarios/slow_detector.ini: harmonic 0.9, packet at
# 0.3 of width 1, error width 1.3 over 0.6 time units, gaussian window
# tau = 0.4 dt at dt = 0.1
SW_KAPPA = 1.0 / (0.6 * 1.3**2)
SW_TAU = 0.04
SW_DT = 0.1
SW_ELL = 2.0
RECORD_LENGTHS = (6, 64)
RECORD_SEED = 99  # fixed: the stored exact references depend on the records


def sampled_window_records():
    """The selective records, drawn once when the references are made."""
    rng = np.random.default_rng(RECORD_SEED)
    out = {}
    for length in RECORD_LENGTHS:
        _, tgrid, _, obs, psi0 = _sw_lattice(16, length)
        out[f"record.N{length}"] = sample_record(rng, psi0, obs, SW_KAPPA, tgrid.dt, length)
    return out


def _sw_lattice(n, n_steps):
    return _lattice(n, 6.0, SW_DT * n_steps, n_steps, 0.9, 0.3, 1.0, 0.0)


class SampledWindow(Workload):
    """Exact windowed engines and every sampler checked against them.

    Sample counts (the samplers' cost knob) are fixed here; the record
    lengths are not a knob: the 64-step record is where the fixed-mixture
    record sampler breaks.
    """

    min_passes = 3
    input_sets = 3
    # Every op on the fixed-mixture record sampler (ROADMAP item 4): its
    # error bars fail at 64 steps at almost every seed and at 6 steps at
    # some.  And the aux-field sampler, whose probability density carries a
    # linearized stderr that omits the bias of |mean|^2 (misses at some
    # seeds on the 6-step record).
    known_failures = frozenset(
        f"{op}.N{n}"
        for op in ("sup_coarse_mc", "unit_mc_ideal", "unit_mc_coarse", "sel_coarse_mc")
        for n in RECORD_LENGTHS
    )
    samples = {
        "sel_coarse_mc": {6: 2000, 64: 2000},
        "sup_coarse_mc": {6: 200, 64: 50},
        "unit_mc_ideal": {6: 200, 64: 200},
        "unit_mc_coarse": {6: 200, 64: 50},
        "medium_mc": 1000,
    }

    def __init__(self, seed, refs, lengths=RECORD_LENGTHS, samples=None):
        super().__init__(refs)
        samples = samples or self.samples
        ff = readout.FormFactor.gaussian(SW_TAU)
        self.seed = seed
        slots = itertools.count()
        for length in lengths:
            self._length_ops(length, ff, samples, slots)
        self._medium_ops(ff, samples["medium_mc"], slots)

    def mc_seed(self, slot):
        # a Monte-Carlo seed for each sampler in each input set, so a run
        # averages over independent estimates; fixed by the run seed
        return 1_000_003 * self.seed + 64 * (self.input_set + 1) + slot

    def _length_ops(self, length, ff, samples, slots):
        kappa, tag = SW_KAPPA, f".N{length}"
        s16, t16, h16, o16, psi16 = _sw_lattice(16, length)
        s4, t4, h4, o4, psi4 = _sw_lattice(4, length)
        rho4 = grids.pure_density(psi4)
        record = self.ref(f"record.N{length}")
        if record is None:
            record = sampled_window_records()[f"record.N{length}"]
        coarse = nonselective.InfluenceKernelSpec("coarse", kappa, form_factor=ff)
        self.sgrid16, self.ham16, self.psi16, self.dt = s16, h16, psi16, t16.dt

        sel_name, sup_name = "sel_coarse" + tag, "sup_coarse" + tag
        n = {k: samples[k][length] for k in ("sel_coarse_mc", "sup_coarse_mc", "unit_mc_ideal", "unit_mc_coarse")}
        slot = {k: next(slots) for k in n}

        def sel_arrays(res):
            return {"state": res.final_state, "density": np.array([res.probability_density])}

        def check_sel(res, _):
            return self.against_refs(sel_name, sel_arrays(res))

        def check_sel_mc(res, _):
            name = "sel_coarse_mc" + tag
            state, density = self.ref_of(sel_name, "state"), self.ref_of(sel_name, "density")
            if state is None:
                return failed(f"{name}: no stored exact reference")
            v = checks.sampled(f"{name}.state", res.final_state, state, res.state_stderr, res.n_samples)
            return v.add(checks.sampled(
                f"{name}.density", np.array([res.probability_density]), density,
                np.array([res.probability_stderr]), res.n_samples,
            ))

        def check_sup(rho, _):
            v = self.against_refs(sup_name, {"rho": rho})
            return v.add(checks.density(sup_name, rho, s4.spacing))

        def check_sup_mc(res, _):
            exact = self.ref_of(sup_name, "rho")
            if exact is None:
                return failed(f"sup_coarse_mc{tag}: no stored exact reference")
            return checks.sampled("sup_coarse_mc" + tag, res.rho, exact, res.stderr, res.n_samples)

        def check_unit_mc(name):
            return lambda rep, _: checks.sampled(name, rep.matrix, np.eye(4), rep.stderr, rep.n_samples)

        self.ops += [
            Op(
                sel_name,
                lambda: selective.evolve_selective_coarse(psi16, record, ff, kappa, h16, o16, s16, t16),
                check_sel, length, arrays=sel_arrays,
            ),
            Op(
                "sel_coarse_mc" + tag,
                lambda: selective.evolve_selective_coarse_mc(
                    psi16, record, ff, kappa, h16, o16, s16, t16,
                    samples=n["sel_coarse_mc"], seed=self.mc_seed(slot["sel_coarse_mc"]),
                ),
                check_sel_mc, length, samples=n["sel_coarse_mc"],
            ),
            Op(
                sup_name,
                lambda: nonselective.superpropagate(rho4, coarse, h4, o4, s4, t4).rho,
                check_sup, length, arrays=lambda rho: {"rho": rho},
            ),
            Op(
                "sup_coarse_mc" + tag,
                lambda: nonselective.superpropagate(
                    rho4, coarse, h4, o4, s4, t4, mode="mc",
                    samples=n["sup_coarse_mc"], seed=self.mc_seed(slot["sup_coarse_mc"]),
                ),
                check_sup_mc, length, samples=n["sup_coarse_mc"],
            ),
            Op(
                "unit_coarse" + tag,
                lambda: nonselective.check_generalized_unitarity(kappa, h4, o4, s4, t4, form_factor=ff),
                lambda rep, _: checks.unitarity("unit_coarse" + tag, rep.matrix),
                length,
            ),
            Op(
                "unit_mc_ideal" + tag,
                lambda: nonselective.check_generalized_unitarity(
                    kappa, h4, o4, s4, t4, mode="mc",
                    samples=n["unit_mc_ideal"], seed=self.mc_seed(slot["unit_mc_ideal"]),
                ),
                check_unit_mc("unit_mc_ideal" + tag), length, samples=n["unit_mc_ideal"],
            ),
            Op(
                "unit_mc_coarse" + tag,
                lambda: nonselective.check_generalized_unitarity(
                    kappa, h4, o4, s4, t4, form_factor=ff, mode="mc",
                    samples=n["unit_mc_coarse"], seed=self.mc_seed(slot["unit_mc_coarse"]),
                ),
                check_unit_mc("unit_mc_coarse" + tag), length, samples=n["unit_mc_coarse"],
            ),
        ]

    def _medium_ops(self, ff, n_samples, slots):
        # n = 4 sites and 4 slices: 4^4 paths, so the pair enumeration is exact
        sgrid, tgrid, ham, obs, psi0 = _sw_lattice(4, 3)
        rho0 = grids.pure_density(psi0)
        for kind in ("medium_exact", "medium_firstorder"):
            spec = nonselective.InfluenceKernelSpec(kind, SW_KAPPA, form_factor=ff, ell=SW_ELL)
            enum, mc, slot = kind + "_enum", kind + "_mc", next(slots)

            def check_enum(rho, _, enum=enum):
                v = self.against_refs(enum, {"rho": rho})
                return v.add(checks.density(enum, rho, sgrid.spacing))

            def check_mc(res, _, enum=enum, mc=mc):
                exact = self.ref_of(enum, "rho")
                if exact is None:
                    return failed(f"{mc}: no stored exact reference")
                return checks.sampled(mc, res.rho, exact, res.stderr, res.n_samples)

            self.ops += [
                Op(
                    enum,
                    lambda spec=spec: nonselective.superpropagate(rho0, spec, ham, obs, sgrid, tgrid).rho,
                    check_enum, tgrid.n_steps, arrays=lambda rho: {"rho": rho},
                ),
                Op(
                    mc,
                    lambda spec=spec, slot=slot: nonselective.superpropagate(
                        rho0, spec, ham, obs, sgrid, tgrid, mode="mc",
                        samples=n_samples, seed=self.mc_seed(slot),
                    ),
                    check_mc, tgrid.n_steps, samples=n_samples,
                ),
            ]

    def probe(self):
        return self.psi16, self.ham16, self.sgrid16, self.dt


# ----------------------------------------------------------------------
# the command line on the two demo scenarios: cli_scenarios

SCENARIOS = HERE / "scenarios"  # copies of demos/scenarios when the benchmark was added

# (scenario, task arguments, exact counterpart of a sampled invocation).
# Every task with every --engine/--mode each scenario accepts.  Sample
# counts below the defaults keep a pass near 8 s (the free average --mode
# mc runs take 30 s each at their default 1000); tta_s does not depend on
# them for an honest sampler.  The free unitarity --mode mc run keeps its
# default 200 samples, at which it fails for every seed tried.
INVOCATIONS = [
    ("free", "evolve --readout sample --engine auto", None),
    ("free", "evolve --readout sample --engine ideal", None),
    ("free", "evolve --readout sample --engine coarse", None),
    ("free", "evolve --readout sample --engine mc --samples 200", "free:evolve --readout sample --engine ideal"),
    ("free", "average --engine lindblad", None),
    ("free", "average --engine quadrature", None),
    ("free", "average --engine quadrature --mode mc --samples 40", "free:average --engine quadrature"),
    ("free", "average --engine superpropagator", None),
    ("free", "average --engine superpropagator --mode mc --samples 40", "free:average --engine superpropagator"),
    ("free", "unitarity-check --mode exact", None),
    ("free", "unitarity-check --mode mc", "identity"),
    ("free", "medium-compare --ell 2.0", None),
    ("free", "zeno-sweep", None),
    ("free", "convergence --study dt --levels 3", None),
    ("slow", "evolve --readout sample --engine auto", None),
    ("slow", "evolve --readout sample --engine coarse", None),
    ("slow", "evolve --readout sample --engine mc", "slow:evolve --readout sample --engine coarse"),
    ("slow", "average --engine lindblad", None),
    ("slow", "average --engine quadrature --mode mc --samples 100", "slow:average --engine superpropagator"),
    ("slow", "average --engine superpropagator", None),
    ("slow", "average --engine superpropagator --mode mc --samples 100", "slow:average --engine superpropagator"),
    ("slow", "unitarity-check --mode exact", None),
    ("slow", "unitarity-check --mode mc", "identity"),
    ("slow", "medium-compare --ell 2.0", None),
    ("slow", "zeno-sweep", None),
    ("slow", "convergence --study tau", None),
]
SCENARIO_FILES = {"free": "free_monitored.ini", "slow": "slow_detector.ini"}
# (extent, n_points, n_steps) of each scenario, for spacings and step counts
SCENARIO_SHAPE = {"free": (16.0, 64, 200), "slow": (6.0, 4, 6)}
SEEDED_TASKS = ("evolve", "medium-compare")  # outputs depend on [run] seed
# a deterministic evolve engine is checked against the scenario's reference engine
EVOLVE_REFERENCE = {"free": "ideal", "slow": "coarse"}


@dataclass
class Invocation:
    code: int
    outdir: Path
    stderr: str


def read_tables(outdir):
    """Numeric content and header lines of every table an invocation wrote."""
    tables = {}
    for path in sorted(outdir.glob("*.txt")):
        text = path.read_text()
        header = [line[1:].strip() for line in text.splitlines() if line.startswith("#")]
        data = np.loadtxt(io.StringIO(text), comments="#", ndmin=2)
        tables[path.stem] = (data, header)
    return tables


def _header_value(header, key):
    for line in header:
        if line.startswith(key + " ="):
            return float(line.split("=", 1)[1])
    return None


def op_key(name):
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")


class CliScenarios(Workload):
    min_passes = 3
    input_sets = 3
    # every --mode mc average and unitarity run, which all sample records
    # from the fixed mixture (ROADMAP item 4), and the tau study, whose
    # strict-decrease check cannot pass once the distances reach roundoff
    known_failures = frozenset({
        "free:average --engine quadrature --mode mc --samples 40",
        "free:average --engine superpropagator --mode mc --samples 40",
        "free:unitarity-check --mode mc",
        "slow:average --engine quadrature --mode mc --samples 100",
        "slow:average --engine superpropagator --mode mc --samples 100",
        "slow:unitarity-check --mode mc",
        "slow:convergence --study tau",
    })

    def __init__(self, seed, refs, invocations=INVOCATIONS):
        super().__init__(refs)
        self.work = HERE / "out" / f"cli-work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.texts = {key: (SCENARIOS / name).read_text() for key, name in SCENARIO_FILES.items()}
        self.seed = seed
        for index, (scenario, args, counterpart) in enumerate(invocations):
            name = f"{scenario}:{args}"
            self.ops.append(Op(
                name,
                self._caller(index, scenario, args.split()),
                self._checker(name, scenario, args.split()[0], counterpart),
                SCENARIO_SHAPE[scenario][2],
                arrays=None if args.split()[0] in SEEDED_TASKS or counterpart else self._ref_arrays,
            ))
        extent, n, _ = SCENARIO_SHAPE["free"]
        sgrid, tgrid, ham, _, psi0 = _lattice(n, extent, 2.0, 200, "free", -1.0, 1.5, 0.6)
        self._probe = (psi0, ham, sgrid, tgrid.dt)

    def begin_pass(self):
        # each input set has its own [run] seed, fixed by the run seed, so
        # the sampled invocations of a run are independent estimates
        super().begin_pass()
        self.pass_dir = self.work / f"pass{self.passes_begun}"
        self.pass_dir.mkdir()
        self.scenarios = {}
        run_seed = 1000 * self.seed + self.input_set + 1
        for key, text in self.texts.items():
            path = self.pass_dir / SCENARIO_FILES[key]
            path.write_text(re.sub(r"(?m)^seed\s*=.*$", f"seed = {run_seed}", text))
            self.scenarios[key] = path

    def end_pass(self):
        shutil.rmtree(self.pass_dir, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _caller(self, index, scenario, args):
        def call():
            outdir = self.pass_dir / str(index)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = cli.main([args[0], str(self.scenarios[scenario]), "--outdir", str(outdir)] + args[1:])
                except SystemExit as exc:  # argparse rejects arguments this way
                    code = exc.code if isinstance(exc.code, int) else 1
            return Invocation(code, outdir, err.getvalue())

        return call

    @staticmethod
    def _ref_arrays(inv):
        return {stem: data for stem, (data, _) in read_tables(inv.outdir).items()}

    def _checker(self, name, scenario, task, counterpart):
        extent, n, _ = SCENARIO_SHAPE[scenario]
        spacing = extent / n

        def check(inv, outputs):
            if inv.code != 0:
                last = inv.stderr.strip().splitlines()[-1:] or [""]
                return failed(f"{name}: exit code {inv.code}: {last[0]}")
            v = self._manifest(name, inv.outdir)
            tables = read_tables(inv.outdir)
            if task not in SEEDED_TASKS and counterpart is None:
                v.add(self.against_refs(name, {s: d for s, (d, _) in tables.items()}))
            if task == "average":
                rho = _density(tables["density_final"][0], n)
                if counterpart is None:
                    v.add(checks.density(name, rho, spacing))
                else:
                    exact = self.ref_of(counterpart, "density_final")
                    stderr = tables["density_stderr"][0]
                    v.add(checks.sampled(name, rho, _density(exact, n), np.hypot(stderr[:, 2], stderr[:, 3]).reshape(n, n)))
            elif task == "unitarity-check":
                data, header = tables["unitarity_matrix"]
                matrix = (data[:, 2] + 1j * data[:, 3]).reshape(n, n)
                if counterpart is None:
                    v.add(checks.unitarity(name, matrix))
                else:
                    stderr = _header_value(header, "max entrywise standard error")
                    v.add(checks.sampled(name, matrix, np.eye(n), stderr))
            elif task == "evolve":
                v.add(self._check_evolve(name, scenario, tables, outputs, counterpart, spacing))
            elif task == "medium-compare":
                data = tables["medium_compare"][0]
                weights = data[:, [1, 2] + ([5] if data.shape[1] > 5 else [])]
                gap = float(np.max(np.abs(data[:, 1] - data[:, 2])))
                if not (np.all(np.isfinite(weights)) and np.all((weights > 0) & (weights <= 1))):
                    v.fail(f"{name}: a weight lies outside (0, 1]")
                if gap > checks.REF_TOL:
                    v.fail(f"{name}: model and corridor weights differ by {gap:.3e}")
            return v

        return check

    def _manifest(self, name, outdir):
        v = Verdict()
        manifest = json.loads((outdir / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((outdir / entry["file"]).read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                v.fail(f"{name}: sha256 of {entry['file']} does not match the manifest")
        for check in manifest["checks"]:
            if not check["passed"]:
                v.fail(f"{name}: manifest check {check['name']} failed")
        return v

    def _check_evolve(self, name, scenario, tables, outputs, counterpart, spacing):
        data, header = tables["state_final"]
        psi = data[:, 1] + 1j * data[:, 2]
        if not np.all(np.isfinite(psi)):
            return failed(f"{name}: non-finite state")
        v = Verdict()
        norm2 = float(np.sum(np.abs(psi) ** 2) * spacing)
        stated = _header_value(header, "norm_sq")
        if stated is None or abs(norm2 - stated) > checks.REF_TOL * max(abs(stated), 1e-300):
            v.fail(f"{name}: norm_sq header {stated} disagrees with the table ({norm2:.17g})")
        reference = counterpart or f"{scenario}:evolve --readout sample --engine {EVOLVE_REFERENCE[scenario]}"
        ref_out = outputs.get(reference)
        if not isinstance(ref_out, Invocation) or ref_out.code != 0:
            return v.add(failed(f"{name}: reference invocation {reference!r} has no output"))
        ref_data = read_tables(ref_out.outdir)["state_final"][0]
        ref_psi = ref_data[:, 1] + 1j * ref_data[:, 2]
        if counterpart:  # the mc engine reports no stderr for the state
            return v.add(checks.sampled(name, psi, ref_psi, None))
        return v.add(checks.compare(name, psi, ref_psi))

    def probe(self):
        return self._probe


def _density(table, n):
    # density_final rows are (q, q', re, im) in row-major (q, q') order
    return (table[:, 2] + 1j * table[:, 3]).reshape(n, n)


WORKLOADS = {
    "ideal_long": IdealLong,
    "ideal_wide": IdealWide,
    "sampled_window": SampledWindow,
    "cli_scenarios": CliScenarios,
}

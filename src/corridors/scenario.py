"""Scenario files, run orchestration, and plot-ready data emission.

A scenario is a flat INI file describing one physical setup; the task
(what to compute with it) is chosen at run time.  Sections and keys:

    [grid]          extent, n_points        lattice length and size (power of two)
    [time]          duration, n_steps
    [physics]       mass, hbar, potential   potential: free | harmonic:<omega> | table:<file>
    [state]         center, width, momentum initial Gaussian packet (optional section)
    [measurement]   kappa | error_width     exactly one; error_width is the
                                            just-resolvable difference over the
                                            full duration, kappa = 1/(T width^2)
                    observable              position | table:<file>
    [resolution]    kind                    delta | gaussian | tabulated
                    tau                     required for gaussian
                    table                   required for tabulated
    [run]           seed                    mandatory; no entropy default
                    outdir                  optional output directory

File paths inside a scenario resolve relative to the scenario file.
A task only computes: it returns its checks, its tables and the options
it used, and writes nothing.  `run_scenario` writes every table, plus a
``manifest.json`` recording the config snapshot, code version, seed,
wall clock, the numerical checks performed, and a sha256 for each
output file.  Re-running the same scenario reproduces every output byte
for byte; the manifest digest ignores only the wall-clock entry.

Tables are plain text: ``#`` header lines naming columns and units,
then rows printed with 17 significant digits so values round-trip
through double precision.
"""

import configparser
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .grids import (
    HamiltonianSpec,
    ObservableSpec,
    SpatialGrid,
    TimeGrid,
    _LN2,
    _rescale,
    build_grids,
    check_density_matrix,
    density_trace,
    gaussian_packet,
    pure_density,
    purity,
)
from .medium import PathPair, influence_exact, reduce_to_phenomenological
from .nonselective import (
    InfluenceKernelSpec,
    _ideal_adjoint,
    check_generalized_unitarity,
    lindblad_evolve,
    readout_average,
    superpropagate,
)
from .readout import FormFactor, MeasurementSpec
from .selective import (
    _AboveCap,
    evolve_selective_coarse,
    evolve_selective_coarse_mc,
    evolve_selective_ideal,
)


class ConfigError(ValueError):
    """A scenario-file problem; the message names the offending key."""


class CheckFailure(RuntimeError):
    """A numerical check recorded in the manifest did not pass."""


# ---------------------------------------------------------------------------
# scenario files


@dataclass
class ScenarioConfig:
    """A fully validated scenario, plus the raw key/value snapshot."""

    sgrid: SpatialGrid
    tgrid: TimeGrid
    ham: HamiltonianSpec
    obs: ObservableSpec
    meas: MeasurementSpec
    form: FormFactor
    center: float
    width: float
    momentum: float
    seed: int
    outdir: Path
    snapshot: dict = field(repr=False)

    def initial_packet(self):
        return gaussian_packet(
            self.sgrid, self.center, self.width, self.momentum, self.ham.hbar
        )


def _section(parser, name):
    if not parser.has_section(name):
        raise ConfigError(f"[{name}]: section missing")
    return name


def _get(parser, section, key, cast=float, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"{section}.{key}: required key missing")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: cannot read {raw!r}") from None


def load_config(path):
    """Parse and validate a scenario file into a ScenarioConfig."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"cannot read scenario file {path}")
    here = path.parent

    _section(parser, "grid")
    _section(parser, "time")
    extent = _get(parser, "grid", "extent", required=True)
    n_points = _get(parser, "grid", "n_points", cast=int, required=True)
    duration = _get(parser, "time", "duration", required=True)
    n_steps = _get(parser, "time", "n_steps", cast=int, required=True)
    try:
        sgrid, tgrid = build_grids(extent, n_points, duration, n_steps)
    except ValueError as exc:
        raise ConfigError(f"grid/time: {exc}") from None

    mass = _get(parser, "physics", "mass", default=1.0)
    hbar = _get(parser, "physics", "hbar", default=1.0)
    pot = _get(parser, "physics", "potential", cast=str, default="free").strip()
    try:
        if pot == "free":
            ham = HamiltonianSpec.free(sgrid, mass=mass, hbar=hbar)
        elif pot.startswith("harmonic:"):
            ham = HamiltonianSpec.harmonic(sgrid, float(pot[9:]), mass=mass, hbar=hbar)
        elif pot.startswith("table:"):
            ham = HamiltonianSpec.from_table(sgrid, here / pot[6:], mass=mass, hbar=hbar)
        else:
            raise ConfigError(
                f"physics.potential: {pot!r} is not free, harmonic:<omega>, or table:<file>"
            )
    except (ValueError, OSError) as exc:
        raise ConfigError(f"physics: {exc}") from None

    _section(parser, "measurement")
    has_kappa = parser.has_option("measurement", "kappa")
    has_width = parser.has_option("measurement", "error_width")
    if has_kappa == has_width:
        raise ConfigError("measurement: give exactly one of kappa / error_width")
    try:
        if has_kappa:
            meas = MeasurementSpec(_get(parser, "measurement", "kappa", required=True))
        else:
            meas = MeasurementSpec.from_error(
                _get(parser, "measurement", "error_width", required=True), tgrid.duration
            )
    except ValueError as exc:
        raise ConfigError(f"measurement: {exc}") from None
    obs_choice = _get(parser, "measurement", "observable", cast=str, default="position").strip()
    try:
        if obs_choice == "position":
            obs = ObservableSpec.position(sgrid)
        elif obs_choice.startswith("table:"):
            obs = ObservableSpec(np.loadtxt(here / obs_choice[6:]))
            if obs.values.shape != (sgrid.n_points,):
                raise ValueError(
                    f"observable table has {obs.values.size} entries for "
                    f"{sgrid.n_points} lattice sites"
                )
        else:
            raise ValueError(f"{obs_choice!r} is not position or table:<file>")
    except (ValueError, OSError) as exc:
        raise ConfigError(f"measurement.observable: {exc}") from None

    kind = _get(parser, "resolution", "kind", cast=str, default="delta").strip()
    try:
        if kind == "delta":
            form = FormFactor.delta()
        elif kind == "gaussian":
            form = FormFactor.gaussian(_get(parser, "resolution", "tau", required=True))
        elif kind == "tabulated":
            table = _get(parser, "resolution", "table", cast=str, required=True)
            form = FormFactor.from_table(here / table)
        else:
            raise ValueError(f"{kind!r} is not delta, gaussian, or tabulated")
    except (ValueError, OSError) as exc:
        raise ConfigError(f"resolution: {exc}") from None

    _section(parser, "run")
    seed = _get(parser, "run", "seed", cast=int, required=True)
    outdir = _get(parser, "run", "outdir", cast=str, default=None)
    outdir = here / outdir if outdir else here / (path.stem + "_out")

    center = _get(parser, "state", "center", default=0.0)
    width = _get(parser, "state", "width", default=sgrid.extent / 8.0)
    momentum = _get(parser, "state", "momentum", default=0.0)
    if not 0.0 < width < sgrid.extent:
        raise ConfigError(f"state.width: {width} does not fit the lattice")

    snapshot = {name: dict(parser.items(name)) for name in parser.sections()}
    return ScenarioConfig(
        sgrid=sgrid,
        tgrid=tgrid,
        ham=ham,
        obs=obs,
        meas=meas,
        form=form,
        center=center,
        width=width,
        momentum=momentum,
        seed=seed,
        outdir=outdir,
        snapshot=snapshot,
    )


# ---------------------------------------------------------------------------
# persistence


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def emit_plot_data(path, columns, header=()):
    """Write named columns as a '#'-headed text table.

    columns is a sequence of (name, values) pairs; names should carry
    units in brackets where meaningful.  All columns must have equal
    length; zero rows yields a header-only file.  Values are printed
    with 17 significant digits.  Returns the path written.
    """
    path = Path(path)
    names = [name for name, _ in columns]
    arrays = [np.atleast_1d(np.asarray(vals, dtype=float)) for _, vals in columns]
    if arrays and any(a.size != arrays[0].size for a in arrays):
        raise ValueError("all columns must have the same length")
    lines = [f"# {text}" for text in header]
    lines.append("# columns: " + "  ".join(names))
    n_rows = arrays[0].size if arrays else 0
    if n_rows:
        # one %-format over the row-major table: printf's %.17g, as format(v, ".17g")
        row = " ".join(["%.17g"] * len(arrays))
        lines.append("\n".join([row] * n_rows) % tuple(np.column_stack(arrays).ravel().tolist()))
    path.write_text("\n".join(lines) + "\n")
    return path


@dataclass
class RunManifest:
    """Everything needed to audit or reproduce one scenario run."""

    task: str
    options: dict
    config: dict
    version: str
    seed: int
    wall_clock_seconds: float
    checks: list
    outputs: list

    def digest(self):
        """sha256 over the manifest content, ignoring the wall clock."""
        body = asdict(self)
        body.pop("wall_clock_seconds")
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()

    def write(self, path):
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _check(name, value, tolerance, passed, note=None):
    """A manifest check; ``note`` says why it failed where its value cannot."""
    check = {
        "name": name,
        "value": bool(value) if isinstance(value, (bool, np.bool_)) else float(value),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": bool(passed),
    }
    return check if note is None else dict(check, note=note)


def _matrix_columns(axis, matrix, names):
    """The (row, col, re, im) columns of a square matrix, in row-major order."""
    row, col = np.meshgrid(axis, axis, indexing="ij")
    return list(zip(names, (row.ravel(), col.ravel(), matrix.real.ravel(), matrix.imag.ravel())))


# ---------------------------------------------------------------------------
# tasks


def _density_stats(psi, exponent, grid):
    """(log norm_sq, mean, variance) of the position density of 2^exponent psi;
    psi, a new array, is scaled in place first, so they hold at any scale."""
    exponent += _rescale(psi, -1)
    prob = np.abs(psi) ** 2
    total = prob.sum() * grid.spacing
    if total == 0.0:
        return -math.inf, math.nan, math.nan
    prob = prob / total
    mean = float(prob @ grid.coords * grid.spacing)
    var = float(prob @ (grid.coords - mean) ** 2 * grid.spacing)
    return math.log(total) + 2 * exponent * _LN2, mean, var


def _resolve_readout(spec, cfg):
    """Turn a readout source string into an array of N record values."""
    n = cfg.tgrid.n_steps
    if spec.startswith("const:"):
        try:
            return np.full(n, float(spec[6:]))
        except ValueError:
            raise ConfigError(f"readout: cannot read constant {spec[6:]!r}") from None
    if spec == "sample":
        # a_i ~ N(<A>, 1/(4 kappa dt)) around the initial packet's mean
        prob = np.abs(cfg.initial_packet()) ** 2
        prob /= prob.sum()
        mean = np.full(n, float(prob @ cfg.obs.values))
        sigma = 1.0 / math.sqrt(4.0 * cfg.meas.kappa * cfg.tgrid.dt)
        return mean + sigma * np.random.default_rng(cfg.seed).standard_normal(n)
    if spec.startswith("file:"):
        try:
            table = np.loadtxt(spec[5:])
        except (ValueError, OSError) as exc:
            raise ConfigError(f"readout: {exc}") from None
        values = table[:, -1] if table.ndim == 2 else table
        if values.size == n + 1:
            values = values[:-1]
        if values.size != n:
            raise ConfigError(
                f"readout: file carries {values.size} values, grid has {n} steps"
            )
        return values
    raise ConfigError(f"readout: {spec!r} is not const:<x>, sample, or file:<path>")


def _task_evolve(cfg, readout="const:0.0", engine="auto", samples=1000):
    record = _resolve_readout(readout, cfg)
    psi0 = cfg.initial_packet()
    kappa = cfg.meas.kappa

    if engine == "auto" and cfg.form.is_delta:
        engine = "ideal"
    series = []

    def watch(i, psi, k):
        series.append((cfg.tgrid.times[i + 1],) + _density_stats(psi, k, cfg.sgrid))

    if engine == "ideal":
        if not cfg.form.is_delta:
            raise ConfigError("engine: ideal engine needs delta resolution")
        result = evolve_selective_ideal(
            psi0, record, kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid, observer=watch
        )
    elif engine in ("auto", "coarse"):
        try:
            result = evolve_selective_coarse(
                psi0, record, cfg.form, kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid
            )
            engine = "coarse"
        except _AboveCap:
            if engine == "coarse":
                raise
            engine = "mc"  # the window's plan is above the cap: sample it
    elif engine != "mc":
        raise ConfigError(f"engine: {engine!r} is not auto, ideal, coarse, or mc")
    if engine == "mc":
        result = evolve_selective_coarse_mc(
            psi0, record, cfg.form, kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid,
            samples=samples, seed=cfg.seed,
        )

    psi = result.final_state
    finite = bool(np.all(np.isfinite(psi)))
    tables = [
        ("final_state", "state_final.txt",
         [("q[pos]", cfg.sgrid.coords), ("re_psi", psi.real), ("im_psi", psi.imag),
          ("abs2_psi[1/pos]", np.abs(psi) ** 2)],
         [f"conditioned final state, engine {engine}",
          f"norm_sq = {result.norm_sq:.17g}",
          f"readout_probability_density = {result.probability_density:.17g}",
          f"log_readout_probability_density = {result.log_probability_density:.17g}"]),
        ("readout", "readout_used.txt",
         [("t[time]", cfg.tgrid.times[:-1]), ("a[obs]", record)],
         ["record values, one per step, left-aligned with the slices"]),
    ]
    if series:
        t, log_norms, means, variances = map(np.asarray, zip(*series))
        tables.append(
            ("series", "series.txt",
             [("t[time]", t), ("log_norm_sq", log_norms), ("mean_q[pos]", means),
              ("var_q[pos^2]", variances)],
             ["log squared norm and position moments along the conditioned path"])
        )
    density, log_density = result.probability_density, result.log_probability_density
    note = None
    if density == 0.0 and math.isfinite(log_density):
        # c^N rounds a long record's density to 0.0 while its log is finite
        note = f"underflow: below the smallest float, its log is {log_density:.17g}"
    elif result.norm_sq == 0.0:
        # every engine rescales: from a normalized start a finite record leaves
        # a zero norm only by a weight that underflows within one step
        note = "underflow: the conditioned state's norm_sq rounds to 0.0, so its log is -inf"
    checks = [
        _check("state_finite", finite, None, finite),
        _check("readout_probability_density", density, None,
               np.isfinite(density) and density >= 0 and note is None, note=note),
    ]
    used = {"readout": readout, "engine": engine}
    if result.n_samples is not None:
        used["samples"] = int(result.n_samples)
    return checks, tables, used


def _average_series_columns(cfg, series, i, j):
    t, traces, purities, pair_abs = map(np.asarray, zip(*series))
    dq2 = (cfg.sgrid.coords[i] - cfg.sgrid.coords[j]) ** 2
    overlay = pair_abs[0] * np.exp(-0.5 * cfg.meas.kappa * dq2 * (t - t[0]))
    return [
        ("t[time]", t),
        ("trace", traces),
        ("purity", purities),
        (f"abs_rho[{i},{j}]", pair_abs),
        ("pointer_overlay", overlay),
    ]


def _task_average(cfg, engine="lindblad", mode="exact", samples=1000, pair=None):
    rho0 = pure_density(cfg.initial_packet())
    kappa = cfg.meas.kappa
    n = cfg.sgrid.n_points
    i, j = (n // 4, (3 * n) // 4) if pair is None else pair
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigError(f"pair: indices {(i, j)} outside the {n}-point lattice")
    series = []

    def watch(step, rho):
        series.append((cfg.tgrid.times[step + 1], density_trace(rho, cfg.sgrid),
                       purity(rho, cfg.sgrid), abs(rho[i, j])))

    if mode not in ("exact", "mc"):
        raise ConfigError(f"mode: {mode!r} is not exact or mc")
    result_stderr, n_samples = None, None
    if engine == "lindblad":
        if mode == "mc":
            raise ConfigError(
                "engine: the lindblad engine has no sampled mode; "
                "use mode=exact, or the superpropagator engine with mode=mc"
            )
        rho = lindblad_evolve(rho0, kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid, observer=watch)
    elif engine in ("quadrature", "superpropagator"):
        # quadrature is the superpropagator's record-average reading, with
        # no windowed exact form
        if engine == "quadrature" and not cfg.form.is_delta and mode == "exact":
            raise ConfigError(
                "engine: quadrature averaging needs delta resolution; "
                "use the superpropagator engine or mode=mc"
            )
        kind = "ideal" if cfg.form.is_delta else "coarse"
        out = superpropagate(
            rho0, InfluenceKernelSpec(kind, kappa, form_factor=cfg.form), cfg.ham, cfg.obs,
            cfg.sgrid, cfg.tgrid, mode=mode, samples=samples, seed=cfg.seed,
            # only the exact ideal sweep calls an observer
            observer=watch if mode == "exact" and cfg.form.is_delta else None,
        )
        rho, result_stderr, n_samples = out.rho, out.stderr, out.n_samples
    else:
        raise ConfigError(
            f"engine: {engine!r} is not lindblad, quadrature, or superpropagator"
        )

    coords = cfg.sgrid.coords
    tables = [
        ("final_density", "density_final.txt",
         _matrix_columns(coords, rho, ("q[pos]", "q_prime[pos]", "re_rho", "im_rho")),
         [f"record-averaged density matrix, engine {engine}, mode {mode}"]),
    ]
    if series:
        tables.append(
            ("series", "series.txt", _average_series_columns(cfg, series, i, j),
             ["trace, purity, and one off-diagonal magnitude over time",
              "pointer_overlay = |rho_0[i,j]| exp(-kappa/2 (q_i - q_j)^2 t)"])
        )
    if result_stderr is not None:
        tables.append(
            ("stderr", "density_stderr.txt",
             _matrix_columns(coords, result_stderr,
                             ("q[pos]", "q_prime[pos]", "stderr_re", "stderr_im")),
             [f"entrywise standard errors, {n_samples} samples"])
        )

    # every engine, sampled ones included, returns an average of valid states
    report = check_density_matrix(rho, cfg.sgrid)
    checks = [
        _check("trace_error", report["trace_error"], 1e-8, report["trace_error"] < 1e-8),
        _check("hermiticity_error", report["herm_error"], 1e-8, report["herm_error"] < 1e-8),
        _check("min_eigenvalue", report["min_eigenvalue"], 1e-8,
               report["min_eigenvalue"] > -1e-8),
    ]
    used = {"engine": engine, "mode": mode, "pair": [int(i), int(j)]}
    if n_samples is not None:
        used["samples"] = int(n_samples)
    return checks, tables, used


def _task_unitarity(cfg, mode="exact", samples=200, tol=None):
    if mode not in ("exact", "mc"):
        raise ConfigError(f"mode: {mode!r} is not exact or mc")
    if tol is None:
        tol = 1e-10 if mode == "exact" else 5e-2
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol: {tol!r} is not a finite positive tolerance")
    report = check_generalized_unitarity(
        cfg.meas.kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid,
        form_factor=cfg.form, mode=mode, samples=samples, seed=cfg.seed,
    )
    header = [
        f"record-integrated U[a]^dag U[a], mode {mode}",
        f"max deviation from identity = {report.deviation:.17g}",
    ]
    if report.stderr is not None:
        header.append(f"max entrywise standard error = {report.stderr:.17g}")
    tables = [
        ("unitarity_matrix", "unitarity_matrix.txt",
         _matrix_columns(np.arange(cfg.sgrid.n_points), report.matrix, ("row", "col", "re", "im")),
         header),
    ]
    checks = [
        _check("generalized_unitarity_deviation", report.deviation, tol, report.passed(tol))
    ]
    if mode == "exact" and cfg.form.is_delta:
        gap = _adjoint_duality_gap(cfg)
        checks.append(_check("adjoint_duality_gap", gap, tol, gap <= tol))
    used = {"mode": mode, "tol": float(tol)}
    if report.n_samples is not None:
        used["samples"] = int(report.n_samples)
    return checks, tables, used


def _adjoint_duality_gap(cfg):
    """|tr(X E^N(rho0)) - tr(E†^N(X) rho0)| for the ideal averaged step E.

    The exact ideal unitarity check runs the adjoint recursion from X = I,
    which any unitary step maps to I, so it cannot see a wrong step.  Here
    the witness X is a seeded random Hermitian matrix of unit spectral norm
    and rho0 the scenario's initial state at unit trace, so the gap is
    relative to the largest |tr(X rho)| a state can give.
    """
    n, kappa = cfg.sgrid.n_points, cfg.meas.kappa
    z = np.random.default_rng(cfg.seed).standard_normal((n, n, 2)) @ [1.0, 1.0j]
    x = z + z.conj().T
    x /= np.max(np.abs(np.linalg.eigvalsh(x)))
    rho0 = pure_density(cfg.initial_packet())
    rho0 /= np.trace(rho0).real
    forward = superpropagate(rho0, InfluenceKernelSpec("ideal", kappa), cfg.ham, cfg.obs,
                             cfg.sgrid, cfg.tgrid).rho
    back = _ideal_adjoint(x, kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid)
    return float(abs(np.sum(x * forward.T) - np.sum(back * rho0.T)))


def _task_medium_compare(cfg, corpus=100, n_slices=24, scale=0.5, ell=None):
    kappa, dt = cfg.meas.kappa, cfg.tgrid.dt
    try:
        cfg.form.factorize()
    except ValueError as exc:
        raise ConfigError(f"resolution: {exc}") from None
    corpus, n_slices = int(corpus), int(n_slices)
    if corpus < 1:
        raise ConfigError("corpus: need at least one path pair")
    if n_slices < 1:
        raise ConfigError(f"n_slices: {n_slices} slices; a path pair needs at least one")
    # a zero scale makes every pair coincide, so every weight is 1
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(f"scale: {scale!r} is not a finite positive excursion scale")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for idx in range(corpus):
        r = scale * rng.normal(size=(2, n_slices))
        pair = PathPair(r[0], r[1])
        red = reduce_to_phenomenological(pair, cfg.form, kappa, dt)
        row = [idx, red.w_model, red.w_corridor, red.gap, red.rel_gap]
        if ell is not None:
            row.append(influence_exact(pair, cfg.form, kappa, ell, dt))
        rows.append(row)
    table = np.asarray(rows, dtype=float)
    names = [("index", table[:, 0]), ("w_model", table[:, 1]), ("w_rpi", table[:, 2]),
             ("gap", table[:, 3]), ("rel_gap", table[:, 4])]
    header = [
        "first-order medium weight vs window-smoothed corridor weight",
        f"{corpus} path pairs, kappa = {kappa:.17g}",
    ]
    if ell is not None:
        names.append(("w_exact", table[:, 5]))
        header.append(f"w_exact uses interaction range ell = {float(ell):.17g}")
    worst = float(np.max(table[:, 4]))
    checks = [_check("max_rel_gap", worst, 1e-10, worst < 1e-10)]
    used = {"corpus": corpus, "n_slices": n_slices, "scale": float(scale)}
    if ell is not None:
        used["ell"] = float(ell)
    return checks, [("compare_table", "medium_compare.txt", names, header)], used


def _task_zeno(cfg, kappas=None):
    if kappas is None:
        kappas = cfg.meas.kappa * np.logspace(-2.0, 2.0, 5)
    kappas = np.asarray(sorted(float(k) for k in kappas))
    if kappas.size < 2 or not np.all(kappas > 0) or np.any(np.diff(kappas) == 0):
        raise ConfigError("kappas: need at least two distinct positive strengths, "
                          f"got {kappas.tolist()}")
    psi0 = cfg.initial_packet()
    record = np.zeros(cfg.tgrid.n_steps)
    variances = []
    for k in kappas:
        res = evolve_selective_ideal(
            psi0, record, k, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid
        )
        variances.append(_density_stats(res.final_state.copy(), 0, cfg.sgrid)[2])
    variances = np.asarray(variances)
    slope = float(np.polyfit(np.log(kappas), np.log(variances), 1)[0])
    tables = [
        ("sweep", "zeno_sweep.txt", [("kappa", kappas), ("var_q[pos^2]", variances)],
         ["final position variance of a packet monitored at a = 0, ideal resolution",
          f"log-log fitted slope = {slope:.17g}"]),
    ]
    worst_rise = float(np.max(np.diff(variances)))
    checks = [
        _check("variance_monotone_decreasing", worst_rise, 0.0, worst_rise < 0.0),
    ]
    return checks, tables, {"kappas": [float(k) for k in kappas]}


# convergence distances up to this many ulps of the initial state's largest
# entry are roundoff: they need not decrease, and the slope fit skips them
_ROUNDOFF_ULPS = 64


def _task_convergence(cfg, study="dt", levels=4):
    kappa = cfg.meas.kappa
    psi0 = cfg.initial_packet()
    rho0 = pure_density(psi0)
    levels = int(levels)
    if levels < 2:
        raise ConfigError("levels: need at least two refinement levels")

    params, dists = [], []
    if study == "dt":
        if not cfg.form.is_delta:
            raise ConfigError("study: the dt study runs at delta resolution")
        for r in range(levels):
            tg = TimeGrid(cfg.tgrid.duration, cfg.tgrid.n_steps * 2**r)
            rho_master = lindblad_evolve(rho0, kappa, cfg.ham, cfg.obs, cfg.sgrid, tg)
            rho_avg = readout_average(psi0, kappa, cfg.ham, cfg.obs, cfg.sgrid, tg).rho
            params.append(tg.dt)
            dists.append(float(np.max(np.abs(rho_master - rho_avg))))
        name, desc = "dt[time]", "master equation vs record-averaged evolution"
    elif study == "tau":
        if cfg.form.kind != "gaussian":
            raise ConfigError("study: the tau study needs a gaussian resolution profile")
        ideal = superpropagate(
            rho0, InfluenceKernelSpec("ideal", kappa), cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid
        ).rho
        for r in range(levels):
            ff = FormFactor.gaussian(cfg.form.tau / 2**r)
            out = superpropagate(
                rho0, InfluenceKernelSpec("coarse", kappa, form_factor=ff),
                cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid,
            )
            params.append(ff.tau)
            dists.append(float(np.max(np.abs(out.rho - ideal))))
        name, desc = "tau[time]", "windowed superpropagator vs ideal-resolution limit"
    else:
        raise ConfigError(f"study: {study!r} is not dt or tau")

    params, dists = np.asarray(params), np.asarray(dists)
    orders = np.full(params.size, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders[1:] = np.log2(dists[:-1] / dists[1:])
    floor = _ROUNDOFF_ULPS * np.finfo(float).eps * float(np.max(np.abs(rho0)))
    fit = dists > floor
    slope = float(np.polyfit(np.log(params[fit]), np.log(dists[fit]), 1)[0]) \
        if fit.sum() >= 2 else np.nan
    tables = [
        ("convergence", f"convergence_{study}.txt",
         [(name, params), ("distance", dists), ("order", orders)],
         [desc, f"log-log fitted slope = {slope:.17g}",
          f"roundoff floor = {floor:.17g} (excluded from the fit)"]),
    ]
    # strictly decreasing down to the roundoff floor: the largest distance
    # not below its predecessor may only be a stall at roundoff
    stalled = float(np.max(dists[1:][dists[1:] >= dists[:-1]], initial=0.0))
    checks = [
        _check("distances_strictly_decreasing", stalled, floor, stalled <= floor),
    ]
    return checks, tables, {"study": study, "levels": levels}


_TASKS = {
    "evolve": _task_evolve,
    "average": _task_average,
    "unitarity-check": _task_unitarity,
    "medium-compare": _task_medium_compare,
    "zeno-sweep": _task_zeno,
    "convergence": _task_convergence,
}


def run_scenario(config, task="evolve", outdir=None, **options):
    """Run one task for a scenario; write its tables and the manifest.

    The task computes and returns its checks, its tables as
    ``(name, file, columns, header)`` and the options it used; this is
    the only place a table is written, with `emit_plot_data`, and
    hashed.  Returns the RunManifest.  Raises ConfigError for invalid
    inputs, before anything is written, and CheckFailure (with the
    manifest attached) when a numerical check recorded in the manifest
    fails; the tables and the manifest are written either way.
    """
    runner = _TASKS.get(task)
    if runner is None:
        raise ConfigError(f"task: {task!r} is not one of {sorted(_TASKS)}")
    started = time.perf_counter()
    checks, tables, used = runner(config, **options)
    outdir = Path(outdir) if outdir else config.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, file, columns, header in tables:
        path = emit_plot_data(outdir / file, columns, header)
        outputs.append({"name": name, "file": path.name, "sha256": file_sha256(path)})
    manifest = RunManifest(
        task=task,
        options=used,
        config=config.snapshot,
        version=__version__,
        seed=config.seed,
        wall_clock_seconds=time.perf_counter() - started,
        checks=checks,
        outputs=outputs,
    )
    manifest.write(outdir / "manifest.json")
    failed = [c for c in checks if not c["passed"]]
    if failed:
        exc = CheckFailure(
            "; ".join(
                f"{c['name']} = {c['value']:.6g}"
                + (f" (tolerance {c['tolerance']:g})" if c["tolerance"] is not None else "")
                + (f" ({c['note']})" if "note" in c else "")
                for c in failed
            )
        )
        exc.manifest = manifest
        raise exc
    return manifest

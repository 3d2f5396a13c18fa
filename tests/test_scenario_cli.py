import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from corridors import nonselective, selective
from corridors.cli import main
from corridors.grids import _StepPlan
from corridors.nonselective import AverageResult
from corridors.scenario import (
    CheckFailure,
    ConfigError,
    RunManifest,
    _TASKS,
    _density_stats,
    _resolve_readout,
    emit_plot_data,
    file_sha256,
    load_config,
    run_scenario,
)
from corridors.selective import WindowSpec, _ldexp

BASE = """
[grid]
extent = 10.0
n_points = 16

[time]
duration = 0.6
n_steps = 12

[physics]
mass = 1.0
hbar = 1.0
potential = free

[state]
center = 0.5
width = 1.2
momentum = 0.3

[measurement]
kappa = 0.9
observable = position

[resolution]
kind = delta

[run]
seed = 11
"""


SLOW_DETECTOR = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "slow_detector.ini"


def write_scenario(tmp_path, text=BASE, name="scene.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def fitted_slope(table):
    """The slope a sweep or convergence table states in its header."""
    prefix = "# log-log fitted slope = "
    line = next(line for line in Path(table).read_text().splitlines() if line.startswith(prefix))
    return float(line[len(prefix):])


def test_load_config_fields(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    assert cfg.sgrid.n_points == 16 and cfg.sgrid.extent == 10.0
    assert cfg.tgrid.n_steps == 12
    assert cfg.meas.kappa == 0.9
    assert cfg.form.is_delta
    assert cfg.seed == 11
    assert cfg.center == 0.5 and cfg.momentum == 0.3
    assert cfg.outdir == tmp_path / "scene_out"
    assert cfg.snapshot["measurement"]["kappa"] == "0.9"


def test_error_width_sets_strength(tmp_path):
    text = BASE.replace("kappa = 0.9", "error_width = 0.5")
    cfg = load_config(write_scenario(tmp_path, text))
    assert_allclose(cfg.meas.kappa, 1.0 / (0.6 * 0.25), rtol=1e-12)


def test_defaults_and_overrides(tmp_path):
    minimal = """
[grid]
extent = 8.0
n_points = 8
[time]
duration = 0.4
n_steps = 4
[measurement]
kappa = 1.0
[run]
seed = 3
outdir = results
"""
    cfg = load_config(write_scenario(tmp_path, minimal))
    assert cfg.width == 1.0  # extent / 8
    assert cfg.ham.mass == 1.0
    assert cfg.outdir == tmp_path / "results"
    assert cfg.form.is_delta  # resolution section optional


@pytest.mark.parametrize(
    "mangle, hint",
    [
        (lambda s: s.replace("[measurement]", "[measurementx]"), "measurement"),
        (lambda s: s.replace("kappa = 0.9", ""), "kappa"),
        (lambda s: s.replace("kappa = 0.9", "kappa = 0.9\nerror_width = 0.5"), "exactly one"),
        (lambda s: s.replace("kappa = 0.9", "kappa = nope"), "kappa"),
        (lambda s: s.replace("n_points = 16", "n_points = 12"), "grid"),
        (lambda s: s.replace("potential = free", "potential = cubic"), "potential"),
        (lambda s: s.replace("kind = delta", "kind = boxcar"), "resolution"),
        (lambda s: s.replace("kind = delta", "kind = gaussian"), "tau"),
        (lambda s: s.replace("width = 1.2", "width = 50.0"), "width"),
        (lambda s: s.replace("seed = 11", ""), "seed"),
    ],
)
def test_config_validation_messages(tmp_path, mangle, hint):
    path = write_scenario(tmp_path, mangle(BASE))
    with pytest.raises(ConfigError, match=hint):
        load_config(path)


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/scenario.ini")


def test_tables_resolve_relative_to_scenario(tmp_path):
    coords = np.linspace(-5.0, 5.0 - 10.0 / 16, 16)
    np.savetxt(tmp_path / "pot.txt", np.column_stack([coords, 0.5 * coords**2]))
    np.savetxt(tmp_path / "obs.txt", np.sign(coords))
    text = BASE.replace("potential = free", "potential = table:pot.txt").replace(
        "observable = position", "observable = table:obs.txt"
    )
    cfg = load_config(write_scenario(tmp_path, text))
    assert_allclose(cfg.obs.values, np.sign(coords))
    assert_allclose(cfg.ham.potential, 0.5 * coords**2, atol=1e-12)

    bad = text.replace("observable = table:obs.txt", "observable = table:missing.txt")
    with pytest.raises(ConfigError, match="observable"):
        load_config(write_scenario(tmp_path, bad, name="bad.ini"))


def test_emit_plot_data_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=9)
    y = rng.normal(size=9) * 1e-14
    path = emit_plot_data(tmp_path / "t.txt", [("x", x), ("y", y)], header=["demo table"])
    text = path.read_text()
    assert text.startswith("# demo table\n# columns: x  y\n")
    back = np.loadtxt(path)
    assert np.array_equal(back[:, 0], x)  # 17 digits round-trip doubles exactly
    assert np.array_equal(back[:, 1], y)


def test_emit_plot_data_edge_cases(tmp_path):
    path = emit_plot_data(tmp_path / "empty.txt", [("a", []), ("b", [])])
    assert path.read_text() == "# columns: a  b\n"
    with pytest.raises(ValueError, match="same length"):
        emit_plot_data(tmp_path / "x.txt", [("a", [1.0]), ("b", [1.0, 2.0])])


@pytest.mark.parametrize("columns", [
    [("a", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1.2e17, 1.0 / 3.0]),
     ("b", [1e-300, -1e300, 123456789.0, 1e16, 1e17, -2.5, 0.1, 7.0, -math.nan])],
    [("scalar", 2.0 / 3.0)],
    [("a", []), ("b", [])],
    [(f"r{k}", np.random.default_rng(k).standard_normal(512) * np.logspace(-20, 20, 512))
     for k in range(4)],
])
def test_emit_plot_data_is_the_per_value_formatter(tmp_path, columns):
    # the table's one %-format writes the bytes of format(v, ".17g") per value
    path = emit_plot_data(tmp_path / "t.txt", columns, header=["h"])
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for _, v in columns]
    rows = [" ".join(format(a[i], ".17g") for a in arrays) for i in range(arrays[0].size)]
    names = "  ".join(name for name, _ in columns)
    assert path.read_bytes() == "\n".join(["# h", f"# columns: {names}", *rows, ""]).encode()


def test_manifest_digest_ignores_wall_clock(tmp_path):
    kwargs = dict(
        task="evolve", options={}, config={"run": {"seed": "1"}}, version="0.1.0",
        seed=1, checks=[], outputs=[],
    )
    a = RunManifest(wall_clock_seconds=0.5, **kwargs)
    b = RunManifest(wall_clock_seconds=99.0, **kwargs)
    assert a.digest() == b.digest()
    a.write(tmp_path / "m.json")
    again = RunManifest(**json.loads((tmp_path / "m.json").read_text()))
    assert again.digest() == a.digest()
    assert again.wall_clock_seconds == 0.5


def test_run_scenario_writes_everything_it_references(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    out = tmp_path / "run1"
    manifest = run_scenario(cfg, task="evolve", outdir=out, readout="const:0.2")
    files = {p.name for p in out.iterdir()}
    assert files == {entry["file"] for entry in manifest.outputs} | {"manifest.json"}
    for entry in manifest.outputs:
        assert file_sha256(out / entry["file"]) == entry["sha256"]
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["seed"] == 11 and "workers" not in saved
    assert RunManifest(**saved).digest() == manifest.digest()


def test_rerun_is_bit_identical(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    m1 = run_scenario(cfg, task="evolve", outdir=tmp_path / "a", readout="sample")
    m2 = run_scenario(cfg, task="evolve", outdir=tmp_path / "b", readout="sample")
    assert m1.digest() == m2.digest()
    hashes1 = {e["name"]: e["sha256"] for e in m1.outputs}
    hashes2 = {e["name"]: e["sha256"] for e in m2.outputs}
    assert hashes1 == hashes2


def test_mc_rerun_is_bit_identical(tmp_path):
    text = BASE.replace("kind = delta", "kind = gaussian\ntau = 0.08")
    cfg = load_config(write_scenario(tmp_path, text))
    runs = [
        run_scenario(cfg, task="evolve", outdir=tmp_path / d, engine="mc", samples=200)
        for d in ("a", "b")
    ]
    assert runs[0].digest() == runs[1].digest()
    assert runs[0].options["engine"] == "mc"


def test_evolve_ideal_outputs_match_engine(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    out = tmp_path / "run"
    run_scenario(cfg, task="evolve", outdir=out, readout="const:0.0")
    table = np.loadtxt(out / "state_final.txt")
    from corridors.selective import evolve_selective_ideal

    res = evolve_selective_ideal(
        cfg.initial_packet(), np.zeros(12), 0.9, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid
    )
    assert np.array_equal(table[:, 1], res.final_state.real)
    assert np.array_equal(table[:, 2], res.final_state.imag)
    series = np.loadtxt(out / "series.txt")
    assert series.shape == (12, 4)
    assert np.all(np.diff(series[:, 1]) <= 1e-15)  # norms cannot grow


def test_average_series_and_checks(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    out = tmp_path / "avg"
    manifest = run_scenario(cfg, task="average", outdir=out, engine="lindblad", pair=(4, 12))
    names = {c["name"] for c in manifest.checks}
    assert names == {"trace_error", "hermiticity_error", "min_eigenvalue"}
    assert all(c["passed"] for c in manifest.checks)
    series = np.loadtxt(out / "series.txt")
    assert series.shape[1] == 5
    assert np.all(np.diff(series[:, 2]) <= 1e-12)  # purity decays
    density = np.loadtxt(out / "density_final.txt")
    assert density.shape == (16 * 16, 4)
    with pytest.raises(ConfigError, match="pair"):
        run_scenario(cfg, task="average", outdir=out, pair=(4, 99))


def test_average_engines_agree(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    rhos = []
    for engine in ("lindblad", "quadrature", "superpropagator"):
        out = tmp_path / engine
        run_scenario(cfg, task="average", outdir=out, engine=engine)
        table = np.loadtxt(out / "density_final.txt")
        rhos.append(table[:, 2] + 1j * table[:, 3])
    assert np.max(np.abs(rhos[1] - rhos[2])) < 1e-14  # same sweep underneath
    assert np.max(np.abs(rhos[0] - rhos[1])) < 5e-2  # master eq vs average: O(dt)


@pytest.mark.parametrize("engine", ["superpropagator", "quadrature"])
def test_sampled_average_checks_are_real(tmp_path, engine):
    # a sampled average is a mean of valid states, so it gets the same
    # trace, hermiticity and positivity tolerances as the exact engines
    cfg = load_config(SLOW_DETECTOR)
    manifest = run_scenario(
        cfg, task="average", outdir=tmp_path / engine, engine=engine, mode="mc", samples=100
    )
    assert {c["name"] for c in manifest.checks} == {
        "trace_error", "hermiticity_error", "min_eigenvalue"
    }
    for check in manifest.checks:
        assert check["tolerance"] == 1e-8 and check["passed"], check


def test_average_series_comes_only_from_the_exact_ideal_sweeps(tmp_path):
    # the windowed and sampled averages call no observer, so they write no series
    slow = load_config(SLOW_DETECTOR)
    run_scenario(slow, task="average", outdir=tmp_path / "w", engine="superpropagator")
    assert {p.name for p in (tmp_path / "w").iterdir()} == {"density_final.txt", "manifest.json"}
    cfg = load_config(write_scenario(tmp_path))
    for engine in ("quadrature", "superpropagator"):
        out = tmp_path / engine
        run_scenario(cfg, task="average", outdir=out, engine=engine, mode="mc", samples=20)
        assert {p.name for p in out.iterdir()} == {
            "density_final.txt", "density_stderr.txt", "manifest.json"
        }
        run_scenario(cfg, task="average", outdir=out / "exact", engine=engine)
        assert (out / "exact" / "series.txt").exists()


def test_average_refuses_a_mode_its_engine_does_not_have(tmp_path):
    # lindblad has no sampled mode and no engine has an unknown one, so a
    # run under either would carry a mode label that is not true
    cfg = load_config(write_scenario(tmp_path))
    with pytest.raises(ConfigError, match="lindblad engine has no sampled mode"):
        run_scenario(cfg, task="average", outdir=tmp_path / "l", engine="lindblad", mode="mc")
    for engine in ("lindblad", "quadrature", "superpropagator"):
        with pytest.raises(ConfigError, match="mode: 'foo' is not exact or mc"):
            run_scenario(cfg, task="average", outdir=tmp_path / engine, engine=engine,
                         mode="foo", samples=20)
        assert not (tmp_path / engine / "manifest.json").exists()


def test_evolve_flags_a_non_finite_state(tmp_path):
    # the aux-field engine overflows on a record far out on a wide lattice;
    # the state_finite check must say so instead of passing unconditionally
    text = (
        BASE.replace("extent = 10.0", "extent = 40.0")
        .replace("n_points = 16", "n_points = 32")
        .replace("duration = 0.6", "duration = 1.0")
        .replace("n_steps = 12", "n_steps = 10")
        .replace("kappa = 0.9", "kappa = 5.0")
        .replace("kind = delta", "kind = gaussian\ntau = 0.04")
    )
    cfg = load_config(write_scenario(tmp_path, text))
    out = tmp_path / "nan"
    with np.errstate(all="ignore"), pytest.raises(CheckFailure, match="state_finite"):
        run_scenario(cfg, task="evolve", outdir=out, engine="mc", readout="const:5")
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    finite = next(c for c in checks if c["name"] == "state_finite")
    assert finite["value"] is False and finite["passed"] is False


def test_unitarity_task_pass_and_fail(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    manifest = run_scenario(cfg, task="unitarity-check", outdir=tmp_path / "u")
    check = manifest.checks[0]
    assert check["passed"] and check["value"] < 1e-12
    with pytest.raises(CheckFailure) as info:
        run_scenario(cfg, task="unitarity-check", outdir=tmp_path / "u2", tol=1e-18)
    attached = info.value.manifest
    assert attached is not None and not attached.checks[0]["passed"]
    assert (tmp_path / "u2" / "manifest.json").exists()  # artifacts still written


@pytest.mark.parametrize("n_steps", [12, 4097])
def test_unitarity_duality_check_sees_a_wrong_adjoint_step(tmp_path, monkeypatch, n_steps):
    # any unitary step maps X = I to I, so the identity check passes a wrong
    # adjoint plan; the seeded witness X compared with the forward sweep does
    # not.  At 4097 = 16^3 + 1 steps every sweep takes the dense plan's power
    # path, the forward sweep's 16^3 decay steps before its closing step
    cfg = load_config(write_scenario(tmp_path, BASE.replace("n_steps = 12",
                                                            f"n_steps = {n_steps}")))
    powers, power = [], _StepPlan._power

    def counted(plan, *args):
        powers.append(plan)
        return power(plan, *args)

    monkeypatch.setattr(_StepPlan, "_power", counted)
    manifest = run_scenario(cfg, task="unitarity-check", outdir=tmp_path / "u")
    assert [c["name"] for c in manifest.checks] == ["generalized_unitarity_deviation",
                                                    "adjoint_duality_gap"]
    assert manifest.checks[1]["passed"] and manifest.checks[1]["value"] < 1e-13
    # the identity's adjoint sweep, then the witness's forward and adjoint sweeps
    assert len(powers) == (3 if n_steps == 4097 else 0)

    def mutant(ham, sgrid, dt):  # the adjoint's plan for 3 dt instead of -dt
        return _StepPlan(ham, sgrid, -3.0 * dt if dt < 0 else dt)

    monkeypatch.setattr(nonselective, "_StepPlan", mutant)
    with pytest.raises(CheckFailure, match="adjoint_duality_gap") as info:
        run_scenario(cfg, task="unitarity-check", outdir=tmp_path / "u3")
    identity, duality = info.value.manifest.checks
    assert identity["passed"] and not duality["passed"]


def test_medium_compare_task(tmp_path):
    text = BASE.replace("kind = delta", "kind = gaussian\ntau = 0.1")
    cfg = load_config(write_scenario(tmp_path, text))
    out = tmp_path / "mc"
    manifest = run_scenario(
        cfg, task="medium-compare", outdir=out, corpus=12, n_slices=10, ell=2.0
    )
    assert manifest.checks[0]["value"] < 1e-12
    table = np.loadtxt(out / "medium_compare.txt")
    assert table.shape == (12, 6)
    assert np.all(table[:, 5] > 0) and np.all(table[:, 5] <= 1)


def test_medium_compare_rejects_tabulated(tmp_path):
    lags = np.linspace(-0.4, 0.4, 17)
    np.savetxt(tmp_path / "prof.txt", np.column_stack([lags, np.exp(-np.abs(lags) / 0.1)]))
    text = BASE.replace("kind = delta", "kind = tabulated\ntable = prof.txt")
    cfg = load_config(write_scenario(tmp_path, text))
    with pytest.raises(ConfigError, match="resolution"):
        run_scenario(cfg, task="medium-compare", outdir=tmp_path / "x")


def test_zeno_task_monotone(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    out = tmp_path / "z"
    manifest = run_scenario(cfg, task="zeno-sweep", outdir=out, kappas=[0.05, 0.5, 5.0])
    assert all(c["passed"] for c in manifest.checks)
    table = np.loadtxt(out / "zeno_sweep.txt")
    assert np.all(np.diff(table[:, 1]) < 0)


def test_convergence_dt_task(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    out = tmp_path / "c"
    run_scenario(cfg, task="convergence", outdir=out, study="dt", levels=3)
    table = np.loadtxt(out / "convergence_dt.txt")
    assert np.all(np.diff(table[:, 1]) < 0)
    slope = fitted_slope(out / "convergence_dt.txt")
    assert 0.8 < slope < 1.3  # boundary half-step conjugation: first order

    text = BASE.replace("kind = delta", "kind = gaussian\ntau = 0.02")
    cfg2 = load_config(write_scenario(tmp_path, text, name="g.ini"))
    with pytest.raises(ConfigError, match="delta"):
        run_scenario(cfg2, task="convergence", outdir=out, study="dt")


def test_convergence_tau_task(tmp_path):
    text = (
        BASE.replace("n_points = 16", "n_points = 4")
        .replace("n_steps = 12", "n_steps = 6")
        .replace("kind = delta", "kind = gaussian\ntau = 0.02")
    )
    cfg = load_config(write_scenario(tmp_path, text))
    out = tmp_path / "ct"
    manifest = run_scenario(cfg, task="convergence", outdir=out, study="tau", levels=2)
    table = np.loadtxt(out / "convergence_tau.txt")
    assert table.shape == (2, 3)
    assert table[1, 1] < table[0, 1]
    assert manifest.options == {"study": "tau", "levels": 2}


def test_convergence_tau_passes_once_distances_reach_roundoff(tmp_path):
    # the demo's last two tau levels both sit at roundoff (~2e-16): the
    # decrease is required only above the floor, and the fit skips them
    manifest = run_scenario(load_config(SLOW_DETECTOR), task="convergence",
                            outdir=tmp_path / "c", study="tau")
    checks = {c["name"]: c for c in manifest.checks}
    decreasing = checks["distances_strictly_decreasing"]
    assert decreasing["passed"] and decreasing["tolerance"] < 1e-14
    dists = np.loadtxt(tmp_path / "c" / "convergence_tau.txt")[:, 1]
    assert dists[-1] >= dists[-2] and dists[-1] <= decreasing["tolerance"]
    # fitted on the two levels above the floor only
    assert_allclose(fitted_slope(tmp_path / "c" / "convergence_tau.txt"),
                    np.log2(dists[0] / dists[1]), rtol=1e-12)


@pytest.mark.parametrize(
    "distances",
    [[1e-3, 2e-3, 4e-3, 8e-3], [1e-3, 1e-6, 2e-16, 1e-9], [1e-3, 1e-3, 1e-4, 1e-5]],
    ids=["increasing", "rise-off-the-floor", "stall-above-the-floor"],
)
def test_convergence_check_fails_unless_decreasing_to_the_floor(tmp_path, monkeypatch, distances):
    # a synthetic tau study: level r (tau = tau0 / 2^r) sits at distances[r]
    from corridors import scenario

    def synthetic(rho0, spec, *args, **kwargs):
        if spec.kind == "ideal":
            return AverageResult(rho=rho0)
        level = round(math.log2(0.04 / spec.form_factor.tau))
        return AverageResult(rho=rho0 + distances[level])

    monkeypatch.setattr(scenario, "superpropagate", synthetic)
    with pytest.raises(CheckFailure, match="distances_strictly_decreasing"):
        run_scenario(load_config(SLOW_DETECTOR), task="convergence", outdir=tmp_path / "c",
                     study="tau")


def test_readout_sources(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    record = np.linspace(-0.5, 0.5, 12)
    np.savetxt(tmp_path / "rec.txt", record)
    out = tmp_path / "r"
    run_scenario(cfg, task="evolve", outdir=out, readout=f"file:{tmp_path / 'rec.txt'}")
    used = np.loadtxt(out / "readout_used.txt")
    assert_allclose(used[:, 1], record, rtol=0, atol=0)
    with pytest.raises(ConfigError, match="readout"):
        run_scenario(cfg, task="evolve", outdir=out, readout="random")
    with pytest.raises(ConfigError, match="12 steps"):
        np.savetxt(tmp_path / "short.txt", record[:5])
        run_scenario(cfg, task="evolve", outdir=out, readout=f"file:{tmp_path / 'short.txt'}")


def test_sampled_readout_is_normal_about_the_packet_mean(tmp_path):
    # --readout sample draws a_i ~ N(<A>, 1/(4 kappa dt)) from the run's seed
    cfg = load_config(write_scenario(tmp_path))
    prob = np.abs(cfg.initial_packet()) ** 2
    mean = prob @ cfg.obs.values / prob.sum()
    sigma = 1.0 / math.sqrt(4.0 * cfg.meas.kappa * cfg.tgrid.dt)
    draws = np.array([_resolve_readout("sample", replace(cfg, seed=s)) for s in range(4000)])
    assert draws.shape == (4000, cfg.tgrid.n_steps)
    assert_allclose(draws.mean(axis=0), mean, atol=5 * sigma / math.sqrt(4000))
    assert_allclose(draws.std(axis=0), sigma, rtol=0.1)
    # the run's seed (11) fixes the record, and the run writes the record it drew
    assert np.array_equal(_resolve_readout("sample", cfg), draws[cfg.seed])
    run_scenario(cfg, task="evolve", outdir=tmp_path / "r", readout="sample")
    assert np.array_equal(np.loadtxt(tmp_path / "r" / "readout_used.txt")[:, 1], draws[cfg.seed])


def _count_plans(monkeypatch):
    """Count the calls on WindowSpec.plan from here on."""
    calls = []
    plan = WindowSpec.plan.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return plan(cls, *args, **kwargs)

    monkeypatch.setattr(WindowSpec, "plan", classmethod(counted))
    return calls


def test_cli_evolve_auto_picks_the_exact_windowed_engine(tmp_path, capsys, monkeypatch):
    from corridors.selective import evolve_selective_coarse

    calls = _count_plans(monkeypatch)
    tables = {}
    for engine in ("auto", "coarse"):
        out = tmp_path / engine
        calls.clear()
        assert main(["evolve", str(SLOW_DETECTOR), "--engine", engine, "--outdir", str(out)]) == 0
        assert len(calls) == 1  # auto's choice is the contraction's own plan
        assert json.loads((out / "manifest.json").read_text())["options"]["engine"] == "coarse"
        tables[engine] = (out / "state_final.txt").read_bytes()
    assert tables["auto"] == tables["coarse"]
    cfg = load_config(SLOW_DETECTOR)
    res = evolve_selective_coarse(cfg.initial_packet(), np.zeros(cfg.tgrid.n_steps), cfg.form,
                                  cfg.meas.kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid)
    table = np.loadtxt(tmp_path / "auto" / "state_final.txt")
    assert np.array_equal(table[:, 1], res.final_state.real)
    assert np.array_equal(table[:, 2], res.final_state.imag)


def test_cli_mc_unitarity_table_carries_its_stderr(tmp_path, capsys):
    out = tmp_path / "u"
    code = main(["unitarity-check", str(SLOW_DETECTOR), "--mode", "mc", "--samples", "40",
                 "--outdir", str(out)])
    assert code in (0, 2)  # pass or fail, the table is written
    header = [line for line in (out / "unitarity_matrix.txt").read_text().splitlines()
              if line.startswith("# max entrywise standard error = ")]
    assert len(header) == 1 and float(header[0].rsplit("=", 1)[1]) > 0.0


def _stretched_slow_detector(tmp_path):
    """The slow detector stretched to 16 steps at tau = 1.6 dt: a 17-slice
    buffer, 4^17 = 1.7e10 elements, above the default cap."""
    text = (SLOW_DETECTOR.read_text().replace("n_steps = 6", "n_steps = 16")
            .replace("duration = 0.6", "duration = 1.6").replace("tau = 0.04", "tau = 0.16"))
    return write_scenario(tmp_path, text, name="stretched.ini")


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_cli_unitarity_refuses_a_window_above_the_cap(tmp_path, capsys, mode):
    # a sampled estimate of each U[a] had error bars as large as the
    # matrix, so mode mc passed at any deviation
    scenario = _stretched_slow_detector(tmp_path)
    out = tmp_path / mode
    assert main(["unitarity-check", str(scenario), "--mode", mode, "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid run" in err and "above the cap" in err
    assert not (out / "manifest.json").exists()


def test_cli_evolve_auto_samples_a_window_above_the_cap(tmp_path, capsys, monkeypatch):
    scenario = _stretched_slow_detector(tmp_path)
    calls = _count_plans(monkeypatch)
    out = tmp_path / "auto"
    assert main(["evolve", str(scenario), "--samples", "100", "--outdir", str(out)]) == 0
    assert len(calls) == 1  # the refused plan is the whole decision
    assert json.loads((out / "manifest.json").read_text())["options"]["engine"] == "mc"
    assert "# conditioned final state, engine mc" in (out / "state_final.txt").read_text()
    capsys.readouterr()
    out = tmp_path / "coarse"
    assert main(["evolve", str(scenario), "--engine", "coarse", "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid run" in err and "above the cap" in err
    assert not (out / "manifest.json").exists()


def test_cli_evolve_auto_reports_a_fault_of_the_exact_engine(tmp_path, capsys, monkeypatch):
    # only the plan's cap refusal sends auto to the sampler: any other error
    # of the exact engine is reported, not hidden behind a Monte-Carlo run
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(selective, "_contract_windowed", broken)
    for engine in ("auto", "coarse"):
        out = tmp_path / engine
        assert main(["evolve", str(SLOW_DETECTOR), "--engine", engine, "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid run: operands could not be broadcast together" in err
        assert not (out / "manifest.json").exists()


def test_every_exact_engine_follows_the_one_work_cap(tmp_path, capsys, monkeypatch):
    # WindowSpec.plan reads the module's cap at every call: just below the
    # slow detector's doubled-chain plan (16^5) the averaged and unitarity
    # contractions refuse while the conditioned one (4^5) still runs exactly;
    # below the conditioned plan, auto evolve samples instead
    cfg = load_config(SLOW_DETECTOR)
    window = cfg.form.window_matrix(cfg.tgrid.n_steps, cfg.tgrid.dt)
    n = cfg.sgrid.n_points
    single, doubled = (WindowSpec.plan(window, m).work_elements for m in (n, n * n))
    assert single < doubled - 1
    monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", doubled - 1)
    for task in (["average", "--engine", "superpropagator", "--mode", "exact"],
                 ["unitarity-check", "--mode", "exact"]):
        out = tmp_path / task[0]
        assert main([task[0], str(SLOW_DETECTOR), *task[1:], "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"above the cap {doubled - 1:.3g}" in err
        assert not (out / "manifest.json").exists()
    for cap, engine in ((doubled - 1, "coarse"), (single - 1, "mc")):
        monkeypatch.setattr(selective, "DEFAULT_WORK_CAP", cap)
        out = tmp_path / f"evolve_{engine}"
        assert main(["evolve", str(SLOW_DETECTOR), "--samples", "100", "--outdir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["options"]["engine"] == engine


def test_unknown_task_and_engine(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    with pytest.raises(ConfigError, match="task"):
        run_scenario(cfg, task="explode", outdir=tmp_path / "x")
    with pytest.raises(ConfigError, match="engine"):
        run_scenario(cfg, task="evolve", outdir=tmp_path / "x", engine="warp")


def test_cli_exit_codes(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main(["evolve", str(scenario), "--outdir", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    assert "manifest digest" in out and "state_final.txt" in out

    broken = write_scenario(tmp_path, BASE.replace("seed = 11", ""), name="broken.ini")
    assert main(["evolve", str(broken)]) == 1
    assert "seed" in capsys.readouterr().err

    assert main([
        "unitarity-check", str(scenario), "--tol", "1e-18",
        "--outdir", str(tmp_path / "o2"),
    ]) == 2
    captured = capsys.readouterr()
    assert "numerical check failed" in captured.err
    assert "[FAIL]" in captured.out


def test_cli_mc_unitarity_refuses_one_sample(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main([
        "unitarity-check", str(scenario), "--mode", "mc", "--samples", "1",
        "--outdir", str(tmp_path / "u"),
    ]) == 1
    assert "invalid run" in capsys.readouterr().err


def test_cli_average_and_sweeps(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    assert main([
        "average", str(scenario), "--engine", "superpropagator",
        "--pair", "4,12", "--outdir", str(tmp_path / "a"),
    ]) == 0
    assert main([
        "zeno-sweep", str(scenario), "--kappas", "0.1,1,10",
        "--outdir", str(tmp_path / "z"),
    ]) == 0
    capsys.readouterr()
    assert main(["medium-compare", str(scenario), "--corpus", "5",
                 "--outdir", str(tmp_path / "m")]) == 0


# every task on both demo scenarios, at options that keep it quick; the
# last run fails its check (exit 2) and must still write its table
DEMO_RUNS = [
    ("free_monitored.ini", "evolve --readout sample", 0),
    ("free_monitored.ini", "average", 0),
    ("free_monitored.ini", "unitarity-check", 0),
    ("free_monitored.ini", "medium-compare --corpus 10 --ell 2.0", 0),
    ("free_monitored.ini", "zeno-sweep", 0),
    ("free_monitored.ini", "convergence --study dt --levels 2", 0),
    ("slow_detector.ini", "evolve --readout sample", 0),
    ("slow_detector.ini", "average --engine superpropagator --mode mc --samples 20", 0),
    ("slow_detector.ini", "medium-compare --corpus 10", 0),
    ("slow_detector.ini", "zeno-sweep", 0),
    ("slow_detector.ini", "convergence --study tau --levels 2", 0),
    ("slow_detector.ini", "unitarity-check --tol 1e-18", 2),
]


@pytest.mark.parametrize("scenario, args, code", DEMO_RUNS,
                         ids=[f"{s.split('_')[0]}:{a}" for s, a, _ in DEMO_RUNS])
def test_run_writes_exactly_the_manifest_and_its_tables(tmp_path, capsys, scenario, args, code):
    out = tmp_path / "out"
    task, *options = args.split()
    assert main([task, str(SLOW_DETECTOR.with_name(scenario)), *options,
                 "--outdir", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    assert {p.name for p in out.iterdir()} == \
        {entry["file"] for entry in manifest["outputs"]} | {"manifest.json"}
    for entry in manifest["outputs"]:
        assert file_sha256(out / entry["file"]) == entry["sha256"]
    assert all(check["passed"] for check in manifest["checks"]) == (code == 0)


@pytest.mark.parametrize("task", sorted(_TASKS))
def test_cli_defaults_are_the_task_signatures(tmp_path, capsys, task):
    # the CLI passes on only the options given, so a bare invocation
    # records the options run_scenario uses when given none
    scenario = write_scenario(tmp_path)
    assert main([task, str(scenario), "--outdir", str(tmp_path / "cli")]) == 0
    recorded = json.loads((tmp_path / "cli" / "manifest.json").read_text())["options"]
    assert recorded == run_scenario(load_config(scenario), task=task,
                                    outdir=tmp_path / "lib").options


WINDOWED = BASE.replace("kind = delta", "kind = gaussian\ntau = 0.02")

# (scenario text, task, CLI arguments or None where the parser's choices
# already refuse, run_scenario options, the key the message names)
CONFIG_REFUSALS = {
    "observable table length": (
        BASE.replace("observable = position", "observable = table:obs8.txt"), "evolve", [], {},
        "measurement.observable"),
    "observable kind": (
        BASE.replace("observable = position", "observable = momentum"), "evolve", [], {},
        "measurement.observable"),
    "constant readout": (
        BASE, "evolve", ["--readout", "const:abc"], {"readout": "const:abc"}, "readout"),
    # file readouts resolve against the working directory, the test's tmp_path
    "missing readout file": (
        BASE, "evolve", ["--readout", "file:missing.txt"], {"readout": "file:missing.txt"},
        "readout: missing.txt not found"),
    "ragged readout file": (
        BASE, "evolve", ["--readout", "file:ragged.txt"], {"readout": "file:ragged.txt"},
        "readout: the number of columns changed"),
    "ideal engine on a window": (
        WINDOWED, "evolve", ["--engine", "ideal"], {"engine": "ideal"}, "engine"),
    "quadrature on a window": (
        WINDOWED, "average", ["--engine", "quadrature"], {"engine": "quadrature"}, "engine"),
    "average engine": (BASE, "average", None, {"engine": "warp"}, "engine"),
    "unitarity mode": (BASE, "unitarity-check", None, {"mode": "foo"}, "mode"),
    "negative tolerance": (
        BASE, "unitarity-check", ["--tol", "-1"], {"tol": -1.0}, "tol"),
    "NaN tolerance": (
        BASE, "unitarity-check", ["--tol", "nan"], {"tol": math.nan}, "tol"),
    "empty corpus": (
        WINDOWED, "medium-compare", ["--corpus", "0"], {"corpus": 0}, "corpus"),
    # zero slices wrote weights of exactly 1 for empty paths; a negative count
    # failed in the sampler with a message naming no option
    "no slices": (
        WINDOWED, "medium-compare", ["--n-slices", "0"], {"n_slices": 0}, "n_slices: 0 slices"),
    "negative slices": (
        WINDOWED, "medium-compare", ["--n-slices", "-3"], {"n_slices": -3}, "n_slices: -3 slices"),
    # a zero scale made every weight 1 under [ok]; a negative one was recorded as given
    **{f"corpus scale {scale}": (
        WINDOWED, "medium-compare", ["--scale", str(scale)], {"scale": scale}, f"scale: {scale!r}")
       for scale in (0.0, -1.0, math.nan, math.inf)},
    "one strength": (BASE, "zeno-sweep", ["--kappas", "0,1"], {"kappas": [0.0, 1.0]}, "kappas"),
    # a repeated strength failed variance_monotone_decreasing (exit 2) on equal variances
    "repeated strength": (
        BASE, "zeno-sweep", ["--kappas", "1,1,10"], {"kappas": [1.0, 1.0, 10.0]}, "kappas"),
    "one level": (BASE, "convergence", ["--levels", "1"], {"levels": 1}, "levels"),
    "tau study at delta resolution": (
        BASE, "convergence", ["--study", "tau"], {"study": "tau"}, "study"),
    "study": (BASE, "convergence", None, {"study": "dx"}, "study"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_configuration_refusals_name_the_key(tmp_path, capsys, monkeypatch, case):
    text, task, argv, options, key = CONFIG_REFUSALS[case]
    np.savetxt(tmp_path / "obs8.txt", np.linspace(-1.0, 1.0, 8))
    (tmp_path / "ragged.txt").write_text("0.0 0.1\n0.2\n")
    monkeypatch.chdir(tmp_path)
    scenario = write_scenario(tmp_path, text)
    out = tmp_path / "out"
    if argv is not None:
        assert main([task, str(scenario), *argv, "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
    with pytest.raises(ConfigError, match=key):
        run_scenario(load_config(scenario), task=task, outdir=out, **options)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flag, value, hint", [
    ("--pair", "4", "is not 'i,j'"),
    ("--kappas", "0.1,x", "is not a comma-separated list"),
])
def test_cli_refuses_an_unreadable_list(tmp_path, capsys, flag, value, hint):
    task = "average" if flag == "--pair" else "zeno-sweep"
    with pytest.raises(SystemExit) as info:
        main([task, str(write_scenario(tmp_path)), flag, value])
    assert info.value.code == 2 and hint in capsys.readouterr().err


def test_file_readout_drops_the_final_slice_value(tmp_path):
    # a table of N + 1 values, one per slice, conditions on the first N
    cfg = load_config(write_scenario(tmp_path))
    values = np.linspace(-0.5, 0.5, cfg.tgrid.n_steps + 1)
    np.savetxt(tmp_path / "slices.txt", np.column_stack([cfg.tgrid.times, values]))
    run_scenario(cfg, task="evolve", outdir=tmp_path / "r",
                 readout=f"file:{tmp_path / 'slices.txt'}")
    assert np.array_equal(np.loadtxt(tmp_path / "r" / "readout_used.txt")[:, 1], values[:-1])


def test_zeno_sweep_defaults_to_four_decades_around_kappa(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    manifest = run_scenario(cfg, task="zeno-sweep", outdir=tmp_path / "z")
    assert_allclose(manifest.options["kappas"], 0.9 * np.logspace(-2.0, 2.0, 5), rtol=1e-15)


@pytest.mark.parametrize("argv, key", [
    (["--ell", "0"], "ell"),
    (["--ell", "-2"], "ell"),
    (["--ell", "nan"], "ell"),
], ids=["ell=0", "ell=-2", "ell=nan"])
def test_cli_medium_compare_refuses_a_degenerate_pair_setup(tmp_path, capsys, argv, key):
    # ell = 0 wrote a nan w_exact column under [ok] and ell = -2 ran as if at
    # ell = 2 (slice counts below one are configuration refusals)
    out = tmp_path / "m"
    assert main(["medium-compare", str(SLOW_DETECTOR), "--corpus", "5", *argv,
                 "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid run" in err and key in err
    assert not (out / "manifest.json").exists()


# the long ideal lattice (n = 16, extent 8, kappa = 1) at N = 4096
LONG_IDEAL = (
    BASE.replace("extent = 10.0", "extent = 8.0")
    .replace("duration = 0.6", "duration = 1.0")
    .replace("n_steps = 12", "n_steps = 4096")
    .replace("kappa = 0.9", "kappa = 1.0")
)


def test_evolve_fails_the_density_check_when_c_to_the_n_underflows(tmp_path):
    # the linear density rounds to 0.0 while its log is finite, and the check
    # must say so
    cfg = load_config(write_scenario(tmp_path, LONG_IDEAL))
    out = tmp_path / "long"
    with pytest.raises(CheckFailure, match="readout_probability_density = 0 .*underflow"):
        run_scenario(cfg, task="evolve", outdir=out)
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    density = next(c for c in checks if c["name"] == "readout_probability_density")
    assert density["value"] == 0.0 and not density["passed"] and "underflow" in density["note"]
    header = [line for line in (out / "state_final.txt").read_text().splitlines()
              if line.startswith("# log_readout_probability_density = ")]
    assert len(header) == 1 and -2e4 < float(header[0].split("=")[1]) < -1e4


@pytest.mark.parametrize("engine, resolution", [("ideal", "kind = delta"),
                                                ("coarse", "kind = gaussian\ntau = 0.00005")])
def test_evolve_fails_the_density_check_when_the_norm_underflows(tmp_path, engine, resolution):
    # a record drawn around the packet's mean (--readout sample): norm_sq
    # itself rounds to 0.0.  The ideal sweep and the exact windowed
    # contraction both rescale and carry the exponent, so for either engine
    # the log is finite and the note says the density is below the smallest
    # float
    cfg = load_config(write_scenario(tmp_path, LONG_IDEAL.replace("kind = delta", resolution)))
    out = tmp_path / "sampled"
    with pytest.raises(CheckFailure,
                       match="readout_probability_density = 0 .*below the smallest float"):
        run_scenario(cfg, task="evolve", outdir=out, readout="sample")
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    density = next(c for c in checks if c["name"] == "readout_probability_density")
    assert density["value"] == 0.0 and not density["passed"] and "underflow" in density["note"]
    header = (out / "state_final.txt").read_text()
    assert header.startswith(f"# conditioned final state, engine {engine}\n# norm_sq = 0\n")
    log_density = float(header.split("# log_readout_probability_density = ")[1].split()[0])
    assert math.isfinite(log_density)


def test_evolve_fails_the_density_check_of_a_record_far_from_the_lattice(tmp_path, capsys):
    # a record value of 1000 puts every corridor weight of both demo
    # scenarios (the ideal and the exact windowed engine) far below the
    # smallest float: the linear density reads 0.0 and must fail its check
    # with the underflow note, while the header keeps a finite log
    for index, scene in enumerate((SLOW_DETECTOR.with_name("free_monitored.ini"), SLOW_DETECTOR)):
        out = tmp_path / f"far{index}"
        assert main(["evolve", str(scene), "--readout", "const:1000", "--outdir", str(out)]) == 2
        assert "readout_probability_density = 0 (underflow: below the smallest float, its log " \
            "is -" in capsys.readouterr().err
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        density = next(c for c in checks if c["name"] == "readout_probability_density")
        assert density["value"] == 0.0 and not density["passed"]
        header = (out / "state_final.txt").read_text()
        log_density = float(header.split("# log_readout_probability_density = ")[1].split()[0])
        assert -2.5e6 < log_density < -1e6


def test_evolve_keeps_the_log_of_a_long_record_read_from_a_file(tmp_path, capsys):
    # the long ideal lattice's record drawn as N(0, 1/(4 kappa dt)), through
    # file: and the CLI, which always observes the ideal sweep: the state
    # leaves the double range, the sweep rescales, and the header states the
    # finite log density of the segment-chained reference; the observer's
    # 2^k psi is the unscaled per-step loop's state, and the series row that
    # loop's stats, bit for bit while that loop's products stay clear of the
    # subnormals (largest entry above 1e-250)
    scene = write_scenario(tmp_path, LONG_IDEAL)
    cfg = load_config(scene)
    kappa, dt, n_steps = cfg.meas.kappa, cfg.tgrid.dt, cfg.tgrid.n_steps
    record = np.random.default_rng(1).standard_normal(n_steps) / math.sqrt(4.0 * kappa * dt)
    np.savetxt(tmp_path / "record.txt", record, fmt="%.17g")
    out = tmp_path / "run"
    assert main(["evolve", str(scene), "--readout", f"file:{tmp_path / 'record.txt'}",
                 "--outdir", str(out)]) == 2  # the linear density still underflows
    assert "below the smallest float" in capsys.readouterr().err
    header = (out / "state_final.txt").read_text()
    log_density = float(header.split("# log_readout_probability_density = ")[1].split()[0])
    psi0 = cfg.initial_packet()
    ref = oracles.log_density_in_segments(psi0, record, kappa, cfg.ham, cfg.obs, cfg.sgrid, dt)
    assert abs(log_density - ref) <= 1e-12 * abs(ref)

    matrix, states, psi = _StepPlan(cfg.ham, cfg.sgrid, dt).matrix, [], psi0
    for a in record:  # the unscaled sweep, one step at a time
        x = psi * np.exp(-kappa * dt * (cfg.obs.values - a) ** 2)
        psi = (matrix @ x.reshape(-1, 1)).reshape(-1)
        states.append(psi)
    seen = []
    selective.evolve_selective_ideal(psi0, record, kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid,
                                     observer=lambda i, state, k: seen.append(_ldexp(state, k)))
    clear = [np.abs(state).max() > 1e-250 for state in states]
    assert sum(clear) > n_steps // 2 and not clear[-1]
    assert all(np.array_equal(a, b) for a, b, c in zip(seen, states, clear) if c)
    series = np.loadtxt(out / "series.txt")
    stats = np.array([_density_stats(state.copy(), 0, cfg.sgrid) for state in states])
    assert np.array_equal(series[clear, 1:], stats[clear])


def test_evolve_series_holds_past_the_double_range(tmp_path):
    # --readout sample on the long ideal lattice: |psi|^2 underflows on most
    # steps, where the series wrote norm_sq, mean_q and var_q as 0 0 0.  Its
    # rows now come from the sweep's rescaled state: the log of the norm is
    # finite at every step and ends at the result's log_norm_sq, and the rows
    # whose norm_sq is a normal double keep the moments of the true-scale
    # state bit for bit
    cfg = load_config(write_scenario(tmp_path, LONG_IDEAL))
    out = tmp_path / "sampled"
    with pytest.raises(CheckFailure, match="below the smallest float"):
        run_scenario(cfg, task="evolve", outdir=out, readout="sample")
    series = np.loadtxt(out / "series.txt")
    assert series.shape == (cfg.tgrid.n_steps, 4)
    assert np.all(np.isfinite(series)) and np.all(series[:, 1:] != 0.0)
    record = np.loadtxt(out / "readout_used.txt")[:, 1]
    states = []
    res = selective.evolve_selective_ideal(
        cfg.initial_packet(), record, cfg.meas.kappa, cfg.ham, cfg.obs, cfg.sgrid, cfg.tgrid,
        observer=lambda i, psi, k: states.append(_ldexp(psi, k)))
    assert res.norm_sq == 0.0 and series[-1, 1] == res.log_norm_sq
    normal = 0
    for row, state in zip(series, states):
        prob = np.abs(state) ** 2
        total = prob.sum() * cfg.sgrid.spacing
        if total > 1e-300:
            normal += 1
            prob, q = prob / total, cfg.sgrid.coords
            mean = prob @ q * cfg.sgrid.spacing
            assert (row[2], row[3]) == (mean, prob @ (q - mean) ** 2 * cfg.sgrid.spacing)
            assert abs(row[1] - math.log(total)) <= 1e-15 * abs(row[1])
    assert 0 < normal < cfg.tgrid.n_steps // 2


def test_evolve_states_the_log_density_and_passes_a_representable_one(tmp_path):
    cfg = load_config(write_scenario(tmp_path))
    manifest = run_scenario(cfg, task="evolve", outdir=tmp_path / "run")
    density = next(c for c in manifest.checks if c["name"] == "readout_probability_density")
    assert density["passed"] and density["value"] > 0 and "note" not in density
    header = (tmp_path / "run" / "state_final.txt").read_text()
    logged = float(header.split("# log_readout_probability_density = ")[1].split("\n")[0])
    assert_allclose(logged, math.log(density["value"]), rtol=1e-12)

"""Importing the package and running a CLI task load numpy, not scipy.

scipy costs a cold process most of its start-up, so the package imports
it only where it runs.  One user remains: `quad` in an off-centre
`correlation_function`.  The FFT plan's 2-D sweep (above 128 points)
transforms with numpy.fft and the Monte-Carlo unitarity check weighs its
records with numpy alone, so neither loads scipy.  The check runs
in a fresh interpreter: `tests/test_grids.py`, `tests/test_readout.py`
and `tests/oracles.py` import scipy at module level, so in this process
`sys.modules` would hold it whatever the package does.

A sampler that runs one batch sweeps it inline, so it loads no
`concurrent.futures` either: the kept thread pool is imported only by a
call with batches to run side by side.  The CLI module pins BLAS to one
thread before numpy loads, unless the caller's environment sets it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import corridors

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "demos" / "scenarios"

PROBE = """
import json, sys
import corridors, corridors.cli
from corridors import grids

free, slow, outdir = sys.argv[1:]


def loaded_scipy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


code = corridors.cli.main(["evolve", free, "--outdir", outdir])
# 100 samples of the 64-point scenario are one batch of the field sweep
mc_code = corridors.cli.main(["evolve", free, "--outdir", outdir + "/mc",
                              "--engine", "mc", "--samples", "100"])
after_cli = loaded_scipy()
pool_loaded = "concurrent.futures" in sys.modules

from corridors.grids import (HamiltonianSpec, ObservableSpec, SpatialGrid, TimeGrid,
                             build_grids, gaussian_packet, pure_density)
from corridors.nonselective import InfluenceKernelSpec, check_generalized_unitarity, superpropagate

# the windowed demo's MC unitarity check, and an ideal one in two batches of
# 4 records of 64 x 64 on two workers (the caller and the kept pool's
# thread) whatever the machine's cores
unit_code = corridors.cli.main(["unitarity-check", slow, "--outdir", outdir + "/unit",
                                "--mode", "mc"])
grids._USABLE_CORES = 2
g = SpatialGrid(8.0, 64)
check_generalized_unitarity(0.8, HamiltonianSpec.harmonic(g, omega=0.5), ObservableSpec.position(g),
                            g, TimeGrid(0.6, 3), mode="mc", samples=8, seed=1)
pool_ran = "concurrent.futures" in sys.modules
after_unitarity = loaded_scipy()

g, tg = build_grids(16.0, 256, 0.05, 4)
rho0 = pure_density(gaussian_packet(g, width=1.5))
superpropagate(rho0, InfluenceKernelSpec("ideal", 1.0), HamiltonianSpec.free(g),
               ObservableSpec.position(g), g, tg)
print(json.dumps({"code": code, "after_cli": after_cli, "mc_code": mc_code,
                  "pool_loaded": pool_loaded, "unit_code": unit_code, "pool_ran": pool_ran,
                  "after_unitarity": after_unitarity, "after_fft": loaded_scipy()}))
"""


def test_cli_task_and_the_fft_sweep_load_no_scipy(tmp_path):
    src = str(Path(corridors.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", PROBE, str(SCENARIOS / "free_monitored.ini"),
                          str(SCENARIOS / "slow_detector.ini"), str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["mc_code"] == 0 and result["unit_code"] == 0
    assert result["after_cli"] == []
    assert not result["pool_loaded"]
    # the ideal check's two batches ran on the pool, and neither check loaded scipy
    assert result["pool_ran"]
    assert result["after_unitarity"] == []
    # the n=256 sweep transforms with numpy.fft: no scipy module at all
    assert result["after_fft"] == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PROBE = """
import json, os, sys
VARS = %r
seen = {}


class AtNumpy:  # the environment BLAS reads: the one at numpy's first import
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({var: os.environ.get(var) for var in VARS})


sys.meta_path.insert(0, AtNumpy())
import corridors.cli
print(json.dumps(seen))
""" % (BLAS_VARS,)


def test_the_cli_pins_blas_to_one_thread_unless_the_caller_set_it():
    # the sampler batches run one per core, and BLAS threads inside each
    # oversubscribed the cores; a value the caller set stays
    src = str(Path(corridors.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OMP_NUM_THREADS="2")
    run = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                         env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"}

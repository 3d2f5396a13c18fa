"""Importing the package and running a CLI task load numpy, not scipy.

scipy costs a cold process most of its start-up, so the package imports
it only where it runs.  Two users remain: `scipy.fft` on the FFT plan's
2-D sweep (above 128 points) and `quad` in an off-centre
`correlation_function`.  The Monte-Carlo unitarity check weighs its
records with numpy alone, so it loads no scipy either.  The check runs
in a fresh interpreter: `tests/test_grids.py`, `tests/test_readout.py`
and `tests/oracles.py` import scipy at module level, so in this process
`sys.modules` would hold it whatever the package does.

A sampler that runs one batch sweeps it inline, so it loads no
`concurrent.futures` either: the thread pool is imported only by a call
with batches to run side by side.
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
from corridors import selective

free, slow, outdir = sys.argv[1:]
code = corridors.cli.main(["evolve", free, "--outdir", outdir])
# 100 samples of the 64-point scenario are one batch of the field sweep
mc_code = corridors.cli.main(["evolve", free, "--outdir", outdir + "/mc",
                              "--engine", "mc", "--samples", "100"])
after_cli = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
pool_loaded = "concurrent.futures" in sys.modules

from corridors.grids import (HamiltonianSpec, ObservableSpec, SpatialGrid, TimeGrid,
                             build_grids, gaussian_packet, pure_density)
from corridors.nonselective import InfluenceKernelSpec, check_generalized_unitarity, superpropagate

# the windowed demo's MC unitarity check, and an ideal one in two batches of
# 4 records of 64 x 64 on two pool workers whatever the machine's cores
unit_code = corridors.cli.main(["unitarity-check", slow, "--outdir", outdir + "/unit",
                                "--mode", "mc"])
selective._BATCH_WORKERS = 2
g = SpatialGrid(8.0, 64)
check_generalized_unitarity(0.8, HamiltonianSpec.harmonic(g, omega=0.5), ObservableSpec.position(g),
                            g, TimeGrid(0.6, 3), mode="mc", samples=8, seed=1)
pool_ran = "concurrent.futures" in sys.modules
after_unitarity = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

g, tg = build_grids(16.0, 256, 0.05, 4)
rho0 = pure_density(gaussian_packet(g, width=1.5))
superpropagate(rho0, InfluenceKernelSpec("ideal", 1.0), HamiltonianSpec.free(g),
               ObservableSpec.position(g), g, tg)
print(json.dumps({"code": code, "after_cli": after_cli, "mc_code": mc_code,
                  "pool_loaded": pool_loaded, "unit_code": unit_code, "pool_ran": pool_ran,
                  "after_unitarity": after_unitarity, "fft_loaded": "scipy.fft" in sys.modules}))
"""


def test_cli_task_loads_no_scipy_and_the_fft_sweep_loads_scipy_fft(tmp_path):
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
    # the n=256 sweep transforms through scipy.fft, not another FFT
    assert result["fft_loaded"]

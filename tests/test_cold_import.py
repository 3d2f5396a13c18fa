"""Importing the package and running a CLI task load numpy, not scipy.

scipy costs a cold process most of its start-up, so the package imports
it only where it runs: `scipy.fft` on the FFT plan's 2-D sweep (above
128 points), `logsumexp` in the MC-unitarity mixture sampler and `quad`
in an off-centre `correlation_function`.  The check runs in a fresh
interpreter: `tests/test_grids.py`, `tests/test_readout.py` and
`tests/oracles.py` import scipy at module level, so in this process
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
SCENARIO = REPO / "demos" / "scenarios" / "free_monitored.ini"

PROBE = """
import json, sys
import corridors, corridors.cli

code = corridors.cli.main(["evolve", sys.argv[1], "--outdir", sys.argv[2]])
# 100 samples of the 64-point scenario are one batch of the field sweep
mc_code = corridors.cli.main(["evolve", sys.argv[1], "--outdir", sys.argv[2] + "/mc",
                              "--engine", "mc", "--samples", "100"])
after_cli = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
pool_loaded = "concurrent.futures" in sys.modules

from corridors.grids import HamiltonianSpec, ObservableSpec, build_grids, gaussian_packet, pure_density
from corridors.nonselective import InfluenceKernelSpec, superpropagate
g, tg = build_grids(16.0, 256, 0.05, 4)
rho0 = pure_density(gaussian_packet(g, width=1.5))
superpropagate(rho0, InfluenceKernelSpec("ideal", 1.0), HamiltonianSpec.free(g),
               ObservableSpec.position(g), g, tg)
print(json.dumps({"code": code, "after_cli": after_cli, "mc_code": mc_code,
                  "pool_loaded": pool_loaded, "fft_loaded": "scipy.fft" in sys.modules}))
"""


def test_cli_task_loads_no_scipy_and_the_fft_sweep_loads_scipy_fft(tmp_path):
    src = str(Path(corridors.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", PROBE, str(SCENARIO), str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["mc_code"] == 0
    assert result["after_cli"] == []
    assert not result["pool_loaded"]
    # the n=256 sweep transforms through scipy.fft, not another FFT
    assert result["fft_loaded"]

"""Three routes to the record-averaged density matrix.

The master equation, the record-by-record average, and the
superpropagator describe the same non-selective evolution.  Part one
freezes the dynamics (infinite mass, flat potential) where the averaged
state has a closed form, and shows all three engines sit on it to
machine precision.  Part two turns the kinetic term back on and halves
dt repeatedly: the master equation (a Strang discretization) differs
from the other two by a boundary term that shrinks linearly.  The record
average is the superpropagator's sweep started from the pure state, so
their distance is zero by construction, not a check.
"""

import math

import numpy as np

from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    build_grids,
    gaussian_packet,
    pure_density,
)
from corridors.nonselective import (
    InfluenceKernelSpec,
    lindblad_evolve,
    readout_average,
    superpropagate,
)


def engines(rho0, psi0, kappa, ham, obs, sgrid, tgrid):
    rho_master = lindblad_evolve(rho0, kappa, ham, obs, sgrid, tgrid)
    rho_avg = readout_average(psi0, kappa, ham, obs, sgrid, tgrid).rho
    rho_sup = superpropagate(
        rho0, InfluenceKernelSpec("ideal", kappa), ham, obs, sgrid, tgrid
    ).rho
    return rho_master, rho_avg, rho_sup


def main():
    kappa = 0.7

    # --- frozen dynamics: the pointer-basis law is exact -----------------
    sgrid, tgrid = build_grids(6.0, 8, 1.2, 6)
    ham = HamiltonianSpec(mass=math.inf, potential=np.zeros(8))
    obs = ObservableSpec.position(sgrid)
    psi0 = gaussian_packet(sgrid, 0.0, 1.0, 0.0)
    rho0 = pure_density(psi0)
    diff = sgrid.coords[:, None] - sgrid.coords[None, :]
    law = rho0 * np.exp(-0.5 * kappa * diff**2 * tgrid.duration)
    labels = ("master equation", "record average", "superpropagator")
    print("frozen dynamics: rho_t(q,q') = rho_0 exp(-kappa/2 (q-q')^2 t)")
    for label, rho in zip(labels, engines(rho0, psi0, kappa, ham, obs, sgrid, tgrid)):
        print(f"  {label:16s} deviation from the law: {np.max(np.abs(rho - law)):.2e}")

    # --- live dynamics: pairwise distances under dt-halving --------------
    print("\nfree particle: pairwise distances while halving dt")
    print(f"{'N':>6} {'dt':>10} {'master-avg':>12} {'avg-super':>11}")
    gaps = []
    for n_steps in (64, 128, 256):
        sgrid, tgrid = build_grids(8.0, 16, 1.0, n_steps)
        ham = HamiltonianSpec.free(sgrid)
        obs = ObservableSpec.position(sgrid)
        psi0 = gaussian_packet(sgrid, 0.0, 1.2, 0.4)
        rho_m, rho_a, rho_s = engines(pure_density(psi0), psi0, 1.0, ham, obs, sgrid, tgrid)
        gap_ma = np.max(np.abs(rho_m - rho_a))
        gap_as = np.max(np.abs(rho_a - rho_s))
        gaps.append(gap_ma)
        print(f"{n_steps:6d} {tgrid.dt:10.5f} {gap_ma:12.3e} {gap_as:11.1e}")
    order = np.log2(np.asarray(gaps[:-1]) / np.asarray(gaps[1:]))
    print(f"master-vs-average empirical order per halving: {order.round(3)}")
    print("the zeros are by construction: readout_average is the record-average "
          "front of superpropagate's sweep.")


if __name__ == "__main__":
    main()

"""Library refusals: an engine given an input it cannot weigh with names the
input and raises, instead of returning a number that does not mean what it
says (a negative strength made a "state" with eigenvalue -112.5 and a
probability of 0.0 beside a norm of 210)."""

import math

import numpy as np
import pytest

from corridors.grids import (
    HamiltonianSpec,
    ObservableSpec,
    build_grids,
    gaussian_packet,
    pure_density,
)
from corridors.medium import PathPair, firstorder_log_weights
from corridors.nonselective import check_generalized_unitarity, lindblad_evolve
from corridors.readout import FormFactor
from corridors.selective import (
    WindowSpec,
    evolve_selective_coarse,
    evolve_selective_coarse_mc,
    evolve_selective_ideal,
)

# a free packet at n = 16, extent 8, N = 10 over 0.5
SGRID, TGRID = build_grids(8.0, 16, 0.5, 10)
HAM = HamiltonianSpec.free(SGRID)
OBS = ObservableSpec.position(SGRID)
PSI0 = gaussian_packet(SGRID, 0.0, 1.0)
WINDOWED = FormFactor.gaussian(0.4 * TGRID.dt)
RECORD = np.zeros(TGRID.n_steps)

ENGINES = {
    "lindblad_evolve":
        lambda k: lindblad_evolve(pure_density(PSI0), k, HAM, OBS, SGRID, TGRID),
    "evolve_selective_ideal":
        lambda k: evolve_selective_ideal(PSI0, RECORD, k, HAM, OBS, SGRID, TGRID),
    "evolve_selective_coarse":
        lambda k: evolve_selective_coarse(PSI0, RECORD, WINDOWED, k, HAM, OBS, SGRID, TGRID),
    "evolve_selective_coarse_mc":
        lambda k: evolve_selective_coarse_mc(PSI0, RECORD, WINDOWED, k, HAM, OBS, SGRID, TGRID,
                                             samples=20, seed=1),
    "unitarity_exact":
        lambda k: check_generalized_unitarity(k, HAM, OBS, SGRID, TGRID),
    "unitarity_mc":
        lambda k: check_generalized_unitarity(k, HAM, OBS, SGRID, TGRID, mode="mc",
                                              samples=20, seed=1),
}


@pytest.mark.parametrize("kappa", [-1.0, math.nan])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_engine_refuses_a_negative_or_non_finite_kappa(engine, kappa):
    with pytest.raises(ValueError, match="kappa must be finite and nonnegative"):
        ENGINES[engine](kappa)


def _zero_row_window():
    window = FormFactor.gaussian(0.4 * TGRID.dt).window_matrix(TGRID.n_steps, TGRID.dt)
    window[3] = 0.0
    return window


SHORT = np.zeros(TGRID.n_steps - 1)
# a random pair of 1-D paths over 8 slices
PAIR = PathPair(*np.random.default_rng(5).normal(size=(2, 8)))

REFUSALS = {
    "unitarity mode": (
        lambda: check_generalized_unitarity(1.0, HAM, OBS, SGRID, TGRID, mode="quadrature"),
        "mode must be 'exact' or 'mc'"),
    "unitarity mc at kappa 0": (
        lambda: check_generalized_unitarity(0.0, HAM, OBS, SGRID, TGRID, mode="mc", samples=20),
        "record sampling requires kappa > 0"),
    "ideal readout length": (
        lambda: evolve_selective_ideal(PSI0, SHORT, 1.0, HAM, OBS, SGRID, TGRID),
        "readout must have 10 entries"),
    "coarse readout length": (
        lambda: evolve_selective_coarse(PSI0, SHORT, WINDOWED, 1.0, HAM, OBS, SGRID, TGRID),
        "readout must have 10 entries"),
    "coarse mc readout length": (
        lambda: evolve_selective_coarse_mc(PSI0, SHORT, WINDOWED, 1.0, HAM, OBS, SGRID, TGRID,
                                           samples=20),
        "readout must have 10 entries"),
    "plan of a window with a zero row": (
        lambda: WindowSpec.plan(_zero_row_window(), SGRID.n_points),
        "window row 3 is identically zero"),
    "path pair without slices": (
        lambda: PathPair(np.zeros(0), np.zeros(0)), "needs n_slices >= 1"),
    # at ell = 0 the Gaussian well divided by zero and every weight was nan;
    # at ell = -2 it was evaluated as if at ell = 2
    **{f"medium pair weight at ell {ell}": (
        lambda ell=ell: firstorder_log_weights(PAIR, WINDOWED, 0.9, ell, 0.1),
        "positive interaction range ell") for ell in (0.0, -2.0, math.nan)},
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_engines_refuse_and_name_the_reason(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()


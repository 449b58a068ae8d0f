"""Discretization error shown as an observed order on a mesh ladder."""

import functools
import math

import pytest
from scipy.special import jn_zeros, jnp_zeros

from gelfand.meanfield import Linearization
from gelfand.spectrum import weighted_eigs
from mesh_ladder import ladder, observed_order

# On the unit disk at h = 0.1, 0.05 and 0.025 successive differences shrink
# by 3.980 for E(lambda = 12) and 4.020 for lambda(mu = 1): observed orders
# 1.993 and 2.007, about 0.3 s for the three rungs.
QUANTITIES = {
    "E(lambda=12)": lambda problem: problem.solve_mp(12.0).energy,
    "lambda(mu=1)": lambda problem: problem.solve_lp(1.0).lam,
}


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_disk_ladder_observes_second_order(name):
    assert observed_order(ladder(QUANTITIES[name])) == pytest.approx(2.0, abs=0.05)


# The spectra at lambda = 0, where rho = 1/pi, against their Bessel limits:
# sigma_1 = pi j_{1,1}^2, tau_1 = pi j_{0,1}^2 and C_P = pi j'_{1,1}^2.  On the
# same rungs sigma_1 reads 46.4795, 46.2122, 46.1466 (order 2.025), tau_1
# 18.2043, 18.1774, 18.1706 (2.004) and C_P 10.6663, 10.6539, 10.6508
# (2.053), each above its limit; about 0.45 s for the three rungs.
BESSEL = {
    "sigma1": math.pi * jn_zeros(1, 1)[0] ** 2,
    "tau1": math.pi * jn_zeros(0, 1)[0] ** 2,
    "C_P": math.pi * jnp_zeros(1, 1)[0] ** 2,
}


@functools.cache
def spectra_at_zero(problem):
    report = weighted_eigs(Linearization.at_state(problem, problem.solve_mp(0.0)), k=1)
    return {"sigma1": report.sigmas[0], "tau1": report.tau1, "C_P": report.poincare}


@pytest.mark.parametrize("name", sorted(BESSEL))
def test_disk_ladder_spectra_converge_from_above_at_second_order(name):
    values = ladder(lambda problem: spectra_at_zero(problem)[name])
    assert all(v > BESSEL[name] for v in values), values
    assert observed_order(values) == pytest.approx(2.0, abs=0.1)

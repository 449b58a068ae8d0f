"""Discretization error shown as an observed order on a mesh ladder."""

import pytest

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

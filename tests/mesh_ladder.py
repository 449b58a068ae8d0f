"""A mesh ladder: one problem per mesh size, built once per test run, and the
observed convergence order of a quantity computed on each rung.

    values = ladder(lambda problem: problem.solve_mp(12.0).energy)
    observed_order(values)     # about 2 for a P1 energy on the unit disk
"""

import functools
import math

from conftest import make_problem
from gelfand.geometry import DomainSpec, SingularitySpec

DISK_LADDER = (0.1, 0.05, 0.025)     # h_max, halved from rung to rung


@functools.cache
def rung(h_max, domain=DomainSpec.unit_disk(), sing=SingularitySpec.none()):
    """The problem of one rung; each (h_max, domain, singularities) is built once."""
    return make_problem(domain, sing, h_max)


def ladder(quantity, hs=DISK_LADDER, **spec):
    """quantity(problem) on each rung of hs, coarsest first; spec is
    rung's domain and sing."""
    return [quantity(rung(h, **spec)) for h in hs]


def observed_order(values, hs=DISK_LADDER):
    """The p of |q_h - q| ~ C h^p seen on three rungs with one refinement
    ratio: the log of the ratio of successive differences over the log of
    the ratio of mesh sizes.  Differences of opposite sign (no asymptotic
    regime yet) raise ValueError."""
    q1, q2, q3 = values
    return math.log((q1 - q2) / (q2 - q3)) / math.log(hs[0] / hs[1])

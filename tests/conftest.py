import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gelfand import branch
from gelfand.branch import trace_branch
from gelfand.geometry import (DomainSpec, SingularitySpec, build_mesh,
                              build_weight, uniform_weight)
from gelfand.meanfield import MeanFieldProblem


def make_problem(domain, sing, h_max):
    mesh = build_mesh(domain, sing, h_max=h_max)
    weight = build_weight(mesh, sing) if len(sing) else uniform_weight(mesh)
    return MeanFieldProblem(mesh, weight)


@pytest.fixture(scope="session")
def coarse_problem():
    """Small regular disk; keeps dense linear algebra affordable."""
    return make_problem(DomainSpec.unit_disk(), SingularitySpec.none(), 0.14)


@pytest.fixture(scope="session")
def disk_problem():
    """Workhorse regular disk."""
    return make_problem(DomainSpec.unit_disk(), SingularitySpec.none(), 0.08)


@pytest.fixture(scope="session")
def fine_problem():
    """Refined regular disk used by the acceptance criteria."""
    return make_problem(DomainSpec.unit_disk(), SingularitySpec.none(), 0.05)


@pytest.fixture(scope="session")
def disk_trace(disk_problem):
    """Full branch on the workhorse disk, with the state of every row by lambda."""
    states, branch_point = {}, branch._branch_point

    def kept(problem, state, warm=None):
        states[state.lam] = state
        return branch_point(problem, state, warm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branch, "_branch_point", kept)
        diagram = trace_branch(disk_problem)
    return {"diagram": diagram, "problem": disk_problem, "states": states}


@pytest.fixture(scope="session")
def fine_trace(fine_problem):
    """Full branch on the refined disk, with its wall-clock build time."""
    t0 = time.perf_counter()
    diagram = trace_branch(fine_problem)
    seconds = time.perf_counter() - t0
    return {"diagram": diagram, "seconds": seconds, "problem": fine_problem}


@pytest.fixture(scope="session")
def ellipse_trace():
    problem = make_problem(DomainSpec.ellipse(1.3, 0.8), SingularitySpec.none(), 0.08)
    return {"diagram": trace_branch(problem), "problem": problem}


@pytest.fixture(scope="session")
def offcenter_problem():
    """Weight vanishing like r^0.1 at (0.5, 0): off-center singular case."""
    sing = SingularitySpec.of((0.5, 0.0, 0.05))
    return make_problem(DomainSpec.unit_disk(), sing, 0.08)


@pytest.fixture(scope="session")
def offcenter_trace(offcenter_problem):
    """Off-center singular branch."""
    return {"diagram": trace_branch(offcenter_problem), "problem": offcenter_problem}


@pytest.fixture(scope="session")
def centered_trace():
    """Weight vanishing like r^2 at the origin: bounded second-kind branch."""
    sing = SingularitySpec.of((0.0, 0.0, 1.0))
    problem = make_problem(DomainSpec.unit_disk(), sing, 0.08)
    return {"diagram": trace_branch(problem), "problem": problem, "alpha": 1.0}

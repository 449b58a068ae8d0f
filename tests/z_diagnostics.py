"""The z diagnostics of the fold indicator, from g_of's eta.

z = psi + lambda eta is the lambda-derivative of lambda psi along the branch,
and g = 1 - lambda <z> with <.> the rho average.  g_of forms <z> as
2E + lambda <eta>; the tests check the direct average against that identity,
and read the third moment <z^3> and the minimum of z at the fold.
"""

from dataclasses import dataclass

import numpy as np

from gelfand.meanfield import Linearization


@dataclass
class ZDiagnostics:
    z3_avg: float           # int rho z^3 against the point factors
    z_min: float            # min of z over the vertices
    identity_error: float   # |<z> - (2E + lambda <eta>)|


def z_diagnostics(problem, state, eta) -> ZDiagnostics:
    lin = Linearization.at_state(problem, state)
    z = state.psi + state.lam * eta
    z_avg = 2.0 * state.energy + state.lam * lin.rho_average(eta)
    return ZDiagnostics(
        z3_avg=float(np.sum(problem.quad.w * lin.factors * problem.quad.eval(z) ** 3)),
        z_min=float(z.min()),
        identity_error=abs(lin.rho_average(z) - z_avg))

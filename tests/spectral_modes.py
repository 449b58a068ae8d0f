"""Test-only spectral helpers: eigenmode expansions and a dense sigma oracle.

Nothing in the package calls these; the tests use them to tie a state, its
lambda-derivative and the weighted eigenmodes together, and to check the
sparse sigma solver against a brute-force one.
"""

from dataclasses import dataclass

import numpy as np

from gelfand.meanfield import Linearization, MeanFieldState
from gelfand.spectrum import SpectrumReport, _dense_eigh, _mhat_full


@dataclass
class ModeCoefficients:
    a: np.ndarray               # projections of the oscillation of psi
    b: np.ndarray               # projections of the oscillation of eta


def dense_sigma_oracle(problem, state, k=5):
    """Brute-force full eigensolve of the same pencil, for cross-checking."""
    return _dense_eigh(Linearization.at_state(problem, state), "sigma")[0][:k] - state.lam


def expand_modes(lin: Linearization, state: MeanFieldState, eta,
                 report: SpectrumReport) -> ModeCoefficients:
    """Coefficients of psi and eta oscillations in the eigenfield basis, lin
    being Linearization.at_state(problem, state).

    a_j pairs the oscillation of psi with mode j, b_j that of eta; the
    eigenvalue relation makes sigma_j b_j = a_j for resolved modes.
    """
    mhat = _mhat_full(lin)
    a = report.phis.T @ mhat(state.psi)
    b = report.phis.T @ mhat(np.asarray(eta, dtype=float))
    return ModeCoefficients(a=a, b=b)

"""Exception hierarchy for the gelfand toolkit.

Every error raised on purpose by the package derives from GelfandError; bad
input (config, weight, density, collar width, unsupported parameter) raises a
ConfigError, which callers such as the CLI separate from solver trouble.
"""


class GelfandError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GelfandError):
    """Malformed or inconsistent configuration input."""


# -- geometry ---------------------------------------------------------------

class InvalidSingularity(ConfigError):
    """Singular point outside the domain, duplicated, or with alpha <= 0."""


class MeshFailure(GelfandError):
    """Mesh generation produced an unusable triangulation."""


class InvalidWeight(ConfigError):
    """Weight field violates its contract (negative values, bad metadata)."""


class DegenerateWeight(GelfandError):
    """Weighted mass pairing is numerically rank deficient."""


# -- solvers ----------------------------------------------------------------

class SolverError(GelfandError):
    """A linear or nonlinear solve failed for a reason we cannot recover."""


class NoConvergence(SolverError):
    """Iteration ran out of budget before reaching its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class BlowupDetected(SolverError):
    """Iterates left the trust region that bounded solutions live in.

    Carries the last iterate so callers can inspect the partial state.
    """

    def __init__(self, message, lam=None, psi=None, sup=None):
        super().__init__(message)
        self.lam = lam
        self.psi = psi
        self.sup = sup


class OverflowGuard(SolverError):
    """Exponential nonlinearity produced non-finite values despite shifting."""


class UnsupportedRegime(ConfigError):
    """Operation called outside the parameter range it is defined for."""


# -- branch tracing ---------------------------------------------------------

class FoldSingularity(SolverError):
    """Linearized operator is singular at (or too close to) a fold."""


class NoFoldInRange(GelfandError):
    """The fold locator has no sign change on the traced interval."""


# -- free energy ------------------------------------------------------------

class InvalidDensity(ConfigError):
    """Density input is not a nonnegative unit-mass field."""


class InvalidDelta(ConfigError):
    """Collar width is empty or swallows the whole domain."""

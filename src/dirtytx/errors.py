"""Exception hierarchy shared across the library.

Config problems and numerical failures are kept distinct so the command line
tool can map them to different exit codes.
"""

__all__ = [
    "DirtyTxError",
    "ConfigError",
    "NumericalError",
    "SingularCouplingError",
    "RootStructureError",
    "DegeneratePolynomialError",
    "NoFiniteOptimumError",
    "BoundaryEvaluationError",
    "ConvergenceError",
]


class DirtyTxError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(DirtyTxError):
    """Experiment configuration is malformed or violates the schema."""


class NumericalError(DirtyTxError):
    """Base class for failures of a numerical routine."""


class SingularCouplingError(NumericalError):
    """The linearized input coupling matrix is numerically singular."""


class RootStructureError(NumericalError):
    """A polynomial expected to have exactly one positive root does not."""


class DegeneratePolynomialError(NumericalError):
    """All polynomial coefficients vanished; no roots can be extracted."""


class NoFiniteOptimumError(NumericalError):
    """The optimization target has no finite interior optimum."""


class BoundaryEvaluationError(NumericalError):
    """A 1-D power optimization found no interior critical point."""


class ConvergenceError(NumericalError):
    """An iterative solver failed to converge within its budget."""

"""Exception types shared across the package."""


class JumpFeedbackError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(JumpFeedbackError, ValueError):
    """Operator or superoperator dimensions are inconsistent."""


class ValidationError(JumpFeedbackError, ValueError):
    """An input fails a structural requirement (hermiticity, normalization, ...)."""


class DegenerateSteadyStateError(JumpFeedbackError, RuntimeError):
    """The generator kernel is not one-dimensional."""


class PositivityError(JumpFeedbackError, RuntimeError):
    """A state that should be positive semidefinite is not."""


class ResolventError(JumpFeedbackError, RuntimeError):
    """A resolvent solve (i*omega - generator) is singular."""


class StencilError(JumpFeedbackError, RuntimeError):
    """Finite-difference stencil on the tilted generator is unreliable."""


class ConfigError(JumpFeedbackError, ValueError):
    """A run configuration fails to parse or validate."""

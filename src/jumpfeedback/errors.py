"""Exception types shared across the package."""


class JumpFeedbackError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(JumpFeedbackError, ValueError):
    """Operator or superoperator dimensions are inconsistent."""


class ValidationError(JumpFeedbackError, ValueError):
    """An input fails a structural requirement (hermiticity, normalization, ...)."""


class SettingError(ValidationError):
    """A ValidationError of one named setting.

    ``setting`` names it and ``reason`` says what is wrong without the name,
    for a caller that names settings its own way (the CLI's config paths).
    The message defaults to "<setting> <reason>".
    """

    def __init__(self, setting, reason, message=None):
        super().__init__(message or f"{setting} {reason}")
        self.setting, self.reason = setting, reason


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

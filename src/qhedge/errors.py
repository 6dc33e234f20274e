"""Shared exception types."""


class QhedgeError(Exception):
    """Base class for all library errors."""


class SingularDiffusion(QhedgeError):
    """Volatility matrix not invertible (or condition estimate above 1e12)."""


class UnknownModel(QhedgeError):
    """Model kind not recognized."""


class InvalidCoefficients(QhedgeError):
    """Coefficient functions fail validation sampling."""


class SchemeMismatch(QhedgeError):
    """Exact simulation scheme requested for a non-matching model."""


class Nonfinite(QhedgeError):
    """Overflow or NaN during simulation; carries the first offending path index."""

    def __init__(self, message: str, path_index: int | None = None):
        super().__init__(message)
        self.path_index = path_index


class EmptySamples(QhedgeError):
    """Operation requires a non-trivial sample set."""


class POutOfRange(QhedgeError):
    """Probability argument outside its admissible interval."""


class MissingAux(QhedgeError):
    """Regularized estimator called on samples without auxiliary draws."""


class DomainMismatch(QhedgeError):
    """Surface on the wrong domain (q or p) for this operation."""


class ArgmaxAtBoundary(QhedgeError):
    """Conjugate maximizer hit the top of the q grid; enlarge q_max."""


class DimensionUnsupported(QhedgeError):
    """Finite-difference solver limited to d <= 2."""


class ConfigError(QhedgeError):
    """Malformed or incomplete run configuration."""

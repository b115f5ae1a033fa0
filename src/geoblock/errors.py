"""Shared exception types so callers can tell input problems apart."""


class GeoBlockError(Exception):
    """Base class for all package errors."""


class DomainError(GeoBlockError, ValueError):
    """Input outside the mathematical domain of an operation."""


class RangeError(GeoBlockError, ValueError):
    """Evaluation requested outside a sampled range."""


class InsufficientDataError(GeoBlockError, ValueError):
    """Too few samples for the requested estimate."""


class UnsupportedInputError(GeoBlockError, ValueError):
    """Input is valid mathematically but outside the supported scope."""


class BudgetExceededError(GeoBlockError, RuntimeError):
    """An enumeration budget ran out before the result could be certified."""


class ConfigError(GeoBlockError, ValueError):
    """Malformed experiment configuration."""

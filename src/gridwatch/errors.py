"""Exception types shared across the package."""


class GridwatchError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GridwatchError):
    """A configuration value violates its constraint."""


class InputError(GridwatchError):
    """Runtime input to an operation is malformed."""

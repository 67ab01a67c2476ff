"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid scenario or operation inputs (bad sizes, duplicate demands, ...)."""

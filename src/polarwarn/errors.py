"""The error bases whose type alone picks the exit code in ``cli.main``."""


class ConfigError(ValueError):
    """A setting or option value breaks its rule (exit 2)."""


class NumericError(Exception):
    """A numeric stage cannot produce its result (exit 4)."""

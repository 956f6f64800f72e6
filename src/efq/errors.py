"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration/validation
problems exit 1, numerical failures exit 2, and verification-suite
failures exit 3.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value failed validation.

    The message lists each offending field by dotted path so the user can
    fix the file without reading a traceback.
    """


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge or broke down."""


class VerificationFailure(AssertionError):
    """One or more invariant checks in the verification suite failed."""

"""Error types shared across the package.

Every error carries a short stable ``code`` (the same identifiers used in
CLI diagnostics) and, where known, the zero-based recipe step it concerns.
"""

from __future__ import annotations


class RefineflowError(Exception):
    """Base class for all recipe-processing failures."""

    def __init__(self, code: str, message: str, step_index: int | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.step_index = step_index


class RecipeError(RefineflowError):
    """Raised when an operation-history document cannot be parsed."""


class EffectError(RefineflowError):
    """Raised when an operation's column effect cannot be resolved or applied."""


class ModelError(RefineflowError):
    """Raised for invalid workflow-model queries."""

"""Exception hierarchy shared across the pipeline modules."""

from __future__ import annotations


class RecError(Exception):
    """Base class for all library errors."""


class EmptyRequiredError(RecError):
    """A required input (prompt slot, chunk body, ...) is empty."""


class ModeMismatchError(RecError):
    """An operation was asked to run under a citation mode it does not support."""


class UnknownContextIdError(RecError):
    """A citation names a context_id absent from the supplied chunks."""


class SnippetNotFoundError(RecError):
    """A snippet could not be located in its context."""


class ClaimNotFoundError(RecError):
    """An inline claim could not be located in the answer being cited."""


class HaluGoldError(RecError):
    """A gold citation set marked hallucinated cannot be scored against."""


class LengthMismatchError(RecError):
    """Two parallel sequences differ in length."""


class EmptyInputError(RecError):
    """An aggregate (accuracy, win rate, ...) was asked for over no items."""


class SourceRecordError(RecError):
    """A datagen source record is malformed: inputs that no prompt can be built from."""


class TemplateError(RecError):
    """A prompt template has unfilled or unknown slots."""


class UsageError(RecError):
    """Bad command-line arguments or configuration."""

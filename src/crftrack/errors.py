"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: FormatError -> 2, NumericalError -> 3,
CapacityError -> 4. ValidationError covers malformed in-memory inputs and is
reported like a format problem.
"""


class CrfTrackError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CrfTrackError):
    """Malformed file content. Carries a line number when one is known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        message = super().__str__()
        return message if self.line is None else f"line {self.line}: {message}"


class ValidationError(CrfTrackError):
    """An in-memory object or argument violates a documented invariant."""


class InsufficientHistoryError(ValidationError):
    """A feature needs more frames of tracklet history than are available."""


class NumericalError(CrfTrackError):
    """A non-finite quantity appeared during inference or training."""


class CapacityError(CrfTrackError):
    """A size bound was exceeded (e.g. too many variables for enumeration)."""

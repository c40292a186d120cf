"""Exception hierarchy shared across the package.

Every error raised by the library derives from DpplsError so callers can
catch library failures without masking programming errors.  The CLI maps
each class to a distinct exit code.
"""


class DpplsError(Exception):
    """Base class for all library errors."""


class ArgumentError(DpplsError, ValueError):
    """A parameter is out of range or otherwise unusable."""


class ConfigurationError(ArgumentError):
    """Inconsistent or incomplete run configuration."""


class ModelFormatError(ArgumentError):
    """A model file is not valid JSON or is not a consistent, finite model."""


class DegenerateInputError(ArgumentError):
    """Input data is structurally valid but statistically unusable
    (constant response, too few samples, zero-variance reference, ...)."""


class ShapeError(DpplsError, ValueError):
    """Array dimensions do not match the operation's contract."""


class StateError(DpplsError, RuntimeError):
    """Operation called on an object in the wrong lifecycle state,
    e.g. transforming with an unfitted pipeline."""


class NumericalError(DpplsError, ArithmeticError):
    """A numerical routine failed to produce a usable result."""


class SingularSystemError(NumericalError):
    """A linear system was singular within solver tolerance."""


class CsvFormatError(DpplsError, ValueError):
    """A CSV file violated the expected sample-per-row layout; ``line`` is
    the 1-based number of the faulty line, when one is to blame."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

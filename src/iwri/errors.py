"""Exception hierarchy shared by all iwri modules."""


class IwriError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModelError(IwriError):
    """Model field violates its physical constraints (nonpositive, NaN, ...)."""


class GeometryError(IwriError):
    """Source/receiver/box geometry falls outside the physical grid."""


class ShapeError(IwriError):
    """Array or matrix dimensions do not match the operation's contract."""


class ParameterError(IwriError):
    """Scalar parameter outside its admissible range (omega <= 0, ...)."""


class FactorizationError(IwriError):
    """Numerical factorization broke down.

    ``pivot_index`` is the 0-based index of the offending pivot when the
    backend reports one, else None.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class SolverError(IwriError):
    """A numerical step failed.  ``frequency`` (Hz, one value or a batch
    tuple) and ``iteration`` (outer cycle) are kept as attributes and, when
    given, named in the message."""

    def __init__(self, message, frequency=None, iteration=None):
        context = []
        if frequency is not None:
            context.append(f"{frequency} Hz")
        if iteration is not None:
            context.append(f"iteration {iteration}")
        super().__init__(f"{message} (at {', '.join(context)})" if context else message)
        self.frequency = frequency
        self.iteration = iteration


class FormatError(IwriError):
    """Malformed model/data file; ``offset`` is a byte offset or item index."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ConfigError(IwriError):
    """Invalid or incomplete run configuration."""

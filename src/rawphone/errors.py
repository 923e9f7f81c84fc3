"""Exception types shared across the package."""


class RawphoneError(Exception):
    """Base class for all rawphone-specific errors."""


class DataError(RawphoneError):
    """Bad input data: malformed files, unmapped labels, uncovered frames."""


class DivergenceError(RawphoneError):
    """Training produced a non-finite loss or gradient."""


class NoLegalPathError(RawphoneError):
    """The decoder graph admits no path for the given sequence length."""


class WorkerLostError(RawphoneError):
    """A worker process ended before it sent its results (killed, or out of
    memory), or raised an exception that could not be sent to the parent."""

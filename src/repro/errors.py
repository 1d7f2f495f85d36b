"""Exception hierarchy for the roofline reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch package failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class IsaError(ReproError):
    """Malformed instruction, register misuse, or invalid program IR."""


class AssemblerError(IsaError):
    """Textual assembly could not be parsed or formatted."""


class MemoryError_(ReproError):
    """Cache/DRAM/allocator configuration or access error.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class AllocationError(MemoryError_):
    """The simulated allocator ran out of space or got a bad request."""


class ConfigurationError(ReproError):
    """A machine, cache, or experiment was configured inconsistently."""


class ExecutionError(ReproError):
    """The interpreter hit a state it cannot execute."""


class PmuError(ReproError):
    """Counter programming error (unknown event, session misuse)."""


class MeasurementError(ReproError):
    """A measurement protocol was violated or produced unusable data."""


class ExperimentError(ReproError):
    """An experiment failed to run or validate its shape criteria."""


class SweepError(ReproError):
    """A sweep plan, its executor, or the result cache misbehaved."""


class SweepPointError(SweepError):
    """One sweep point failed inside a worker.

    The message names the failing point and, when the flight recorder
    managed to write one, the path of its crash dump under
    ``artifacts/flightrec/``.  ``invalid`` is the underlying error's own
    message when the point failed on its own parameters (a
    :class:`ConfigurationError`, e.g. a size the kernel rejects) and
    ``None`` for internal failures.  Raised from worker processes, so
    it must stay constructible from its message alone; ``__reduce__``
    carries ``invalid`` through pickling.
    """

    def __init__(self, message: str, invalid: Optional[str] = None) -> None:
        super().__init__(message)
        self.invalid = invalid

    def __reduce__(self):
        return type(self), (str(self), self.invalid)


class TimelineError(ReproError):
    """A timeline profile was misconfigured or the trace cannot be
    windowed (empty trace, window wider than the measured span, ...)."""


class HttpError(ReproError):
    """A request defect that maps straight to an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status

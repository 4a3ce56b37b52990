"""Exception types raised across the pipeline, and the ledger's reasons.

Each ledger reason but ``InternalError`` is one exception class below,
named after its ledger word and carrying it as ``reason``; a subclass is
kept only where a caller tells it apart. A case that raises one of them ends
with that ``reason``, and the message says what failed. Any other error, a
``CrashTraceError`` whose ``reason`` is None included, is a defect in
crashtrace and ends the case as ``InternalError``, so nothing here escapes a
batch run. The last four classes end no case by design: the estimator answers
``UnparseableResponse`` with another attempt, and the other three are raised
only where packages are read back, or by the OpenDRIVE writer for an empty
road network, which a case never hands it.
"""

from __future__ import annotations

from enum import Enum


class ExclusionReason(Enum):
    UNSUPPORTED_VERTICAL_GEOMETRY = "UnsupportedVerticalGeometry"
    INCOMPLETE_INFO = "IncompleteInfo"
    INCONSISTENT_CRASH_LOCATION = "InconsistentCrashLocation"
    GEOMETRY_VALIDATION_FAILED = "GeometryValidationFailed"
    ESTIMATION_FAILED = "EstimationFailed"
    FAILED_TO_COLLIDE = "FailedToCollide"
    VALIDATION_FAILED = "ValidationFailed"
    NOT_DUAL_VEHICLE = "NotDualVehicle"
    FETCH_FAILED = "FetchFailed"
    INTERNAL_ERROR = "InternalError"   # a defect in crashtrace, logged with its traceback


class CrashTraceError(Exception):
    """Base class for all pipeline errors."""
    reason: ExclusionReason | None = None


# --- ledger reasons ---

class FetchFailed(CrashTraceError):
    """A report or map extract could not be had or read."""
    reason = ExclusionReason.FETCH_FAILED


class IncompleteInfo(CrashTraceError):
    """The report lacks a field reconstruction cannot do without."""
    reason = ExclusionReason.INCOMPLETE_INFO


class NotDualVehicle(CrashTraceError):
    """The report does not involve exactly two vehicles."""
    reason = ExclusionReason.NOT_DUAL_VEHICLE


class UnsupportedVerticalGeometry(CrashTraceError):
    """A bridge, tunnel or layer the flat-world conversion cannot represent."""
    reason = ExclusionReason.UNSUPPORTED_VERTICAL_GEOMETRY


class InconsistentCrashLocation(CrashTraceError):
    """No road where the report places the crash."""
    reason = ExclusionReason.INCONSISTENT_CRASH_LOCATION


class GeometryValidationFailed(CrashTraceError):
    """The converted road geometry has too few nodes for, or fails, the 5-point check."""
    reason = ExclusionReason.GEOMETRY_VALIDATION_FAILED


class EstimationFailed(CrashTraceError):
    """No valid initial states; on exhaustion carries the full attempt trace."""
    reason = ExclusionReason.ESTIMATION_FAILED

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class FailedToCollide(CrashTraceError):
    """The replayed vehicles never meet."""
    reason = ExclusionReason.FAILED_TO_COLLIDE


class ValidationFailed(CrashTraceError):
    """The replayed collision misses the report's location, clocks or maneuvers."""
    reason = ExclusionReason.VALIDATION_FAILED


# --- fetch failures callers tell apart ---

class NetworkError(FetchFailed):
    """Remote endpoint unreachable or returned a transport-level failure."""


class NotFound(FetchFailed):
    """The remote service answered 404, or sent an empty report."""


class CacheMiss(FetchFailed):
    """Offline mode and no fixture/cache entry for the requested key."""


class MalformedDocument(FetchFailed):
    """Report body is not well-formed markup."""


# --- the estimation failure callers tell apart ---

class EndpointError(EstimationFailed):
    """The external estimation endpoint failed at the transport level."""


# --- errors that end no case by design ---

class UnparseableResponse(CrashTraceError):
    """The external estimator returned text that does not parse."""


class SerializationError(CrashTraceError):
    """A document could not be serialized."""


class ParseError(CrashTraceError):
    """A persisted artifact could not be read back."""


class EmptyDirectory(CrashTraceError):
    """No case packages found where some were expected."""

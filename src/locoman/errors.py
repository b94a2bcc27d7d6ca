"""Shared exception types."""


class LocomanError(Exception):
    """Base class for library errors."""


class UsageError(LocomanError):
    """Caller violated a documented precondition (bad dimensions, empty sets)."""


class InvalidDepth(LocomanError):
    """No valid depth reading at or near the requested pixel."""


class DegenerateConstraints(LocomanError):
    """Surface normal is parallel to the dominant axis; orientation infeasible."""


class OracleFailure(LocomanError):
    """A grounding or planning oracle returned nothing usable."""


class NoFeasibleGoal(LocomanError):
    """Goal-pose search exhausted the search radius without a valid candidate."""


class NoPath(LocomanError):
    """Grid planner found the goal unreachable."""


class ActionFailed(LocomanError):
    """An atomic action stopped short of its goal; the message is its outcome's detail."""


class UnknownObject(LocomanError):
    """A goal condition references an object absent from the world state."""


class ParseError(LocomanError):
    """A scenario or fixture file failed to parse."""


class ValidationError(LocomanError):
    """A scenario parsed but violates its schema; message carries the location."""

"""Exception hierarchy shared by every layer of the simulator.

Each class declares the gateway's answer to it: ``code`` names it in the
``ok: false`` envelope and ``status`` is its HTTP status. The service and
its HTTP binding read both from the exception (``cloud.service._error``).
"""


class DoorsimError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    status = 500


class ValidationError(DoorsimError):
    """Input violates a documented contract (bad range, bad config, ...)."""

    code = "validation"
    status = 400


class ConflictError(DoorsimError):
    """Uniqueness violated: duplicate device, event sequence, or job name."""

    code = "conflict"
    status = 409


class NotFoundError(DoorsimError):
    """Referenced entity does not exist."""

    code = "not_found"
    status = 404


class AuthError(DoorsimError):
    """Authentication failed or a session token was missing/invalid."""

    code = "auth_failed"
    status = 401


class RoutingError(DoorsimError):
    """Frame or request reached a component it was not routed for."""

    code = "routing"
    status = 400


class DatasetError(DoorsimError):
    """Manifest or motion script references data that does not exist."""

    code = "dataset"
    status = 500


class ProtocolError(DoorsimError):
    """Malformed wire request or response."""

    code = "protocol"
    status = 400


class DetectionFailedError(DoorsimError):
    """A detection backend was unavailable or failed for one frame."""

    code = "detection_failed"
    status = 500


class TransientTransportError(DoorsimError):
    """Retryable delivery failure injected by the transport."""

    code = "transport"
    status = 500


class DeliveryFailedError(DoorsimError):
    """All delivery attempts were exhausted; record went to the dead-letter queue."""

    code = "delivery_failed"
    status = 500

"""The mock cloud service behind a single HTTP-style JSON gateway.

Every externally reachable read or write goes through :meth:`CloudService.handle`
and one of the 13 documented routes. Responses always have the shape
``{"ok": true, "data": ...}`` or ``{"ok": false, "error": {...}}``; callers
authenticate with the ``x-session-token`` header and may carry their logical
clock in ``x-sim-time`` (milliseconds) so the service can stamp ingests and
answer time-relative queries deterministically.
"""

from __future__ import annotations

import base64
import random
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..backends import (
    DEFAULT_PROFILES,
    DETECT_ENDPOINTS,
    REMOTE_BACKEND_ID,
    BackendProfile,
    FaceCollection,
    simulate_detections,
)
from ..device import DeviceRegistry
from ..errors import (
    AuthError,
    DoorsimError,
    NotFoundError,
    ProtocolError,
    RoutingError,
    ValidationError,
)
from ..model import AnalyticsRecord, FaceCategory, FrameSample
from .notify import NotificationHub, SubscriptionFilter
from .queries import QueryRequest, answer_query
from .stores import BlobStore, CustomLabelJobs, MetadataStore
from .stream import Dispatcher, IngestStream, StreamRecord

__all__ = ["ApiRequest", "ApiResponse", "CloudService", "ROUTES"]


@dataclass(frozen=True)
class ApiRequest:
    method: str
    path: str
    headers: Mapping[str, str] = field(default_factory=dict)
    body: Mapping[str, Any] | None = None
    query: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ApiResponse:
    status: int
    body: Mapping[str, Any]


_BLOB_ROUTE = re.compile(r"/blobs/(?P<ref>[0-9a-f]+)")

# The complete gateway surface: (method, path pattern, handler name). The
# detect routes come from DETECT_ENDPOINTS and share one handler.
ROUTES: tuple[tuple[str, str, str], ...] = (
    ("POST", r"/devices/register", "register_device"),
    ("POST", r"/devices/auth", "authenticate_device"),
    ("POST", r"/ingest", "ingest"),
    ("GET", r"/activities", "activities"),
    ("POST", r"/query", "query"),
    ("POST", r"/faces/enroll", "enroll_face"),
    *(("POST", path, "detect") for path in DETECT_ENDPOINTS),
    ("POST", r"/blobs", "put_blob"),
    ("GET", _BLOB_ROUTE.pattern, "get_blob"),
    ("POST", r"/custom-labels", "create_custom_label_job"),
)

_STATUS_BY_CODE = {
    "validation": 400,
    "protocol": 400,
    "routing": 400,
    "auth_failed": 401,
    "not_found": 404,
    "conflict": 409,
}

# Every route but the blob read has a literal path.
_EXACT_ROUTES = {
    (method, pattern): name
    for method, pattern, name in ROUTES
    if pattern != _BLOB_ROUTE.pattern
}


class CloudService:
    """Ingestion stream, dispatcher, stores, notifications, and detection API.

    Deterministic per seed: device secrets, session tokens, and every
    detection draw derive from it. ``auto_dispatch`` runs a dispatch pass
    after each ingest so persistence and notification land in the same
    pass; turn it off to drive passes explicitly.

    Not thread-safe: the service and every object it owns assume one
    caller at a time. The HTTP binding (:mod:`doorsim.cloud.httpd`)
    serializes its request threads with one lock around :meth:`handle`.
    """

    def __init__(
        self,
        seed: int = 0,
        profiles: Mapping[str, BackendProfile] | None = None,
        auto_dispatch: bool = True,
        poison_passes: int = 3,
    ):
        self.seed = seed
        self.profiles = dict(profiles or DEFAULT_PROFILES)
        if REMOTE_BACKEND_ID not in self.profiles:
            raise ValidationError(f"profile {REMOTE_BACKEND_ID!r} must be registered")
        self.registry = DeviceRegistry(rng=random.Random(seed))
        self.stream = IngestStream()
        self.store = MetadataStore()
        self.blobs = BlobStore()
        self.jobs = CustomLabelJobs()
        self.hub = NotificationHub()
        self.collections: dict[str, FaceCollection] = {"default": FaceCollection("default")}
        self.dispatcher = Dispatcher(poison_passes=poison_passes)
        self.dispatcher.register("persist_metadata", self._persist_metadata)
        self.dispatcher.register("publish_notification", self._publish_notification)
        self.auto_dispatch = auto_dispatch
        self._now_ms = 0

    # -- logical clock ----------------------------------------------------

    @property
    def now_ms(self) -> int:
        return self._now_ms

    def advance_clock(self, at_ms: int) -> int:
        self._now_ms = max(self._now_ms, at_ms)
        return self._now_ms

    # -- built-in dispatch handlers ---------------------------------------

    def _persist_metadata(self, entry: StreamRecord) -> None:
        self.store.put(entry.payload)

    def _publish_notification(self, entry: StreamRecord) -> None:
        self.hub.publish(entry.payload, at=entry.ingested_at)

    def subscribe(self, subscriber_id: str, filter: SubscriptionFilter | None = None):
        return self.hub.subscribe(subscriber_id, filter)

    def run_dispatch(self) -> int:
        return self.dispatcher.run_until_current(self.stream)

    # -- gateway -----------------------------------------------------------

    def handle(self, request: ApiRequest) -> ApiResponse:
        """Route one request; every error becomes an ``ok: false`` envelope."""
        if "x-sim-time" in request.headers:
            try:
                self.advance_clock(int(request.headers["x-sim-time"]))
            except (TypeError, ValueError):
                return _error(ProtocolError("x-sim-time must be an integer"))
        name = _EXACT_ROUTES.get((request.method, request.path))
        params: dict[str, str] = {}
        if name is None and request.method == "GET":
            match = _BLOB_ROUTE.fullmatch(request.path)
            if match is not None:
                name, params = "get_blob", match.groupdict()
        if name is None:
            return _error(NotFoundError(f"no route for {request.method} {request.path}"))
        handler = getattr(self, f"_handle_{name}")
        try:
            data = handler(request, **params)
        except DoorsimError as exc:
            return _error(exc)
        return ApiResponse(200, {"ok": True, "data": data})

    def _body(self, request: ApiRequest) -> Mapping[str, Any]:
        body = request.body
        if type(body) is dict or isinstance(body, Mapping):  # dict: skip the ABC check
            return body
        raise ProtocolError("request body must be a JSON object")

    def _session_device(self, request: ApiRequest) -> str:
        return self.registry.validate_session(request.headers.get("x-session-token"))

    # -- device endpoints ---------------------------------------------------

    def _handle_register_device(self, request: ApiRequest) -> dict:
        body = self._body(request)
        if "device_id" not in body:
            raise ProtocolError("device_id is required")
        attributes = body.get("attributes") or {}
        if not isinstance(attributes, Mapping):
            raise ProtocolError("attributes must be a JSON object")
        record, credential = self.registry.register(
            _text(body, "device_id"), attributes, at=self.now_ms
        )
        return {"record": record.to_dict(), "secret": credential.secret}

    def _handle_authenticate_device(self, request: ApiRequest) -> dict:
        body = self._body(request)
        if "device_id" not in body or "secret" not in body:
            raise ProtocolError("device_id and secret are required")
        token = self.registry.authenticate(_text(body, "device_id"), _text(body, "secret"))
        return {"session_token": token}

    # -- ingestion ----------------------------------------------------------

    def _handle_ingest(self, request: ApiRequest) -> dict:
        device_id = self._session_device(request)
        body = self._body(request)
        try:
            record = AnalyticsRecord.from_dict(body["record"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"malformed analytics record: {exc}") from exc
        if not isinstance(record.event_id, str) or not isinstance(record.device_id, str):
            raise ProtocolError("event_id and device_id must be strings")
        if record.device_id != device_id:
            raise AuthError(
                f"session for {device_id} cannot ingest records of {record.device_id}"
            )
        entry = self.stream.append(record, ingested_at=self.now_ms)
        if self.auto_dispatch:
            self.run_dispatch()
        return {
            "sequence": entry.sequence,
            "duplicate": entry.duplicate,
            "ingested_at": entry.ingested_at,
        }

    # -- reads ----------------------------------------------------------------

    def _handle_activities(self, request: ApiRequest) -> dict:
        params = request.query
        if "device" not in params:
            raise ProtocolError("device query parameter is required")
        try:
            from_ms = int(params.get("from", 0))
            to_ms = int(params.get("to", self.now_ms))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"from and to must be integers: {exc}") from exc
        records = self.store.get_activities(params["device"], from_ms, to_ms)
        return {"records": [r.to_dict() for r in records]}

    def _handle_query(self, request: ApiRequest) -> dict:
        body = self._body(request)
        try:
            query = QueryRequest.from_dict(body, now_ms=self.now_ms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed query: {exc}") from exc
        return answer_query(query, self.store, now_ms=self.now_ms).to_dict()

    # -- faces -----------------------------------------------------------------

    def _collection(self, collection_id: str) -> FaceCollection:
        try:
            return self.collections[collection_id]
        except KeyError:
            raise NotFoundError(f"unknown face collection: {collection_id}") from None

    def _handle_enroll_face(self, request: ApiRequest) -> dict:
        body = self._body(request)
        collection_id = _text(body, "collection_id", "default")
        identity = _text(body, "identity", "")
        try:
            category = FaceCategory(body["category"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"bad face category: {exc}") from exc
        collection = self.collections.setdefault(collection_id, FaceCollection(collection_id))
        collection.enroll(identity, category)
        return {"collection_id": collection_id, "enrolled": len(collection)}

    # -- detection API -----------------------------------------------------------

    def _handle_detect(self, request: ApiRequest) -> dict:
        field_name, scenarios = DETECT_ENDPOINTS[request.path]
        body = self._body(request)
        try:
            frame = FrameSample.from_dict(body["frame"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(f"malformed frame: {exc}") from exc
        if frame.scenario not in scenarios:
            raise RoutingError(
                f"{frame.scenario.value} frames are not served by this endpoint"
            )
        collection = self._collection(_text(body, "collection_id", "default"))
        detections = simulate_detections(
            frame,
            frame.scenario,
            self.profiles[REMOTE_BACKEND_ID],
            self.seed,
            collection=collection,
        )
        return {field_name: [d.to_dict() for d in detections]}

    # -- blobs ---------------------------------------------------------------------

    def _handle_put_blob(self, request: ApiRequest) -> dict:
        body = self._body(request)
        try:
            data = base64.b64decode(body["data_b64"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ProtocolError(f"data_b64 must be valid base64: {exc}") from exc
        return {"ref": self.blobs.put(data)}

    def _handle_get_blob(self, request: ApiRequest, ref: str) -> dict:
        data = self.blobs.get(ref)
        return {"ref": ref, "data_b64": base64.b64encode(data).decode("ascii")}

    # -- custom labels ----------------------------------------------------------------

    def _handle_create_custom_label_job(self, request: ApiRequest) -> dict:
        body = self._body(request)
        if "name" not in body or "example_count" not in body:
            raise ProtocolError("name and example_count are required")
        try:
            example_count = int(body["example_count"])
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"example_count must be an integer: {exc}") from exc
        job = self.jobs.create(_text(body, "name"), example_count, at=self.now_ms)
        return {"job": job.to_dict()}


def _text(body: Mapping[str, Any], name: str, default: str | None = None) -> str:
    """A string field of a request body; any other JSON type is a protocol error."""
    value = body.get(name, default)
    if not isinstance(value, str):
        raise ProtocolError(f"{name} must be a string")
    return value


def _error(exc: DoorsimError) -> ApiResponse:
    status = _STATUS_BY_CODE.get(exc.code, 500)
    return ApiResponse(
        status, {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
    )

"""The mock cloud service behind a single HTTP-style JSON gateway.

Every externally reachable read or write goes through :meth:`CloudService.handle`
and one of the 13 documented routes. Each service routes with one table,
``(method, path)`` to its bound handler, built from :data:`ROUTES`; only
``GET /blobs/<ref>``, whose path is a pattern, is matched outside it, and
its handler reads ``ref`` from the path. Responses always have the shape
``{"ok": true, "data": ...}`` or ``{"ok": false, "error": {...}}``; callers
authenticate with the ``x-session-token`` header and may carry their logical
clock in ``x-sim-time`` (milliseconds) so the service can stamp ingests and
answer time-relative queries deterministically; an ``ok: false`` answer
leaves the service's clock where it was, and its status is the one the
exception's class declares (:mod:`doorsim.errors`). Bodies are read with
:func:`doorsim.model.field`, so a malformed field is a 400 ``protocol``
envelope and the handlers see well-typed values only.

An accepted ``/ingest`` is persisted and notified within its own request,
and builds no record value. The handler reads the ``record`` of an exact
``dict`` body inline, straight into its row with
:meth:`AnalyticsRecord.row_from_dict`, which refuses what ``from_dict``
refuses, with the same error. The row is one exact tuple of atoms, and the
stream, the metadata store and the notification hub keep that same tuple:
once it has survived a collection the garbage collector no longer tracks
it (``gc.is_tracked``), while it always tracks an ``AnalyticsRecord``, a
slotted value. The handler appends the row to the stream and hands the
entry that ``append`` returned to :meth:`Dispatcher.deliver_appended`,
which owns the rest: the delivery without a pass when the dispatcher is
caught up, the duplicate skip, the checkpoint and the pass budget (see
:mod:`doorsim.cloud.stream`). The built-in row handler,
``CloudService._persist_and_notify``, stores the entry's row and then
publishes it. Once its row is appended the ingest is answered 200 with its
ack. ``x-sim-time`` takes the usual exact ASCII-digit string
inline and any other value through :func:`doorsim.model.parse_int`.
The envelope is checked only where the fast path fails: a method or path
that is not a string, or headers or a query that are not a mapping, is a
400 ``protocol`` envelope, and a token that is not a string a 401.

A read costs about what its records cost to encode. ``/activities`` takes
a ``device`` that is an exact ``str`` and ``from``/``to`` strings that pass
:func:`doorsim.model._decimal` inline, and ``/query`` reads an exact
``dict`` body and hands it to :meth:`QueryRequest.from_dict`, which takes
exact types the same way; any other value goes through ``field`` or
``parse_int``. The store answers a device that has put its events in order
with one slice of rows (see :class:`MetadataStore`), ``/query`` through
:func:`doorsim.cloud.queries.answer_rows`, and each row is encoded with one
``AnalyticsRecord.row_to_dict`` call: a read builds no record value either.
"""

from __future__ import annotations

import base64
import dataclasses
import random
import re
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
from ..model import (
    REQUIRED,
    ROW_DEVICE_ID,
    AnalyticsRecord,
    FaceCategory,
    FrameSample,
    _decimal,
    field,
    parse_int,
    value,
)
from .notify import NotificationHub, SubscriptionFilter
from .queries import QueryRequest, answer_rows
from .stores import BlobStore, CustomLabelJobs, MetadataStore
from .stream import DEFAULT_POISON_PASSES, Dispatcher, IngestStream, RowEntry

__all__ = ["ApiRequest", "ApiResponse", "CloudService", "ROUTES"]


@value
class ApiRequest:
    method: str
    path: str
    headers: Mapping[str, str] = dataclasses.field(default_factory=dict)
    body: Mapping[str, Any] | None = None
    query: Mapping[str, str] = dataclasses.field(default_factory=dict)


@value
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

class CloudService:
    """Ingestion stream, dispatcher, stores, notifications, and detection API.

    Deterministic per seed: device secrets, session tokens, and every
    detection draw derive from it. With ``auto_dispatch`` each ingest
    persists and notifies its record within its own request, through
    :meth:`Dispatcher.deliver_appended`; turn it off to drive passes
    explicitly with :meth:`run_dispatch`.

    Not thread-safe: the service and every object it owns assume one
    caller at a time. The HTTP binding (:mod:`doorsim.cloud.httpd`)
    serializes its request threads with one lock around :meth:`handle`.
    """

    def __init__(
        self,
        seed: int = 0,
        profiles: Mapping[str, BackendProfile] | None = None,
        auto_dispatch: bool = True,
        poison_passes: int = DEFAULT_POISON_PASSES,
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
        self.dispatcher.register_rows("persist_and_notify", self._persist_and_notify)
        self.auto_dispatch = auto_dispatch
        self._now_ms = 0
        # (method, path) -> bound handler: every route but the blob read, whose
        # path is a pattern, so a request for the pattern's own text is a 404
        self._routes = {(method, pattern): getattr(self, f"_handle_{name}")
                        for method, pattern, name in ROUTES if pattern != _BLOB_ROUTE.pattern}

    # -- logical clock ----------------------------------------------------

    @property
    def now_ms(self) -> int:
        return self._now_ms

    def advance_clock(self, at_ms: int) -> int:
        self._now_ms = max(self._now_ms, at_ms)
        return self._now_ms

    # -- built-in dispatch handler -----------------------------------------

    def _persist_and_notify(self, entry: RowEntry) -> None:
        """Store the entry's row, then notify: a failed publish redelivers
        both, and ``put`` is idempotent and ``publish`` exactly-once."""
        self.store.put(entry, entry.event_seq)
        self.hub.publish(entry, entry.ingested_at)

    def subscribe(self, subscriber_id: str, filter: SubscriptionFilter | None = None):
        return self.hub.subscribe(subscriber_id, filter)

    def run_dispatch(self) -> int:
        return self.dispatcher.run_until_current(self.stream)

    # -- gateway -----------------------------------------------------------

    def handle(self, request: ApiRequest) -> ApiResponse:
        """Route one request; every error becomes an ``ok: false`` envelope."""
        try:
            handler = self._routes.get((request.method, request.path))
        except TypeError:  # an unhashable method or path, refused below
            handler = None
        headers = request.headers
        now_ms = self._now_ms
        try:
            if handler is None or type(headers) is not dict or type(request.query) is not dict:
                handler = self._slow_route(request, handler)
            if "x-sim-time" in headers:
                at = headers["x-sim-time"]
                # parse_int's usual case inline: an exact str of ASCII digits
                if type(at) is str and at.isdigit() and at.isascii() and len(at) <= 4300:
                    at = int(at)
                else:
                    at = parse_int(at, "x-sim-time")
                if at > self._now_ms:  # advance_clock, inline
                    self._now_ms = at
            if handler is None:
                raise NotFoundError(f"no route for {request.method} {request.path}")
            data = handler(request)
        except DoorsimError as exc:
            self._now_ms = now_ms  # a refused request leaves the clock where it was
            return _error(exc)
        return ApiResponse(200, {"ok": True, "data": data})

    def _slow_route(self, request: ApiRequest, handler):
        """handle's routing where its fast path fails: a method or path that is
        not a string, or headers or a query that are not a mapping, are refused
        before the request changes any state; ``GET /blobs/<ref>`` is matched here."""
        method, path = request.method, request.path
        if not (isinstance(method, str) and isinstance(path, str)):
            raise ProtocolError("method and path must be strings")
        if not (isinstance(request.headers, Mapping) and isinstance(request.query, Mapping)):
            raise ProtocolError("headers and query must be JSON objects")
        if handler is None and method == "GET" and _BLOB_ROUTE.fullmatch(path):
            return self._handle_get_blob
        return handler

    def _body(self, request: ApiRequest) -> Mapping[str, Any]:
        body = request.body
        if type(body) is dict or isinstance(body, Mapping):  # dict: skip the ABC check
            return body
        raise ProtocolError("request body must be a JSON object")

    # -- device endpoints ---------------------------------------------------

    def _handle_register_device(self, request: ApiRequest) -> dict:
        body = self._body(request)
        device_id = field(body, "device_id", str)
        attributes = field(body, "attributes", dict, {})
        for key in attributes:
            field(attributes, key, str)
        record, credential = self.registry.register(device_id, attributes, at=self.now_ms)
        return {"record": record.to_dict(), "secret": credential.secret}

    def _handle_authenticate_device(self, request: ApiRequest) -> dict:
        body = self._body(request)
        token = self.registry.authenticate(field(body, "device_id", str),
                                           field(body, "secret", str))
        return {"session_token": token}

    # -- ingestion ----------------------------------------------------------

    def _handle_ingest(self, request: ApiRequest) -> dict:
        device_id = self.registry.validate_session(request.headers.get("x-session-token"))
        body = request.body
        data = body.get("record") if type(body) is dict else None
        if type(data) is not dict:  # _body and field refuse it, or take a mapping
            data = field(self._body(request), "record", dict)
        row = AnalyticsRecord.row_from_dict(data)
        if row[ROW_DEVICE_ID] != device_id:
            raise AuthError(
                f"session for {device_id} cannot ingest records of {row[ROW_DEVICE_ID]}")
        entry = self.stream.append(row, self._now_ms)
        if self.auto_dispatch:
            self.dispatcher.deliver_appended(self.stream, entry)
        return {
            "sequence": entry.sequence,
            "duplicate": entry.duplicate,
            "ingested_at": entry.ingested_at,
        }

    # -- reads ----------------------------------------------------------------

    def _handle_activities(self, request: ApiRequest) -> dict:
        params = request.query
        device = params.get("device")
        if type(device) is not str:
            device = field(params, "device", str)
        # parse_int's usual case inline, an exact str that passes _decimal;
        # an absent "from" is 0 and an absent "to" the service's clock
        from_ms = params.get("from", "0")
        if type(from_ms) is str and _decimal(from_ms):
            from_ms = int(from_ms)
        else:
            from_ms = parse_int(from_ms, "from")
        to_ms = params.get("to", REQUIRED)
        if to_ms is REQUIRED:
            to_ms = self._now_ms
        elif type(to_ms) is str and _decimal(to_ms):
            to_ms = int(to_ms)
        else:
            to_ms = parse_int(to_ms, "to")
        rows = self.store.activity_rows(device, from_ms, to_ms)
        return {"records": list(map(AnalyticsRecord.row_to_dict, rows))}

    def _handle_query(self, request: ApiRequest) -> dict:
        body = request.body
        if type(body) is not dict:
            body = self._body(request)
        now_ms = self._now_ms
        query = QueryRequest.from_dict(body, now_ms)
        summary, rows, counts = answer_rows(query, self.store, now_ms)
        # QueryAnswer.to_dict's object, from the rows
        return {"summary": summary, "records": list(map(AnalyticsRecord.row_to_dict, rows)),
                "counts": counts}

    # -- faces -----------------------------------------------------------------

    def _handle_enroll_face(self, request: ApiRequest) -> dict:
        body = self._body(request)
        collection_id = field(body, "collection_id", str, "default")
        identity = field(body, "identity", str, "")
        category = field(body, "category", FaceCategory)
        collection = self.collections.setdefault(collection_id, FaceCollection(collection_id))
        collection.enroll(identity, category)
        return {"collection_id": collection_id, "enrolled": len(collection)}

    # -- detection API -----------------------------------------------------------

    def _handle_detect(self, request: ApiRequest) -> dict:
        field_name, scenarios = DETECT_ENDPOINTS[request.path]
        body = self._body(request)
        frame = FrameSample.from_dict(field(body, "frame", dict))
        if frame.scenario not in scenarios:
            raise RoutingError(
                f"{frame.scenario.value} frames are not served by this endpoint"
            )
        collection_id = field(body, "collection_id", str, "default")
        collection = self.collections.get(collection_id)
        if collection is None:
            raise NotFoundError(f"unknown face collection: {collection_id}")
        detections = simulate_detections(frame, self.profiles[REMOTE_BACKEND_ID], self.seed,
                                         collection=collection)
        return {field_name: [d.to_dict() for d in detections]}

    # -- blobs ---------------------------------------------------------------------

    def _handle_put_blob(self, request: ApiRequest) -> dict:
        try:
            data = base64.b64decode(field(self._body(request), "data_b64", str), validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise ProtocolError(f"data_b64 must be valid base64: {exc}") from exc
        return {"ref": self.blobs.put(data)}

    def _handle_get_blob(self, request: ApiRequest) -> dict:
        ref = request.path[len("/blobs/"):]  # the path matched _BLOB_ROUTE
        data = self.blobs.get(ref)
        return {"ref": ref, "data_b64": base64.b64encode(data).decode("ascii")}

    # -- custom labels ----------------------------------------------------------------

    def _handle_create_custom_label_job(self, request: ApiRequest) -> dict:
        body = self._body(request)
        job = self.jobs.create(field(body, "name", str), field(body, "example_count", int),
                               at=self.now_ms)
        return {"job": job.to_dict()}


def _error(exc: DoorsimError) -> ApiResponse:
    return ApiResponse(exc.status, {"ok": False, "error": {"code": exc.code, "message": str(exc)}})

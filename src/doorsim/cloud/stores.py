"""Key-value metadata store, content-addressed blob store, training stub."""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass

from ..errors import ConflictError, NotFoundError, ValidationError
from ..model import AnalyticsRecord, parse_event_id

__all__ = ["MetadataStore", "BlobStore", "CustomLabelJobs", "CustomLabelJob"]


class _DeviceRecords:
    """One device's records by event id, kept in event-sequence order.

    ``latest`` is the record with the greatest ``(captured_at, seq)`` key,
    the first one put among equals; ``latest_order`` is its put position in
    the whole store, which breaks ties between devices.
    """

    __slots__ = ("records", "last_seq", "latest", "latest_key", "latest_order")

    def __init__(self) -> None:
        self.records: dict[str, AnalyticsRecord] = {}
        self.last_seq = -1
        self.latest: AnalyticsRecord | None = None
        self.latest_key: tuple[float, int] = (-math.inf, -1)
        self.latest_order = 0


def _event_seq(item: tuple[str, AnalyticsRecord]) -> int:
    return parse_event_id(item[0])[1]


class MetadataStore:
    """Analytics records keyed by (device_id, event_id).

    ``put`` is idempotent on the key, so duplicate ingests never create a
    second stored record. Range reads return one device's records ordered
    by its event sequence.

    Records are grouped by device as they arrive and kept in sequence order
    (an out-of-order put re-sorts that one device), so no read scans other
    devices or sorts: ``put`` is O(1) when sequences arrive in order,
    ``get_activities`` is O(records of the device), ``latest(device)`` and
    ``len`` are O(1), ``latest(None)`` is O(devices) and ``all_records`` is
    O(records) plus a sort of the device ids.
    """

    def __init__(self) -> None:
        self._devices: dict[str, _DeviceRecords] = {}
        self._count = 0
        self._lock = threading.Lock()

    def put(self, record: AnalyticsRecord) -> None:
        seq = parse_event_id(record.event_id)[1]
        with self._lock:
            device = self._devices.get(record.device_id)
            if device is None:
                device = self._devices[record.device_id] = _DeviceRecords()
            records = device.records
            if record.event_id in records:
                return
            records[record.event_id] = record
            if seq >= device.last_seq:
                device.last_seq = seq
            else:
                device.records = dict(sorted(records.items(), key=_event_seq))
            key = (record.captured_at, seq)
            if key > device.latest_key:
                device.latest, device.latest_key = record, key
                device.latest_order = self._count
            self._count += 1

    def get_activities(self, device_id: str, from_ms: int, to_ms: int) -> list[AnalyticsRecord]:
        """Records of one device captured within [from_ms, to_ms]."""
        if from_ms > to_ms:
            raise ValidationError(f"inverted range: {from_ms} > {to_ms}")
        with self._lock:
            device = self._devices.get(device_id)
            if device is None:
                return []
            return [
                record
                for record in device.records.values()
                if from_ms <= record.captured_at <= to_ms
            ]

    def all_records(self) -> list[AnalyticsRecord]:
        """Every record, ordered by (device_id, event sequence)."""
        with self._lock:
            records: list[AnalyticsRecord] = []
            for device_id in sorted(self._devices):
                records.extend(self._devices[device_id].records.values())
        return records

    def latest(self, device_id: str | None = None) -> AnalyticsRecord | None:
        """Most recently captured record, optionally restricted to a device.

        Ties on (captured_at, sequence) go to the record put first.
        """
        with self._lock:
            if device_id is not None:
                device = self._devices.get(device_id)
                return None if device is None else device.latest
            best = max(
                self._devices.values(),
                key=lambda device: (device.latest_key, -device.latest_order),
                default=None,
            )
        return None if best is None else best.latest

    def __len__(self) -> int:
        with self._lock:
            return self._count


class BlobStore:
    """Content-addressed bytes: the ref is the SHA-256 of the payload."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, data: bytes) -> str:
        ref = hashlib.sha256(data).hexdigest()
        with self._lock:
            self._blobs[ref] = data
        return ref

    def get(self, ref: str) -> bytes:
        with self._lock:
            try:
                return self._blobs[ref]
            except KeyError:
                raise NotFoundError(f"unknown blob ref: {ref}") from None

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)


@dataclass(frozen=True)
class CustomLabelJob:
    name: str
    example_count: int
    status: str
    created_at: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "example_count": self.example_count,
            "status": self.status,
            "created_at": self.created_at,
        }


class CustomLabelJobs:
    """Custom-label training stub: jobs register and never advance."""

    def __init__(self) -> None:
        self._jobs: dict[str, CustomLabelJob] = {}
        self._lock = threading.Lock()

    def create(self, name: str, example_count: int, at: int = 0) -> CustomLabelJob:
        if not name:
            raise ValidationError("job name must be non-empty")
        if example_count <= 0:
            raise ValidationError("example_count must be > 0")
        with self._lock:
            if name in self._jobs:
                raise ConflictError(f"custom-label job already exists: {name}")
            job = CustomLabelJob(name=name, example_count=example_count,
                                 status="registered", created_at=at)
            self._jobs[name] = job
        return job

    def get(self, name: str) -> CustomLabelJob:
        with self._lock:
            try:
                return self._jobs[name]
            except KeyError:
                raise NotFoundError(f"unknown custom-label job: {name}") from None

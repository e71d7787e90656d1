"""Key-value metadata store, content-addressed blob store, training stub."""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right

from ..errors import ConflictError, NotFoundError, ValidationError
from ..model import AnalyticsRecord, parse_event_id, value

__all__ = ["MetadataStore", "BlobStore", "CustomLabelJobs", "CustomLabelJob"]


class _DeviceRecords:
    """One device's records in capture-time order.

    ``times``, ``seqs`` and ``records`` are parallel lists ordered by
    ``(captured_at, seq)`` and then by put order; ``times`` holds each
    record's own ``captured_at`` and is the bisect key of range reads.
    ``puts`` maps each stored event id to its put position on the device,
    which orders distinct ids that spell one sequence (``d:1`` and ``d:01``).

    ``ordered`` holds while ``seqs`` rise strictly along the index, as they
    do when a device puts its events in order: a range read is then one
    slice of ``records``. An insert, or an append whose sequence is not above
    the last one, clears it for good, and every later read of the device
    sorts its own slice.

    ``latest`` is the record with the greatest ``(captured_at, seq)`` key,
    the first one put among equals; ``latest_order`` is its put position in
    the whole store, which breaks ties between devices.
    """

    __slots__ = ("puts", "times", "seqs", "records", "ordered", "latest", "latest_key",
                 "latest_order")

    def __init__(self) -> None:
        self.puts: dict[str, int] = {}
        self.times: list[int] = []
        self.seqs: list[int] = []
        self.records: list[AnalyticsRecord] = []
        self.ordered = True
        self.latest: AnalyticsRecord | None = None
        self.latest_key: tuple[float, int] = (-math.inf, -1)
        self.latest_order = 0

    def by_sequence(self, lo: int, hi: int) -> list[AnalyticsRecord]:
        """Records ``lo:hi`` of the index ordered by (seq, put order), in a
        new list: one slice while ``ordered`` holds, a sort of the slice
        otherwise."""
        records = self.records[lo:hi]
        if self.ordered:
            return records
        puts = [self.puts[record.event_id] for record in records]
        return [record for _, _, record in sorted(zip(self.seqs[lo:hi], puts, records))]


class MetadataStore:
    """Analytics records keyed by (device_id, event_id).

    ``put`` is idempotent on the key, so duplicate ingests never create a
    second stored record. Range reads return one device's records ordered
    by its event sequence, distinct ids of one sequence in put order.

    Each device keeps its records in capture-time order, so no read scans
    other devices or all of one device: ``get_activities`` is two bisects
    and one slice of the k hits for a device whose sequences have risen
    with its capture times at every put, and O(log n + k log k) for n
    records of any other device; ``put`` is O(1) amortised when
    ``(captured_at, seq)`` arrives in order and O(log n) plus one list
    insert otherwise, ``latest(device)`` and ``len`` are O(1) and
    ``latest(None)`` is O(devices). ``all_records`` is O(records) plus a
    sort of the device ids and of every device that lost its order. A range
    read returns a new list, so a caller may change it freely.
    """

    def __init__(self) -> None:
        self._devices: dict[str, _DeviceRecords] = {}
        self._count = 0

    def put(self, record: AnalyticsRecord, seq: int | None = None) -> None:
        """Store ``record`` unless its key is stored; ``seq`` is its event
        sequence when the caller has parsed the event id already."""
        if seq is None:
            seq = parse_event_id(record.event_id)[1]
        at = record.captured_at
        device = self._devices.get(record.device_id)
        if device is None:
            device = self._devices[record.device_id] = _DeviceRecords()
        puts = device.puts
        if record.event_id in puts:
            return
        puts[record.event_id] = len(puts)
        times, seqs = device.times, device.seqs
        key = (at, seq)
        if key >= device.latest_key:  # the greatest key is the last in the index
            if seq <= device.latest_key[1]:  # not above the last sequence
                device.ordered = False
            times.append(at)
            seqs.append(seq)
            device.records.append(record)
        else:
            device.ordered = False
            lo = bisect_left(times, at)
            i = bisect_right(seqs, seq, lo, bisect_right(times, at, lo))
            times.insert(i, at)
            seqs.insert(i, seq)
            device.records.insert(i, record)
        if key > device.latest_key:
            device.latest, device.latest_key = record, key
            device.latest_order = self._count
        self._count += 1

    def get_activities(self, device_id: str, from_ms: int, to_ms: int) -> list[AnalyticsRecord]:
        """Records of one device captured within [from_ms, to_ms]."""
        if from_ms > to_ms:
            raise ValidationError(f"inverted range: {from_ms} > {to_ms}")
        device = self._devices.get(device_id)
        if device is None:
            return []
        lo = bisect_left(device.times, from_ms)
        return device.by_sequence(lo, bisect_right(device.times, to_ms, lo))

    def all_records(self) -> list[AnalyticsRecord]:
        """Every record, ordered by (device_id, event sequence)."""
        records: list[AnalyticsRecord] = []
        for device_id in sorted(self._devices):
            device = self._devices[device_id]
            records.extend(device.by_sequence(0, len(device.records)))
        return records

    def latest(self, device_id: str | None = None) -> AnalyticsRecord | None:
        """Most recently captured record, optionally restricted to a device.

        Ties on (captured_at, sequence) go to the record put first.
        """
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
        return self._count


class BlobStore:
    """Content-addressed bytes: the ref is the SHA-256 of the payload."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        ref = hashlib.sha256(data).hexdigest()
        self._blobs[ref] = data
        return ref

    def get(self, ref: str) -> bytes:
        try:
            return self._blobs[ref]
        except KeyError:
            raise NotFoundError(f"unknown blob ref: {ref}") from None

    def __len__(self) -> int:
        return len(self._blobs)


@value
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

    def create(self, name: str, example_count: int, at: int = 0) -> CustomLabelJob:
        if not name:
            raise ValidationError("job name must be non-empty")
        if example_count <= 0:
            raise ValidationError("example_count must be > 0")
        if name in self._jobs:
            raise ConflictError(f"custom-label job already exists: {name}")
        job = CustomLabelJob(name, example_count, "registered", at)
        self._jobs[name] = job
        return job

    def get(self, name: str) -> CustomLabelJob:
        try:
            return self._jobs[name]
        except KeyError:
            raise NotFoundError(f"unknown custom-label job: {name}") from None

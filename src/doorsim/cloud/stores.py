"""Key-value metadata store, content-addressed blob store, training stub.

The metadata store keeps each record as its row, the one exact tuple of
atoms that the stream holds too (see :class:`doorsim.cloud.stream.IngestStream`):
a row that has survived a collection is not tracked by the garbage collector
(``gc.is_tracked``), while an :class:`AnalyticsRecord` is a slotted value,
which CPython always tracks. ``put`` takes a record or its row. The gateway
reads rows (:meth:`MetadataStore.activity_rows`, :meth:`MetadataStore.latest_row`)
and encodes them with :meth:`AnalyticsRecord.row_to_dict`; the Python reads
(``get_activities``, ``all_records``, ``latest``) build each record from its
row when they are called.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right

from ..errors import ConflictError, NotFoundError, ValidationError
from ..model import (
    ROW_CAPTURED_AT,
    ROW_DEVICE_ID,
    ROW_EVENT_ID,
    AnalyticsRecord,
    encoder,
    parse_event_id,
    value,
)

__all__ = ["MetadataStore", "BlobStore", "CustomLabelJobs", "CustomLabelJob"]

_from_row = AnalyticsRecord.from_row


class _DeviceRecords:
    """One device's records, as rows, in capture-time order.

    ``times``, ``seqs`` and ``rows`` are parallel lists ordered by
    ``(captured_at, seq)`` and then by put order; ``times`` holds each
    record's own ``captured_at`` and is the bisect key of range reads.
    ``puts`` maps each stored event id to its put position on the device,
    which orders distinct ids that spell one sequence (``d:1`` and ``d:01``).

    ``ordered`` holds while ``seqs`` rise strictly along the index, as they
    do when a device puts its events in order: a range read is then one
    slice of ``rows``. An insert, or an append whose sequence is not above
    the last one, clears it for good, and every later read of the device
    sorts its own slice.

    ``latest`` is the row with the greatest ``(captured_at, seq)`` key,
    the first one put among equals; ``latest_order`` is its put position in
    the whole store, which breaks ties between devices.
    """

    __slots__ = ("puts", "times", "seqs", "rows", "ordered", "latest", "latest_key",
                 "latest_order")

    def __init__(self) -> None:
        self.puts: dict[str, int] = {}
        self.times: list[int] = []
        self.seqs: list[int] = []
        self.rows: list[tuple] = []
        self.ordered = True
        self.latest: tuple | None = None
        self.latest_key: tuple[float, int] = (-math.inf, -1)
        self.latest_order = 0

    def by_sequence(self, lo: int, hi: int) -> list[tuple]:
        """Rows ``lo:hi`` of the index ordered by (seq, put order), in a
        new list: one slice while ``ordered`` holds, a sort of the slice
        otherwise."""
        rows = self.rows[lo:hi]
        if self.ordered:
            return rows
        puts = [self.puts[row[ROW_EVENT_ID]] for row in rows]
        return [row for _, _, row in sorted(zip(self.seqs[lo:hi], puts, rows))]


class MetadataStore:
    """Analytics records keyed by (device_id, event_id).

    ``put`` is idempotent on the key, so duplicate ingests never create a
    second stored record. Range reads return one device's records ordered
    by its event sequence, distinct ids of one sequence in put order.

    Each device keeps its records in capture-time order, so no read scans
    other devices or all of one device: ``activity_rows`` is two bisects
    and one slice of the k hits for a device whose sequences have risen
    with its capture times at every put, and O(log n + k log k) for n
    records of any other device; ``put`` is O(1) amortised when
    ``(captured_at, seq)`` arrives in order and O(log n) plus one list
    insert otherwise, ``latest_row(device)`` and ``len`` are O(1) and
    ``latest_row(None)`` is O(devices). ``all_records`` is O(records) plus a
    sort of the device ids and of every device that lost its order. A range
    read returns a new list, so a caller may change it freely.
    """

    def __init__(self) -> None:
        self._devices: dict[str, _DeviceRecords] = {}
        self._count = 0

    def put(self, record: AnalyticsRecord | tuple, seq: int | None = None) -> None:
        """Store ``record`` unless its key is stored: an
        :class:`AnalyticsRecord`, a stream entry (each gives its row by
        ``to_row()``) or the row itself. ``seq`` is its event sequence when
        the caller has parsed the event id already."""
        row = record if type(record) is tuple else record.to_row()
        event_id, device_id, at = row[ROW_EVENT_ID], row[ROW_DEVICE_ID], row[ROW_CAPTURED_AT]
        if seq is None:
            seq = parse_event_id(event_id)[1]
        device = self._devices.get(device_id)
        if device is None:
            device = self._devices[device_id] = _DeviceRecords()
        puts = device.puts
        if event_id in puts:
            return
        puts[event_id] = len(puts)
        times, seqs = device.times, device.seqs
        key = (at, seq)
        if key >= device.latest_key:  # the greatest key is the last in the index
            if seq <= device.latest_key[1]:  # not above the last sequence
                device.ordered = False
            times.append(at)
            seqs.append(seq)
            device.rows.append(row)
        else:
            device.ordered = False
            lo = bisect_left(times, at)
            i = bisect_right(seqs, seq, lo, bisect_right(times, at, lo))
            times.insert(i, at)
            seqs.insert(i, seq)
            device.rows.insert(i, row)
        if key > device.latest_key:
            device.latest, device.latest_key = row, key
            device.latest_order = self._count
        self._count += 1

    def activity_rows(self, device_id: str, from_ms: int, to_ms: int) -> list[tuple]:
        """The rows of one device's records captured within [from_ms, to_ms]."""
        if from_ms > to_ms:
            raise ValidationError(f"inverted range: {from_ms} > {to_ms}")
        device = self._devices.get(device_id)
        if device is None:
            return []
        lo = bisect_left(device.times, from_ms)
        return device.by_sequence(lo, bisect_right(device.times, to_ms, lo))

    def get_activities(self, device_id: str, from_ms: int, to_ms: int) -> list[AnalyticsRecord]:
        """Records of one device captured within [from_ms, to_ms]."""
        return list(map(_from_row, self.activity_rows(device_id, from_ms, to_ms)))

    def all_records(self) -> list[AnalyticsRecord]:
        """Every record, ordered by (device_id, event sequence)."""
        records: list[AnalyticsRecord] = []
        for device_id in sorted(self._devices):
            device = self._devices[device_id]
            records.extend(map(_from_row, device.by_sequence(0, len(device.rows))))
        return records

    def latest_row(self, device_id: str | None = None) -> tuple | None:
        """The row of the most recently captured record, optionally
        restricted to a device. Ties on (captured_at, sequence) go to the
        record put first."""
        if device_id is not None:
            device = self._devices.get(device_id)
            return None if device is None else device.latest
        best = max(
            self._devices.values(),
            key=lambda device: (device.latest_key, -device.latest_order),
            default=None,
        )
        return None if best is None else best.latest

    def latest(self, device_id: str | None = None) -> AnalyticsRecord | None:
        """Most recently captured record, optionally restricted to a device.

        Ties on (captured_at, sequence) go to the record put first.
        """
        row = self.latest_row(device_id)
        return None if row is None else _from_row(row)

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

    to_dict = encoder()


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

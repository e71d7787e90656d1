"""Ordered ingestion stream and the function dispatcher that drains it.

The stream is append-only and at-least-once: re-ingested event ids get a
fresh sequence number plus a duplicate flag. The dispatcher skips flagged
entries, and every unflagged entry is the first of its event id, so retried
ingests still produce exactly-once effects.

The dispatcher owns every delivery decision, an ingest's too: the gateway
hands the entry that :meth:`IngestStream.append` returned (its event id
parsed once, its sequence kept as ``event_seq`` for the metadata store) to
:meth:`Dispatcher.deliver_appended`. If the dispatcher is caught up, that
entry is the whole backlog and is delivered without a pass; passes run only
for a waiting backlog or a handler that failed or appended, within the
:data:`MAX_PASSES` budget. Both deliver an entry with one step,
``Dispatcher._step``, so the duplicate skip, the poison rule and the
checkpoint move are written once.

Per entry, the stream keeps columns: the record's row (the one exact tuple
of atoms that the metadata store and the notification hub hold too; see
:meth:`AnalyticsRecord.row_from_dict`), the ``ingested_at`` int, and the
sequence in a set when the entry is a duplicate; no other module reads them.
An entry's sequence is its index and its partition is its row's device id.
A row, once it has survived a collection, is not tracked by the garbage
collector (``gc.is_tracked``): it holds only ``str``, ``int``, ``float``,
None and tuples of them. A :class:`StreamRecord` or an
:class:`AnalyticsRecord` is a slotted value, which CPython always tracks, so
none is kept. They are built on demand: ``append`` of a record returns its
entry, ``read_from`` builds each entry, and a handler registered with
:meth:`Dispatcher.register` gets one built per delivery. The gateway appends
rows: ``append`` of a row returns a :class:`RowEntry`, and the service's own
handler, registered with :meth:`Dispatcher.register_rows`, stores and
publishes the row, so an ingest builds no value.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable

from ..errors import ValidationError
from ..model import (
    ROW_DEVICE_ID,
    ROW_EVENT_ID,
    AnalyticsRecord,
    encoder,
    parse_event_id,
    value,
)

__all__ = ["StreamRecord", "RowEntry", "IngestStream", "Dispatcher", "DEFAULT_POISON_PASSES",
           "MAX_PASSES"]

# Passes a record may fail before it is moved to the dead-letter queue.
DEFAULT_POISON_PASSES = 3
# Passes one catch-up may run before it gives up on reaching the stream head.
MAX_PASSES = 1000


@value
class StreamRecord:
    """One stream entry: globally sequenced, partitioned by device.

    ``event_seq`` is the sequence of the payload's event id as the stream
    parsed it on append; it is derived data, so it is left out of
    ``to_dict``, ``repr`` and equality. ``None`` means not parsed.
    """

    sequence: int
    partition: str
    payload: AnalyticsRecord
    ingested_at: int
    duplicate: bool = False
    event_seq: int | None = dataclasses.field(default=None, repr=False, compare=False)

    to_dict = encoder()


class RowEntry:
    """One stream entry as the stream keeps it: its sequence, its record's
    row, ``ingested_at``, the duplicate flag and ``event_seq``, the sequence
    parsed from the row's event id. :meth:`value` builds its
    :class:`StreamRecord`. Like an :class:`AnalyticsRecord`, it gives its
    record's row by ``to_row()`` and its event id as ``event_id``, so the
    metadata store and the notification hub take it for its record."""

    __slots__ = ("sequence", "row", "ingested_at", "duplicate", "event_seq")

    def __init__(self, sequence: int, row: tuple, ingested_at: int, duplicate: bool,
                 event_seq: int) -> None:
        self.sequence = sequence
        self.row = row
        self.ingested_at = ingested_at
        self.duplicate = duplicate
        self.event_seq = event_seq

    @property
    def event_id(self) -> str:
        return self.row[ROW_EVENT_ID]

    def to_row(self) -> tuple:
        return self.row

    def value(self) -> StreamRecord:
        row = self.row
        return StreamRecord(self.sequence, row[ROW_DEVICE_ID], AnalyticsRecord.from_row(row),
                            self.ingested_at, self.duplicate, self.event_seq)


class IngestStream:
    """Append-only record stream with one global sequence."""

    def __init__(self) -> None:
        # one column entry per stream entry; the sequence is the index
        self._rows: list[tuple] = []
        self._ingested_at: list[int] = []
        self._duplicates: set[int] = set()
        self._seen_event_ids: set[str] = set()
        self._last_event_seq: dict[str, int] = {}

    def append(self, record: AnalyticsRecord | tuple,
               ingested_at: int) -> StreamRecord | RowEntry:
        """Append one record, an :class:`AnalyticsRecord` or its row;
        duplicates are flagged, never suppressed. Returns the entry: a
        :class:`StreamRecord` for a record, a :class:`RowEntry` for a row."""
        row = record if type(record) is tuple else record.to_row()
        event_id = row[ROW_EVENT_ID]
        device_id, event_seq = parse_event_id(event_id)
        if device_id != row[ROW_DEVICE_ID]:
            raise ValidationError(
                f"event id {event_id} does not match device {row[ROW_DEVICE_ID]}")
        rows = self._rows
        sequence = len(rows)
        duplicate = event_id in self._seen_event_ids
        if duplicate:
            self._duplicates.add(sequence)
        else:
            last = self._last_event_seq.get(device_id)
            if last is not None and event_seq < last:
                raise ValidationError(
                    f"out-of-order ingest for {device_id}: {event_seq} after {last}"
                )
            self._last_event_seq[device_id] = event_seq
            self._seen_event_ids.add(event_id)
        rows.append(row)
        self._ingested_at.append(ingested_at)
        if row is record:
            return RowEntry(sequence, row, ingested_at, duplicate, event_seq)
        # the partition is record.device_id: equal to device_id, and not a copy of it
        return StreamRecord(sequence, record.device_id, record, ingested_at, duplicate,
                            event_seq)

    def _entry(self, sequence: int) -> RowEntry:
        """The entry at ``sequence`` (in range), built from the columns."""
        row = self._rows[sequence]
        return RowEntry(sequence, row, self._ingested_at[sequence], sequence in self._duplicates,
                        parse_event_id(row[ROW_EVENT_ID])[1])

    def read_from(self, sequence: int) -> list[StreamRecord]:
        """The entries from ``sequence`` on, as the slice ``[sequence:]`` of
        the whole stream would give them (a negative start counts from the end)."""
        return [self._entry(i).value() for i in range(len(self._rows))[sequence:]]

    def __len__(self) -> int:
        return len(self._rows)


Handler = Callable[[StreamRecord], None]
RowHandler = Callable[[RowEntry], None]


def _run_each(handlers: tuple[tuple[Callable, bool], ...], entry: RowEntry) -> None:
    """Each handler in order: a row handler gets ``entry``, any other its
    :class:`StreamRecord`, built once for them all."""
    value = None
    for handler, rows in handlers:
        if rows:
            handler(entry)
        else:
            if value is None:
                value = entry.value()
            handler(value)


class Dispatcher:
    """Single logical consumer delivering records to registered handlers.

    A record advances the checkpoint only once every handler succeeded for
    it. A failing record is redelivered on the next pass and moved to the
    dead-letter queue after ``poison_passes`` failed passes. Entries flagged
    as duplicates skip the handlers but advance the checkpoint, so each event
    id is handled successfully at most once, or dead-lettered once.
    """

    def __init__(self, poison_passes: int = DEFAULT_POISON_PASSES):
        if poison_passes < 1:
            raise ValidationError("poison_passes must be >= 1")
        self._handlers: list[tuple[str, Handler | RowHandler]] = []
        self._takes_rows: list[bool] = []  # per handler: whether it takes a RowEntry
        # every registered handler, in order, as one call on the RowEntry: a
        # row handler itself when it is the only one
        self.deliver: RowHandler = partial(_run_each, ())
        self._poison_passes = poison_passes
        self._failure_counts: dict[int, int] = {}
        self.checkpoint = 0
        self.dead_letters: list[tuple[StreamRecord, str]] = []

    def register(self, name: str, handler: Handler) -> None:
        """Deliver each entry to ``handler`` as a :class:`StreamRecord`."""
        self._add(name, handler, False)

    def register_rows(self, name: str, handler: RowHandler) -> None:
        """Deliver each entry to ``handler`` as the stream's :class:`RowEntry`."""
        self._add(name, handler, True)

    def _add(self, name: str, handler: Handler | RowHandler, rows: bool) -> None:
        self._handlers.append((name, handler))
        self._takes_rows.append(rows)
        handlers = tuple(zip([each for _, each in self._handlers], self._takes_rows))
        self.deliver = handler if len(handlers) == 1 and rows else partial(_run_each, handlers)

    def run_pass(self, stream: IngestStream) -> int:
        """One dispatch pass over the entries present when it starts.
        Returns the new checkpoint position."""
        for sequence in range(self.checkpoint, len(stream._rows)):
            if not self._step(stream._entry(sequence)):
                break
        return self.checkpoint

    def _step(self, entry: RowEntry) -> bool:
        """Deliver the entry at the checkpoint, or skip it if it is a
        duplicate. True if the checkpoint moved past it: delivered, skipped,
        or dead-lettered on its ``poison_passes``-th failure; False if it
        failed short of that and stays at the head for the next pass."""
        sequence = entry.sequence
        if not entry.duplicate:
            try:
                self.deliver(entry)
            except Exception as exc:  # noqa: BLE001 - handler faults are data
                failures = self._failure_counts.get(sequence, 0) + 1
                self._failure_counts[sequence] = failures
                if failures < self._poison_passes:
                    return False
                self.dead_letters.append((entry.value(), repr(exc)))
        self.checkpoint = sequence + 1
        return True

    def deliver_appended(self, stream: IngestStream, entry: RowEntry | StreamRecord) -> None:
        """Deliver the entry ``stream.append`` just returned: itself if the
        dispatcher is caught up, as the pass it saves would, then in passes
        to the head or the budget, where that step counts as one pass."""
        if type(entry) is not RowEntry:  # the StreamRecord that append of a record returned
            entry = stream._entry(entry.sequence)
        passes = 0
        if self.checkpoint == entry.sequence:  # the new entry is the whole backlog
            passes = 1
            self._step(entry)
        # a backlog, a failure short of poison or an appended entry: what the budget leaves waits
        while self.checkpoint < len(stream._rows) and passes < MAX_PASSES:
            self.run_pass(stream)
            passes += 1

    def run_until_current(self, stream: IngestStream) -> int:
        """Dispatch passes until the checkpoint reaches the stream head."""
        for _ in range(MAX_PASSES):
            if self.run_pass(stream) >= len(stream):
                return self.checkpoint
        raise ValidationError(f"dispatcher did not converge in {MAX_PASSES} passes")

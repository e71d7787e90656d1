"""Ordered ingestion stream and the function dispatcher that drains it.

The stream is append-only and at-least-once: re-ingested event ids get a
fresh sequence number plus a duplicate flag. The dispatcher skips flagged
entries, and every unflagged entry is the first of its event id, so retried
ingests still produce exactly-once effects.

An accepted ``/ingest`` makes no pass when the dispatcher is caught up:
:meth:`IngestStream.append` parses the event id once and keeps its sequence
on the entry (``event_seq``), which the metadata store indexes by without
parsing it again, and the gateway hands that entry, the whole backlog, to
:attr:`Dispatcher.deliver` itself. It runs :meth:`Dispatcher.run_pass` only
for a backlog that was waiting or a handler that failed or appended; a
failure is counted by :meth:`Dispatcher.failed` either way, so the poison
rule is written once.

Per entry, the stream keeps columns, not a :class:`StreamRecord`: the
payload (the record that the metadata store holds too), the ``ingested_at``
int, and the sequence in a set when the entry is a duplicate. An entry's
sequence is its index and its partition is its payload's ``device_id``.
Only the latest entry is kept as the value that ``append`` returned, and the
same request hands that one to the handlers, with or without a pass; any
other entry is built when it is read, with ``event_seq`` parsed again from
its event id.
Why: a kept ``StreamRecord`` is a slotted value, which CPython always tracks
(``gc.is_tracked``), so the collector would walk one per frame at each
collection of its generation; ``str`` and ``int`` are never tracked.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable

from ..errors import ValidationError
from ..model import AnalyticsRecord, encoder, parse_event_id, value

__all__ = ["StreamRecord", "IngestStream", "Dispatcher", "DEFAULT_POISON_PASSES"]

# Passes a record may fail before it is moved to the dead-letter queue.
DEFAULT_POISON_PASSES = 3


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


class IngestStream:
    """Append-only record stream with one global sequence."""

    def __init__(self) -> None:
        # one column entry per stream entry; the sequence is the index
        self._payloads: list[AnalyticsRecord] = []
        self._ingested_at: list[int] = []
        self._duplicates: set[int] = set()
        self._latest: StreamRecord | None = None  # the entry append returned last
        self._seen_event_ids: set[str] = set()
        self._last_event_seq: dict[str, int] = {}

    def append(self, record: AnalyticsRecord, ingested_at: int) -> StreamRecord:
        """Append one record; duplicates are flagged, never suppressed."""
        device_id, event_seq = parse_event_id(record.event_id)
        if device_id != record.device_id:
            raise ValidationError(
                f"event id {record.event_id} does not match device {record.device_id}"
            )
        payloads = self._payloads
        duplicate = record.event_id in self._seen_event_ids
        if duplicate:
            self._duplicates.add(len(payloads))
        else:
            last = self._last_event_seq.get(device_id)
            if last is not None and event_seq < last:
                raise ValidationError(
                    f"out-of-order ingest for {device_id}: {event_seq} after {last}"
                )
            self._last_event_seq[device_id] = event_seq
            self._seen_event_ids.add(record.event_id)
        # the partition is record.device_id: equal to device_id, and not a copy of it
        entry = self._latest = StreamRecord(len(payloads), record.device_id, record,
                                            ingested_at, duplicate, event_seq)
        payloads.append(record)
        self._ingested_at.append(ingested_at)
        return entry

    def _entry(self, sequence: int) -> StreamRecord:
        """The entry at ``sequence`` (in range): the one ``append`` returned
        if it is the latest, else built again from the columns."""
        latest = self._latest
        if latest is not None and latest.sequence == sequence:
            return latest
        payload = self._payloads[sequence]
        return StreamRecord(sequence, payload.device_id, payload, self._ingested_at[sequence],
                            sequence in self._duplicates, parse_event_id(payload.event_id)[1])

    def read_from(self, sequence: int) -> list[StreamRecord]:
        """The entries from ``sequence`` on, as the slice ``[sequence:]`` of
        the whole stream would give them (a negative start counts from the end)."""
        return [self._entry(i) for i in range(len(self._payloads))[sequence:]]

    def __len__(self) -> int:
        return len(self._payloads)


Handler = Callable[[StreamRecord], None]


def _run_each(handlers: tuple[Handler, ...], entry: StreamRecord) -> None:
    for handler in handlers:
        handler(entry)


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
        self._handlers: list[tuple[str, Handler]] = []
        # every registered handler, in order, as one call: the handler itself
        # when there is one, so a delivery costs one call either way
        self.deliver: Handler = partial(_run_each, ())
        self._poison_passes = poison_passes
        self._failure_counts: dict[int, int] = {}
        self.checkpoint = 0
        self.dead_letters: list[tuple[StreamRecord, str]] = []

    def register(self, name: str, handler: Handler) -> None:
        self._handlers.append((name, handler))
        handlers = tuple(each for _, each in self._handlers)
        self.deliver = handlers[0] if len(handlers) == 1 else partial(_run_each, handlers)

    def run_pass(self, stream: IngestStream) -> int:
        """One dispatch pass over the entries present when it starts.
        Returns the new checkpoint position."""
        duplicates = stream._duplicates  # read in place: no copy of the tail
        for sequence in range(self.checkpoint, len(stream._payloads)):
            if sequence not in duplicates:
                entry = stream._entry(sequence)
                try:
                    self.deliver(entry)
                except Exception as exc:  # noqa: BLE001 - handler faults are data
                    if not self.failed(entry, exc):
                        break
            self.checkpoint = sequence + 1
        return self.checkpoint

    def failed(self, entry: StreamRecord, exc: Exception) -> bool:
        """Count one failed delivery of ``entry``. True once it has failed
        ``poison_passes`` times: it is then dead-lettered, and the caller
        moves the checkpoint past it; until then it stays at the head."""
        sequence = entry.sequence
        failures = self._failure_counts.get(sequence, 0) + 1
        self._failure_counts[sequence] = failures
        if failures < self._poison_passes:
            return False
        self.dead_letters.append((entry, repr(exc)))
        return True

    def run_until_current(self, stream: IngestStream, max_passes: int = 1000,
                          passes_run: int = 0) -> int:
        """Dispatch passes until the checkpoint reaches the stream head.
        ``passes_run`` passes the caller already ran count against
        ``max_passes``."""
        for _ in range(passes_run, max_passes):
            if self.run_pass(stream) >= len(stream):
                return self.checkpoint
        raise ValidationError(f"dispatcher did not converge in {max_passes} passes")

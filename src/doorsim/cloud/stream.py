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

Per entry, the stream keeps columns, not a :class:`StreamRecord`: the
payload (the record that the metadata store holds too), the ``ingested_at``
int, and the sequence in a set when the entry is a duplicate; no other
module reads them. An entry's sequence is its index and its partition is
its payload's ``device_id``. No entry is kept as a value: ``append``
returns its entry to the caller, and any other read builds the entry from
the columns, with ``event_seq`` parsed again from its event id.
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

__all__ = ["StreamRecord", "IngestStream", "Dispatcher", "DEFAULT_POISON_PASSES", "MAX_PASSES"]

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


class IngestStream:
    """Append-only record stream with one global sequence."""

    def __init__(self) -> None:
        # one column entry per stream entry; the sequence is the index
        self._payloads: list[AnalyticsRecord] = []
        self._ingested_at: list[int] = []
        self._duplicates: set[int] = set()
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
        entry = StreamRecord(len(payloads), record.device_id, record, ingested_at, duplicate,
                             event_seq)
        payloads.append(record)
        self._ingested_at.append(ingested_at)
        return entry

    def _entry(self, sequence: int) -> StreamRecord:
        """The entry at ``sequence`` (in range), built from the columns."""
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
        for sequence in range(self.checkpoint, len(stream._payloads)):
            if not self._step(stream._entry(sequence)):
                break
        return self.checkpoint

    def _step(self, entry: StreamRecord) -> bool:
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
                self.dead_letters.append((entry, repr(exc)))
        self.checkpoint = sequence + 1
        return True

    def deliver_appended(self, stream: IngestStream, entry: StreamRecord) -> None:
        """Deliver the entry ``stream.append`` just returned: itself if the
        dispatcher is caught up, as the pass it saves would, then in passes
        to the head or the budget, where that step counts as one pass."""
        passes = 0
        if self.checkpoint == entry.sequence:  # the new entry is the whole backlog
            passes = 1
            self._step(entry)
        # a backlog, a failure short of poison or an appended entry: what the budget leaves waits
        while self.checkpoint < len(stream._payloads) and passes < MAX_PASSES:
            self.run_pass(stream)
            passes += 1

    def run_until_current(self, stream: IngestStream) -> int:
        """Dispatch passes until the checkpoint reaches the stream head."""
        for _ in range(MAX_PASSES):
            if self.run_pass(stream) >= len(stream):
                return self.checkpoint
        raise ValidationError(f"dispatcher did not converge in {MAX_PASSES} passes")

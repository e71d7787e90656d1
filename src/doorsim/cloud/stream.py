"""Ordered ingestion stream and the function dispatcher that drains it.

The stream is append-only and at-least-once: re-ingested event ids get a
fresh sequence number plus a duplicate flag. The dispatcher skips flagged
entries, and every unflagged entry is the first of its event id, so retried
ingests still produce exactly-once effects.

An accepted ``/ingest`` is one pass: :meth:`IngestStream.append` parses the
event id once and keeps its sequence on the entry (``event_seq``), which the
metadata store indexes by without parsing it again, and the gateway runs
one :meth:`Dispatcher.run_pass`, going on to further passes only when a
handler failed or appended. Under cProfile, a ``gateway-mix`` ingest of
perfbench at seed 1 makes 63.8 Python calls, down from 77.6 when every
event id was parsed twice and the dispatch went through ``run_until_current``
(see ``BENCH_14.json``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..errors import ValidationError
from ..model import AnalyticsRecord, parse_event_id, value

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

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "partition": self.partition,
            "payload": self.payload.to_dict(),
            "ingested_at": self.ingested_at,
            "duplicate": self.duplicate,
        }


class IngestStream:
    """Append-only record stream with one global sequence."""

    def __init__(self) -> None:
        self._records: list[StreamRecord] = []
        self._seen_event_ids: set[str] = set()
        self._last_event_seq: dict[str, int] = {}

    def append(self, record: AnalyticsRecord, ingested_at: int) -> StreamRecord:
        """Append one record; duplicates are flagged, never suppressed."""
        device_id, event_seq = parse_event_id(record.event_id)
        if device_id != record.device_id:
            raise ValidationError(
                f"event id {record.event_id} does not match device {record.device_id}"
            )
        duplicate = record.event_id in self._seen_event_ids
        if not duplicate:
            last = self._last_event_seq.get(device_id)
            if last is not None and event_seq < last:
                raise ValidationError(
                    f"out-of-order ingest for {device_id}: {event_seq} after {last}"
                )
            self._last_event_seq[device_id] = event_seq
            self._seen_event_ids.add(record.event_id)
        # the partition is record.device_id: equal to device_id, and not a copy of it
        entry = StreamRecord(len(self._records), record.device_id, record, ingested_at,
                             duplicate, event_seq)
        self._records.append(entry)
        return entry

    def read_from(self, sequence: int) -> list[StreamRecord]:
        return self._records[sequence:]

    def __len__(self) -> int:
        return len(self._records)


Handler = Callable[[StreamRecord], None]


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
        self._poison_passes = poison_passes
        self._failure_counts: dict[int, int] = {}
        self.checkpoint = 0
        self.dead_letters: list[tuple[StreamRecord, str]] = []

    def register(self, name: str, handler: Handler) -> None:
        self._handlers.append((name, handler))

    def run_pass(self, stream: IngestStream) -> int:
        """One dispatch pass over the entries present when it starts.
        Returns the new checkpoint position."""
        records = stream._records  # walked in place: no copy of the tail
        for sequence in range(self.checkpoint, len(records)):
            entry = records[sequence]
            if not entry.duplicate:
                try:
                    for _, handler in self._handlers:
                        handler(entry)
                except Exception as exc:  # noqa: BLE001 - handler faults are data
                    failures = self._failure_counts.get(sequence, 0) + 1
                    self._failure_counts[sequence] = failures
                    if failures < self._poison_passes:
                        break
                    self.dead_letters.append((entry, repr(exc)))
            self.checkpoint = sequence + 1
        return self.checkpoint

    def run_until_current(self, stream: IngestStream, max_passes: int = 1000,
                          passes_run: int = 0) -> int:
        """Dispatch passes until the checkpoint reaches the stream head.
        ``passes_run`` passes the caller already ran count against
        ``max_passes``."""
        for _ in range(passes_run, max_passes):
            if self.run_pass(stream) >= len(stream):
                return self.checkpoint
        raise ValidationError(f"dispatcher did not converge in {max_passes} passes")

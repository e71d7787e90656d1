"""Structured activity queries answered from the metadata store."""

from __future__ import annotations

import enum
from typing import Mapping

from ..errors import ValidationError
from ..model import AnalyticsRecord, decoder, encoder, read, value
from .notify import summarize_record
from .stores import MetadataStore

__all__ = ["QueryKind", "QueryRequest", "QueryAnswer", "answer_query", "DAY_MS"]

DAY_MS = 24 * 60 * 60 * 1000


class QueryKind(enum.Enum):
    LATEST_ACTIVITY = "latest_activity"
    DAILY_SNAPSHOT = "daily_snapshot"
    RANGE_QUERY = "range_query"


@value
class QueryRequest:
    kind: QueryKind
    device_id: str
    range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind is QueryKind.RANGE_QUERY:
            if self.range is None:
                raise ValidationError("range query requires a (from, to) range")
            if self.range[0] > self.range[1]:
                raise ValidationError("range from must be <= to")

    from_dict = decoder(
        read("kind", QueryKind),
        read("from", int, None, name="start"),
        read("to", int, None, name="end", then="range = None if start is None and end is None "
             "else (0 if start is None else start, now_ms if end is None else end)"),
        read("device_id", str),
        params="now_ms: int = 0",
    )


@value
class QueryAnswer:
    summary: str
    records: tuple[AnalyticsRecord, ...]
    counts: Mapping[str, int] | None = None

    to_dict = encoder()


def answer_query(query: QueryRequest, store: MetadataStore, now_ms: int) -> QueryAnswer:
    """Answer one structured query; an empty store is an answer, not an error."""
    if query.kind is QueryKind.LATEST_ACTIVITY:
        record = store.latest(query.device_id)
        if record is None:
            return QueryAnswer(f"No activity at {query.device_id}.", ())
        summary = (
            f"Latest activity at {query.device_id} "
            f"(t={record.captured_at} ms): {summarize_record(record)}"
        )
        return QueryAnswer(summary, (record,))

    if query.kind is QueryKind.DAILY_SNAPSHOT:
        since = max(0, now_ms - DAY_MS)
        records = store.get_activities(query.device_id, since, now_ms)
        counts: dict[str, int] = {}
        for record in records:
            # a record's scenario is its first detection's; not the slower enum .value property
            key = record.detections[0].label.kind._value_ if record.detections else "none"
            counts[key] = counts.get(key, 0) + 1
        if not records:
            return QueryAnswer(f"No activity at {query.device_id} today.", (), counts)
        breakdown = ", ".join(f"{name}: {count}" for name, count in sorted(counts.items()))
        summary = (
            f"{len(records)} activities at {query.device_id} today ({breakdown})."
        )
        return QueryAnswer(summary, tuple(records), counts)

    assert query.range is not None
    records = store.get_activities(query.device_id, query.range[0], query.range[1])
    summary = (
        f"{len(records)} records at {query.device_id} "
        f"in [{query.range[0]}, {query.range[1]}] ms."
    )
    return QueryAnswer(summary, tuple(records))

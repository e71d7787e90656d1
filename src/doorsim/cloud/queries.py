"""Structured activity queries answered from the metadata store.

:func:`answer_rows` is the one query logic, over the rows that the store
keeps: tuples of atoms, which the garbage collector stops tracking
(``gc.is_tracked``), where it would track every stored value (see
:mod:`doorsim.cloud.stores`). The gateway encodes the rows with
:meth:`AnalyticsRecord.row_to_dict` and builds no record, and
:func:`answer_query` wraps it to build a :class:`QueryAnswer` of
:class:`AnalyticsRecord` values, each built from its row when it is called.
"""

from __future__ import annotations

import enum
from typing import Mapping

from ..errors import ValidationError
from ..model import (
    DETECTION_KIND,
    ROW_CAPTURED_AT,
    ROW_DETECTIONS,
    AnalyticsRecord,
    decoder,
    encoder,
    read,
    value,
)
from .notify import summarize_record
from .stores import MetadataStore

__all__ = ["QueryKind", "QueryRequest", "QueryAnswer", "answer_query", "answer_rows", "DAY_MS"]

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


def answer_rows(query: QueryRequest, store: MetadataStore,
                now_ms: int) -> tuple[str, list[tuple], dict[str, int] | None]:
    """The summary, the records' rows and the counts that answer one
    structured query; an empty store is an answer, not an error."""
    if query.kind is QueryKind.LATEST_ACTIVITY:
        row = store.latest_row(query.device_id)
        if row is None:
            return f"No activity at {query.device_id}.", [], None
        summary = (
            f"Latest activity at {query.device_id} "
            f"(t={row[ROW_CAPTURED_AT]} ms): {summarize_record(row)}"
        )
        return summary, [row], None

    if query.kind is QueryKind.DAILY_SNAPSHOT:
        since = max(0, now_ms - DAY_MS)
        rows = store.activity_rows(query.device_id, since, now_ms)
        counts: dict[str, int] = {}
        for row in rows:
            # a record's scenario is its first detection's kind value
            detections = row[ROW_DETECTIONS]
            key = detections[0][DETECTION_KIND] if detections else "none"
            counts[key] = counts.get(key, 0) + 1
        if not rows:
            return f"No activity at {query.device_id} today.", rows, counts
        breakdown = ", ".join(f"{name}: {count}" for name, count in sorted(counts.items()))
        summary = (
            f"{len(rows)} activities at {query.device_id} today ({breakdown})."
        )
        return summary, rows, counts

    assert query.range is not None
    rows = store.activity_rows(query.device_id, query.range[0], query.range[1])
    summary = (
        f"{len(rows)} records at {query.device_id} "
        f"in [{query.range[0]}, {query.range[1]}] ms."
    )
    return summary, rows, None


def answer_query(query: QueryRequest, store: MetadataStore, now_ms: int) -> QueryAnswer:
    """Answer one structured query; an empty store is an answer, not an error."""
    summary, rows, counts = answer_rows(query, store, now_ms)
    return QueryAnswer(summary, tuple(map(AnalyticsRecord.from_row, rows)), counts)

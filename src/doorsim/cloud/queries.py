"""Structured activity queries answered from the metadata store."""

from __future__ import annotations

import enum
from typing import Mapping

from ..errors import ValidationError
from ..model import AnalyticsRecord, field, value
from .notify import summarize_record
from .stores import MetadataStore

__all__ = ["QueryKind", "QueryRequest", "QueryAnswer", "answer_query", "DAY_MS"]

DAY_MS = 24 * 60 * 60 * 1000


class QueryKind(enum.Enum):
    LATEST_ACTIVITY = "latest_activity"
    DAILY_SNAPSHOT = "daily_snapshot"
    RANGE_QUERY = "range_query"


_KIND_BY_VALUE: Mapping[str, QueryKind] = QueryKind._value2member_map_


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

    @classmethod
    def from_dict(cls, data: Mapping, now_ms: int = 0) -> "QueryRequest":
        """Parse a wire query; an open range end means 0 or ``now_ms``.

        A value of exactly its field's type is taken inline (``kind`` by an
        exact ``str`` from the enum's own value table); any other goes
        through ``field``, in the same field order, so a malformed query is
        refused with the same message."""
        kind = data.get("kind")
        if type(kind) is not QueryKind:
            kind = _KIND_BY_VALUE.get(kind) if type(kind) is str else None
            if kind is None:
                kind = field(data, "kind", QueryKind)
        start = data.get("from")
        if start is not None and type(start) is not int:
            start = field(data, "from", int, None)
        end = data.get("to")
        if end is not None and type(end) is not int:
            end = field(data, "to", int, None)
        range_ = None
        if start is not None or end is not None:
            range_ = (0 if start is None else start, now_ms if end is None else end)
        device_id = data.get("device_id")
        if type(device_id) is not str:
            device_id = field(data, "device_id", str)
        return cls(kind, device_id, range_)


@value
class QueryAnswer:
    summary: str
    records: tuple[AnalyticsRecord, ...]
    counts: Mapping[str, int] | None = None

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "records": list(map(AnalyticsRecord.to_dict, self.records)),
            "counts": None if self.counts is None else dict(self.counts),
        }


def _record_scenario(record: AnalyticsRecord) -> str:
    if not record.detections:
        return "none"
    return record.detections[0].label.kind._value_  # not the slower enum .value property


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
            key = _record_scenario(record)
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

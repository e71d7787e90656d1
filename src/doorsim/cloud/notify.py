"""Push-notification fan-out with filtered subscriptions.

Delivery is exactly-once per (subscriber, event): the hub keeps one set of
delivered event ids per subscriber id, so dispatcher redeliveries after a
partial handler failure never double-notify, and a re-subscribe keeps what
was already delivered. Publishing is the last step of delivering an
accepted ``/ingest``'s entry, which the dispatcher does within that request,
so a notification is sent within the request that ingested its record; a
subscription whose filter names no devices and no scenarios gets it without
a call to :meth:`SubscriptionFilter.matches`.

Per delivery, a subscription keeps two columns: the row of the record it was
sent (the one exact tuple of atoms that the stream and the metadata store
hold too) and the ``int`` time it was published at. :meth:`NotificationHub.publish`
takes a record or its row, and returns the ids of the subscribers it
delivered to. :attr:`Subscription.delivery_log` is a read-only view that
builds each :class:`Notification`, and its summary with
:func:`summarize_record`, from the row when it is read. So an ingest builds
no ``Notification``, no summary and no record, and a run keeps no object per
notification that the garbage collector tracks: a row that has survived a
collection is untracked (``gc.is_tracked``), and an ``AnalyticsRecord``, a
slotted value, never is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import (
    DETECTION_KIND,
    ROW_DETECTIONS,
    ROW_DEVICE_ID,
    ROW_EVENT_ID,
    AnalyticsRecord,
    FaceCategory,
    RowView,
    ScenarioKind,
    encoder,
    value,
)

__all__ = ["Notification", "SubscriptionFilter", "Subscription", "NotificationHub", "summarize_record"]

_KIND_PHRASE = {
    ScenarioKind.FACE_RECOGNITION: "face",
    ScenarioKind.UNSAFE_CONTENT: "unsafe content",
    ScenarioKind.ANIMAL_DETECTION: "animal",
    ScenarioKind.NOTEWORTHY_VEHICLE: "noteworthy vehicle",
    ScenarioKind.MULTI_OBJECT: "object",
}


@value
class Notification:
    event_id: str
    device_id: str
    summary: str
    at: int

    to_dict = encoder()


@value
class SubscriptionFilter:
    """Optional device/scenario predicate; None matches everything."""

    devices: frozenset[str] | None = None
    scenarios: frozenset[ScenarioKind] | None = None

    def matches(self, record: AnalyticsRecord | tuple) -> bool:
        """Whether the filter admits ``record``, an AnalyticsRecord or its row."""
        row = record if type(record) is tuple else record.to_row()
        if self.devices is not None and row[ROW_DEVICE_ID] not in self.devices:
            return False
        if self.scenarios is not None:
            # a kind value is equal to its member and hashes as it does
            kinds = {detection[DETECTION_KIND] for detection in row[ROW_DETECTIONS]}
            if not kinds & self.scenarios:
                return False
        return True


@dataclass
class Subscription:
    """One subscriber's filter and what it was sent: ``sent`` and ``sent_at``
    are parallel columns of each delivered record's row and its publish time."""

    subscriber_id: str
    filter: SubscriptionFilter = field(default_factory=SubscriptionFilter)
    sent: list[tuple] = field(default_factory=list, repr=False)
    sent_at: list[int] = field(default_factory=list, repr=False)

    @property
    def delivery_log(self) -> RowView:
        """The notifications sent, oldest first: a read-only, live view that
        builds each one, summary included, when it is read."""

        def notification(row: tuple, at: int) -> Notification:
            return Notification(row[ROW_EVENT_ID], row[ROW_DEVICE_ID], summarize_record(row), at)

        return RowView(notification, self.sent, self.sent_at)


def summarize_record(record: AnalyticsRecord | tuple) -> str:
    """Human sentence naming the detections of ``record``, an AnalyticsRecord
    or its row; never empty."""
    row = record if type(record) is tuple else record.to_row()
    parts: list[str] = []
    for name, kind, _, identity, category, _ in row[ROW_DETECTIONS]:
        if identity is not None:
            if category == FaceCategory.UNKNOWN:
                parts.append(f"Unknown face ({identity})")
            else:
                parts.append(f"Known face: {identity} ({category.title()})")
        else:
            parts.append(f"Detected {_KIND_PHRASE[kind]}: {name}")
    if not parts:
        return f"Motion at {row[ROW_DEVICE_ID]}: nothing recognized"
    return "; ".join(parts)


class NotificationHub:
    """Fan-out of one notification per matching subscription per event."""

    def __init__(self) -> None:
        self._subscriptions: dict[str, Subscription] = {}
        # subscriber id -> event ids delivered to it; outlives a re-subscribe
        self._delivered: dict[str, set[str]] = {}

    def subscribe(
        self, subscriber_id: str, filter: SubscriptionFilter | None = None
    ) -> Subscription:
        subscription = Subscription(subscriber_id, filter or SubscriptionFilter())
        self._subscriptions[subscriber_id] = subscription
        self._delivered.setdefault(subscriber_id, set())
        return subscription

    def publish(self, record: AnalyticsRecord | tuple, at: int) -> list[str]:
        """Deliver ``record`` to every matching subscription: an
        AnalyticsRecord, a stream entry (each gives its row by ``to_row()``)
        or the row itself. Returns the ids of the subscribers delivered to
        (none: a no-op)."""
        row = record if type(record) is tuple else record.to_row()
        event_id = row[ROW_EVENT_ID]
        delivered = []
        for subscriber_id, subscription in self._subscriptions.items():
            event_ids = self._delivered[subscriber_id]
            if event_id in event_ids:
                continue
            filter_ = subscription.filter
            # a filter that names no devices and no scenarios matches everything
            if ((filter_.devices is not None or filter_.scenarios is not None)
                    and not filter_.matches(row)):
                continue
            subscription.sent.append(row)
            subscription.sent_at.append(at)
            event_ids.add(event_id)
            delivered.append(subscriber_id)
        return delivered

    def subscription(self, subscriber_id: str) -> Subscription:
        return self._subscriptions[subscriber_id]

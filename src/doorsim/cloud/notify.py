"""Push-notification fan-out with filtered subscriptions.

Delivery is exactly-once per (subscriber, event): the hub keeps one set of
delivered event ids per subscriber id, so dispatcher redeliveries after a
partial handler failure never double-notify, and a re-subscribe keeps what
was already delivered. Publishing is the last step of delivering an
accepted ``/ingest``'s entry, which the dispatcher does within that request,
so a notification is sent within the request that ingested its record; a
subscription whose filter names no devices and no scenarios gets it without
a call to :meth:`SubscriptionFilter.matches`.

Per delivery, a subscription keeps two columns: the record it was sent (the
one the metadata store holds too) and the ``int`` time it was published at.
:attr:`Subscription.delivery_log` is a read-only view that builds each
:class:`Notification`, and its summary with :func:`summarize_record`, when it
is read, and :meth:`NotificationHub.publish` returns the ids of the
subscribers it delivered to. So an ingest builds no ``Notification`` and no
summary, and a run keeps no value per notification that the garbage
collector walks at each collection of its generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import AnalyticsRecord, FaceCategory, RowView, ScenarioKind, encoder, value

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

    def matches(self, record: AnalyticsRecord) -> bool:
        if self.devices is not None and record.device_id not in self.devices:
            return False
        if self.scenarios is not None:
            kinds = {d.label.kind for d in record.detections}
            if not kinds & self.scenarios:
                return False
        return True


@dataclass
class Subscription:
    """One subscriber's filter and what it was sent: ``sent`` and ``sent_at``
    are parallel columns of each delivered record and its publish time."""

    subscriber_id: str
    filter: SubscriptionFilter = field(default_factory=SubscriptionFilter)
    sent: list[AnalyticsRecord] = field(default_factory=list, repr=False)
    sent_at: list[int] = field(default_factory=list, repr=False)

    @property
    def delivery_log(self) -> RowView:
        """The notifications sent, oldest first: a read-only, live view that
        builds each one, summary included, when it is read."""

        def notification(record: AnalyticsRecord, at: int) -> Notification:
            return Notification(record.event_id, record.device_id, summarize_record(record), at)

        return RowView(notification, self.sent, self.sent_at)


def summarize_record(record: AnalyticsRecord) -> str:
    """Human sentence naming the record's detections; never empty."""
    parts: list[str] = []
    for detection in record.detections:
        if detection.identity is not None:
            if detection.identity.category is FaceCategory.UNKNOWN:
                parts.append(f"Unknown face ({detection.identity.token})")
            else:
                parts.append(
                    f"Known face: {detection.identity.token} "
                    f"({detection.identity.category._value_.title()})"
                )
        else:
            phrase = _KIND_PHRASE[detection.label.kind]
            parts.append(f"Detected {phrase}: {detection.label.name}")
    if not parts:
        return f"Motion at {record.device_id}: nothing recognized"
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

    def publish(self, record: AnalyticsRecord, at: int) -> list[str]:
        """Deliver to every matching subscription; returns the ids of the
        subscribers delivered to (none: a no-op)."""
        event_id = record.event_id
        delivered = []
        for subscriber_id, subscription in self._subscriptions.items():
            event_ids = self._delivered[subscriber_id]
            if event_id in event_ids:
                continue
            filter_ = subscription.filter
            # a filter that names no devices and no scenarios matches everything
            if ((filter_.devices is not None or filter_.scenarios is not None)
                    and not filter_.matches(record)):
                continue
            subscription.sent.append(record)
            subscription.sent_at.append(at)
            event_ids.add(event_id)
            delivered.append(subscriber_id)
        return delivered

    def subscription(self, subscriber_id: str) -> Subscription:
        return self._subscriptions[subscriber_id]

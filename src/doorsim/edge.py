"""Edge layer: sample frames, run detection, package records, forward.

A pipeline runs each event it is handed to completion (detect, threshold,
every forward attempt) before it looks at the next, so no two frames are
ever in flight together and one device's frames keep their ingest order
across retries. The latency a backend's detect call returns and retry
backoff advance the logical clock instead of sleeping, so each record's
``captured_at -> detected_at`` is a deterministic latency sample. The edge
config is built in code and has no file format.
"""

from __future__ import annotations

from dataclasses import field

from .backends import DetectorBackend
from .errors import (
    DeliveryFailedError,
    DetectionFailedError,
    DoorsimError,
    RoutingError,
    TransientTransportError,
    ValidationError,
)
from .model import (
    DEFAULT_THRESHOLD,
    AnalyticsRecord,
    FrameSample,
    MotionEvent,
    apply_confidence_threshold,
    encoder,
    value,
)
from .transport import CloudClient, IngestAck

__all__ = [
    "SamplingPolicy",
    "RetryPolicy",
    "EdgeConfig",
    "FrameSampler",
    "EdgePipeline",
    "ProcessOutcome",
]


@value
class SamplingPolicy:
    """Per-device rate limit applied before detection."""

    max_frames_per_event: int = 1
    min_interval_ms: int = 0

    def __post_init__(self) -> None:
        if self.max_frames_per_event < 1:
            raise ValidationError("max_frames_per_event must be >= 1")
        if self.min_interval_ms < 0:
            raise ValidationError("min_interval_ms must be >= 0")

    to_dict = encoder()


@value
class RetryPolicy:
    max_attempts: int = 3
    backoff_ms: int = 100

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.backoff_ms < 0:
            raise ValidationError("backoff_ms must be >= 0")

    to_dict = encoder()


@value
class EdgeConfig:
    """Edge deployment configuration, built in code (it has no file format);
    the backend a pipeline is given names itself in the records."""

    threshold: float = DEFAULT_THRESHOLD
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 100.0:
            raise ValidationError(f"threshold out of [0, 100]: {self.threshold}")


class FrameSampler:
    """Passes frames through unless the policy suppresses them."""

    def __init__(self, policy: SamplingPolicy):
        self.policy = policy
        self._last_passed: dict[str, int] = {}

    def sample(self, event: MotionEvent, frame: FrameSample) -> FrameSample | None:
        if frame.device_id != event.device_id:
            raise RoutingError(
                f"frame {frame.frame_id} from {frame.device_id} "
                f"arrived with event of {event.device_id}"
            )
        last = self._last_passed.get(frame.device_id)
        if last is not None and frame.captured_at - last < self.policy.min_interval_ms:
            return None
        self._last_passed[frame.device_id] = frame.captured_at
        return frame


@value
class ProcessOutcome:
    """What happened to one motion event at the edge.

    ``record`` is None when the sampler suppressed the frame; ``ack`` is
    None when it did not reach the cloud (suppressed or dead-lettered).
    """

    record: AnalyticsRecord | None
    ack: IngestAck | None


class EdgePipeline:
    """sample -> analyze -> threshold -> forward, with at-least-once retry.

    Exactly one analytics record is produced per sampled frame regardless
    of how many delivery attempts it takes; its ``captured_at`` and
    ``detected_at`` are the frame's detection latency. Records that exhaust
    retries land in the in-memory dead-letter queue, ``dead_letters``.
    """

    def __init__(self, config: EdgeConfig, backend: DetectorBackend, client: CloudClient):
        self.config = config
        self.backend = backend
        self._backend_id = backend.descriptor().backend_id
        self.client = client
        self.sampler = FrameSampler(config.sampling)
        self.dead_letters: list[AnalyticsRecord] = []

    def analyze(self, event: MotionEvent, frame: FrameSample) -> AnalyticsRecord:
        """Run detection on one frame and package the metadata envelope."""
        try:
            raw, latency = self.backend.detect(frame)
        except DoorsimError:
            raise
        except Exception as exc:  # backend bug or unavailability
            raise DetectionFailedError(f"detection failed for {frame.frame_id}: {exc}") from exc
        config = self.config
        detections = apply_confidence_threshold(raw, config.threshold)
        return AnalyticsRecord(
            event.event_id, frame.device_id, frame.frame_id, tuple(detections),
            self._backend_id, frame.captured_at, frame.captured_at + latency, config.threshold,
        )

    def forward(self, record: AnalyticsRecord, session_token: str) -> IngestAck:
        """Deliver one record, retrying transient faults with logical backoff."""
        at = record.detected_at
        last_error: Exception | None = None
        for attempt in range(self.config.retry.max_attempts):
            try:
                return self.client.ingest(record, session_token, at_ms=at, attempt=attempt)
            except TransientTransportError as exc:
                last_error = exc
                at += self.config.retry.backoff_ms
        self.dead_letters.append(record)
        raise DeliveryFailedError(
            f"delivery failed for {record.event_id} after "
            f"{self.config.retry.max_attempts} attempts: {last_error}"
        )

    def process(self, event: MotionEvent, frame: FrameSample, session_token: str) -> ProcessOutcome:
        """Full edge handling of one motion event."""
        sampled = self.sampler.sample(event, frame)
        if sampled is None:
            return ProcessOutcome(None, None)
        record = self.analyze(event, sampled)
        try:
            ack = self.forward(record, session_token)
        except DeliveryFailedError:
            return ProcessOutcome(record, None)
        return ProcessOutcome(record, ack)

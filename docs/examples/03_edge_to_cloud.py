"""The full journey of a motion event: edge analysis, flaky delivery, cloud.

The transport here drops or half-delivers almost a third of all ingest
attempts, yet the metadata store ends up with exactly one record per event
and each subscriber gets exactly one notification: at-least-once delivery
below, exactly-once effects above.
"""

from doorsim import (
    DEFAULT_PROFILES,
    CloudClient,
    CloudService,
    EdgeConfig,
    EdgePipeline,
    FailureInjector,
    FrameSample,
    Label,
    MotionEvent,
    NetworkModel,
    RetryPolicy,
    ScenarioKind,
    SimulatedBackend,
)
from doorsim.cloud import SubscriptionFilter
from doorsim.cloud.queries import QueryKind, QueryRequest, answer_query

service = CloudService(seed=99)
service.subscribe("homeowner")  # no filter: sees everything
service.subscribe("security-desk",
                  SubscriptionFilter(scenarios=frozenset({ScenarioKind.UNSAFE_CONTENT})))

injector = FailureInjector(probability=0.3, seed=7)
client = CloudClient(service, network=NetworkModel(), failure_injector=injector)

pipeline = EdgePipeline(
    EdgeConfig(threshold=70.0, retry=RetryPolicy(max_attempts=20, backoff_ms=100)),
    SimulatedBackend(DEFAULT_PROFILES["aws-saas"].with_perfect_recall(), seed=99),
    client,
)

_, secret = client.register_device("door-1", {"location": "front"})
session = client.authenticate("door-1", secret)

SCENES = [
    ("gun", ScenarioKind.UNSAFE_CONTENT),
    ("dog", ScenarioKind.ANIMAL_DETECTION),
    ("fedex", ScenarioKind.NOTEWORTHY_VEHICLE),
]
total_attempts = 0
for seq, (name, scenario) in enumerate(SCENES):
    at = seq * 5000
    event = MotionEvent("door-1", at, f"door-1:{seq}")
    frame = FrameSample(
        frame_id=f"scene-{seq}", device_id="door-1", captured_at=at,
        truth=frozenset({Label(name, scenario)}), scenario=scenario,
    )
    outcome = pipeline.process(event, frame, session)
    total_attempts += outcome.ack.attempts
    record = outcome.record  # detected_at - captured_at: the latency detect returned
    print(f"{event.event_id}: {name:>6} detected in {record.detected_at - record.captured_at} ms,"
          f" delivered after {outcome.ack.attempts} attempt(s), "
          f"stream sequence {outcome.ack.sequence}")

print(f"\nstream length {len(service.stream)} (>= {len(SCENES)}: duplicates are appended),"
      f" store has {len(service.store)} records")

for subscriber in ("homeowner", "security-desk"):
    log = service.hub.subscription(subscriber).delivery_log
    print(f"{subscriber}: {len(log)} notification(s)")
    for notification in log:
        print(f"   {notification.event_id}: {notification.summary}")

# --- ask the cloud what happened -------------------------------------------------
answer = answer_query(QueryRequest(QueryKind.LATEST_ACTIVITY, "door-1"),
                      service.store, now_ms=service.now_ms)
print(f"\nlatest activity: {answer.summary}")

answer = answer_query(QueryRequest(QueryKind.DAILY_SNAPSHOT, "door-1"),
                      service.store, now_ms=service.now_ms)
print(f"daily snapshot: {answer.summary}")

# --- media goes to the content-addressed blob store -------------------------------
ref = service.blobs.put(b"eight seconds of porch footage")
print(f"\nblob stored as {ref[:16]}..., round-trips:",
      service.blobs.get(ref) == b"eight seconds of porch footage")

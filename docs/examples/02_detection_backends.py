"""Detection backends: calibrated profiles, seeded draws, face collections.

A backend never sees pixels. Its profile says how often it detects what is
truly there (per-scenario recall), how often it invents something
(false-positive rate), and what confidences it reports. Every decision is
a stable hash draw, so the same seed always yields the same detections.
"""

from doorsim import (
    DEFAULT_PROFILES,
    FaceCategory,
    FaceCollection,
    FrameSample,
    Label,
    ScenarioKind,
    SimulatedBackend,
    apply_confidence_threshold,
)

# --- the four shipped profiles ------------------------------------------------
print("backend            category        memory_mb  cpu_pct  service_ms")
for profile in DEFAULT_PROFILES.values():
    print(f"{profile.backend_id:<18} {profile.category.value:<15}"
          f" {profile.memory_mb:>8}  {profile.cpu_pct:>6}  {profile.service_time_ms:>9}")

# --- seeded, replayable detections ---------------------------------------------
backend = SimulatedBackend(DEFAULT_PROFILES["mobilenet-ssd"], seed=7)
frame = FrameSample(
    frame_id="yard-0042", device_id="door-1", captured_at=0,
    truth=frozenset({Label("dog", ScenarioKind.ANIMAL_DETECTION)}),
    scenario=ScenarioKind.ANIMAL_DETECTION,
)
# detect(frame) -> (detections, latency_ms); an on-device call takes the
# profile's service time
detections, latency_ms = backend.detect(frame)
print(f"\nframe with a dog -> {[(d.label.name, round(d.confidence, 1)) for d in detections]}"
      f" in {latency_ms} ms")
print("same frame, same seed, second call ->",
      (detections, latency_ms) == backend.detect(frame))

# --- thresholding is where the 70-vs-90 study lives ----------------------------
kept_90 = apply_confidence_threshold(detections, 90.0)
kept_70 = apply_confidence_threshold(detections, 70.0)
print(f"kept at threshold 90: {len(kept_90)}, at threshold 70: {len(kept_70)}")

# --- long-run behaviour converges to the profile -------------------------------
hits = 0
for i in range(1000):
    probe = FrameSample(
        frame_id=f"yard-{i:04d}", device_id="door-1", captured_at=0,
        truth=frozenset({Label("dog", ScenarioKind.ANIMAL_DETECTION)}),
        scenario=ScenarioKind.ANIMAL_DETECTION,
    )
    hits += len(backend.detect(probe)[0])
recall = DEFAULT_PROFILES["mobilenet-ssd"].per_scenario_recall[ScenarioKind.ANIMAL_DETECTION]
print(f"1000 dog frames -> {hits} detections (profile recall {recall})")

# --- face collections: enroll, search, unknown fallback -------------------------
collection = FaceCollection()
collection.enroll("alice", FaceCategory.FAMILY)
collection.enroll("bob", FaceCategory.VISITOR)
collection.enroll("bob", FaceCategory.FRIEND)  # re-enrollment updates the category

for token in ("alice", "bob", "mallory"):
    identity = collection.search(token)
    print(f"search({token!r}) -> {identity.category.value}")

"""Pluggable detection backends and their calibrated profiles.

No real computer vision runs here. Each backend is a profile-driven
simulation: per-scenario recall decides whether a truth label is emitted,
a false-positive rate decides whether an empty frame sprouts a spurious
label, and confidences come from a bounded uniform model. Every decision
is a stable hash draw keyed by (seed, frame_id, backend_id, label), so a
detection stream is byte-identical across runs with the same seed.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import field, replace
from pathlib import Path
from typing import Any, Mapping

from .draws import SEP, key_prefix, unit_draw
from .errors import ProtocolError, RoutingError, ValidationError
from .model import (
    DEFAULT_VOCABULARY,
    Detection,
    FaceCategory,
    FaceIdentity,
    FrameSample,
    ScenarioKind,
    encoder,
    read_document,
    read_value,
    truth_order,
    truth_set,
    value,
)

__all__ = [
    "BackendCategory",
    "ConfidenceModel",
    "BackendProfile",
    "DetectorBackend",
    "SimulatedBackend",
    "RemoteBackend",
    "FaceCollection",
    "simulate_detections",
    "DEFAULT_PROFILES",
    "DEFAULT_ROUTES",
    "DETECT_ENDPOINTS",
    "load_profiles",
    "REMOTE_BACKEND_ID",
]


class BackendCategory(enum.Enum):
    ON_DEVICE_ML = "on_device_ml"
    ON_DEVICE_DL = "on_device_dl"
    CLOUD_SAAS = "cloud_saas"
    ON_EDGE = "on_edge"


@value
class ConfidenceModel:
    """Uniform confidence draws: value in [mean - spread, mean + spread).

    Defaults put true detections in [70, 100) and spurious ones in [70, 90),
    which is what makes the 70-vs-90 threshold study meaningful.
    """

    true_mean: float = 85.0
    true_spread: float = 15.0
    fp_mean: float = 80.0
    fp_spread: float = 10.0

    def draw(self, spurious: bool, *key: object) -> float:
        if spurious:
            mean, spread = self.fp_mean, self.fp_spread
        else:
            mean, spread = self.true_mean, self.true_spread
        value = mean - spread + 2.0 * spread * unit_draw(*key)
        return min(100.0, max(0.0, value))

    to_dict = encoder()


@value
class BackendProfile:
    """Confusion, latency, and resource model for one detection approach."""

    backend_id: str
    category: BackendCategory
    memory_mb: float
    cpu_pct: float
    service_time_ms: int
    per_scenario_recall: Mapping[ScenarioKind, float]
    false_positive_rate: float = 0.0
    confidence: ConfidenceModel = field(default_factory=ConfidenceModel,
                                        metadata={"key": "confidence_model"})
    face_miss_rate: float | None = None

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValidationError("memory_mb must be > 0")
        if not 0.0 <= self.false_positive_rate <= 1.0:
            raise ValidationError("false_positive_rate must be in [0, 1]")
        for scenario, recall in self.per_scenario_recall.items():
            if not 0.0 <= recall <= 1.0:
                raise ValidationError(f"recall out of [0, 1] for {scenario.value}: {recall}")
        if self.face_miss_rate is not None and not 0.0 <= self.face_miss_rate <= 1.0:
            raise ValidationError("face_miss_rate must be in [0, 1]")

    def recall_for(self, scenario: ScenarioKind) -> float:
        try:
            return self.per_scenario_recall[scenario]
        except KeyError:
            raise RoutingError(
                f"profile {self.backend_id} has no recall for {scenario.value}"
            ) from None

    @property
    def effective_face_miss_rate(self) -> float:
        """Identity-matching failure rate; defaults to 1 - face recall."""
        if self.face_miss_rate is not None:
            return self.face_miss_rate
        return 1.0 - self.per_scenario_recall.get(ScenarioKind.FACE_RECOGNITION, 1.0)

    def with_perfect_recall(self) -> "BackendProfile":
        """Variant that always emits truth labels and never fabricates one."""
        return replace(
            self,
            per_scenario_recall={kind: 1.0 for kind in ScenarioKind},
            false_positive_rate=0.0,
            face_miss_rate=0.0,
        )

    to_dict = encoder()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BackendProfile":
        """The profile of a JSON object whose keys are those of :meth:`to_dict`;
        a malformed value or an unknown key is a ProtocolError naming it."""
        return read_value(cls, data, "a profile")


REMOTE_BACKEND_ID = "aws-saas"

_TABLE_RECALL = {
    ScenarioKind.FACE_RECOGNITION: 0.90,
    ScenarioKind.UNSAFE_CONTENT: 0.88,
    ScenarioKind.ANIMAL_DETECTION: 0.80,
    ScenarioKind.NOTEWORTHY_VEHICLE: 0.86,
    ScenarioKind.MULTI_OBJECT: 0.88,
}

# Memory/CPU figures are the published measurements for each approach; the
# remote profile's recall column is likewise published. On-device recall,
# false-positive, and latency values are NOT measurements: they are
# calibration estimates chosen to preserve the documented ordering
# (overall F1: aws-saas > mobilenet-ssd > hog-svm > haar; latency: the
# remote round trip exceeds every on-device service time).
DEFAULT_PROFILES: dict[str, BackendProfile] = {
    "aws-saas": BackendProfile(
        backend_id="aws-saas",
        category=BackendCategory.CLOUD_SAAS,
        memory_mb=1.99,
        cpu_pct=28.0,
        service_time_ms=25,
        per_scenario_recall=dict(_TABLE_RECALL),
        false_positive_rate=0.0,
    ),
    "mobilenet-ssd": BackendProfile(
        backend_id="mobilenet-ssd",
        category=BackendCategory.ON_DEVICE_DL,
        memory_mb=473.96,
        cpu_pct=33.30,
        service_time_ms=70,  # estimate
        per_scenario_recall={kind: 0.85 for kind in ScenarioKind},  # estimate
        false_positive_rate=0.02,  # estimate
    ),
    "hog-svm": BackendProfile(
        backend_id="hog-svm",
        category=BackendCategory.ON_DEVICE_ML,
        memory_mb=30.09,
        cpu_pct=30.0,
        service_time_ms=60,  # estimate
        per_scenario_recall={kind: 0.70 for kind in ScenarioKind},  # estimate
        false_positive_rate=0.05,  # estimate
    ),
    "haar": BackendProfile(
        backend_id="haar",
        category=BackendCategory.ON_DEVICE_ML,
        memory_mb=22.86,
        cpu_pct=30.20,
        service_time_ms=45,  # estimate
        per_scenario_recall={kind: 0.60 for kind in ScenarioKind},  # estimate
        false_positive_rate=0.08,  # estimate
    ),
}

# The detection API: path -> (response field carrying the detections,
# scenarios served). Each scenario is served by exactly one endpoint;
# animal and multi-object detection both ride the generic label endpoint.
DETECT_ENDPOINTS: Mapping[str, tuple[str, tuple[ScenarioKind, ...]]] = {
    "/detect/faces": ("face_matches", (ScenarioKind.FACE_RECOGNITION,)),
    "/detect/moderation": ("moderation_labels", (ScenarioKind.UNSAFE_CONTENT,)),
    "/detect/text": ("text_detections", (ScenarioKind.NOTEWORTHY_VEHICLE,)),
    "/detect/labels": (
        "labels",
        (ScenarioKind.ANIMAL_DETECTION, ScenarioKind.MULTI_OBJECT),
    ),
}

# Scenario -> the detection endpoint that serves it.
DEFAULT_ROUTES: Mapping[ScenarioKind, str] = {
    scenario: path
    for path, (_, scenarios) in DETECT_ENDPOINTS.items()
    for scenario in scenarios
}


def load_profiles(path: str | Path) -> dict[str, BackendProfile]:
    """Load a profile registry file, a JSON array of profile objects
    (:func:`~doorsim.model.read_document`)."""
    return read_document(path, "profile registry", _profiles)


def _profiles(entries: Any) -> dict[str, BackendProfile]:
    if not isinstance(entries, list):
        raise ProtocolError("the document must be a JSON array")
    profiles = {}
    for entry in entries:
        profile = BackendProfile.from_dict(entry)
        if profile.backend_id in profiles:
            raise ValidationError(f"duplicate backend_id: {profile.backend_id}")
        profiles[profile.backend_id] = profile
    return profiles


class FaceCollection:
    """Enrolled identity tokens and their categories.

    The unknown category is never stored; a lookup miss *returns* unknown
    instead. Not thread-safe; its owner serializes access.
    """

    def __init__(self, collection_id: str = "default"):
        self.collection_id = collection_id
        self._entries: dict[str, FaceCategory] = {}

    def enroll(self, identity: str, category: FaceCategory) -> None:
        """Add or overwrite one identity; re-enrollment updates the category."""
        if category is FaceCategory.UNKNOWN:
            raise ValidationError("cannot enroll an identity as unknown")
        if not identity:
            raise ValidationError("identity token must be non-empty")
        self._entries[identity] = category

    def search(self, token: str) -> FaceIdentity:
        """Exact-token match; a miss is the unknown designation, not an error."""
        category = self._entries.get(token)
        if category is None:
            return FaceIdentity(token, FaceCategory.UNKNOWN)
        return FaceIdentity(token, category)

    def __len__(self) -> int:
        return len(self._entries)


def simulate_detections(
    frame: FrameSample,
    profile: BackendProfile,
    seed: int,
    collection: FaceCollection | None = None,
) -> list[Detection]:
    """Profile-driven detection for one frame, in its own scenario.

    Each truth label is emitted with probability ``recall``; empty-truth
    frames sprout one spurious label of the scenario's vocabulary, the
    shared Label, with probability ``false_positive_rate``. All draws are
    keyed by (seed, backend_id, frame_id, label) and therefore replayable.
    """
    scenario = frame.scenario
    recall = profile.recall_for(scenario)
    # (seed, backend_id, frame_id), joined once: the middle of every key
    # below. Each draw passes its whole key as one string.
    frame_key = key_prefix(seed, profile.backend_id, frame.frame_id)
    detections: list[Detection] = []
    # unit_draw is documented to lie in [0, 1), so a rate of 0 or 1 decides
    # its comparison alone and that draw is not made; draws are keyed, so no
    # other draw moves.
    for label in truth_order(frame.truth)[0]:
        name = label.name
        if recall == 0.0 or (recall != 1.0
                             and unit_draw(f"emit{SEP}{frame_key}{SEP}{name}") >= recall):
            continue
        confidence = profile.confidence.draw(False, f"conf{SEP}{frame_key}{SEP}{name}")
        identity = None
        if scenario is ScenarioKind.FACE_RECOGNITION:
            identity = _resolve_identity(frame, profile, frame_key, collection)
        detections.append(Detection(label, confidence, identity))
    if not frame.truth:
        fp_rate = profile.false_positive_rate
        if fp_rate == 1.0 or (fp_rate != 0.0 and unit_draw(f"fp{SEP}{frame_key}") < fp_rate):
            vocabulary = DEFAULT_VOCABULARY[scenario]  # choice_draw, written out
            name = vocabulary[int(unit_draw(f"fp-label{SEP}{frame_key}") * len(vocabulary))]
            (label,) = truth_set(scenario, (name,))  # the shared Label: none is built
            confidence = profile.confidence.draw(True, f"fp-conf{SEP}{frame_key}")
            identity = None
            if scenario is ScenarioKind.FACE_RECOGNITION:
                identity = FaceIdentity("unknown", FaceCategory.UNKNOWN)
            detections.append(Detection(label, confidence, identity))
    return detections


def _resolve_identity(
    frame: FrameSample,
    profile: BackendProfile,
    frame_key: str,
    collection: FaceCollection | None,
) -> FaceIdentity:
    token = frame.truth_identity or "unknown"
    miss_rate = profile.effective_face_miss_rate  # decides alone at 0 or 1, as above
    missed = miss_rate == 1.0 or (miss_rate != 0.0
                                  and unit_draw(f"face-miss{SEP}{frame_key}") < miss_rate)
    if missed or collection is None:
        return FaceIdentity(token, FaceCategory.UNKNOWN)
    return collection.search(token)


class DetectorBackend(ABC):
    """Contract every detection backend satisfies.

    ``detect(frame)`` returns ``(detections, latency_ms)``, deterministic
    given (frame_id, backend_id, seed): the latency is the logical duration
    of that call, which the pipeline adds to the clock instead of sleeping.
    """

    @abstractmethod
    def detect(self, frame: FrameSample) -> tuple[list[Detection], int]:
        raise NotImplementedError

    @abstractmethod
    def descriptor(self) -> BackendProfile:
        raise NotImplementedError


class SimulatedBackend(DetectorBackend):
    """On-device backend backed purely by its profile."""

    def __init__(
        self,
        profile: BackendProfile,
        seed: int,
        collection: FaceCollection | None = None,
    ):
        self._profile = profile
        self._seed = seed
        self._collection = collection

    def detect(self, frame: FrameSample) -> tuple[list[Detection], int]:
        detections = simulate_detections(frame, self._profile, self._seed, self._collection)
        return detections, self._profile.service_time_ms

    def descriptor(self) -> BackendProfile:
        return self._profile


class RemoteBackend(DetectorBackend):
    """Client for the cloud detection service.

    The client object does the wire round trip; this class only picks the
    scenario's endpoint from :data:`DEFAULT_ROUTES` and reports latency as
    that round trip's two one-way network delays plus the service time.
    """

    def __init__(self, client, profile: BackendProfile):
        self._client = client
        self._profile = profile

    def detect(self, frame: FrameSample) -> tuple[list[Detection], int]:
        detections, done = self._client.detect(DEFAULT_ROUTES[frame.scenario], frame)
        return detections, done - frame.captured_at + self._profile.service_time_ms

    def descriptor(self) -> BackendProfile:
        return self._profile

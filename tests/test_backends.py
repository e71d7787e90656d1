import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doorsim import backends, draws
from doorsim.backends import (
    DEFAULT_PROFILES,
    BackendCategory,
    BackendProfile,
    ConfidenceModel,
    FaceCollection,
    RemoteBackend,
    SimulatedBackend,
    load_profiles,
    simulate_detections,
)
from doorsim.cloud import CloudService
from doorsim.draws import choice_draw, int_draw, unit_draw
from doorsim.errors import ValidationError
from doorsim.model import (
    DEFAULT_VOCABULARY,
    FaceCategory,
    FrameSample,
    Label,
    ScenarioKind,
    canonical_json,
    truth_set,
)
from doorsim.transport import CloudClient, NetworkModel
from test_draws import reference_simulate_detections


def profile_with(recall, fp_rate=0.0, backend_id="test-backend", **kwargs):
    return BackendProfile(
        backend_id=backend_id,
        category=BackendCategory.ON_DEVICE_ML,
        memory_mb=10.0,
        cpu_pct=25.0,
        service_time_ms=15,
        per_scenario_recall={kind: recall for kind in ScenarioKind},
        false_positive_rate=fp_rate,
        **kwargs,
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0, 1)


@st.composite
def profiles(draw):
    """Valid profiles, every field drawn."""
    return BackendProfile(
        backend_id=draw(st.text(max_size=8)),
        category=draw(st.sampled_from(list(BackendCategory))),
        memory_mb=draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
        cpu_pct=draw(FINITE),
        service_time_ms=draw(st.integers(0, 10 ** 6)),
        per_scenario_recall=draw(st.dictionaries(st.sampled_from(list(ScenarioKind)), UNIT)),
        false_positive_rate=draw(UNIT),
        confidence=ConfidenceModel(draw(FINITE), draw(FINITE), draw(FINITE), draw(FINITE)),
        face_miss_rate=draw(st.none() | UNIT),
    )


def frame_with(names, scenario=ScenarioKind.ANIMAL_DETECTION, frame_id="f0", identity=None):
    return FrameSample(
        frame_id=frame_id,
        device_id="door-1",
        captured_at=0,
        truth=frozenset(Label(n, scenario) for n in names),
        scenario=scenario,
        truth_identity=identity,
    )


class TestSimulatedDetection:
    def test_certain_detection(self):
        out = simulate_detections(frame_with({"gun"}, ScenarioKind.UNSAFE_CONTENT),
                                  profile_with(1.0), seed=1)
        assert [d.label.name for d in out] == ["gun"]

    def test_certain_miss(self):
        out = simulate_detections(frame_with({"gun"}, ScenarioKind.UNSAFE_CONTENT),
                                  profile_with(0.0), seed=1)
        assert out == []

    def test_no_spurious_detections_when_fp_rate_zero(self):
        for i in range(200):
            out = simulate_detections(frame_with(set(), frame_id=f"f{i}"),
                                      profile_with(1.0, fp_rate=0.0), seed=3)
            assert out == []

    def test_spurious_detections_when_fp_rate_one(self):
        out = simulate_detections(frame_with(set()), profile_with(1.0, fp_rate=1.0), seed=3)
        assert len(out) == 1
        assert out[0].label.name in ("dog", "cat")
        assert 70.0 <= out[0].confidence < 90.0

    @pytest.mark.parametrize("scenario", list(ScenarioKind), ids=lambda kind: kind.value)
    def test_a_spurious_label_is_the_shared_vocabulary_label(self, scenario):
        profile = profile_with(1.0, fp_rate=1.0)
        names = set()
        for i in range(40):
            (detection,) = simulate_detections(frame_with(set(), scenario, frame_id=f"f{i}"),
                                               profile, seed=3)
            (shared,) = truth_set(scenario, [detection.label.name])
            assert detection.label is shared
            names.add(detection.label.name)
        assert names == set(DEFAULT_VOCABULARY[scenario])

    def test_true_confidence_spans_default_band(self):
        profile = profile_with(1.0)
        confidences = [
            simulate_detections(frame_with({"dog"}, frame_id=f"f{i}"), profile,
                                seed=11)[0].confidence
            for i in range(300)
        ]
        assert all(70.0 <= c < 100.0 for c in confidences)
        assert min(confidences) < 75.0 and max(confidences) > 95.0

    def test_recall_calibration_with_independent_replay(self):
        # oracle: replay the seeded hash draw with a from-scratch sha256 rig
        profile = profile_with(0.80, backend_id="calib")
        seed = 17
        emitted = 0
        expected = 0
        for i in range(1000):
            frame = frame_with({"dog"}, frame_id=f"f{i:04d}")
            out = simulate_detections(frame, profile, seed)
            emitted += len(out)

            key = "\x1f".join(str(p) for p in ("emit", seed, "calib", frame.frame_id, "dog"))
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            draw = int.from_bytes(digest[:8], "big") / 2.0**64
            if draw < 0.80:
                expected += 1

        assert emitted == expected
        assert abs(emitted - 800) <= 30  # within 3% of 1000 draws

    def test_exact_count_reproducible_across_runs(self):
        profile = profile_with(0.80)
        counts = []
        for _ in range(2):
            total = 0
            for i in range(1000):
                out = simulate_detections(frame_with({"dog"}, frame_id=f"f{i:04d}"), profile,
                                          seed=17)
                total += len(out)
            counts.append(total)
        assert counts[0] == counts[1]

    def test_detection_stream_byte_identical(self):
        profile = profile_with(0.7, fp_rate=0.1)
        frames = [frame_with({"dog"} if i % 2 else set(), frame_id=f"f{i}") for i in range(50)]

        def stream():
            out = []
            backend = SimulatedBackend(profile, seed=5)
            for frame in frames:
                out.extend(d.to_dict() for d in backend.detect(frame)[0])
            return canonical_json(out)

        assert stream() == stream()


@st.composite
def truth_frames(draw):
    """Frames whose truth is a shared set, a fresh frozenset equal to one, or
    a set with names outside the vocabulary or labels of another scenario."""
    scenario = draw(st.sampled_from(list(ScenarioKind)))
    vocabulary = DEFAULT_VOCABULARY[scenario]
    names = sorted(draw(st.sets(st.sampled_from(vocabulary))))
    form = draw(st.sampled_from(["shared", "equal", "other"]))
    if form == "shared":
        truth = truth_set(scenario, names)
    elif form == "equal":
        truth = frozenset(Label(name, scenario) for name in names)
    else:  # a face detection of another scenario's label would be invalid
        kinds = [scenario] if scenario is ScenarioKind.FACE_RECOGNITION else list(ScenarioKind)
        extra = draw(st.sets(st.builds(Label, st.sampled_from(["zebra", "a", *vocabulary]),
                                       st.sampled_from(kinds)), max_size=3))
        truth = frozenset({Label(name, scenario) for name in names} | extra)
    return FrameSample(draw(st.text(max_size=6)), "door-1", 0, truth, scenario,
                       draw(st.none() | st.just("alice")))


class TestEmissionOrder:
    @settings(max_examples=300, deadline=None)
    @given(frame=truth_frames(), recall=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 99))
    def test_equals_a_reference_that_sorts(self, frame, recall, seed):
        profile = profile_with(recall, fp_rate=0.5)
        got = simulate_detections(frame, profile, seed)
        assert got == reference_simulate_detections(frame, profile, seed)
        if frame.truth:
            emitted = [d.label.name for d in got]
            assert emitted == sorted(emitted)
            if recall == 1.0:
                assert emitted == sorted(label.name for label in frame.truth)


class TestDrawsARateDecides:
    """A rate of 0 or 1 decides its comparison with a draw in [0, 1), so
    that draw is not made; the detections equal those of always drawing."""

    RATES = (0.0, 1.0, 0.3)

    @settings(max_examples=200, deadline=None)
    @given(frame=truth_frames(), recall=st.sampled_from(RATES), fp_rate=st.sampled_from(RATES),
           miss_rate=st.sampled_from(RATES), seed=st.integers(0, 99), enrolled=st.booleans())
    def test_equals_always_drawing(self, frame, recall, fp_rate, miss_rate, seed, enrolled):
        profile = profile_with(recall, fp_rate=fp_rate, face_miss_rate=miss_rate)
        collection = None
        if enrolled:
            collection = FaceCollection()
            collection.enroll("alice", FaceCategory.FAMILY)
        kinds = []
        real_draw = backends.unit_draw

        def recorded(key):
            kinds.append(key.split("\x1f", 1)[0])
            return real_draw(key)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "unit_draw", recorded)
            got = simulate_detections(frame, profile, seed, collection)
        assert got == reference_simulate_detections(frame, profile, seed, collection)
        for kind, rate in (("emit", recall), ("fp", fp_rate), ("face-miss", miss_rate)):
            if rate in (0.0, 1.0):
                assert kind not in kinds
        if recall == 0.3:
            assert kinds.count("emit") == len(frame.truth)


class TestADrawAtTheTopOfTheDigestRange:
    """A digest whose first 8 bytes are all 0xff: that integer over 2**64
    rounds to 1.0 as a float, and the draw must still lie below 1."""

    @pytest.fixture(autouse=True)
    def top_digest(self, monkeypatch):
        class TopDigest:
            def __init__(self, data):
                pass

            def digest(self):
                return b"\xff" * 32

        monkeypatch.setattr(draws, "sha256", TopDigest)

    def test_the_unit_draw_is_below_one(self):
        assert unit_draw("top") < 1

    def test_an_int_draw_is_at_most_its_upper_bound(self):
        assert int_draw(0, 2, "top") == 2

    def test_a_choice_draw_picks_the_last_option(self):
        assert choice_draw(["a", "b", "c"], "top") == "c"

    @pytest.mark.parametrize("scenario", list(ScenarioKind))
    def test_a_spurious_label_is_the_scenarios_last(self, scenario):
        detections = simulate_detections(frame_with((), scenario), profile_with(1.0, 1.0), 0)
        assert [d.label.name for d in detections] == [DEFAULT_VOCABULARY[scenario][-1]]


class TestFaceCollection:
    def test_enroll_then_lookup(self):
        collection = FaceCollection()
        collection.enroll("alice", FaceCategory.FAMILY)
        assert collection.search("alice").category is FaceCategory.FAMILY

    def test_reenrollment_overwrites_category(self):
        collection = FaceCollection()
        collection.enroll("bob", FaceCategory.VISITOR)
        collection.enroll("bob", FaceCategory.FRIEND)
        assert collection.search("bob").category is FaceCategory.FRIEND
        assert len(collection) == 1

    def test_unknown_category_rejected(self):
        collection = FaceCollection()
        with pytest.raises(ValidationError):
            collection.enroll("x", FaceCategory.UNKNOWN)

    def test_miss_returns_unknown_designation(self):
        collection = FaceCollection()
        collection.enroll("alice", FaceCategory.FAMILY)
        result = collection.search("mallory")
        assert result.token == "mallory"
        assert result.category is FaceCategory.UNKNOWN

    def test_empty_collection_always_unknown(self):
        assert FaceCollection().search("anyone").category is FaceCategory.UNKNOWN


class TestFaceResolution:
    def test_enrolled_identity_resolves_with_perfect_profile(self):
        collection = FaceCollection()
        collection.enroll("alice", FaceCategory.FAMILY)
        profile = profile_with(1.0, face_miss_rate=0.0)
        frame = frame_with({"face"}, ScenarioKind.FACE_RECOGNITION, identity="alice")
        (detection,) = simulate_detections(frame, profile, seed=1, collection=collection)
        assert detection.identity.token == "alice"
        assert detection.identity.category is FaceCategory.FAMILY

    def test_unenrolled_identity_is_unknown(self):
        collection = FaceCollection()
        profile = profile_with(1.0, face_miss_rate=0.0)
        frame = frame_with({"face"}, ScenarioKind.FACE_RECOGNITION, identity="mallory")
        (detection,) = simulate_detections(frame, profile, seed=1, collection=collection)
        assert detection.identity.category is FaceCategory.UNKNOWN

    def test_miss_rate_defaults_to_one_minus_face_recall(self):
        profile = profile_with(0.9)
        assert profile.effective_face_miss_rate == pytest.approx(0.1)
        assert profile_with(0.9, face_miss_rate=0.0).effective_face_miss_rate == 0.0

    def test_full_miss_rate_hides_enrollment(self):
        collection = FaceCollection()
        collection.enroll("alice", FaceCategory.FAMILY)
        profile = profile_with(1.0, face_miss_rate=1.0)
        frame = frame_with({"face"}, ScenarioKind.FACE_RECOGNITION, identity="alice")
        (detection,) = simulate_detections(frame, profile, seed=1, collection=collection)
        assert detection.identity.category is FaceCategory.UNKNOWN


class TestProfiles:
    def test_default_resource_numbers(self):
        assert DEFAULT_PROFILES["aws-saas"].memory_mb == 1.99
        assert DEFAULT_PROFILES["aws-saas"].cpu_pct == 28.0
        assert DEFAULT_PROFILES["mobilenet-ssd"].memory_mb == 473.96
        assert DEFAULT_PROFILES["mobilenet-ssd"].cpu_pct == 33.30
        assert DEFAULT_PROFILES["hog-svm"].memory_mb == 30.09
        assert DEFAULT_PROFILES["hog-svm"].cpu_pct == 30.0
        assert DEFAULT_PROFILES["haar"].memory_mb == 22.86
        assert DEFAULT_PROFILES["haar"].cpu_pct == 30.20

    def test_remote_profile_recall_column(self):
        recall = DEFAULT_PROFILES["aws-saas"].per_scenario_recall
        assert recall[ScenarioKind.FACE_RECOGNITION] == 0.90
        assert recall[ScenarioKind.UNSAFE_CONTENT] == 0.88
        assert recall[ScenarioKind.ANIMAL_DETECTION] == 0.80
        assert recall[ScenarioKind.NOTEWORTHY_VEHICLE] == 0.86
        assert recall[ScenarioKind.MULTI_OBJECT] == 0.88

    def test_validation(self):
        # the scenario by its value: format(member) would read
        # ScenarioKind.FACE_RECOGNITION on 3.11+ but face_recognition on 3.10
        with pytest.raises(ValidationError) as excinfo:
            profile_with(1.5)
        assert str(excinfo.value) == "recall out of [0, 1] for face_recognition: 1.5"
        with pytest.raises(ValidationError):
            BackendProfile(
                backend_id="x", category=BackendCategory.ON_EDGE, memory_mb=0.0,
                cpu_pct=1.0, service_time_ms=1,
                per_scenario_recall={k: 0.5 for k in ScenarioKind},
            )

    @pytest.mark.parametrize("content,message", [
        (b"[{", "Expecting property name enclosed in double quotes"),
        (b"\xff\xfe[]", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["truncated", "not_utf8"])
    def test_unreadable_registry_file_is_a_validation_error_naming_it(self, tmp_path, content,
                                                                       message):
        path = tmp_path / "profiles.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError) as excinfo:
            load_profiles(path)
        assert str(excinfo.value).startswith(f"bad profile registry: {path}: {message}")

    def test_registry_file_round_trip(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(
            "[" + ",".join(canonical_json(p.to_dict()) for p in DEFAULT_PROFILES.values()) + "]"
        )
        loaded = load_profiles(path)
        assert set(loaded) == set(DEFAULT_PROFILES)
        assert loaded["aws-saas"] == DEFAULT_PROFILES["aws-saas"]

    @pytest.mark.parametrize("backend_id", sorted(DEFAULT_PROFILES))
    def test_shipped_profile_round_trips(self, backend_id):
        profile = DEFAULT_PROFILES[backend_id]
        assert BackendProfile.from_dict(json.loads(canonical_json(profile.to_dict()))) == profile

    @given(st.data())
    def test_strict_reading_accepts_every_profile_the_program_writes(self, data):
        profile = data.draw(profiles())
        assert BackendProfile.from_dict(json.loads(canonical_json(profile.to_dict()))) == profile

    def test_perfect_recall_variant(self):
        perfect = DEFAULT_PROFILES["aws-saas"].with_perfect_recall()
        assert all(r == 1.0 for r in perfect.per_scenario_recall.values())
        assert perfect.false_positive_rate == 0.0
        assert perfect.effective_face_miss_rate == 0.0


class TestRemoteBackend:
    def make_client(self, seed=0):
        service = CloudService(seed=seed)
        return service, CloudClient(service, network=NetworkModel(seed=seed))

    def test_enrolled_face_match(self):
        service, client = self.make_client()
        client.enroll_face("alice", "family")
        profiles = dict(DEFAULT_PROFILES)
        profiles["aws-saas"] = profiles["aws-saas"].with_perfect_recall()
        service.profiles = profiles
        backend = RemoteBackend(client, profiles["aws-saas"])
        frame = frame_with({"face"}, ScenarioKind.FACE_RECOGNITION, identity="alice")
        (detection,), _ = backend.detect(frame)
        assert detection.identity.token == "alice"
        assert detection.identity.category is FaceCategory.FAMILY

    def test_unenrolled_face_is_unknown(self):
        service, client = self.make_client()
        profiles = dict(DEFAULT_PROFILES)
        profiles["aws-saas"] = profiles["aws-saas"].with_perfect_recall()
        service.profiles = profiles
        backend = RemoteBackend(client, profiles["aws-saas"])
        frame = frame_with({"face"}, ScenarioKind.FACE_RECOGNITION, identity="mallory")
        (detection,), _ = backend.detect(frame)
        assert detection.identity.category is FaceCategory.UNKNOWN

    def test_moderation_recall_calibration(self):
        # service recall 0.88 over 1000 gun frames -> about 880 detections
        service, client = self.make_client(seed=23)
        backend = RemoteBackend(client, DEFAULT_PROFILES["aws-saas"])
        emitted = 0
        for i in range(1000):
            frame = frame_with({"gun"}, ScenarioKind.UNSAFE_CONTENT, frame_id=f"g{i:04d}")
            emitted += len(backend.detect(frame)[0])
        assert abs(emitted - 880) <= 30

    def test_latency_is_two_delays_plus_service_time(self):
        service, client = self.make_client()
        client = CloudClient(service, network=NetworkModel(base_delay_ms=40, jitter_ms=0))
        backend = RemoteBackend(client, DEFAULT_PROFILES["aws-saas"])
        frame = frame_with({"gun"}, ScenarioKind.UNSAFE_CONTENT)
        assert backend.detect(frame)[1] == 2 * 40 + 25


def test_backend_substitutability_same_record_shape():
    # structurally identical results regardless of the backend used
    frame = frame_with({"dog"})
    local = SimulatedBackend(profile_with(1.0), seed=1)
    service = CloudService(seed=1)
    remote = RemoteBackend(CloudClient(service, network=NetworkModel(seed=1)),
                           DEFAULT_PROFILES["aws-saas"].with_perfect_recall())
    service.profiles["aws-saas"] = DEFAULT_PROFILES["aws-saas"].with_perfect_recall()
    for backend in (local, remote):
        (detection,), _ = backend.detect(frame)
        assert set(detection.to_dict()) == {
            "label", "kind", "confidence", "identity", "category", "box",
        }


def test_pipeline_records_structurally_identical_across_backends():
    from doorsim.edge import EdgeConfig, EdgePipeline
    from doorsim.model import MotionEvent

    frame = frame_with({"dog"}, frame_id="sub-0")
    event = MotionEvent("door-1", 0, "door-1:0")
    record_dicts = []
    for backend_id in ("aws-saas", "haar"):
        service = CloudService(seed=4)
        client = CloudClient(service, network=NetworkModel(seed=4))
        profile = service.profiles[backend_id].with_perfect_recall()
        service.profiles[backend_id] = profile
        if backend_id == "aws-saas":
            backend = RemoteBackend(client, profile)
        else:
            backend = SimulatedBackend(profile, seed=4)
        pipeline = EdgePipeline(EdgeConfig(threshold=70.0), backend, client)
        record_dicts.append(pipeline.analyze(event, frame).to_dict())
    assert set(record_dicts[0]) == set(record_dicts[1])
    assert [d["label"] for d in record_dicts[0]["detections"]] == \
        [d["label"] for d in record_dicts[1]["detections"]]


def test_service_requires_remote_profile():
    profiles = {k: v for k, v in DEFAULT_PROFILES.items() if k != "aws-saas"}
    with pytest.raises(ValidationError):
        CloudService(seed=0, profiles=profiles)


def test_client_rejects_malformed_detection_response():
    from doorsim.errors import ProtocolError

    class ShapeShiftingService:
        def handle(self, request):
            from doorsim.cloud.service import ApiResponse

            return ApiResponse(200, {"ok": True, "data": {"surprise": []}})

    client = CloudClient(ShapeShiftingService(), network=NetworkModel(seed=0))
    with pytest.raises(ProtocolError):
        client.detect("/detect/labels", frame_with({"dog"}))

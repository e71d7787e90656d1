import pytest
from hypothesis import given
from hypothesis import strategies as st

from doorsim.errors import ConflictError, ValidationError
from doorsim.model import (
    AnalyticsRecord,
    Detection,
    EventIdFactory,
    FaceCategory,
    FaceIdentity,
    FrameSample,
    Label,
    ScenarioKind,
    apply_confidence_threshold,
    format_event_id,
    parse_event_id,
)


def det(name="gun", confidence=85.0, kind=ScenarioKind.UNSAFE_CONTENT):
    return Detection(label=Label(name, kind), confidence=confidence)


class TestEventIds:
    def test_format_is_device_colon_sequence(self):
        assert format_event_id("door-1", 0) == "door-1:0"
        assert format_event_id("door-1", 7) == "door-1:7"

    def test_factory_rejects_duplicate_sequence(self):
        factory = EventIdFactory()
        assert factory.new_event_id("door-1", 7) == "door-1:7"
        with pytest.raises(ConflictError):
            factory.new_event_id("door-1", 7)

    def test_same_sequence_ok_for_distinct_devices(self):
        factory = EventIdFactory()
        assert factory.new_event_id("door-1", 0) == "door-1:0"
        assert factory.new_event_id("door-2", 0) == "door-2:0"

    def test_next_event_id_is_strictly_increasing(self):
        factory = EventIdFactory()
        ids = [factory.next_event_id("door-1") for _ in range(5)]
        assert ids == [f"door-1:{i}" for i in range(5)]

    def test_next_event_id_follows_highest_explicit_sequence(self):
        factory = EventIdFactory()
        factory.new_event_id("door-1", 5)
        assert factory.next_event_id("door-1") == "door-1:6"
        factory.new_event_id("door-1", 2)  # below the counter: does not lower it
        assert factory.next_event_id("door-1") == "door-1:7"

    def test_sequence_issued_by_next_cannot_be_reused(self):
        factory = EventIdFactory()
        assert factory.next_event_id("door-1") == "door-1:0"
        with pytest.raises(ConflictError):
            factory.new_event_id("door-1", 0)

    def test_counters_are_per_device(self):
        factory = EventIdFactory()
        factory.new_event_id("door-1", 9)
        assert factory.next_event_id("door-2") == "door-2:0"
        assert factory.next_event_id("door-1") == "door-1:10"
        assert factory.next_event_id("door-2") == "door-2:1"

    @given(st.lists(st.one_of(st.none(), st.integers(0, 30)), max_size=40))
    def test_next_is_one_above_highest_issued(self, calls):
        factory = EventIdFactory()
        issued: set[int] = set()
        for sequence in calls:
            if sequence is None:
                expected = max(issued) + 1 if issued else 0
                assert factory.next_event_id("door-1") == f"door-1:{expected}"
                issued.add(expected)
            elif sequence in issued:
                with pytest.raises(ConflictError):
                    factory.new_event_id("door-1", sequence)
            else:
                factory.new_event_id("door-1", sequence)
                issued.add(sequence)

    @given(st.text(min_size=1), st.integers(min_value=0, max_value=10**9))
    def test_parse_round_trips(self, device_id, sequence):
        # the sequence never contains a colon, so the last-colon split is safe
        assert parse_event_id(format_event_id(device_id, sequence)) == (device_id, sequence)

    def test_parse_rejects_garbage(self):
        for bad in ("", "door-1", ":3", "door-1:", "door-1:x"):
            with pytest.raises(ValidationError):
                parse_event_id(bad)

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValidationError):
            format_event_id("door-1", -1)

    @pytest.mark.parametrize("event_id", ["door-1:\u00b2", "door-1:\u0661", "door-1:1\uff10"],
                             ids=["superscript_two", "arabic_indic_one", "fullwidth_zero"])
    def test_parse_accepts_only_ascii_digits(self, event_id):
        # str.isdigit() holds for each of these, but none is a sequence
        assert event_id.rpartition(":")[2].isdigit()
        with pytest.raises(ValidationError):
            parse_event_id(event_id)


class TestConfidenceThreshold:
    def test_below_threshold_dropped(self):
        assert apply_confidence_threshold([det(confidence=85.0)], 90.0) == []

    def test_at_or_above_threshold_kept(self):
        d = det(confidence=85.0)
        assert apply_confidence_threshold([d], 70.0) == [d]
        assert apply_confidence_threshold([d], 85.0) == [d]

    def test_empty_input(self):
        assert apply_confidence_threshold([], 50.0) == []

    def test_threshold_out_of_range(self):
        for bad in (-0.1, 100.1):
            with pytest.raises(ValidationError):
                apply_confidence_threshold([det()], bad)

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=20),
           st.floats(min_value=0, max_value=100))
    def test_idempotent(self, confidences, threshold):
        detections = [det(confidence=c) for c in confidences]
        once = apply_confidence_threshold(detections, threshold)
        assert apply_confidence_threshold(once, threshold) == once

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=20))
    def test_monotone_in_threshold(self, confidences):
        detections = [det(confidence=c) for c in confidences]
        at_70 = apply_confidence_threshold(detections, 70.0)
        at_90 = apply_confidence_threshold(detections, 90.0)
        assert set(id(d) for d in at_90) <= set(id(d) for d in at_70)

    def test_order_preserved(self):
        detections = [det(confidence=c) for c in (95.0, 72.0, 88.0, 91.0)]
        kept = apply_confidence_threshold(detections, 80.0)
        assert [d.confidence for d in kept] == [95.0, 88.0, 91.0]


class TestValueInvariants:
    def test_label_must_be_lowercase_and_non_empty(self):
        with pytest.raises(ValidationError):
            Label("", ScenarioKind.ANIMAL_DETECTION)
        with pytest.raises(ValidationError):
            Label("Dog", ScenarioKind.ANIMAL_DETECTION)

    def test_confidence_bounds(self):
        with pytest.raises(ValidationError):
            det(confidence=101.0)
        with pytest.raises(ValidationError):
            det(confidence=-1.0)

    def test_identity_only_on_face_detections(self):
        identity = FaceIdentity("alice", FaceCategory.FAMILY)
        Detection(Label("face", ScenarioKind.FACE_RECOGNITION), 92.0, identity=identity)
        with pytest.raises(ValidationError):
            Detection(Label("dog", ScenarioKind.ANIMAL_DETECTION), 92.0, identity=identity)

    def test_record_rejects_time_travel(self):
        with pytest.raises(ValidationError):
            AnalyticsRecord(
                event_id="door-1:0", device_id="door-1", frame_id="f0",
                detections=(), backend_id="aws-saas",
                captured_at=100, detected_at=50, threshold_used=90.0,
            )

    def test_record_rejects_detection_below_threshold(self):
        with pytest.raises(ValidationError):
            AnalyticsRecord(
                event_id="door-1:0", device_id="door-1", frame_id="f0",
                detections=(det(confidence=80.0),), backend_id="aws-saas",
                captured_at=0, detected_at=10, threshold_used=90.0,
            )


class TestSerialization:
    def test_detection_round_trip(self):
        original = Detection(
            Label("face", ScenarioKind.FACE_RECOGNITION),
            93.5,
            identity=FaceIdentity("alice", FaceCategory.FAMILY),
        )
        assert Detection.from_dict(original.to_dict()) == original

    def test_frame_round_trip(self):
        frame = FrameSample(
            frame_id="f1",
            device_id="door-1",
            captured_at=1234,
            truth=frozenset({Label("dog", ScenarioKind.ANIMAL_DETECTION)}),
            scenario=ScenarioKind.ANIMAL_DETECTION,
        )
        assert FrameSample.from_dict(frame.to_dict()) == frame

    def test_record_round_trip(self):
        record = AnalyticsRecord(
            event_id="door-1:3", device_id="door-1", frame_id="f3",
            detections=(det(confidence=95.0),), backend_id="aws-saas",
            captured_at=10, detected_at=115, threshold_used=90.0,
        )
        assert AnalyticsRecord.from_dict(record.to_dict()) == record

    def test_motion_event_round_trip(self):
        from doorsim.model import MotionEvent

        event = MotionEvent(device_id="door-1", at=1500, event_id="door-1:3")
        assert MotionEvent.from_dict(event.to_dict()) == event

    def test_frame_dict_fields_are_snake_case_manifest_schema(self):
        frame = FrameSample(
            frame_id="f1", device_id="door-1", captured_at=0,
            truth=frozenset(), scenario=ScenarioKind.UNSAFE_CONTENT,
        )
        assert set(frame.to_dict()) == {
            "frame_id", "device_id", "captured_at", "scenario",
            "truth_labels", "truth_identity",
        }

import dataclasses
import importlib
import inspect
import json
import pkgutil
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import doorsim
from doorsim import model
from doorsim.cloud.service import ApiRequest
from doorsim.edge import RetryPolicy
from doorsim.errors import ConflictError, ProtocolError, ValidationError
from doorsim.model import (
    DEFAULT_VOCABULARY,
    AnalyticsRecord,
    Detection,
    EventIdFactory,
    FaceCategory,
    FaceIdentity,
    FrameSample,
    Label,
    MotionEvent,
    ScenarioKind,
    apply_confidence_threshold,
    canonical_json,
    field,
    format_event_id,
    list_field,
    parse_event_id,
    parse_int,
    value,
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


class TestWireFields:
    def test_absent_field_takes_the_default_and_required_names_itself(self):
        assert field({}, "n", int, 7) == 7
        with pytest.raises(ProtocolError, match="^n is required$"):
            field({}, "n", int)

    def test_null_is_accepted_only_where_the_default_is_none(self):
        assert field({"s": None}, "s", str, None) is None
        with pytest.raises(ProtocolError, match="^s must be a string$"):
            field({"s": None}, "s", str, "")
        with pytest.raises(ProtocolError, match="^s must be a string$"):
            field({"s": None}, "s", str)

    @pytest.mark.parametrize("value", [True, 5.0, "5", None, [5]])
    def test_integer_is_an_int_and_not_a_bool(self, value):
        assert field({"n": 5}, "n", int) == 5
        with pytest.raises(ProtocolError, match="^n must be an integer$"):
            field({"n": value}, "n", int)

    @pytest.mark.parametrize("value", [True, "1", float("nan"), float("inf"), -float("inf"),
                                       10 ** 400, None])
    def test_number_is_finite_and_returned_as_float(self, value):
        assert type(field({"x": 5}, "x", float)) is float
        with pytest.raises(ProtocolError, match="^x must be a finite number$"):
            field({"x": value}, "x", float)

    def test_object_is_any_mapping(self):
        proxy = MappingProxyType({"a": 1})
        assert field({"o": proxy}, "o", dict) is proxy
        with pytest.raises(ProtocolError, match="^o must be an object$"):
            field({"o": [1]}, "o", dict)

    def test_enum_by_its_string_value(self):
        data = {"kind": "dog", "scenario": "animal_detection", "number": 1}
        assert field(data, "scenario", ScenarioKind) is ScenarioKind.ANIMAL_DETECTION
        for name in ("kind", "number"):
            with pytest.raises(ProtocolError, match=f"^{name} must be one of face_recognition, "):
                field(data, name, ScenarioKind)

    def test_list_items_are_checked(self):
        assert list_field({"box": [0, 1]}, "box", float) == (0.0, 1.0)
        with pytest.raises(ProtocolError, match="^an item of box must be a finite number$"):
            list_field({"box": [0, "1"]}, "box", float)
        with pytest.raises(ProtocolError, match="^box must be an array$"):
            list_field({"box": "01"}, "box", float)

    @pytest.mark.parametrize("text,value", [("0", 0), ("-12", -12), ("0042", 42)])
    def test_parse_int_takes_ascii_digits(self, text, value):
        assert parse_int(text, "n") == value

    @pytest.mark.parametrize("text", ["", "-", "+1", " 1", "1 ", "1_0", "\u0661", "1.0",
                                      "1" * 5000, 7])
    def test_parse_int_rejects_every_other_spelling(self, text):
        with pytest.raises(ProtocolError, match="^n must be an integer$"):
            parse_int(text, "n")

    def test_canonical_json_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_box_decodes_to_a_tuple_of_floats(self):
        data = {"label": "dog", "kind": "animal_detection", "confidence": 90, "box": [0, 0, 1, 1]}
        detection = Detection.from_dict(data)
        assert detection.box == (0.0, 0.0, 1.0, 1.0) and type(detection.confidence) is float

    @given(st.data())
    def test_records_round_trip_through_canonical_json(self, data):
        kind = data.draw(st.sampled_from(list(ScenarioKind)))
        threshold = data.draw(st.floats(0, 100))
        detections = tuple(
            Detection(
                Label(name, kind), data.draw(st.floats(threshold, 100)),
                identity=(FaceIdentity(data.draw(st.text(max_size=5)),
                                       data.draw(st.sampled_from(list(FaceCategory))))
                          if kind is ScenarioKind.FACE_RECOGNITION else None),
                box=data.draw(st.none() | st.tuples(*[st.floats(0, 1)] * 4)),
            )
            for name in data.draw(st.lists(st.sampled_from(DEFAULT_VOCABULARY[kind]), max_size=3))
        )
        captured_at = data.draw(st.integers(-10 ** 6, 10 ** 12))
        record = AnalyticsRecord(
            event_id=data.draw(st.text(max_size=5)) + ":3", device_id=data.draw(st.text(max_size=5)),
            frame_id=data.draw(st.text(max_size=5)), detections=detections,
            backend_id=data.draw(st.text(max_size=5)), captured_at=captured_at,
            detected_at=captured_at + data.draw(st.integers(0, 10 ** 6)), threshold_used=threshold,
        )
        wire = json.loads(canonical_json(record.to_dict()))
        assert AnalyticsRecord.from_dict(wire) == record


def frozen_dataclasses():
    """Every frozen dataclass defined in a doorsim module."""
    found = []
    for info in pkgutil.walk_packages(doorsim.__path__, "doorsim."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen):
                found.append(cls)
    return found


class TestSlottedValues:
    def test_every_frozen_dataclass_is_slotted(self):
        classes = frozen_dataclasses()
        names = {cls.__name__ for cls in classes}
        assert {"Label", "Detection", "FrameSample", "AnalyticsRecord", "StreamRecord",
                "ProcessOutcome", "IngestAck", "ApiRequest"} <= names
        for cls in classes:
            assert "__slots__" in vars(cls), cls.__qualname__
            assert cls.__dictoffset__ == 0, f"{cls.__qualname__} instances have a __dict__"

    def test_slotted_values_stay_frozen_and_replaceable(self):
        label = Label("dog", ScenarioKind.ANIMAL_DETECTION)
        assert not hasattr(label, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            label.name = "cat"
        assert dataclasses.replace(label, name="cat") == Label("cat", ScenarioKind.ANIMAL_DETECTION)
        with pytest.raises(ValidationError):
            dataclasses.replace(label, name="Cat")


class TestValueConstruction:
    def test_every_frozen_dataclass_stores_through_its_slot_descriptors(self):
        # A dataclass-generated __init__ has no closure: it stores through
        # object.__setattr__, about twice the cost per field.
        for cls in frozen_dataclasses():
            setters = {cell.cell_contents for cell in cls.__init__.__closure__ or ()}
            for f in dataclasses.fields(cls):
                assert vars(cls)[f.name].__set__ in setters, f"{cls.__qualname__}.{f.name}"

    def test_every_signature_matches_the_dataclass_fields(self):
        for cls in frozen_dataclasses():
            params = list(inspect.signature(cls).parameters.values())
            fields = dataclasses.fields(cls)
            assert [p.name for p in params] == [f.name for f in fields], cls.__qualname__
            for param, f in zip(params, fields):
                assert param.kind is param.POSITIONAL_OR_KEYWORD
                if f.default is not dataclasses.MISSING:
                    assert param.default is f.default, f"{cls.__qualname__}.{f.name}"
                elif f.default_factory is not dataclasses.MISSING:
                    assert repr(param.default) == "<factory>", f"{cls.__qualname__}.{f.name}"
                else:
                    assert param.default is param.empty, f"{cls.__qualname__}.{f.name}"

    def test_missing_or_unexpected_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            MotionEvent("door-1", 0)
        with pytest.raises(TypeError):
            MotionEvent("door-1", 0, "door-1:0", "extra")
        with pytest.raises(TypeError):
            MotionEvent("door-1", 0, event_id="door-1:0", at=1)
        with pytest.raises(TypeError):
            Label("dog", ScenarioKind.ANIMAL_DETECTION, colour="brown")

    def test_factory_fields_are_fresh_per_instance(self):
        first, second = ApiRequest("GET", "/x"), ApiRequest("GET", "/x")
        assert first.headers == first.query == {}
        assert first.headers is not second.headers
        assert first.query is not second.query
        headers = {"x-device-token": "t"}
        assert ApiRequest("GET", "/x", headers=headers).headers is headers

    def test_post_init_checks_construction_and_replace(self):
        with pytest.raises(ValidationError):
            det(confidence=101.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(det(), confidence=101.0)
        record = AnalyticsRecord("d:0", "d", "f", (), "haar", 10, 20, 70.0)
        with pytest.raises(ValidationError):
            AnalyticsRecord("d:0", "d", "f", (), "haar", 10, 9, 70.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(record, detected_at=9)
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            dataclasses.replace(RetryPolicy(), max_attempts=0)

    def test_fields_can_be_neither_set_nor_deleted(self):
        for instance in (det(), ApiRequest("GET", "/x"), RetryPolicy()):
            name = dataclasses.fields(instance)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, name)

    def test_equal_values_hash_equal(self):
        assert det() == det() and hash(det()) == hash(det())
        assert RetryPolicy(2, 5) == RetryPolicy(2, 5)
        assert hash(RetryPolicy(2, 5)) == hash(RetryPolicy(2, 5))
        assert det() != det(confidence=86.0)

    @pytest.mark.parametrize("annotation,default", [
        (dataclasses.InitVar[int], 0),
        (int, dataclasses.field(default=0, init=False)),
        (int, dataclasses.field(default=0, kw_only=True)),
    ], ids=["init_var", "init_false", "kw_only"])
    def test_unsupported_field_kinds_are_refused(self, annotation, default):
        cls = type("Odd", (), {"__annotations__": {"x": annotation}, "x": default})
        with pytest.raises(TypeError, match="Odd.x"):
            value(cls)


def frame_row(*names, scenario="animal_detection"):
    return {"frame_id": "f", "device_id": "d", "scenario": scenario, "truth_labels": list(names)}


class TestVocabularyLabels:
    def test_a_known_label_decodes_to_one_shared_instance(self):
        first = FrameSample.from_dict(frame_row("dog"))
        second = FrameSample.from_dict(frame_row("dog"))
        (a,), (b,) = first.truth, second.truth
        assert a is b
        detection = Detection.from_dict(
            {"label": "dog", "kind": "animal_detection", "confidence": 90.0})
        assert detection.label is a

    def test_every_vocabulary_label_is_shared_per_scenario(self):
        for kind, names in DEFAULT_VOCABULARY.items():
            first = FrameSample.from_dict(frame_row(*names, scenario=kind.value)).truth
            second = FrameSample.from_dict(frame_row(*names, scenario=kind.value)).truth
            assert first == {Label(name, kind) for name in names}
            assert {id(label) for label in first} == {id(label) for label in second}
        (animal_dog,) = FrameSample.from_dict(frame_row("dog")).truth
        (multi_dog,) = FrameSample.from_dict(frame_row("dog", scenario="multi_object")).truth
        assert animal_dog.kind is ScenarioKind.ANIMAL_DETECTION
        assert multi_dog.kind is ScenarioKind.MULTI_OBJECT

    def test_an_unknown_label_decodes_to_an_equal_fresh_instance(self):
        size = len(model._VOCABULARY_LABELS)
        (a,) = FrameSample.from_dict(frame_row("zebra")).truth
        (b,) = FrameSample.from_dict(frame_row("zebra")).truth
        assert a == b == Label("zebra", ScenarioKind.ANIMAL_DETECTION)
        assert a is not b
        detection = Detection.from_dict(
            {"label": "zebra", "kind": "animal_detection", "confidence": 90.0})
        assert detection.label == a and detection.label is not a
        assert len(model._VOCABULARY_LABELS) == size == sum(map(len, DEFAULT_VOCABULARY.values()))

    @pytest.mark.parametrize("name,message", [
        ("Dog", "label name must be a lowercase token: 'Dog'"),
        (" dog", "label name must be a lowercase token: ' dog'"),
        ("", "label name must be non-empty"),
    ])
    def test_an_invalid_label_is_still_rejected(self, name, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FrameSample.from_dict(frame_row(name))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Detection.from_dict({"label": name, "kind": "animal_detection", "confidence": 90.0})

    @pytest.mark.parametrize("value", ["Animal_Detection", "", 1, None, [1], {"a": 1},
                                       float("nan"), ScenarioKind.MULTI_OBJECT.name])
    def test_an_enum_miss_names_the_field_and_the_choices(self, value):
        with pytest.raises(ProtocolError) as info:
            field({"scenario": value}, "scenario", ScenarioKind, default=ScenarioKind.MULTI_OBJECT)
        assert str(info.value) == ("scenario must be one of "
                                   + ", ".join(kind.value for kind in ScenarioKind))

import ast
import copy
import dataclasses
import gc
import importlib
import inspect
import itertools
import json
import pickle
import pkgutil
import textwrap
import traceback
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import doorsim
from doorsim import model
from doorsim.backends import BackendCategory, BackendProfile, ConfidenceModel
from doorsim.cloud.notify import Notification, SubscriptionFilter
from doorsim.cloud.queries import QueryAnswer, QueryKind, QueryRequest
from doorsim.cloud.service import ApiRequest, ApiResponse, CloudService
from doorsim.cloud.stores import CustomLabelJob
from doorsim.cloud.stream import StreamRecord
from doorsim.dataset import GeneratorConfig
from doorsim.device import Credential, DeviceRecord, MotionScript
from doorsim.edge import EdgeConfig, ProcessOutcome, RetryPolicy, SamplingPolicy
from doorsim.errors import ProtocolError, ValidationError
from doorsim.harness import ConfusionCounts, ExperimentConfig, FrameOutcome, LatencyStats, MetricsReport
from doorsim.transport import CloudClient, IngestAck, NetworkModel
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

    def test_next_event_id_is_strictly_increasing(self):
        factory = EventIdFactory()
        ids = [factory.next_event_id("door-1") for _ in range(5)]
        assert ids == [f"door-1:{i}" for i in range(5)]

    def test_counters_are_per_device(self):
        factory = EventIdFactory()
        assert factory.next_event_id("door-1") == "door-1:0"
        assert factory.next_event_id("door-2") == "door-2:0"
        assert factory.next_event_id("door-1") == "door-1:1"
        assert factory.next_event_id("door-2") == "door-2:1"

    @given(st.lists(st.sampled_from(["door-1", "door-2", "door-1:0", ""]), max_size=40))
    def test_each_device_counts_up_from_zero(self, devices):
        factory = EventIdFactory()
        issued: dict[str, int] = {}
        for device_id in devices:
            expected = issued.get(device_id, 0)
            assert factory.next_event_id(device_id) == f"{device_id}:{expected}"
            issued[device_id] = expected + 1

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
    def test_every_frozen_dataclass_is_built_as_its_slotted_twin(self):
        # __new__ stores the fields on an instance of a twin class with the
        # same __slots__ and no frozen __setattr__ (CPython's specialized
        # slot store), then assigns the value's class to it.
        for cls in frozen_dataclasses():
            assert "__init__" not in vars(cls) and cls.__init__ is object.__init__, cls.__qualname__
            names = tuple(f.name for f in dataclasses.fields(cls))
            twins = [cell.cell_contents for cell in cls.__new__.__closure__ or ()
                     if isinstance(cell.cell_contents, type) and cell.cell_contents is not cls
                     and vars(cell.cell_contents).get("__slots__") == names]
            assert len(twins) == 1, cls.__qualname__
            twin = twins[0]
            assert cls.__slots__ == names
            assert twin.__bases__ == (object,) and "__setattr__" not in vars(twin)
            assert twin.__setattr__ is object.__setattr__, cls.__qualname__
            assert twin.__dictoffset__ == 0 and twin.__basicsize__ == cls.__basicsize__

    def test_a_base_other_than_object_is_refused(self):
        cls = type("Odd", (type("Base", (), {}),), {"__annotations__": {"x": int}})
        with pytest.raises(TypeError, match="Odd: value"):
            value(cls)

    @pytest.mark.parametrize("name", ["cls", "self"])
    def test_a_field_named_after_a_name_of_new_is_refused(self, name):
        cls = type("Odd", (), {"__annotations__": {name: int}})
        with pytest.raises(TypeError, match=f"Odd.{name}"):
            value(cls)

    def test_a_value_type_cannot_be_subclassed(self):
        for cls in frozen_dataclasses():
            with pytest.raises(TypeError, match="cannot be subclassed"):
                type("Sub", (cls,), {})
            with pytest.raises(TypeError, match="cannot be subclassed"):
                type("Sub", (cls,), {"__slots__": ()})

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


# One instance of every value type; TestCopyAndPickle asserts that the table
# covers every class frozen_dataclasses() finds.
def value_examples():
    label = Label("dog", ScenarioKind.ANIMAL_DETECTION)
    face = FaceIdentity("alice", FaceCategory.FAMILY)
    detection = Detection(Label(model.FACE_LABEL, ScenarioKind.FACE_RECOGNITION), 91.5, face,
                          (0.1, 0.2, 0.3, 0.4))
    record = AnalyticsRecord("door-1:0", "door-1", "f-1", (detection,), "aws-saas", 10, 20, 70.0)
    ack = IngestAck(0, False, 20, 25, 1)
    script = MotionScript("door-1", ((0, "f-1"), (2000, "f-2")))
    return [
        label, face, detection, record, ack, script,
        FrameSample("f-1", "door-1", 10, model.truth_set(ScenarioKind.ANIMAL_DETECTION, ["dog"]),
                    ScenarioKind.ANIMAL_DETECTION, None),
        MotionEvent("door-1", 10, "door-1:0"),
        GeneratorConfig((ScenarioKind.ANIMAL_DETECTION,), 3, known_faces={"alice": FaceCategory.FAMILY}),
        NetworkModel(40, 10, 7),
        SamplingPolicy(),
        RetryPolicy(2, 50),
        EdgeConfig(70.0),
        ProcessOutcome(record, ack),
        MetricsReport(ConfusionCounts(1, 2, 3, 4), 0.5, 0.25, 0.75, 0.4, "animal_detection", "haar"),
        LatencyStats("haar", 3, 1.5, 1.0, 2.0),
        ExperimentConfig(dataset="data.ndjson", enroll={"alice": FaceCategory.FAMILY}, scripts=(script,)),
        FrameOutcome("f-1", "door-1:0", "animal_detection", ("dog",), ("dog",)),
        ApiRequest("POST", "/ingest", {"x-session-token": "t"}, {"record": record.to_dict()}, {"from": "0"}),
        ApiResponse(200, {"ok": True}),
        QueryRequest(QueryKind.RANGE_QUERY, "door-1", (0, 10)),
        QueryAnswer("1 record", (record,), {"dog": 1}),
        StreamRecord(0, "door-1", record, 20, False, 0),
        Notification("door-1:0", "door-1", "face (alice)", 25),
        SubscriptionFilter(frozenset({"door-1"}), frozenset({ScenarioKind.ANIMAL_DETECTION})),
        CustomLabelJob("job", 3, "training", 10),
        DeviceRecord("door-1", {"location": "front"}, "fp", 0),
        Credential("door-1", "secret", "fp"),
        ConfidenceModel(),
        BackendProfile("haar", BackendCategory.ON_DEVICE_ML, 10.0, 5.0, 30,
                       {ScenarioKind.ANIMAL_DETECTION: 0.9}, 0.1, ConfidenceModel(), None),
    ]


def pickled(protocol):
    return lambda obj: pickle.loads(pickle.dumps(obj, protocol))


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               **{f"pickle{p}": pickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)}}


class TestCopyAndPickle:
    def test_the_examples_cover_every_value_type(self):
        examples = [type(example) for example in value_examples()]
        assert len(examples) == len(set(examples))
        assert set(examples) == set(frozen_dataclasses())

    @pytest.mark.parametrize("how", ROUND_TRIPS)
    def test_every_value_round_trips_to_an_equal_valid_value(self, how):
        for example in value_examples():
            rebuilt = ROUND_TRIPS[how](example)
            assert type(rebuilt) is type(example)
            assert rebuilt == example, type(example).__qualname__
            if hasattr(rebuilt, "__post_init__"):
                rebuilt.__post_init__()  # the rebuilt value keeps the class's invariants


EXAMPLE_RECORD_DICT = {
    "event_id": "door-1:0", "device_id": "door-1", "frame_id": "f-1",
    "detections": [{"label": "face", "kind": "face_recognition", "confidence": 91.5,
                    "identity": "alice", "category": "family", "box": [0.1, 0.2, 0.3, 0.4]}],
    "backend_id": "aws-saas", "captured_at": 10, "detected_at": 20, "threshold_used": 70.0,
}
# The to_dict of each value_examples() instance whose fields are its wire
# shape, keys in field order.
EXAMPLE_DICTS = {
    AnalyticsRecord: EXAMPLE_RECORD_DICT,
    MotionEvent: {"device_id": "door-1", "at": 10, "event_id": "door-1:0"},
    StreamRecord: {"sequence": 0, "partition": "door-1", "payload": EXAMPLE_RECORD_DICT,
                   "ingested_at": 20, "duplicate": False},
    Notification: {"event_id": "door-1:0", "device_id": "door-1", "summary": "face (alice)",
                   "at": 25},
    CustomLabelJob: {"name": "job", "example_count": 3, "status": "training", "created_at": 10},
    DeviceRecord: {"device_id": "door-1", "attributes": {"location": "front"},
                   "credential_fingerprint": "fp", "registered_at": 0},
    FrameOutcome: {"frame_id": "f-1", "event_id": "door-1:0", "scenario": "animal_detection",
                   "truth": ["dog"], "predicted": ["dog"]},
    LatencyStats: {"backend_id": "haar", "samples": 3, "mean_ms": 1.5, "p50_ms": 1.0,
                   "p95_ms": 2.0},
    ConfidenceModel: {"true_mean": 85.0, "true_spread": 15.0, "fp_mean": 80.0,
                      "fp_spread": 10.0},
}
CODEC_METHODS = [*((cls, "to_dict") for cls in EXAMPLE_DICTS),
                 *((cls, "from_dict") for cls in (AnalyticsRecord, MotionEvent, Detection,
                                                  FrameSample, QueryRequest))]


def plain_json(obj):
    """``obj`` is built of exactly dict, list, str, int, float, bool and None."""
    if type(obj) is dict:
        return all(type(key) is str and plain_json(item) for key, item in obj.items())
    if type(obj) is list:
        return all(map(plain_json, obj))
    return type(obj) in (str, int, float, bool, type(None))


class TestWireShapedCodecs:
    @pytest.mark.parametrize("cls", EXAMPLE_DICTS, ids=lambda cls: cls.__qualname__)
    def test_to_dict_of_the_example_is_pinned(self, cls):
        (example,) = [example for example in value_examples() if type(example) is cls]
        encoded = example.to_dict()
        assert plain_json(encoded)
        # json.dumps without sort_keys: equal values and equal key order
        assert json.dumps(encoded) == json.dumps(EXAMPLE_DICTS[cls])
        assert example.to_dict() is not encoded  # a new object on each call
        for name, item in encoded.items():
            if isinstance(item, (dict, list)):
                assert item is not getattr(example, name)  # not the value's own object

    @pytest.mark.parametrize("cls,name", CODEC_METHODS,
                             ids=[f"{cls.__qualname__}.{name}" for cls, name in CODEC_METHODS])
    def test_the_source_of_each_codec_is_readable(self, cls, name):
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(getattr(cls, name)))).body
        assert isinstance(node, ast.FunctionDef) and node.name == name

    @pytest.mark.parametrize("cls", [AnalyticsRecord, Detection, FrameSample, QueryRequest],
                             ids=lambda cls: cls.__qualname__)
    def test_a_decode_error_traceback_shows_the_decoder_line(self, cls):
        with pytest.raises(ProtocolError) as caught:
            cls.from_dict({"kind": "latest_activity", "label": "dog", "scenario": "multi_object",
                           "device_id": 5})
        (frame,) = [frame for frame in traceback.extract_tb(caught.tb) if frame.name == "from_dict"]
        assert "field(" in frame.line


def example_profile(**changes):
    return dataclasses.replace(BackendProfile(
        "haar", BackendCategory.ON_DEVICE_ML, 10.0, 5.0, 30,
        {ScenarioKind.ANIMAL_DETECTION: 0.9, ScenarioKind.MULTI_OBJECT: 0.5}), **changes)


EXAMPLE_EXPERIMENT = ExperimentConfig(
    dataset="data.ndjson", backend_id="haar", threshold=70.0, seed=4,
    network=NetworkModel(30, 5, 4), retry=RetryPolicy(2, 50), sampling=SamplingPolicy(1, 10),
    profiles_path="profiles.json", enroll={"alice": FaceCategory.FAMILY},
    scripts=(MotionScript("door-1", ((0, "f-1"),)),))
EXPERIMENT_KEYS = ["dataset", "backend_id", "threshold", "seed", "network", "retry", "sampling",
                   "debounce_ms", "event_spacing_ms", "profiles", "enroll", "scripts"]
PROFILE_KEYS = ["backend_id", "category", "memory_mb", "cpu_pct", "service_time_ms",
                "per_scenario_recall", "false_positive_rate", "confidence_model", "face_miss_rate"]
# Each config document the program writes, as the program writes it, and its
# keys in field order.
CONFIG_DOCUMENTS = {
    "experiment": (lambda: EXAMPLE_EXPERIMENT.to_dict(), EXPERIMENT_KEYS),
    "experiment_defaults": (lambda: ExperimentConfig().to_dict(), EXPERIMENT_KEYS),
    "network": (lambda: EXAMPLE_EXPERIMENT.network.to_dict(), ["base_delay_ms", "jitter_ms"]),
    "retry": (lambda: EXAMPLE_EXPERIMENT.to_dict()["retry"], ["max_attempts", "backoff_ms"]),
    "sampling": (lambda: EXAMPLE_EXPERIMENT.to_dict()["sampling"],
                 ["max_frames_per_event", "min_interval_ms"]),
    "profile": (lambda: example_profile(face_miss_rate=0.25).to_dict(), PROFILE_KEYS),
    "profile_defaults": (lambda: example_profile().to_dict(), PROFILE_KEYS),
    "confidence_model": (lambda: ConfidenceModel(80.0, 10.0, 75.0, 5.0).to_dict(),
                         ["true_mean", "true_spread", "fp_mean", "fp_spread"]),
}
MINIMAL_PROFILE = {"backend_id": "haar", "category": "on_device_ml", "memory_mb": 10, "cpu_pct": 5,
                   "service_time_ms": 30,
                   "per_scenario_recall": {"animal_detection": 0.9, "multi_object": 0.5}}
# Per config file: its reader and its minimal document.
READERS = {"experiment": (ExperimentConfig.from_dict, {}),
           "generator": (GeneratorConfig.from_dict, {"scenarios": ["animal_detection"]}),
           "profile": (BackendProfile.from_dict, MINIMAL_PROFILE)}
# (file, keys present and empty) per config type, and the value that must
# be read: absent keys take the class's declared defaults.
MINIMAL_DOCUMENTS = {
    "experiment": ("experiment", {}, ExperimentConfig()),
    "network": ("experiment", {"network": {}}, ExperimentConfig()),
    "retry": ("experiment", {"retry": {}}, ExperimentConfig()),
    "sampling": ("experiment", {"sampling": {}}, ExperimentConfig()),
    "generator": ("generator", {}, GeneratorConfig((ScenarioKind.ANIMAL_DETECTION,), 100)),
    "profile": ("profile", {}, example_profile()),
    "confidence_model": ("profile", {"confidence_model": {}}, example_profile()),
}
# README: null counts as absent for these keys ...
NULL_AS_ABSENT = [("experiment", "dataset"), ("experiment", "profiles"), ("experiment", "enroll"),
                  ("experiment", "scripts"), ("generator", "negatives"),
                  ("generator", "known_faces")]
# ... and is not an object for these.
NULL_REFUSED = [("experiment", "network"), ("experiment", "retry"), ("experiment", "sampling"),
                ("profile", "confidence_model")]


class TestConfigDocuments:
    @pytest.mark.parametrize("name", CONFIG_DOCUMENTS)
    def test_to_dict_writes_the_declared_keys_as_plain_json(self, name):
        write, keys = CONFIG_DOCUMENTS[name]
        document = write()
        assert list(document) == keys
        assert plain_json(document)  # no enum member, no tuple
        assert json.loads(canonical_json(document)) == document

    def test_enum_keys_and_values_are_written_as_their_values(self):
        assert EXAMPLE_EXPERIMENT.to_dict()["enroll"] == {"alice": "family"}
        profile = example_profile().to_dict()
        assert profile["category"] == "on_device_ml"
        assert profile["per_scenario_recall"] == {"animal_detection": 0.9, "multi_object": 0.5}
        assert EXAMPLE_EXPERIMENT.to_dict()["scripts"] == [
            {"device_id": "door-1", "debounce_ms": 1000, "entries": [{"at": 0, "frame_id": "f-1"}]}]

    @pytest.mark.parametrize("name", MINIMAL_DOCUMENTS)
    def test_the_minimal_document_reads_as_the_declared_defaults(self, name):
        reader, keys, expected = MINIMAL_DOCUMENTS[name]
        read, minimal = READERS[reader]
        assert read({**minimal, **keys}) == expected

    @pytest.mark.parametrize("reader,key", NULL_AS_ABSENT, ids=[key for _, key in NULL_AS_ABSENT])
    def test_null_counts_as_absent(self, reader, key):
        read, minimal = READERS[reader]
        assert read({**minimal, key: None}) == read(minimal)

    @pytest.mark.parametrize("reader,key", NULL_REFUSED, ids=[key for _, key in NULL_REFUSED])
    def test_null_is_not_an_object(self, reader, key):
        read, minimal = READERS[reader]
        with pytest.raises(ProtocolError, match=f"^{key} must be an object$"):
            read({**minimal, key: None})


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


VOCABULARY_NAMES = sorted({name for names in DEFAULT_VOCABULARY.values() for name in names})
TRUTH_NAMES = st.sampled_from(VOCABULARY_NAMES) | st.sampled_from(["zebra", "Dog", " dog", ""])


@st.composite
def truth_rows(draw):
    """Manifest rows whose truth_labels are vocabulary names, sorted or not,
    with duplicates, names of another scenario, names of no scenario,
    malformed names, or not an array of strings at all."""
    scenario = draw(st.sampled_from(list(ScenarioKind)))
    vocabulary = sorted(DEFAULT_VOCABULARY[scenario])
    names = draw(
        st.sets(st.sampled_from(vocabulary)).map(sorted)  # the shared sets' keys
        | st.lists(st.sampled_from(vocabulary), max_size=5)  # unsorted, duplicates, []
        | st.lists(TRUTH_NAMES, max_size=4)
        | st.lists(TRUTH_NAMES, max_size=3).map(Items)
        | st.lists(TRUTH_NAMES | st.integers() | st.none(), min_size=1, max_size=3)
        | st.text(max_size=3) | st.integers() | st.none() | st.just({"dog": 1}))
    return {**frame_row(scenario=scenario.value), "truth_labels": names}


class TestSharedTruthSets:
    def test_one_shared_set_per_sorted_vocabulary_subset(self):
        truths = model._VOCABULARY_TRUTHS
        assert len(truths) == sum(2 ** len(names) for names in DEFAULT_VOCABULARY.values()) == 34
        for (kind, *names), truth in truths.items():
            assert names == sorted(set(names))
            assert all(model._VOCABULARY_LABELS[name, kind] in truth for name in names)
            assert len(truth) == len(names)
            assert model.truth_set(ScenarioKind(kind), names) is truth

    @settings(max_examples=300, deadline=None)
    @given(row=truth_rows())
    def test_decode_equals_the_per_label_reference(self, row):
        size = len(model._VOCABULARY_TRUTHS)
        got, expected = outcome(FrameSample.from_dict, row), outcome(reference_frame_from_dict, row)
        assert got == expected
        names = row["truth_labels"]
        key = (row["scenario"], *names) if type(names) is list else None
        if key in model._VOCABULARY_TRUTHS:
            assert got[1].truth is model._VOCABULARY_TRUTHS[key]
        assert len(model._VOCABULARY_TRUTHS) == size == 34

    def test_the_rows_reach_shared_fresh_and_refused_truths(self):
        # as test_the_bodies_reach_both_outcomes: the property above is only
        # as good as its mix of rows
        shared, seen = model._VOCABULARY_TRUTHS.values(), set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(row=truth_rows())
        def collect(row):
            result = outcome(FrameSample.from_dict, row)
            if result[0] == "error":
                seen.add(result[1].__name__)
            elif any(result[1].truth is truth for truth in shared):
                seen.add("shared")
            else:
                seen.add("equal to a shared set" if result[1].truth in shared else "fresh")

        collect()
        assert seen == {"shared", "equal to a shared set", "fresh",
                        "ProtocolError", "ValidationError"}


def by_name(labels):
    """The reference order: sorted by name, as every per-frame site sorted."""
    ordered = tuple(sorted(labels, key=lambda label: label.name))
    return ordered, tuple(label.name for label in ordered)


class TestTruthOrders:
    def test_each_shared_set_carries_its_sorted_order(self):
        # run under two PYTHONHASHSEEDs in CI: a frozenset's iteration order
        # depends on the seed, and the stored tuples must not
        assert len(model._VOCABULARY_TRUTHS) == 34
        for truth in model._VOCABULARY_TRUTHS.values():
            stored = model._TRUTH_ORDERS[truth]
            assert model.truth_order(truth) is stored
            assert stored == by_name(truth)
            assert stored[1] == tuple(sorted(label.name for label in truth))
            assert all(label in truth for label in stored[0])
            # an equal frozenset of other, equal Labels gets the stored tuples too
            copy = frozenset(Label(label.name, label.kind) for label in truth)
            assert model.truth_order(copy) is stored

    @settings(max_examples=300, deadline=None)
    @given(labels=st.sets(st.builds(Label, st.sampled_from(["dog", "cat", "gun", "zebra", "a"]),
                                    st.sampled_from(list(ScenarioKind))), max_size=5),
           frozen=st.booleans())
    def test_any_set_gets_the_sorted_order_and_the_table_does_not_grow(self, labels, frozen):
        labels = frozenset(labels) if frozen else labels
        order = model.truth_order(labels)
        assert order == by_name(labels)
        assert len(model._TRUTH_ORDERS) == 30  # the 34 sets; their five empty ones are equal
        assert len(model._VOCABULARY_TRUTHS) == 34

    def test_truth_labels_is_a_new_list_on_every_call(self):
        truth = model.truth_set(ScenarioKind.MULTI_OBJECT, ["dog", "person"])
        frame = FrameSample("f1", "door-1", 0, truth, ScenarioKind.MULTI_OBJECT)
        other = FrameSample("f2", "door-2", 5, truth, ScenarioKind.MULTI_OBJECT)
        first = frame.to_dict()["truth_labels"]
        assert first == ["dog", "person"]
        first.append("cat")
        first[0] = "zebra"
        second = frame.to_dict()["truth_labels"]
        assert second == ["dog", "person"] and second is not first
        assert other.to_dict()["truth_labels"] == ["dog", "person"]
        assert model.truth_order(truth)[1] == ("dog", "person")


# (module, qualified name) of each function that builds values once per frame
# or per request, or once per row that a view or a read builds from a stored
# row; run_experiment builds the report's rows through a view (see
# test_harness.py).
PER_FRAME_FUNCTIONS = [
    ("doorsim.device", "run_motion_script"),
    ("doorsim.dataset", "generate_dataset"),
    ("doorsim.device", "DeviceRegistry.register"),
    ("doorsim.backends", "simulate_detections"),
    ("doorsim.edge", "EdgePipeline.analyze"),
    ("doorsim.transport", "CloudClient.call"),
    ("doorsim.transport", "CloudClient.ingest"),
    ("doorsim.cloud.stream", "IngestStream.append"),
    ("doorsim.model", "Detection.from_row"),
    ("doorsim.model", "AnalyticsRecord.from_row"),
    ("doorsim.cloud.stream", "RowEntry.value"),
    ("doorsim.cloud.notify", "Subscription.delivery_log"),
    ("doorsim.cloud.queries", "QueryRequest.from_dict"),
    ("doorsim.cloud.queries", "answer_query"),
    ("doorsim.cloud.stores", "CustomLabelJobs.create"),
]


class TestStrEnums:
    """ScenarioKind and FaceCategory members are strs equal to their wire
    values, so one member-keyed table also answers the value string; every
    to_dict still emits the plain value, never the member."""

    @pytest.mark.parametrize("member", [*ScenarioKind, *FaceCategory], ids=str)
    def test_a_member_is_its_wire_string(self, member):
        assert isinstance(member, str) and member == member.value
        assert type(member).__hash__ is str.__hash__  # in C, not Enum.__hash__
        assert hash(member) == hash(member.value)
        assert json.dumps(member) == json.dumps(member.value)
        assert sorted(type(member)) == sorted(type(member), key=lambda m: m.value)

    @pytest.mark.parametrize("kind", list(ScenarioKind), ids=str)
    def test_label_hash_is_the_hash_of_its_name_and_value(self, kind):
        # run under two PYTHONHASHSEEDs in CI: truth-set orders, and so the
        # report digests, rest on this hash
        for name in (*DEFAULT_VOCABULARY[kind], "zebra"):
            assert hash(Label(name, kind)) == hash((name, kind.value))

    def test_a_member_keyed_table_answers_the_value_string(self):
        from doorsim.backends import DEFAULT_ROUTES
        from doorsim.cloud.notify import _KIND_PHRASE

        for kind, names in DEFAULT_VOCABULARY.items():
            assert DEFAULT_ROUTES[kind.value] is DEFAULT_ROUTES[kind]
            assert _KIND_PHRASE[kind.value] is _KIND_PHRASE[kind]
            for name in names:
                label = model._VOCABULARY_LABELS[name, kind]
                assert model._VOCABULARY_LABELS[name, kind.value] is label
            for size in range(len(names) + 1):
                for subset in itertools.combinations(sorted(names), size):
                    truth = model._VOCABULARY_TRUTHS[(kind, *subset)]
                    assert model._VOCABULARY_TRUTHS[(kind.value, *subset)] is truth

    def test_every_to_dict_emits_plain_str(self):
        identity = FaceIdentity("tok-1", FaceCategory.FAMILY)
        face = Detection(Label("face", ScenarioKind.FACE_RECOGNITION), 90.0, identity)
        frame = FrameSample("f1", "door-1", 0, frozenset(), ScenarioKind.MULTI_OBJECT)
        recall = BackendProfile("b", BackendCategory.ON_EDGE, 1.0, 1.0, 1,
                                {kind: 0.5 for kind in ScenarioKind}).to_dict()
        enroll = ExperimentConfig(enroll={"alice": FaceCategory.FRIEND}).to_dict()["enroll"]
        emitted = [face.to_dict()["kind"], face.to_dict()["category"],
                   frame.to_dict()["scenario"], *recall["per_scenario_recall"], enroll["alice"]]
        assert emitted == ["face_recognition", "family", "multi_object",
                           *(kind.value for kind in ScenarioKind), "friend"]
        assert [type(v) for v in emitted] == [str] * len(emitted)


def is_value_class(obj):
    return (isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__dataclass_params__.frozen and "__slots__" in vars(obj))


@pytest.mark.parametrize("module_name,qualname", PER_FRAME_FUNCTIONS,
                         ids=[entry[1] for entry in PER_FRAME_FUNCTIONS])
def test_per_frame_values_are_built_positionally(module_name, qualname):
    # A class called with keywords packs them into a dict that __init__
    # unpacks again; the per-frame sites pass their fields by position.
    module = importlib.import_module(module_name)
    owner, fn = None, module
    for part in qualname.split("."):
        owner, fn = fn, inspect.getattr_static(fn, part)
    fn = getattr(fn, "__func__", fn)  # a classmethod's function
    fn = getattr(fn, "fget", fn)  # a property's getter
    names = {**vars(module), "cls": owner}
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and is_value_class(names.get(node.func.id))]
    assert calls, f"{qualname} builds no value"
    keyword_calls = [f"{call.func.id} at line {call.lineno}" for call in calls if call.keywords]
    assert keyword_calls == []


# -- the codecs against the field-by-field reference ---------------------------
#
# The per-frame decoders take exact-typed values inline and call field() for
# the rest. These are the decoders and encoders as they were written before,
# one field()/list_field() call per field, kept here as the reference.

def reference_detection_from_dict(data):
    token = field(data, "identity", str, None)
    return Detection(
        label=reference_label(field(data, "label", str), field(data, "kind", ScenarioKind)),
        confidence=field(data, "confidence", float),
        identity=None if token is None
        else FaceIdentity(token, field(data, "category", FaceCategory)),
        box=list_field(data, "box", float, None),
    )


def reference_frame_from_dict(data):
    scenario = field(data, "scenario", ScenarioKind)
    return FrameSample(
        frame_id=field(data, "frame_id", str),
        device_id=field(data, "device_id", str),
        captured_at=field(data, "captured_at", int, 0),
        truth=frozenset([reference_label(name, scenario)
                         for name in list_field(data, "truth_labels", str, ())]),
        scenario=scenario,
        truth_identity=field(data, "truth_identity", str, None),
    )


def reference_record_from_dict(data):
    return AnalyticsRecord(
        event_id=field(data, "event_id", str),
        device_id=field(data, "device_id", str),
        frame_id=field(data, "frame_id", str),
        detections=tuple(map(reference_detection_from_dict,
                             list_field(data, "detections", dict))),
        backend_id=field(data, "backend_id", str),
        captured_at=field(data, "captured_at", int),
        detected_at=field(data, "detected_at", int),
        threshold_used=field(data, "threshold_used", float),
    )


def reference_label(name, kind):
    label = model._VOCABULARY_LABELS.get((name, kind.value))
    return Label(name, kind) if label is None else label


def reference_detection_to_dict(detection):
    return {
        "label": detection.label.name,
        "kind": detection.label.kind.value,
        "confidence": detection.confidence,
        "identity": None if detection.identity is None else detection.identity.token,
        "category": None if detection.identity is None else detection.identity.category.value,
        "box": None if detection.box is None else list(detection.box),
    }


def reference_frame_to_dict(frame):
    return {
        "frame_id": frame.frame_id,
        "device_id": frame.device_id,
        "captured_at": frame.captured_at,
        "scenario": frame.scenario.value,
        "truth_labels": sorted(label.name for label in frame.truth),
        "truth_identity": frame.truth_identity,
    }


def reference_record_to_dict(record):
    return {
        "event_id": record.event_id,
        "device_id": record.device_id,
        "frame_id": record.frame_id,
        "detections": [reference_detection_to_dict(d) for d in record.detections],
        "backend_id": record.backend_id,
        "captured_at": record.captured_at,
        "detected_at": record.detected_at,
        "threshold_used": record.threshold_used,
    }


class Text(str):
    pass


class Whole(int):
    pass


class Real(float):
    pass


class Items(list):
    pass


class Obj(dict):
    pass


ABSENT = object()  # a generated field that is left out of the body
LABEL_NAMES = st.sampled_from(sorted({n for names in DEFAULT_VOCABULARY.values() for n in names}
                                     | {"zebra", "Dog", " dog", ""}))
OTHER_JSON = (st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
              | st.lists(st.integers(), max_size=1) | st.dictionaries(st.text(max_size=1),
                                                                       st.integers(), max_size=1))


def kinds(valid, coerce, wrong):
    """(a strategy of well-typed values, of values only coercion accepts,
    of wrong-typed values) for one field kind."""
    return valid, coerce, wrong | OTHER_JSON


def strings(valid=st.text(max_size=4)):
    return kinds(valid, valid.map(Text), st.integers().map(Whole))


OPTIONAL_STRINGS = kinds(st.none() | st.none() | st.text(max_size=3),
                         st.text(max_size=3).map(Text), st.integers().map(Whole))


INTS = kinds(st.integers(-5, 5) | st.integers(), st.nothing(),
             st.integers().map(Whole) | st.floats(allow_nan=False).map(Real))
FLOATS = kinds(st.floats(0, 100) | st.floats(-5, 105) | st.floats(), st.integers(-5, 105)
               | st.sampled_from([10 ** 308, 10 ** 309, -(10 ** 400)]),
               st.sampled_from([float("nan"), float("inf"), -float("inf")])
               | st.floats(0, 100).map(Real))


def enums(kind):
    values = st.sampled_from([member.value for member in kind])
    return kinds(values, values.map(Text), st.sampled_from([m.name for m in kind]))


def arrays(item, size=4, valid=None):
    item_valid, coerce, wrong = item
    items = st.lists(item_valid | coerce | wrong | st.none(), max_size=size)
    if valid is None:
        valid = st.lists(item_valid, max_size=size)
    return kinds(valid, items | items.map(Items), st.just(None))


def bodies(fields, wreck_top=True):
    """JSON objects whose fields are each well typed, well typed only after
    coercion, absent, null or wrong-typed, several at once: a generated set
    of fields is broken, every other field is decodable."""
    @st.composite
    def build(draw):
        broken = draw(st.just(set()) | st.sets(st.sampled_from(sorted(fields))))
        body = {}
        for name, (valid, coerce, wrong) in fields.items():
            if name in broken:
                value = draw(wrong | st.none() | st.just(ABSENT))
            else:
                value = draw(valid | coerce)
            if value is not ABSENT:
                body[name] = value
        if draw(st.booleans()):
            body["unknown"] = draw(OTHER_JSON)
        return body
    strategy = build()
    if wreck_top:
        strategy = strategy | strategy.map(MappingProxyType) | strategy.map(Obj)
    return strategy


DETECTION_FIELDS = {
    "identity": OPTIONAL_STRINGS,
    "label": strings(LABEL_NAMES),
    "kind": enums(ScenarioKind),
    "confidence": FLOATS,
    "category": enums(FaceCategory),
    "box": arrays(kinds(st.floats(-0.5, 1.5), st.integers(0, 1), st.nothing()), size=5,
                  valid=st.none() | st.lists(st.floats(0, 1), min_size=4, max_size=4)),
}
DETECTION_BODIES = bodies(DETECTION_FIELDS)
FRAME_BODIES = bodies({
    "frame_id": strings(), "device_id": strings(), "captured_at": INTS,
    "scenario": enums(ScenarioKind), "truth_labels": arrays(strings(LABEL_NAMES)),
    "truth_identity": OPTIONAL_STRINGS,
})
# arrays of detection objects: exact dicts, other mappings, wrong-typed items
DETECTION_ARRAYS = arrays(kinds(bodies(DETECTION_FIELDS, wreck_top=False),
                                bodies(DETECTION_FIELDS).filter(lambda b: type(b) is not dict),
                                st.nothing()), size=3)
RECORD_BODIES = bodies({
    "event_id": strings(), "device_id": strings(), "frame_id": strings(),
    "detections": DETECTION_ARRAYS,
    "backend_id": strings(), "captured_at": INTS, "detected_at": INTS, "threshold_used": FLOATS,
})


def outcome(decode, data):
    """("value", the decoded value and its repr) or ("error", the exception's
    type and message)."""
    try:
        decoded = decode(data)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return ("error", type(exc), str(exc))
    return ("value", decoded, repr(decoded))


CODECS = {
    "detection": (DETECTION_BODIES, Detection.from_dict, reference_detection_from_dict,
                  reference_detection_to_dict),
    "frame": (FRAME_BODIES, FrameSample.from_dict, reference_frame_from_dict,
              reference_frame_to_dict),
    "record": (RECORD_BODIES, AnalyticsRecord.from_dict, reference_record_from_dict,
               reference_record_to_dict),
}


class TestCodecsEqualTheFieldByFieldReference:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), name=st.sampled_from(sorted(CODECS)))
    def test_decode_gives_the_same_value_or_the_same_error(self, data, name):
        strategy, decode, reference, reference_to_dict = CODECS[name]
        body = data.draw(strategy, label="body")
        got, expected = outcome(decode, body), outcome(reference, body)
        assert got == expected
        if got[0] == "value":
            encoded = got[1].to_dict()
            assert encoded == reference_to_dict(got[1])
            assert list(encoded) == list(reference_to_dict(got[1]))
            assert canonical_json(encoded) == canonical_json(reference_to_dict(expected[1]))

    def test_the_bodies_reach_both_outcomes(self):
        # the property above is only as good as its mix: every codec must
        # see bodies that decode and bodies that are refused, each kind of
        # exception included. Each codec gets its own run: a drawn codec name
        # leaves the split between the codecs to Hypothesis.
        for name, (strategy, _, reference, _) in CODECS.items():
            seen = set()

            @settings(max_examples=300, deadline=None, database=None,
                      suppress_health_check=[HealthCheck.too_slow])
            @given(body=strategy)
            def collect(body):
                result = outcome(reference, body)
                seen.add(result[0] if result[0] == "value" else result[1].__name__)

            collect()
            assert {"value", "ProtocolError", "ValidationError"} <= seen, name

    @given(st.data())
    def test_to_dict_of_generated_values(self, data):
        kind = data.draw(st.sampled_from(list(ScenarioKind)))
        detections = tuple(
            Detection(Label(name, kind), data.draw(st.floats(0, 100)),
                      identity=(FaceIdentity(data.draw(st.text(max_size=3)),
                                             data.draw(st.sampled_from(list(FaceCategory))))
                                if kind is ScenarioKind.FACE_RECOGNITION else None),
                      box=data.draw(st.none() | st.tuples(*[st.floats(0, 1)] * 4)))
            for name in data.draw(st.lists(LABEL_NAMES.filter(str.isalpha).map(str.lower),
                                           max_size=3))
        )
        record = AnalyticsRecord("d:1", "d", "f", detections, "b", 0, 1, 0.0)
        frame = FrameSample("f", "d", data.draw(st.integers()),
                            frozenset(d.label for d in detections), kind,
                            data.draw(st.none() | st.text(max_size=3)))
        for value_, reference in [(record, reference_record_to_dict),
                                  (frame, reference_frame_to_dict)]:
            encoded = value_.to_dict()
            assert encoded == reference(value_) and list(encoded) == list(reference(value_))


# -- the row codecs against the value codecs --------------------------------------
#
# The cloud keeps each record as its row, read by AnalyticsRecord.row_from_dict;
# from_dict is from_row over the same reads and checks. One refusal table:
# both readers accept and refuse the same wire records, with the same error.

@st.composite
def wire_records(draw):
    """Well-formed wire records: every kind, shared and other labels, face
    identities, boxes, and a threshold at or below every confidence."""
    kind = draw(st.sampled_from(list(ScenarioKind)))
    face = kind is ScenarioKind.FACE_RECOGNITION
    confidences = draw(st.lists(st.floats(0, 100), max_size=3))
    detections = [Detection(
        Label(draw(st.sampled_from([*DEFAULT_VOCABULARY[kind], "zebra"])), kind), confidence,
        FaceIdentity(draw(st.text(max_size=3)), draw(st.sampled_from(list(FaceCategory))))
        if face and draw(st.booleans()) else None,
        draw(st.none() | st.tuples(*[st.floats(0, 1)] * 4))) for confidence in confidences]
    captured_at = draw(st.integers(0, 10 ** 6))
    record = AnalyticsRecord(f"d:{draw(st.integers(0, 99))}", "d", draw(st.text(max_size=3)),
                             tuple(detections), "aws-saas", captured_at,
                             captured_at + draw(st.integers(0, 500)),
                             draw(st.floats(0, min(confidences, default=100))))
    return record.to_dict()


def ingested_records():
    """The records of test_protocol.py's malformed /ingest requests and of the
    golden ingests."""
    from test_protocol import MALFORMED_REQUESTS

    records = [body["record"] for _, _, path, body, _ in MALFORMED_REQUESTS if path == "/ingest"]
    for golden in sorted((Path(__file__).parent / "golden").glob("*.json")):
        request = json.loads(golden.read_text(encoding="utf-8"))["request"]
        if request["path"] == "/ingest" and "record" in request["body"]:
            records.append(request["body"]["record"])
    return records


class TestRowCodecs:
    def read_both(self, data):
        """What both readers make of ``data``: "value", or the refusal's class name."""
        got = outcome(AnalyticsRecord.row_from_dict, data)
        expected = outcome(AnalyticsRecord.from_dict, data)
        if expected[0] == "error":
            assert got == expected
            return expected[1].__name__
        assert got[0] == "value", got
        row, record = got[1], expected[1]
        assert type(row) is tuple
        assert AnalyticsRecord.from_row(row) == record
        assert repr(AnalyticsRecord.from_row(row)) == expected[2]
        assert record.to_row() == row
        assert (canonical_json(AnalyticsRecord.row_to_dict(row))
                == canonical_json(record.to_dict()))
        return "value"

    def test_both_readers_agree_on_every_wire_record(self):
        seen = set()

        @settings(max_examples=400, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(data=RECORD_BODIES | wire_records())
        def compare(data):
            seen.add(self.read_both(data))

        compare()
        # the property is only as good as its mix
        assert {"value", "ProtocolError", "ValidationError"} <= seen, seen

    def test_both_readers_agree_on_the_ingest_tables_and_goldens(self):
        records = ingested_records()
        outcomes = [self.read_both(record) for record in records]
        assert len(records) > 10 and outcomes[-1] == "value"
        assert {"ProtocolError", "value"} <= set(outcomes)

    def test_a_row_holds_atoms_only(self):
        for kind in ScenarioKind:
            record = AnalyticsRecord("d:0", "d", "f", (Detection(
                Label(DEFAULT_VOCABULARY[kind][0], kind), 95.0,
                FaceIdentity("alice", FaceCategory.FAMILY)
                if kind is ScenarioKind.FACE_RECOGNITION else None, [0.0, 0.5, 0.5, 1.0]),),
                "aws-saas", 0, 1, 90.0)
            row = AnalyticsRecord.row_from_dict(record.to_dict())

            def atoms(item):
                if type(item) is tuple:
                    return all(map(atoms, item))
                return item is None or type(item) in (str, int, float)

            assert atoms(row) and row == record.to_row()
            (detection,) = row[3]
            # the vocabulary's own strings, not the wire's copies
            assert detection[0] is DEFAULT_VOCABULARY[kind][0] and detection[1] is kind._value_

    def test_a_stored_row_is_shared_and_untracked(self):
        service = CloudService(seed=0)
        secret = service.handle(ApiRequest("POST", "/devices/register",
                                           body={"device_id": "d"})).body["data"]["secret"]
        token = service.handle(ApiRequest("POST", "/devices/auth", body={
            "device_id": "d", "secret": secret})).body["data"]["session_token"]
        service.subscribe("ops")
        face = Detection(Label("face", ScenarioKind.FACE_RECOGNITION), 95.0,
                         FaceIdentity("alice", FaceCategory.FAMILY), (0.1, 0.2, 0.3, 0.4))
        record = AnalyticsRecord("d:0", "d", "f", (face,), "aws-saas", 0, 1, 90.0)
        response = service.handle(ApiRequest("POST", "/ingest", headers={"x-session-token": token},
                                             body={"record": record.to_dict()}))
        assert response.status == 200
        row = service.store.latest_row("d")
        assert service.stream._rows[0] is row and service.hub.subscription("ops").sent[0] is row
        # A collection untracks a tuple whose items are untracked already, and
        # may reach a row's inner tuples after the row itself: each collection
        # untracks at least the innermost tracked level, so four untrack all
        # of this row, its detections, its detection and the box.
        levels = [row, row[3], row[3][0], row[3][0][5]]
        for _ in levels:
            gc.collect()
        assert not any(map(gc.is_tracked, levels))
        assert service.store.latest("d") == record


# -- the detect response against the old decoder --------------------------------
#
# CloudClient.detect takes an exact array of exact objects inline, and _data an
# exact ``data`` object, reaching list_field()/field() only for the rest. This
# is the response decoder as it was written before, kept as the reference.

class Replies:
    """A stand-in service that answers every request with one response body."""

    def __init__(self, body):
        self.body = body

    def handle(self, request):
        return ApiResponse(200, self.body)


DETECT_FRAME = FrameSample("f", "d", 0, frozenset(), ScenarioKind.ANIMAL_DETECTION)


def detect_response(body):
    detections, _ = CloudClient(Replies(body)).detect("/detect/labels", DETECT_FRAME)
    return detections


def reference_detect_response(body):
    if not body.get("ok", False):
        error = body.get("error", {})
        raise ProtocolError(
            f"{error.get('code', 'error')}: {error.get('message', 'request failed')}"
        )
    data = field(body, "data", dict)
    return [Detection.from_dict(d) for d in list_field(data, "labels", dict)]


DETECT_RESPONSES = bodies({
    "ok": kinds(st.just(True), st.nothing(), st.just(False)),
    "data": kinds(bodies({"labels": DETECTION_ARRAYS}), st.nothing(), st.nothing()),
})


class TestDetectResponseEqualsTheOldDecoder:
    def test_decode_gives_the_same_detections_or_the_same_error(self):
        seen = set()

        @settings(max_examples=400, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(body=DETECT_RESPONSES)
        def compare(body):
            got = outcome(detect_response, body)
            assert got == outcome(reference_detect_response, body)
            seen.add(got[0] if got[0] == "value" else got[1].__name__)

        compare()
        # the property is only as good as its mix
        assert {"value", "ProtocolError", "ValidationError"} <= seen


# -- the read decoders against the old ones ------------------------------------
#
# QueryRequest.from_dict and the /activities handler take exact-typed values
# inline and reach field()/parse_int() only for the rest. These are the read
# decoders as they were written before, kept as the reference.

def reference_query_from_dict(data, now_ms):
    kind = field(data, "kind", QueryKind)
    start, end = field(data, "from", int, None), field(data, "to", int, None)
    range_ = None
    if start is not None or end is not None:
        range_ = (0 if start is None else start, now_ms if end is None else end)
    return QueryRequest(kind, field(data, "device_id", str), range_)


def reference_activities_params(params, now_ms):
    device = field(params, "device", str)
    from_ms = parse_int(params["from"], "from") if "from" in params else 0
    to_ms = parse_int(params["to"], "to") if "to" in params else now_ms
    return device, from_ms, to_ms


class ReadRecorder:
    """A stand-in store that keeps the arguments of the read it is asked for."""

    def get_activities(self, device_id, from_ms, to_ms):
        self.args = (device_id, from_ms, to_ms)
        return []

    activity_rows = get_activities  # the handler's read: the store's rows


def activities_params(params, now_ms):
    service = CloudService()
    service.advance_clock(now_ms)
    service.store = recorder = ReadRecorder()
    service._handle_activities(ApiRequest("GET", "/activities", query=params))
    return recorder.args


# what int() and parse_int take, and what they do not: a sign, non-ASCII
# digits, padding, underscores, and digit runs around int()'s 4,300 limit
DIGIT_STRINGS = (st.from_regex(r"-?[0-9]{1,6}", fullmatch=True) | st.just("-5")
                 | st.integers(4298, 4302).map(lambda n: "7" * n)
                 | st.integers(4298, 4302).map(lambda n: "-" + "7" * n))
NOT_DIGIT_STRINGS = st.sampled_from(["\u0661", "\u0669\u0669", "\u00b2", " 99 ", "1_0", "+5",
                                     "", "-", "--5", "5-"])
QUERY_INTS = kinds(st.integers(-5, 50) | st.integers() | st.just(-5), st.nothing(),
                   st.integers().map(Whole) | DIGIT_STRINGS | st.booleans())
QUERY_KINDS = kinds(st.sampled_from([kind.value for kind in QueryKind])
                    | st.sampled_from(list(QueryKind)),
                    st.sampled_from([kind.value for kind in QueryKind]).map(Text),
                    st.sampled_from([kind.name for kind in QueryKind]) | st.just([]))
QUERY_BODIES = bodies({"kind": QUERY_KINDS, "from": QUERY_INTS, "to": QUERY_INTS,
                       "device_id": strings()})
PARAM_INTS = kinds(DIGIT_STRINGS, st.nothing(),
                   NOT_DIGIT_STRINGS | DIGIT_STRINGS.map(Text) | st.just(-5))
ACTIVITIES_PARAMS = bodies({"device": strings(), "from": PARAM_INTS, "to": PARAM_INTS})


class TestReadDecodersEqualTheOldDecoders:
    @pytest.mark.parametrize("strategy,decode,reference", [
        (QUERY_BODIES, QueryRequest.from_dict, reference_query_from_dict),
        (ACTIVITIES_PARAMS, activities_params, reference_activities_params),
    ], ids=["query", "activities"])
    def test_decode_gives_the_same_value_or_the_same_error(self, strategy, decode, reference):
        seen = set()

        @settings(max_examples=400, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(data=strategy, now_ms=st.integers(0, 100))
        def compare(data, now_ms):
            got = outcome(lambda d: decode(d, now_ms), data)
            assert got == outcome(lambda d: reference(d, now_ms), data)
            seen.add(got[0] if got[0] == "value" else got[1].__name__)

        compare()
        # the property is only as good as its mix
        assert {"value", "ProtocolError"} <= seen
        if decode is QueryRequest.from_dict:
            assert "ValidationError" in seen  # a range query without a range, or inverted

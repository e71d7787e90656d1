"""Wire-protocol conformance: golden replay, endpoint inventory, HTTP binding."""

import http.client
import json
import re
import sys
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from doorsim.backends import DEFAULT_ROUTES, DETECT_ENDPOINTS, REMOTE_BACKEND_ID
from doorsim.cloud import CloudService
from doorsim.cloud.httpd import CloudHTTPServer, serve
from doorsim.cloud.service import ApiRequest, ROUTES
from doorsim.model import (
    DEFAULT_VOCABULARY, FaceCategory, FrameSample, Label, ScenarioKind, canonical_json,
)
from doorsim.transport import CloudClient, NetworkModel
from make_golden import GOLDEN_DIR, GOLDEN_SEED

DOCUMENTED_ENDPOINTS = {
    ("POST", "/devices/register"),
    ("POST", "/devices/auth"),
    ("POST", "/ingest"),
    ("GET", "/activities"),
    ("POST", "/query"),
    ("POST", "/faces/enroll"),
    ("POST", "/detect/faces"),
    ("POST", "/detect/moderation"),
    ("POST", "/detect/text"),
    ("POST", "/detect/labels"),
    ("POST", "/blobs"),
    ("GET", "/blobs/{ref}"),
    ("POST", "/custom-labels"),
}


def golden_steps():
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    assert paths, "golden files missing; run python3 tests/make_golden.py"
    return [json.loads(path.read_text()) for path in paths]


class TestGoldenReplay:
    def test_all_steps_round_trip_bit_exactly(self):
        service = CloudService(seed=GOLDEN_SEED)
        for step in golden_steps():
            request = step["request"]
            response = service.handle(ApiRequest(
                method=request["method"],
                path=request["path"],
                headers=request["headers"],
                body=request["body"],
                query=request["query"],
            ))
            actual = canonical_json({"status": response.status, "body": response.body})
            expected = canonical_json(step["response"])
            assert actual.encode() == expected.encode(), step["name"]

    def test_goldens_cover_every_documented_endpoint(self):
        covered = set()
        for step in golden_steps():
            path = step["request"]["path"]
            if path.startswith("/blobs/"):
                path = "/blobs/{ref}"
            covered.add((step["request"]["method"], path))
        assert DOCUMENTED_ENDPOINTS <= covered

    def test_goldens_include_unknown_face_fallback(self):
        by_name = {step["name"]: step for step in golden_steps()}
        enroll_index = [s["name"] for s in golden_steps()].index("enroll_face")
        known_index = [s["name"] for s in golden_steps()].index("detect_faces_known")
        unknown_index = [s["name"] for s in golden_steps()].index("detect_faces_unknown")
        assert enroll_index < known_index < unknown_index
        unknown = by_name["detect_faces_unknown"]["response"]["body"]["data"]
        assert unknown["face_matches"][0]["category"] == "unknown"


class TestGatewayInventory:
    def test_routes_are_exactly_the_documented_surface(self):
        inventory = set()
        for method, pattern, _ in ROUTES:
            path = "/blobs/{ref}" if pattern.startswith(r"/blobs/(") else pattern
            inventory.add((method, path))
        assert inventory == DOCUMENTED_ENDPOINTS
        assert len(ROUTES) == 13

    def test_unrouted_path_is_not_found(self):
        service = CloudService(seed=0)
        response = service.handle(ApiRequest("GET", "/nope"))
        assert response.status == 404
        assert response.body["ok"] is False

    def test_error_envelope_shape(self):
        service = CloudService(seed=0)
        response = service.handle(ApiRequest("POST", "/devices/register", body=None))
        assert response.status == 400
        assert set(response.body) == {"ok", "error"}
        assert set(response.body["error"]) == {"code", "message"}

    def test_malformed_detect_body_is_protocol_error(self):
        service = CloudService(seed=0)
        response = service.handle(ApiRequest("POST", "/detect/labels", body={"frame": {}}))
        assert response.status == 400
        assert response.body["error"]["code"] == "protocol"

    def test_unknown_collection_is_not_found(self):
        service = CloudService(seed=0)
        frame = {
            "frame_id": "f", "device_id": "d", "captured_at": 0,
            "scenario": "face_recognition", "truth_labels": ["face"],
            "truth_identity": "alice",
        }
        response = service.handle(ApiRequest(
            "POST", "/detect/faces", body={"frame": frame, "collection_id": "ghost"}
        ))
        assert response.status == 404

    def test_wrong_scenario_for_endpoint_is_routing_error(self):
        service = CloudService(seed=0)
        frame = {
            "frame_id": "f", "device_id": "d", "captured_at": 0,
            "scenario": "animal_detection", "truth_labels": ["dog"],
            "truth_identity": None,
        }
        response = service.handle(ApiRequest("POST", "/detect/moderation", body={"frame": frame}))
        assert response.status == 400
        assert response.body["error"]["code"] == "routing"


def frame_of(scenario):
    """A frame showing the first vocabulary label of its scenario."""
    return FrameSample(
        frame_id=f"f-{scenario.value}", device_id="door-1", captured_at=0,
        truth=frozenset({Label(DEFAULT_VOCABULARY[scenario][0], scenario)}),
        scenario=scenario,
        truth_identity="alice" if scenario is ScenarioKind.FACE_RECOGNITION else None,
    )


class TestDetectEndpointTable:
    @pytest.mark.parametrize("scenario", list(ScenarioKind), ids=lambda k: k.value)
    def test_every_scenario_has_exactly_one_endpoint(self, scenario):
        serving = [path for path, (_, scenarios) in DETECT_ENDPOINTS.items()
                   if scenario in scenarios]
        assert serving == [DEFAULT_ROUTES[scenario]]

    @pytest.mark.parametrize("path", list(DETECT_ENDPOINTS))
    def test_endpoint_serves_exactly_its_scenarios(self, path):
        field_name, scenarios = DETECT_ENDPOINTS[path]
        assert ("POST", path) in {(method, pattern) for method, pattern, _ in ROUTES}
        service = CloudService(seed=5)
        service.profiles[REMOTE_BACKEND_ID] = (
            service.profiles[REMOTE_BACKEND_ID].with_perfect_recall()
        )
        client = CloudClient(service, network=NetworkModel(seed=5))
        for scenario in ScenarioKind:
            frame = frame_of(scenario)
            response = service.handle(ApiRequest("POST", path, body={"frame": frame.to_dict()}))
            if scenario in scenarios:
                assert response.status == 200
                assert list(response.body["data"]) == [field_name]
                detections, _ = client.detect(path, frame)
                assert {d.label for d in detections} == frame.truth
            else:
                assert response.status == 400
                assert response.body["error"]["code"] == "routing"


GOOD_FRAME = {
    "frame_id": "f", "device_id": "d", "captured_at": 0,
    "scenario": "animal_detection", "truth_labels": ["dog"], "truth_identity": None,
}


def ingest_body(**overrides):
    record = {
        "event_id": "door-1:0", "device_id": "door-1", "frame_id": "f",
        "detections": [{"label": "dog", "kind": "animal_detection", "confidence": 95.0}],
        "backend_id": "aws-saas", "captured_at": 0, "detected_at": 10,
        "threshold_used": 70.0, **overrides,
    }
    return {"record": record}


# Malformed requests that once escaped CloudService.handle as raw exceptions
# (or, for a non-string identity, were accepted); each must be a 400 envelope.
MALFORMED_REQUESTS = [
    ("activities_from_not_int", "GET", "/activities", None, {"device": "d1", "from": "abc"}),
    ("activities_to_not_int", "GET", "/activities", None, {"device": "d1", "to": "x"}),
    ("custom_labels_count_not_int", "POST", "/custom-labels",
     {"name": "job", "example_count": "x"}, {}),
    ("custom_labels_count_object", "POST", "/custom-labels",
     {"name": "job", "example_count": {}}, {}),
    ("custom_labels_name_list", "POST", "/custom-labels",
     {"name": [1], "example_count": 3}, {}),
    ("register_attributes_int", "POST", "/devices/register",
     {"device_id": "door-9", "attributes": 5}, {}),
    ("register_device_id_list", "POST", "/devices/register", {"device_id": [1]}, {}),
    ("auth_device_id_list", "POST", "/devices/auth", {"device_id": [1], "secret": "s"}, {}),
    ("auth_secret_int", "POST", "/devices/auth", {"device_id": "door-1", "secret": 5}, {}),
    ("query_from_list", "POST", "/query",
     {"kind": "range_query", "device_id": "door-1", "from": [1]}, {}),
    ("query_device_id_list", "POST", "/query",
     {"kind": "latest_activity", "device_id": [1]}, {}),
    ("ingest_unknown_detection_kind", "POST", "/ingest",
     ingest_body(detections=[{"label": "dog", "kind": "nope", "confidence": 95.0}]), {}),
    ("ingest_detections_object", "POST", "/ingest",
     ingest_body(detections={"label": "dog"}), {}),
    ("ingest_event_id_int", "POST", "/ingest", ingest_body(event_id=5), {}),
    ("enroll_identity_int", "POST", "/faces/enroll", {"identity": 7, "category": "family"}, {}),
    ("enroll_collection_list", "POST", "/faces/enroll",
     {"identity": "alice", "category": "family", "collection_id": [1]}, {}),
    ("detect_label_not_string", "POST", "/detect/labels",
     {"frame": {**GOOD_FRAME, "truth_labels": [5]}}, {}),
    ("detect_collection_list", "POST", "/detect/labels",
     {"frame": GOOD_FRAME, "collection_id": [1]}, {}),
    ("blob_not_ascii", "POST", "/blobs", {"data_b64": "\u00e9"}, {}),
    # Accepted with a coerced value before the codecs were strict.
    ("ingest_frame_id_int", "POST", "/ingest", ingest_body(frame_id=5), {}),
    ("ingest_captured_at_string", "POST", "/ingest", ingest_body(captured_at="5"), {}),
    ("ingest_captured_at_float", "POST", "/ingest", ingest_body(captured_at=5.9), {}),
    ("ingest_captured_at_bool", "POST", "/ingest", ingest_body(captured_at=True), {}),
    ("ingest_backend_id_null", "POST", "/ingest", ingest_body(backend_id=None), {}),
    ("ingest_threshold_nan_string", "POST", "/ingest", ingest_body(threshold_used="nan"), {}),
    ("ingest_threshold_infinity", "POST", "/ingest",
     ingest_body(threshold_used=float("inf"), detections=[]), {}),
    ("ingest_confidence_string", "POST", "/ingest",
     ingest_body(detections=[{"label": "dog", "kind": "animal_detection", "confidence": "95"}]),
     {}),
    ("ingest_confidence_bool", "POST", "/ingest",
     ingest_body(detections=[{"label": "dog", "kind": "animal_detection", "confidence": True}]),
     {}),
    ("detect_frame_id_int", "POST", "/detect/labels", {"frame": {**GOOD_FRAME, "frame_id": 5}}, {}),
    ("detect_captured_at_bool", "POST", "/detect/labels",
     {"frame": {**GOOD_FRAME, "captured_at": True}}, {}),
    ("detect_truth_labels_string", "POST", "/detect/labels",
     {"frame": {**GOOD_FRAME, "truth_labels": "dog"}}, {}),
    ("query_from_bool", "POST", "/query",
     {"kind": "range_query", "device_id": "door-1", "from": True}, {}),
    ("query_from_float", "POST", "/query",
     {"kind": "range_query", "device_id": "door-1", "from": 1.9}, {}),
    ("custom_labels_count_bool", "POST", "/custom-labels",
     {"name": "job", "example_count": True}, {}),
    ("custom_labels_count_float", "POST", "/custom-labels",
     {"name": "job", "example_count": 2.7}, {}),
    ("custom_labels_count_string", "POST", "/custom-labels",
     {"name": "job", "example_count": "3"}, {}),
    ("register_attribute_value_list", "POST", "/devices/register",
     {"device_id": "door-9", "attributes": {"a": [1]}}, {}),
    # Integers in a query string are an optional "-" and ASCII digits.
    ("activities_non_ascii_digits", "GET", "/activities", None,
     {"device": "d1", "from": "\u0661", "to": "\u0669\u0669"}),
    ("activities_to_padded", "GET", "/activities", None, {"device": "d1", "to": " 99 "}),
    ("activities_from_underscore", "GET", "/activities", None,
     {"device": "d1", "from": "1_0", "to": "99"}),
]


BODY_KEYS = st.sampled_from([
    "device_id", "attributes", "secret", "record", "kind", "from", "to", "identity",
    "category", "collection_id", "frame", "data_b64", "name", "example_count",
])
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-5, 1000), st.floats(allow_nan=False),
        st.text(max_size=6),
        st.sampled_from(["door-1", "door-1:0", "dog", "animal_detection", "family", "aGk="]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4) | BODY_KEYS | st.sampled_from([
            "label", "confidence", "scenario", "truth_labels", "event_id", "detections",
            "captured_at", "frame_id",
        ]), children, max_size=5),
    ),
    max_leaves=10,
)


# A request envelope field of the wrong type: a method or path that is not a
# string, headers or a query that are not an object.
WRONG_ENVELOPES = st.one_of(
    st.tuples(st.sampled_from(["method", "path"]),
              JSON_VALUES.filter(lambda value: not isinstance(value, str))),
    st.tuples(st.sampled_from(["headers", "query"]),
              JSON_VALUES.filter(lambda value: not isinstance(value, dict))),
)
SESSION, ABSENT = object(), object()  # door-1's own token; no such header

# (id, method, path, headers, query, body, status, code); "{token}" in a
# header is door-1's session token.
MALFORMED_ENVELOPES = [
    ("token_list", "POST", "/ingest", {"x-session-token": [1]}, {}, None, 401, "auth_failed"),
    ("token_object", "POST", "/ingest", {"x-session-token": {"a": 1}}, {}, None,
     401, "auth_failed"),
    ("token_int", "POST", "/ingest", {"x-session-token": 5}, {}, None, 401, "auth_failed"),
    ("method_list", ["POST"], "/ingest", {"x-session-token": "{token}"}, {}, None,
     400, "protocol"),
    ("method_int", 5, "/ingest", {"x-session-token": "{token}"}, {}, None, 400, "protocol"),
    ("method_none", None, "/devices/register", {}, {}, {"device_id": "door-9"}, 400, "protocol"),
    ("path_list", "POST", ["/ingest"], {"x-session-token": "{token}"}, {}, None,
     400, "protocol"),
    ("get_path_list", "GET", ["/blobs/ab12"], {}, {}, None, 400, "protocol"),
    ("get_path_int", "GET", 7, {}, {}, None, 400, "protocol"),
    ("headers_none", "POST", "/ingest", None, {}, None, 400, "protocol"),
    ("headers_list", "POST", "/ingest", ["x-sim-time"], {}, None, 400, "protocol"),
    ("headers_none_register", "POST", "/devices/register", None, {}, {"device_id": "door-9"},
     400, "protocol"),
    ("query_none", "GET", "/activities", {"x-sim-time": "50"}, None, None, 400, "protocol"),
    ("query_list", "GET", "/activities", {"x-sim-time": "50"}, ["device"], None,
     400, "protocol"),
    ("query_none_ingest", "POST", "/ingest", {"x-session-token": "{token}"}, None, None,
     400, "protocol"),
]


def gateway_state(service):
    """What a rejected request must leave as it found it."""
    return (
        [entry.to_dict() for entry in service.stream.read_from(0)],
        service.store.all_records(),
        len(service.registry),
        dict(service.jobs._jobs),
        len(service.blobs),
        {cid: len(collection) for cid, collection in service.collections.items()},
        service.now_ms,
    )


def service_with_session():
    """A fresh service with door-1 registered, and door-1's session token."""
    service = CloudService(seed=0)
    secret = service.handle(ApiRequest(
        "POST", "/devices/register", body={"device_id": "door-1"}
    )).body["data"]["secret"]
    token = service.handle(ApiRequest(
        "POST", "/devices/auth", body={"device_id": "door-1", "secret": secret}
    )).body["data"]["session_token"]
    return service, token


class TestGatewayTotality:
    @pytest.fixture()
    def service_and_token(self):
        return service_with_session()

    @pytest.mark.parametrize(
        "method,path,body,query", [case[1:] for case in MALFORMED_REQUESTS],
        ids=[case[0] for case in MALFORMED_REQUESTS],
    )
    def test_malformed_request_is_protocol_error(self, service_and_token,
                                                 method, path, body, query):
        service, token = service_and_token
        response = service.handle(ApiRequest(
            method, path, headers={"x-session-token": token}, body=body, query=query,
        ))
        assert response.status == 400
        assert response.body["ok"] is False
        assert response.body["error"]["code"] == "protocol"

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        route=st.sampled_from(sorted(DOCUMENTED_ENDPOINTS)),
        body=st.one_of(
            st.none(), JSON_VALUES, st.dictionaries(BODY_KEYS, JSON_VALUES, max_size=5),
        ),
        query=st.dictionaries(st.sampled_from(["device", "from", "to"]), st.text(max_size=4)),
        token=st.sampled_from([SESSION, ABSENT]) | JSON_VALUES,
        sim_time=st.sampled_from([ABSENT, "5", "120"]) | JSON_VALUES,
        wrong=st.none() | WRONG_ENVELOPES,
    )
    def test_any_request_gets_an_envelope(self, route, body, query, token, sim_time, wrong):
        service, session = service_with_session()
        method, path = route
        headers = {}
        if token is not ABSENT:
            headers["x-session-token"] = session if token is SESSION else token
        if sim_time is not ABSENT:
            headers["x-sim-time"] = sim_time
        envelope = {"method": method, "path": path.replace("{ref}", "ab12"),
                    "headers": headers, "query": query}
        if wrong is not None:
            envelope[wrong[0]] = wrong[1]
        before = gateway_state(service)
        response = service.handle(ApiRequest(body=body, **envelope))
        if response.status == 200:
            assert response.body["ok"] is True and set(response.body) == {"ok", "data"}
        else:
            assert 400 <= response.status < 500
            assert response.body["ok"] is False
            assert set(response.body["error"]) == {"code", "message"}
            assert service.now_ms == before[-1]  # a refused request leaves the clock
        if wrong is not None:
            assert (response.status, response.body["error"]["code"]) == (400, "protocol")
            assert gateway_state(service) == before

    @pytest.mark.parametrize(
        "method,path,headers,query,body,status,code", [case[1:] for case in MALFORMED_ENVELOPES],
        ids=[case[0] for case in MALFORMED_ENVELOPES],
    )
    def test_malformed_envelope_is_refused_and_changes_nothing(
            self, service_and_token, method, path, headers, query, body, status, code):
        service, token = service_and_token
        if type(headers) is dict:
            headers = {"x-sim-time": "900", **{key: token if value == "{token}" else value
                                               for key, value in headers.items()}}
        before = gateway_state(service)
        response = service.handle(ApiRequest(
            method, path, headers=headers, body=body or ingest_body(), query=query,
        ))
        assert (response.status, response.body["ok"], response.body["error"]["code"]) == (
            status, False, code)
        assert gateway_state(service) == before

    @pytest.mark.parametrize(
        "method,path,body,query", [case[1:] for case in MALFORMED_REQUESTS],
        ids=[case[0] for case in MALFORMED_REQUESTS],
    )
    def test_malformed_request_changes_nothing(self, service_and_token,
                                               method, path, body, query):
        service, token = service_and_token
        before = gateway_state(service)
        service.handle(ApiRequest(
            method, path, headers={"x-session-token": token, "x-sim-time": "900"},
            body=body, query=query,
        ))
        assert gateway_state(service) == before

    @pytest.mark.parametrize("method,path,headers,status", [
        ("GET", "/nope", {"x-sim-time": "500"}, 404),
        ("POST", "/ingest", {"x-sim-time": "900", "x-session-token": "bogus"}, 401),
        ("POST", "/ingest", {"x-sim-time": "900", "x-session-token": "{token}"}, 400),
    ], ids=["unrouted", "bad_token", "no_record"])
    def test_refused_request_leaves_the_clock(self, service_and_token, method, path, headers,
                                              status):
        service, token = service_and_token
        headers = {key: token if value == "{token}" else value for key, value in headers.items()}
        response = service.handle(ApiRequest(method, path, headers=headers, body={}))
        assert (response.status, service.now_ms) == (status, 0)
        response = service.handle(ApiRequest(
            "GET", "/activities", headers={"x-sim-time": "700"}, query={"device": "door-1"},
        ))
        assert (response.status, service.now_ms) == (200, 700)

    @pytest.mark.parametrize("value", ["\u0665\u0660", " 50", "5_0", "+50", "5" * 5000],
                             ids=["arabic_indic", "padded", "underscore", "plus", "too_long"])
    def test_sim_time_header_takes_only_ascii_digits(self, value):
        service = CloudService(seed=0)
        response = service.handle(ApiRequest(
            "GET", "/activities", headers={"x-sim-time": value}, query={"device": "d1"},
        ))
        assert response.status == 400
        assert response.body["error"] == {"code": "protocol",
                                          "message": "x-sim-time must be an integer"}
        assert service.now_ms == 0
        response = service.handle(ApiRequest(
            "GET", "/activities", headers={"x-sim-time": "-5"}, query={"device": "d1"},
        ))
        assert response.status == 200 and service.now_ms == 0

    def test_well_formed_ingest_is_accepted(self, service_and_token):
        service, token = service_and_token
        response = service.handle(ApiRequest(
            "POST", "/ingest", headers={"x-session-token": token}, body=ingest_body(),
        ))
        assert response.status == 200


FACE_DETECTION = {
    "label": "face", "kind": "face_recognition", "confidence": 95.0,
    "identity": "alice", "category": "family", "box": [0.0, 0.25, 0.5, 1.0],
}
VALID_BODIES = {
    "/ingest": ingest_body(detections=[FACE_DETECTION]),
    "/detect/labels": {"frame": GOOD_FRAME, "collection_id": "default"},
}


def decoded_fields():
    """(route, path to a value, the kind its getter reads, the field name an
    error must give) for every field the two routes decode from VALID_BODIES.
    An int step in a path is a list index."""
    record, frame = ("record",), ("frame",)
    detection = record + ("detections", 0)
    fields = [
        ("/ingest", record, dict, "record"),
        ("/ingest", record + ("detections",), list, "detections"),
        ("/ingest", detection, dict, "detections"),
        ("/ingest", detection + ("box",), list, "box"),
        ("/ingest", detection + ("box", 2), float, "box"),
        ("/detect/labels", frame, dict, "frame"),
        ("/detect/labels", ("collection_id",), str, "collection_id"),
        ("/detect/labels", frame + ("truth_labels",), list, "truth_labels"),
        ("/detect/labels", frame + ("truth_labels", 0), str, "truth_labels"),
    ]
    fields += [("/ingest", record + (name,), kind, name) for name, kind in [
        ("event_id", str), ("device_id", str), ("frame_id", str), ("backend_id", str),
        ("captured_at", int), ("detected_at", int), ("threshold_used", float),
    ]]
    fields += [("/ingest", detection + (name,), kind, name) for name, kind in [
        ("label", str), ("kind", ScenarioKind), ("confidence", float),
        ("identity", str), ("category", FaceCategory),
    ]]
    fields += [("/detect/labels", frame + (name,), kind, name) for name, kind in [
        ("frame_id", str), ("device_id", str), ("captured_at", int),
        ("scenario", ScenarioKind), ("truth_identity", str),
    ]]
    return fields


NAN = st.just(float("nan"))
NUMBERS = st.integers() | st.floats()
STRINGS = st.text(max_size=4) | st.integers().map(str)


def wrong_values(kind):
    """JSON values of the wrong type for a field of ``kind``, NaN among them."""
    if kind in (int, float):
        return st.booleans() | STRINGS | NAN
    if kind is str:
        return NUMBERS
    if kind in (dict, list):
        return NUMBERS | STRINGS
    values = {member.value for member in kind}
    return st.text(max_size=8).filter(lambda text: text not in values) | NUMBERS


class TestStrictFields:
    @pytest.mark.parametrize("path", sorted(VALID_BODIES))
    def test_valid_bodies_are_accepted(self, path):
        service, token = service_with_session()
        response = service.handle(ApiRequest(
            "POST", path, headers={"x-session-token": token}, body=VALID_BODIES[path],
        ))
        assert response.status == 200, response.body

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), target=st.sampled_from(decoded_fields()))
    def test_one_wrong_typed_field_is_a_protocol_error_naming_it(self, data, target):
        route, steps, kind, name = target
        body = json.loads(json.dumps(VALID_BODIES[route]))
        parent = body
        for step in steps[:-1]:
            parent = parent[step]
        parent[steps[-1]] = data.draw(wrong_values(kind), label=name)
        service, token = service_with_session()
        before = gateway_state(service)
        response = service.handle(ApiRequest(
            "POST", route, headers={"x-session-token": token}, body=body,
        ))
        assert response.status == 400
        assert response.body["error"]["code"] == "protocol"
        assert re.match(f"(an item of )?{name} must be ", response.body["error"]["message"])
        assert gateway_state(service) == before


class TestWireLabels:
    @pytest.mark.parametrize("route,body", [
        ("/ingest", ingest_body(detections=[
            {"label": "Dog", "kind": "animal_detection", "confidence": 95.0}])),
        ("/detect/labels", {"frame": {**GOOD_FRAME, "truth_labels": ["Dog"]}}),
    ], ids=["ingest", "detect"])
    def test_a_label_that_is_not_lowercase_is_a_validation_error(self, route, body):
        service, token = service_with_session()
        response = service.handle(ApiRequest(
            "POST", route, headers={"x-session-token": token}, body=body,
        ))
        assert response.status == 400
        assert response.body == {"ok": False, "error": {
            "code": "validation", "message": "label name must be a lowercase token: 'Dog'",
        }}
        assert len(service.stream) == 0

    def test_an_unknown_label_is_decoded_and_served(self):
        service, token = service_with_session()
        service.profiles[REMOTE_BACKEND_ID] = (
            service.profiles[REMOTE_BACKEND_ID].with_perfect_recall()
        )
        response = service.handle(ApiRequest(
            "POST", "/detect/labels", body={"frame": {**GOOD_FRAME, "truth_labels": ["zebra"]}},
        ))
        assert response.status == 200
        assert [d["label"] for d in response.body["data"]["labels"]] == ["zebra"]
        zebra = {"label": "zebra", "kind": "animal_detection", "confidence": 95.0}
        response = service.handle(ApiRequest(
            "POST", "/ingest", headers={"x-session-token": token},
            body=ingest_body(detections=[zebra]),
        ))
        assert response.status == 200
        (record,) = service.store.all_records()
        assert record.detections[0].label == Label("zebra", ScenarioKind.ANIMAL_DETECTION)


class TestEventIdSequence:
    """An ingest whose event sequence is not ASCII digits is a validation error."""

    @pytest.mark.parametrize("event_id", ["door-1:\u00b2", "door-1:\u0661", "door-1:x"],
                             ids=["superscript_two", "arabic_indic_one", "letter"])
    def test_non_ascii_digit_sequence_is_rejected(self, event_id):
        service, token = service_with_session()
        response = service.handle(ApiRequest(
            "POST", "/ingest", headers={"x-session-token": token},
            body=ingest_body(event_id=event_id),
        ))
        assert response.status == 400
        assert response.body == {"ok": False, "error": {
            "code": "validation", "message": f"malformed event id: {event_id!r}",
        }}
        assert len(service.stream) == 0 and len(service.store) == 0

    def test_sequence_beyond_the_int_digit_limit_is_rejected(self):
        service, token = service_with_session()
        response = service.handle(ApiRequest(
            "POST", "/ingest", headers={"x-session-token": token},
            body=ingest_body(event_id="door-1:" + "1" * 5000),
        ))
        assert response.status == 400
        assert response.body["error"]["code"] == "validation"
        assert len(service.stream) == 0

    def test_ascii_sequence_is_still_accepted_after_a_rejection(self):
        service, token = service_with_session()
        headers = {"x-session-token": token}
        service.handle(ApiRequest("POST", "/ingest", headers=headers,
                                  body=ingest_body(event_id="door-1:\u0661")))
        response = service.handle(ApiRequest("POST", "/ingest", headers=headers,
                                             body=ingest_body(event_id="door-1:1")))
        assert response.status == 200
        assert [r.event_id for r in service.store.all_records()] == ["door-1:1"]


@pytest.fixture()
def http_server():
    service = CloudService(seed=GOLDEN_SEED)
    server = CloudHTTPServer(("127.0.0.1", 0), service)
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpBinding:
    def _post(self, base, path, body, headers=None):
        request = urllib.request.Request(
            base + path, data=json.dumps(body).encode(), method="POST",
            headers={"content-type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_register_and_enroll_over_http(self, http_server):
        status, body = self._post(http_server, "/devices/register",
                                  {"device_id": "door-1"})
        assert status == 200 and body["ok"]
        status, body = self._post(http_server, "/faces/enroll",
                                  {"identity": "alice", "category": "family"})
        assert status == 200 and body["data"]["enrolled"] == 1

    def test_http_responses_match_in_process_bytes(self, http_server):
        # same seed, same first request: the HTTP payload must be the
        # canonical encoding of the in-process response
        in_process = CloudService(seed=GOLDEN_SEED).handle(ApiRequest(
            "POST", "/devices/register",
            body={"device_id": "door-1", "attributes": {"location": "front"}},
            headers={"x-sim-time": "0"},
        ))
        request = urllib.request.Request(
            http_server + "/devices/register",
            data=json.dumps({"device_id": "door-1",
                             "attributes": {"location": "front"}}).encode(),
            method="POST",
            headers={"content-type": "application/json", "x-sim-time": "0"},
        )
        with urllib.request.urlopen(request) as response:
            raw = response.read()
        assert raw == canonical_json(in_process.body).encode()

    # A content-length is ASCII digits only, as every integer on the wire: a
    # well-formed 19-byte body does not make "+19" or "1_9" acceptable.
    @pytest.mark.parametrize("length,payload,message", [
        ("abc", b"{}", "content-length"), ("-5", b"{}", "content-length"),
        ("2", b"\x80{", "body is not JSON"),
        ("+19", b'{"device_id":"d-1"}', "content-length"),
        ("1_9", b'{"device_id":"d-1"}', "content-length"),
        ("-0", b"", "content-length"),
    ], ids=["not_an_integer", "negative", "not_utf8", "plus_sign", "underscore", "minus_zero"])
    def test_bad_content_length_or_body_is_protocol_error(self, http_server, length, payload,
                                                          message):
        conn = http.client.HTTPConnection(urlsplit(http_server).netloc, timeout=10)
        try:
            conn.putrequest("POST", "/devices/register")
            conn.putheader("content-length", length)
            conn.endheaders()
            conn.send(payload)
            response = conn.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            conn.close()
        assert status == 400
        assert body["ok"] is False
        assert body["error"]["code"] == "protocol"
        assert message in body["error"]["message"]

    def test_nan_in_a_body_is_protocol_error(self, http_server):
        _, body = self._post(http_server, "/devices/register", {"device_id": "door-1"})
        _, body = self._post(http_server, "/devices/auth",
                             {"device_id": "door-1", "secret": body["data"]["secret"]})
        raw = json.dumps(ingest_body()).replace('"threshold_used": 70.0',
                                                '"threshold_used": NaN')
        assert "NaN" in raw
        request = urllib.request.Request(
            http_server + "/ingest", data=raw.encode(), method="POST",
            headers={"content-type": "application/json",
                     "x-session-token": body["data"]["session_token"]},
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400
        with caught.value:
            error = json.loads(caught.value.read())["error"]
        assert error == {"code": "protocol", "message": "threshold_used must be a finite number"}

    def test_get_blob_over_http(self, http_server):
        import base64

        payload = base64.b64encode(b"clip").decode()
        _, body = self._post(http_server, "/blobs", {"data_b64": payload})
        ref = body["data"]["ref"]
        with urllib.request.urlopen(f"{http_server}/blobs/{ref}") as response:
            fetched = json.loads(response.read())
        assert fetched["data"]["data_b64"] == payload


def registered_service(seed, device_ids):
    """A service with an ``operator`` subscription and each device registered
    and authenticated in order; returns it and the session token per device."""
    service = CloudService(seed=seed)
    service.subscribe("operator")
    tokens = {}
    for device_id in device_ids:
        secret = service.handle(ApiRequest(
            "POST", "/devices/register", body={"device_id": device_id}
        )).body["data"]["secret"]
        tokens[device_id] = service.handle(ApiRequest(
            "POST", "/devices/auth", body={"device_id": device_id, "secret": secret}
        )).body["data"]["session_token"]
    return service, tokens


class TestConcurrentHttpIngest:
    THREADS = 8
    EVENTS_PER_THREAD = 25
    SEED = 11

    def device_requests(self, index, device_id, token):
        """One thread's ingests: its own device, rising sequences and sim
        times interleaved with the other threads', every fifth one re-sent."""
        requests = []
        for seq in range(self.EVENTS_PER_THREAD):
            at = 1000 * seq + index
            headers = {"x-session-token": token, "x-sim-time": str(at)}
            body = ingest_body(event_id=f"{device_id}:{seq}", device_id=device_id,
                               frame_id=f"{device_id}-f{seq}", captured_at=at,
                               detected_at=at + 5)
            requests.append((headers, body))
            if seq % 5 == 0:
                requests.append((headers, body))
        return requests

    def test_threads_equal_a_serial_replay_in_sequence_order(self):
        device_ids = [f"door-{i}" for i in range(self.THREADS)]
        service, tokens = registered_service(self.SEED, device_ids)
        requests = {device_id: self.device_requests(i, device_id, tokens[device_id])
                    for i, device_id in enumerate(device_ids)}
        server = serve(service, port=0)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        answered = []  # (response data, headers, body), appended by every thread
        errors = []

        def post_all(device_id):
            try:
                for headers, body in requests[device_id]:
                    request = urllib.request.Request(
                        base + "/ingest", data=json.dumps(body).encode(), method="POST",
                        headers={"content-type": "application/json", **headers},
                    )
                    with urllib.request.urlopen(request, timeout=10) as response:
                        answered.append((json.loads(response.read())["data"], headers, body))
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost update
        try:
            threads = [threading.Thread(target=post_all, args=(device_id,))
                       for device_id in device_ids]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
        assert errors == []
        assert len(answered) == sum(map(len, requests.values()))
        answered.sort(key=lambda item: item[0]["sequence"])
        assert [data["sequence"] for data, _, _ in answered] == list(range(len(answered)))

        replay, replay_tokens = registered_service(self.SEED, device_ids)
        assert replay_tokens == tokens
        for data, headers, body in answered:
            response = replay.handle(ApiRequest("POST", "/ingest", headers=headers, body=body))
            assert response.body == {"ok": True, "data": data}

        assert ([entry.to_dict() for entry in service.stream.read_from(0)]
                == [entry.to_dict() for entry in replay.stream.read_from(0)])
        assert service.store.all_records() == replay.store.all_records()
        assert len(service.store) == self.THREADS * self.EVENTS_PER_THREAD
        assert (service.hub.subscription("operator").delivery_log
                == replay.hub.subscription("operator").delivery_log)
        assert service.now_ms == replay.now_ms

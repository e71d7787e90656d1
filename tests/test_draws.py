from dataclasses import replace
from hashlib import sha256

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doorsim import transport
from doorsim.backends import (
    DEFAULT_PROFILES,
    DEFAULT_ROUTES,
    BackendCategory,
    BackendProfile,
    ConfidenceModel,
    FaceCollection,
    RemoteBackend,
    simulate_detections,
)
from doorsim.cloud import CloudService
from doorsim.draws import choice_draw, int_draw, key_prefix, unit_draw
from doorsim.edge import EdgeConfig, EdgePipeline
from doorsim.errors import ValidationError
from doorsim.model import (
    DEFAULT_VOCABULARY,
    AnalyticsRecord,
    Detection,
    FaceCategory,
    FaceIdentity,
    FrameSample,
    Label,
    MotionEvent,
    ScenarioKind,
)
from doorsim.transport import CloudClient, NetworkModel


class TestUnitDraw:
    @given(st.lists(st.one_of(st.text(), st.integers()), min_size=1, max_size=5))
    def test_in_unit_interval(self, parts):
        value = unit_draw(*parts)
        assert 0.0 <= value < 1.0

    def test_deterministic(self):
        assert unit_draw("emit", 7, "aws-saas", "f0") == unit_draw("emit", 7, "aws-saas", "f0")

    def test_key_parts_matter(self):
        assert unit_draw("a", 1) != unit_draw("a", 2)
        assert unit_draw("a", 1) != unit_draw("b", 1)

    def test_separator_prevents_part_collisions(self):
        assert unit_draw("ab", "c") != unit_draw("a", "bc")

    @given(st.lists(st.one_of(st.text(), st.integers()), min_size=1, max_size=5))
    @example([7])
    @example([""])
    @example(["emit\x1f7\x1faws-saas\x1ff0\x1fdog"])
    @example([2**64 - 1, "", -(2**70)])
    def test_equals_the_formula(self, parts):
        assert unit_draw(*parts) == reference_unit_draw(*parts)

    def test_no_parts_draw_over_the_empty_text(self):
        assert unit_draw() == reference_unit_draw() == unit_draw("")

    @given(st.lists(st.one_of(st.text(), st.integers()), min_size=1, max_size=4),
           st.lists(st.one_of(st.text(), st.integers()), max_size=3))
    def test_a_key_prefix_stands_for_its_parts(self, head, tail):
        assert unit_draw(key_prefix(*head), *tail) == unit_draw(*head, *tail)


class TestRangedDraws:
    @given(st.integers(-50, 50), st.integers(0, 50), st.text(max_size=8))
    def test_int_draw_is_within_inclusive_bounds(self, lo, width, key):
        value = int_draw(lo, lo + width, key)
        assert lo <= value <= lo + width

    def test_int_draw_covers_both_endpoints(self):
        values = {int_draw(0, 1, "coin", i) for i in range(100)}
        assert values == {0, 1}

    def test_int_draw_rejects_empty_range(self):
        with pytest.raises(ValueError):
            int_draw(3, 2, "x")

    def test_choice_draw_picks_from_options(self):
        options = ("dog", "cat")
        seen = {choice_draw(options, "pick", i) for i in range(50)}
        assert seen == {"dog", "cat"}

    def test_choice_draw_rejects_empty(self):
        with pytest.raises(ValueError):
            choice_draw((), "x")


def one_way_delays(network, frame_ids, at=1000):
    """The (c2s, s2c) delays of one detect call per frame id on one client,
    read off the x-sim-time each request carried and the time the call
    returned."""
    recorder = Recorder()
    client = CloudClient(recorder, network=network)
    delays = []
    for frame_id in frame_ids:
        frame = FrameSample(frame_id, "door-1", at, frozenset(), ScenarioKind.ANIMAL_DETECTION)
        _, done = client.detect("/detect/labels", frame)
        arrive = recorder.arrivals[-1]
        delays.append((arrive - at, done - arrive))
    return delays


class TestNetworkModel:
    def test_zero_jitter_is_constant(self):
        network = NetworkModel(base_delay_ms=40, jitter_ms=0)
        assert set(one_way_delays(network, [f"f{i}" for i in range(20)])) == {(40, 40)}

    def test_jitter_stays_within_bounds(self):
        network = NetworkModel(base_delay_ms=40, jitter_ms=10, seed=1)
        delays = [d for pair in one_way_delays(network, [f"f{i}" for i in range(250)])
                  for d in pair]
        assert all(30 <= d <= 50 for d in delays)
        assert min(delays) < 35 and max(delays) > 45

    def test_same_key_same_delay(self):
        network = NetworkModel(seed=2)
        first, again, other = one_way_delays(network, ["f0", "f0", "f1"])
        assert first == again
        assert one_way_delays(network, ["f1", "f0"]) == [other, first]  # a fresh client

    def test_jitter_must_not_exceed_base(self):
        with pytest.raises(ValidationError):
            NetworkModel(base_delay_ms=5, jitter_ms=10)


# The draw and the per-frame draw sites as they were written over the
# original key parts, through int_draw and choice_draw, with the draw's own
# formula spelled out here so that a rewritten unit_draw is checked against
# it and not against itself. The sites now pass one pre-joined key string
# per draw; every draw must be equal.

def reference_unit_draw(*parts):
    digest = sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def reference_int_draw(lo, hi, *parts):
    return lo + int(reference_unit_draw(*parts) * (hi - lo + 1))


def reference_one_way_ms(network, *key):
    if network.jitter_ms == 0:
        return network.base_delay_ms
    return network.base_delay_ms + reference_int_draw(
        -network.jitter_ms, network.jitter_ms, "net", network.seed, *key
    )


def reference_confidence(model, spurious, *key):
    mean, spread = (model.fp_mean, model.fp_spread) if spurious else (
        model.true_mean, model.true_spread)
    return min(100.0, max(0.0, mean - spread + 2.0 * spread * reference_unit_draw(*key)))


def reference_simulate_detections(frame, profile, seed, collection=None):
    scenario, backend_id = frame.scenario, profile.backend_id
    detections = []
    for label in sorted(frame.truth, key=lambda l: l.name):
        if reference_unit_draw("emit", seed, backend_id, frame.frame_id,
                               label.name) >= profile.recall_for(scenario):
            continue
        confidence = reference_confidence(
            profile.confidence, False, "conf", seed, backend_id, frame.frame_id, label.name)
        identity = None
        if scenario is ScenarioKind.FACE_RECOGNITION:
            token = frame.truth_identity or "unknown"
            missed = (reference_unit_draw("face-miss", seed, backend_id, frame.frame_id)
                      < profile.effective_face_miss_rate)
            identity = (FaceIdentity(token, FaceCategory.UNKNOWN)
                        if missed or collection is None else collection.search(token))
        detections.append(Detection(label=label, confidence=confidence, identity=identity))
    if not frame.truth:
        if reference_unit_draw("fp", seed, backend_id, frame.frame_id) < profile.false_positive_rate:
            vocabulary = DEFAULT_VOCABULARY[scenario]
            name = vocabulary[reference_int_draw(
                0, len(vocabulary) - 1, "fp-label", seed, backend_id, frame.frame_id)]
            confidence = reference_confidence(
                profile.confidence, True, "fp-conf", seed, backend_id, frame.frame_id)
            identity = None
            if scenario is ScenarioKind.FACE_RECOGNITION:
                identity = FaceIdentity("unknown", FaceCategory.UNKNOWN)
            detections.append(
                Detection(label=Label(name, scenario), confidence=confidence, identity=identity))
    return detections


SEEDS = st.integers() | st.integers(-(2 ** 70), 2 ** 70)
KEYS = st.text(max_size=12) | st.integers()
UNIT = st.floats(0, 1)


@st.composite
def networks(draw):
    base = draw(st.integers(0, 10 ** 6))
    jitter = draw(st.sampled_from([0, base]) | st.integers(0, base))
    return NetworkModel(base_delay_ms=base, jitter_ms=jitter, seed=draw(SEEDS))


@st.composite
def frames(draw):
    scenario = draw(st.sampled_from(list(ScenarioKind)))
    names = draw(st.sets(st.sampled_from(DEFAULT_VOCABULARY[scenario])
                         | st.sampled_from(["bicycle", "x"]), max_size=4))
    return FrameSample(
        frame_id=draw(st.text(max_size=8)), device_id="door-1", captured_at=0,
        truth=frozenset(Label(name, scenario) for name in names), scenario=scenario,
        truth_identity=draw(st.none() | st.sampled_from(["alice", "bob", ""])),
    )


@st.composite
def profiles(draw):
    spreads = st.floats(-20, 40)
    return BackendProfile(
        backend_id=draw(st.text(max_size=8)),
        category=BackendCategory.ON_DEVICE_ML,
        memory_mb=1.0,
        cpu_pct=1.0,
        service_time_ms=draw(st.integers(0, 100)),
        per_scenario_recall={kind: draw(UNIT) for kind in ScenarioKind},
        false_positive_rate=draw(st.sampled_from([0.0, 1.0]) | UNIT),
        confidence=ConfidenceModel(draw(st.floats(0, 100)), draw(spreads),
                                   draw(st.floats(0, 100)), draw(spreads)),
        face_miss_rate=draw(st.none() | UNIT),
    )


class TestDrawSitesEqualTheirFormulas:
    @settings(max_examples=60, deadline=None)
    @given(networks(), frames(), st.integers(0, 10**9), st.integers(0, 100))
    def test_client_round_trip(self, network, frame, at, service_time):
        # a remote detect's latency, and its record's, is the keyed round trip
        frame = frame.stamped("door-1", at)
        key = f"detect:{frame.frame_id}"
        expected = (reference_one_way_ms(network, "c2s", key) + service_time
                    + reference_one_way_ms(network, "s2c", key))
        client = CloudClient(CloudService(), network=network)
        profile = replace(DEFAULT_PROFILES["aws-saas"], service_time_ms=service_time)
        backend = RemoteBackend(client, profile)
        assert backend.detect(frame)[1] == expected
        record = EdgePipeline(EdgeConfig(), backend, client).analyze(
            MotionEvent("door-1", at, "door-1:0"), frame)
        assert record.detected_at - record.captured_at == expected

    @given(profiles(), st.booleans(), st.lists(KEYS, max_size=5))
    def test_confidence_draw(self, profile, spurious, key):
        model = profile.confidence
        assert model.draw(spurious, *key) == reference_confidence(model, spurious, *key)

    @settings(max_examples=300)
    @given(frames(), profiles(), SEEDS, st.booleans())
    def test_simulate_detections(self, frame, profile, seed, with_collection):
        collection = None
        if with_collection:
            collection = FaceCollection()
            collection.enroll("alice", FaceCategory.FAMILY)
        actual = simulate_detections(frame, profile, seed, collection)
        expected = reference_simulate_detections(frame, profile, seed, collection)
        assert actual == expected

    @given(frames(), SEEDS)
    def test_the_cloud_detect_route_draws_the_same(self, frame, seed):
        service = CloudService(seed=seed)
        client = CloudClient(service, network=NetworkModel(seed=seed))
        path = {ScenarioKind.FACE_RECOGNITION: "/detect/faces",
                ScenarioKind.UNSAFE_CONTENT: "/detect/moderation",
                ScenarioKind.NOTEWORTHY_VEHICLE: "/detect/text"}.get(frame.scenario,
                                                                   "/detect/labels")
        expected = reference_simulate_detections(
            frame, service.profiles["aws-saas"], seed, service.collections["default"])
        assert client.detect(path, frame)[0] == expected


# -- the client's inlined delays -------------------------------------------------
#
# CloudClient draws both one-way delays of a round trip inline. The arrival
# time a request carries in x-sim-time and the ingest acknowledgement time
# appear in no report, golden or benchmark digest, so they are checked here.

class Recorder:
    """The gateway, with the x-sim-time of each request written down."""

    def __init__(self):
        self.service = CloudService()
        self.arrivals = []

    def handle(self, request):
        self.arrivals.append(int(request.headers["x-sim-time"]))
        return self.service.handle(request)


def registered_client(network):
    recorder = Recorder()
    client = CloudClient(recorder, network=network)
    _, secret = client.register_device("door-1")
    return recorder, client, client.authenticate("door-1", secret)


class TestClientDelaysEqualTheirFormula:
    @settings(max_examples=60, deadline=None)
    @given(networks(), frames(), st.integers(0, 10**9))
    def test_detect_arrives_and_returns_at_the_keyed_delays(self, network, frame, at):
        recorder, client, _ = registered_client(network)
        frame = frame.stamped("door-1", at)
        _, done = client.detect(DEFAULT_ROUTES[frame.scenario], frame)
        key = f"detect:{frame.frame_id}"
        arrive = at + reference_one_way_ms(network, "c2s", key)
        assert recorder.arrivals[-1] == arrive
        assert done == arrive + reference_one_way_ms(network, "s2c", key)

    @settings(max_examples=60, deadline=None)
    @given(networks(), st.text(max_size=8), st.lists(st.integers(0, 10**9), min_size=1,
                                                     max_size=4))
    def test_each_ingest_attempt_draws_its_own_delays(self, network, frame_id, ats):
        recorder, client, session = registered_client(network)
        record = AnalyticsRecord("door-1:0", "door-1", frame_id, (), "aws-saas", 0, 0, 70.0)
        for attempt, at in enumerate(ats):  # a retry repeats the record, not its key
            ack = client.ingest(record, session, at_ms=at, attempt=attempt)
            key = f"ingest:door-1:0:{attempt}"
            arrive = at + reference_one_way_ms(network, "c2s", key)
            assert recorder.arrivals[-1] == arrive
            assert ack.acked_at == arrive + reference_one_way_ms(network, "s2c", key)
            assert (ack.attempts, ack.duplicate) == (attempt + 1, attempt > 0)

    def test_no_jitter_makes_no_draw(self, monkeypatch):
        def refuse(*parts):
            raise AssertionError(f"drew {parts!r}")

        network = NetworkModel(base_delay_ms=40, jitter_ms=0, seed=3)
        monkeypatch.setattr(transport, "unit_draw", refuse)
        recorder, client, session = registered_client(network)
        frame = FrameSample("f", "door-1", 100, frozenset(), ScenarioKind.ANIMAL_DETECTION)
        backend = RemoteBackend(client, DEFAULT_PROFILES["aws-saas"])
        assert backend.detect(frame)[1] == 105
        record = AnalyticsRecord("door-1:0", "door-1", "f", (), "aws-saas", 100, 100, 70.0)
        ack = client.ingest(record, session, at_ms=200, attempt=1)
        assert recorder.arrivals[-2:] == [140, 240]
        assert ack.acked_at == 280
        assert backend.detect(frame.stamped("door-1", 500))[1] == 105

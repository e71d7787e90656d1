import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doorsim.backends import (
    BackendCategory,
    BackendProfile,
    ConfidenceModel,
    FaceCollection,
    simulate_detections,
)
from doorsim.cloud import CloudService
from doorsim.draws import choice_draw, int_draw, key_prefix, unit_draw
from doorsim.errors import ValidationError
from doorsim.model import (
    DEFAULT_VOCABULARY,
    Detection,
    FaceCategory,
    FaceIdentity,
    FrameSample,
    Label,
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


class TestNetworkModel:
    def test_zero_jitter_is_constant(self):
        network = NetworkModel(base_delay_ms=40, jitter_ms=0)
        assert network.one_way_ms("any", "key") == 40

    def test_jitter_stays_within_bounds(self):
        network = NetworkModel(base_delay_ms=40, jitter_ms=10, seed=1)
        delays = [network.one_way_ms("c2s", i) for i in range(500)]
        assert all(30 <= d <= 50 for d in delays)
        assert min(delays) < 35 and max(delays) > 45

    def test_same_key_same_delay(self):
        network = NetworkModel(seed=2)
        assert network.one_way_ms("c2s", "f0") == network.one_way_ms("c2s", "f0")

    def test_jitter_must_not_exceed_base(self):
        with pytest.raises(ValidationError):
            NetworkModel(base_delay_ms=5, jitter_ms=10)


# The per-frame draw sites as they were written over the original key parts,
# through int_draw, choice_draw and unit_draw. The sites now join their
# constant parts once and call unit_draw directly; every draw must be equal.

def reference_one_way_ms(network, *key):
    if network.jitter_ms == 0:
        return network.base_delay_ms
    return network.base_delay_ms + int_draw(
        -network.jitter_ms, network.jitter_ms, "net", network.seed, *key
    )


def reference_confidence(model, spurious, *key):
    mean, spread = (model.fp_mean, model.fp_spread) if spurious else (
        model.true_mean, model.true_spread)
    return min(100.0, max(0.0, mean - spread + 2.0 * spread * unit_draw(*key)))


def reference_simulate_detections(frame, scenario, profile, seed, collection=None):
    backend_id = profile.backend_id
    detections = []
    for label in sorted(frame.truth, key=lambda l: l.name):
        if unit_draw("emit", seed, backend_id, frame.frame_id, label.name) >= profile.recall_for(
                scenario):
            continue
        confidence = reference_confidence(
            profile.confidence, False, "conf", seed, backend_id, frame.frame_id, label.name)
        identity = None
        if scenario is ScenarioKind.FACE_RECOGNITION:
            token = frame.truth_identity or "unknown"
            missed = (unit_draw("face-miss", seed, backend_id, frame.frame_id)
                      < profile.effective_face_miss_rate)
            identity = (FaceIdentity(token, FaceCategory.UNKNOWN)
                        if missed or collection is None else collection.search(token))
        detections.append(Detection(label=label, confidence=confidence, identity=identity))
    if not frame.truth:
        if unit_draw("fp", seed, backend_id, frame.frame_id) < profile.false_positive_rate:
            name = choice_draw(
                DEFAULT_VOCABULARY[scenario], "fp-label", seed, backend_id, frame.frame_id)
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
    @given(networks(), st.lists(KEYS, max_size=3))
    def test_one_way_ms(self, network, key):
        assert network.one_way_ms(*key) == reference_one_way_ms(network, *key)

    @given(networks(), st.sampled_from(["c2s", "s2c"]), KEYS)
    def test_keyed_ms_with_a_prebuilt_prefix(self, network, direction, key):
        prefix = key_prefix("net", network.seed, direction)
        assert network.keyed_ms(prefix, key) == reference_one_way_ms(network, direction, key)

    @given(networks(), st.text(max_size=8), st.integers(0, 100))
    def test_client_round_trip(self, network, frame_id, service_time):
        client = CloudClient(None, network=network)
        key = f"detect:{frame_id}"
        expected = (reference_one_way_ms(network, "c2s", key) + service_time
                    + reference_one_way_ms(network, "s2c", key))
        assert client.round_trip_ms(frame_id, service_time) == expected

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
        actual = simulate_detections(frame, frame.scenario, profile, seed, collection)
        expected = reference_simulate_detections(frame, frame.scenario, profile, seed, collection)
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
            frame, frame.scenario, service.profiles["aws-saas"], seed, service.collections["default"])
        assert client.detect(path, frame) == expected

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doorsim import device as device_module
from doorsim.dataset import Dataset
from doorsim.device import (
    DeviceRegistry,
    MotionScript,
    load_motion_script,
    run_motion_script,
    script_covering,
)
from doorsim.errors import AuthError, ConflictError, DatasetError, NotFoundError, ValidationError
from doorsim.model import EventIdFactory, FrameSample, ScenarioKind, format_event_id


def make_dataset(n=10, device_id="door-1"):
    frames = [
        FrameSample(
            frame_id=f"f{i}", device_id=device_id, captured_at=0,
            truth=frozenset(), scenario=ScenarioKind.ANIMAL_DETECTION,
        )
        for i in range(n)
    ]
    return Dataset(frames)


class TestRegistry:
    def test_register_returns_matching_fingerprint(self):
        registry = DeviceRegistry(rng=random.Random(1))
        record, credential = registry.register("door-1", {"location": "front"})
        assert record.credential_fingerprint == credential.fingerprint
        assert record.attributes == {"location": "front"}

    def test_duplicate_registration_conflicts(self):
        registry = DeviceRegistry(rng=random.Random(1))
        registry.register("door-1")
        with pytest.raises(ConflictError):
            registry.register("door-1")

    def test_100_registrations_have_distinct_fingerprints(self):
        # brute-force check over all generated credentials
        registry = DeviceRegistry(rng=random.Random(42))
        fingerprints = set()
        secrets = set()
        for i in range(100):
            record, credential = registry.register(f"door-{i}")
            fingerprints.add(record.credential_fingerprint)
            secrets.add(credential.secret)
        assert len(fingerprints) == 100
        assert len(secrets) == 100
        assert len(registry) == 100

    def test_authenticate_happy_path(self):
        registry = DeviceRegistry(rng=random.Random(1))
        _, credential = registry.register("door-1")
        token = registry.authenticate("door-1", credential.secret)
        assert registry.validate_session(token) == "door-1"

    def test_wrong_secret_fails(self):
        registry = DeviceRegistry(rng=random.Random(1))
        registry.register("door-1")
        with pytest.raises(AuthError):
            registry.authenticate("door-1", "00" * 32)

    def test_unknown_device_not_found(self):
        registry = DeviceRegistry(rng=random.Random(1))
        with pytest.raises(NotFoundError):
            registry.authenticate("ghost", "00" * 32)

    def test_authentication_is_deterministic(self):
        registry = DeviceRegistry(rng=random.Random(1))
        _, credential = registry.register("door-1")
        for _ in range(5):
            assert registry.authenticate("door-1", credential.secret)
            with pytest.raises(AuthError):
                registry.authenticate("door-1", "ff" * 32)

    def test_a_registry_without_an_rng_issues_the_same_secrets_and_tokens(self):
        issued = []
        for _ in range(2):
            registry = DeviceRegistry()
            _, credential = registry.register("door-1")
            issued.append((credential.secret, registry.authenticate("door-1", credential.secret)))
        assert issued[0] == issued[1]

    def test_invalid_session_rejected(self):
        registry = DeviceRegistry(rng=random.Random(1))
        with pytest.raises(AuthError):
            registry.validate_session("not-a-token")
        with pytest.raises(AuthError):
            registry.validate_session(None)

    def test_concurrent_registration_stays_unique(self):
        registry = DeviceRegistry(rng=random.Random(7))
        conflicts = []

        def worker():
            try:
                registry.register("door-shared")
            except ConflictError:
                conflicts.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(conflicts) == 7
        assert len(registry) == 1


@pytest.fixture
def switch_often():
    """Switch threads every microsecond, to expose a lost update."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def race(target, count=8):
    """Run ``target(i)`` on ``count`` threads released together; their results."""
    barrier = threading.Barrier(count, timeout=60)
    results = [None] * count

    def run(i):
        barrier.wait()
        try:
            results[i] = target(i)
        except Exception as exc:  # noqa: BLE001 - returned to the main thread
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestRegistryRaces:
    """The registry holds no lock: each shared step is one atomic dict or
    Random call, and one setdefault settles a race for an id."""

    def test_eight_threads_registering_one_id_leave_one_winner(self, switch_often):
        for round_ in range(20):
            registry = DeviceRegistry(rng=random.Random(round_))
            results = race(lambda i: registry.register("door-shared", {"thread": str(i)}))
            winners = [r for r in results if not isinstance(r, Exception)]
            assert len(winners) == 1
            assert sum(isinstance(r, ConflictError) for r in results) == 7
            assert len(registry) == 1
            record, credential = winners[0]
            assert registry.get("door-shared") is record
            assert registry.validate_session(
                registry.authenticate("door-shared", credential.secret)) == "door-shared"

    def test_eight_threads_authenticating_get_their_own_sessions(self, switch_often):
        registry = DeviceRegistry(rng=random.Random(3))
        secrets = [registry.register(f"door-{i}")[1].secret for i in range(8)]

        def sessions(i):
            tokens = []
            for _ in range(50):
                token = registry.authenticate(f"door-{i}", secrets[i])
                assert registry.validate_session(token) == f"door-{i}"
                tokens.append(token)
            return tokens

        results = race(sessions)
        assert not [r for r in results if isinstance(r, Exception)]
        tokens = [token for tokens in results for token in tokens]
        assert len(set(tokens)) == 8 * 50
        for i, own in enumerate(results):
            assert {registry.validate_session(token) for token in own} == {f"door-{i}"}

    def test_a_register_that_loses_its_id_between_check_and_claim_is_a_conflict(
            self, monkeypatch):
        registry = DeviceRegistry(rng=random.Random(5))
        real, calls, rival = device_module.fingerprint_secret, [], []

        def interleaved(secret):  # a rival claims the id after this caller's check
            calls.append(secret)
            if len(calls) == 1:
                rival.append(registry.register("door-1"))
            return real(secret)

        monkeypatch.setattr(device_module, "fingerprint_secret", interleaved)
        with pytest.raises(ConflictError, match="device already registered: door-1"):
            registry.register("door-1")
        record, credential = rival[0]
        assert registry.get("door-1") is record and len(registry) == 1
        assert registry.validate_session(registry.authenticate("door-1", credential.secret))

    def test_a_taken_id_is_refused_before_any_draw(self):
        rng = random.Random(9)
        registry = DeviceRegistry(rng=rng)
        registry.register("door-1")
        state = rng.getstate()
        with pytest.raises(ConflictError):
            registry.register("door-1")
        assert rng.getstate() == state


class TestMotionScript:
    def test_spacing_beyond_debounce_keeps_all(self):
        dataset = make_dataset(2)
        script = MotionScript("door-1", ((0, "f0"), (5000, "f1")), debounce_ms=1000)
        events = list(run_motion_script(script, dataset))
        assert len(events) == 2

    def test_debounce_drops_close_entries(self):
        dataset = make_dataset(3)
        script = MotionScript("door-1", ((0, "f0"), (200, "f1"), (400, "f2")), debounce_ms=1000)
        events = list(run_motion_script(script, dataset))
        assert len(events) == 1
        assert events[0][0].at == 0

    def test_debounce_measured_from_last_emitted(self):
        # 0 emitted, 800 dropped, 1100 emitted (>= 1000 after 0)
        dataset = make_dataset(3)
        script = MotionScript("door-1", ((0, "f0"), (800, "f1"), (1100, "f2")), debounce_ms=1000)
        events = list(run_motion_script(script, dataset))
        assert [e.at for e, _ in events] == [0, 1100]

    def test_unknown_frame_is_dataset_error(self):
        dataset = make_dataset(1)
        script = MotionScript("door-1", ((0, "missing"),))
        with pytest.raises(DatasetError):
            list(run_motion_script(script, dataset))

    def test_foreign_device_frame_rejected(self):
        dataset = make_dataset(1, device_id="door-2")
        script = MotionScript("door-1", ((0, "f0"),))
        with pytest.raises(DatasetError):
            list(run_motion_script(script, dataset))

    def test_entries_must_be_sorted(self):
        with pytest.raises(ValidationError):
            MotionScript("door-1", ((100, "f1"), (0, "f0")))

    def test_sequences_increase_and_frames_are_stamped(self):
        dataset = make_dataset(3)
        script = MotionScript("door-1", ((0, "f0"), (2000, "f1"), (4000, "f2")), debounce_ms=1000)
        events = list(run_motion_script(script, dataset))
        assert [e.event_id for e, _ in events] == ["door-1:0", "door-1:1", "door-1:2"]
        assert [f.captured_at for _, f in events] == [0, 2000, 4000]

    def test_random_scripts_match_replay_oracle(self):
        # independent replay of the debounce rule
        rng = random.Random(123)
        dataset = make_dataset(40)
        for _ in range(50):
            debounce = rng.choice([0, 250, 500, 1000, 2000])
            times = sorted(rng.randrange(0, 10_000) for _ in range(rng.randrange(1, 30)))
            entries = tuple((t, f"f{rng.randrange(40)}") for t in times)
            script = MotionScript("door-1", entries, debounce_ms=debounce)

            expected = 0
            last = None
            for t, _ in entries:
                if last is None or t - last >= debounce:
                    expected += 1
                    last = t

            emitted = list(run_motion_script(script, dataset))
            assert len(emitted) == expected
            gaps_ok = all(
                b[0].at - a[0].at >= debounce for a, b in zip(emitted, emitted[1:])
            )
            assert gaps_ok

    def test_script_covering_triggers_every_frame(self):
        dataset = make_dataset(7)
        script = script_covering(dataset, "door-1", spacing_ms=2000, debounce_ms=1000)
        events = list(run_motion_script(script, dataset))
        assert len(events) == 7

    def test_script_covering_rejects_tight_spacing(self):
        dataset = make_dataset(2)
        with pytest.raises(ValidationError):
            script_covering(dataset, "door-1", spacing_ms=500, debounce_ms=1000)

    @pytest.mark.parametrize("document,message", [
        ({"device_id": "door-1", "entries": [{"at": "5", "frame_id": "f0"}]},
         "at must be an integer"),
        ({"device_id": "door-1", "entries": [], "debounce": 5}, "unknown key 'debounce'"),
        ({"device_id": "door-1", "entries": [{"at": 5, "frame": "f0"}]},
         "unknown key 'frame' in an item of entries"),
        ({"device_id": "door-1", "entries": [[5, "f0"]]}, "an item of entries must be an object"),
        ({"entries": []}, "device_id is required"),
        ([], "a motion script must be a JSON object"),
        ({"device_id": "door-1", "entries": [{"at": 5, "frame_id": "a"},
                                             {"at": 1, "frame_id": "b"}]}, "sorted by time"),
    ], ids=["time_a_string", "unknown_key", "unknown_entry_key", "entry_an_array",
            "no_device_id", "not_an_object", "unsorted"])
    def test_malformed_script_file_is_a_validation_error(self, tmp_path, document, message):
        path = tmp_path / "script.json"
        path.write_text(__import__("json").dumps(document))
        with pytest.raises(ValidationError, match="^bad motion script: ") as excinfo:
            load_motion_script(path)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("content,message", [
        (b'{"device_id": "door-1", "entries": [', "Expecting value: line 1 column 37"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["truncated", "not_utf8"])
    def test_unreadable_script_file_is_a_validation_error_naming_it(self, tmp_path, content,
                                                                     message):
        path = tmp_path / "script.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError) as excinfo:
            load_motion_script(path)
        assert str(excinfo.value).startswith(f"bad motion script: {path}: {message}")

    def test_script_json_round_trip(self, tmp_path):
        script = MotionScript("door-1", ((0, "f0"), (2000, "f1")), debounce_ms=750)
        path = tmp_path / "script.json"
        path.write_text(__import__("json").dumps(script.to_dict()))
        assert load_motion_script(path) == script


FRAMES_PER_DEVICE = 3


def fleet_dataset(device_ids):
    """FRAMES_PER_DEVICE frames of each device: ``<device>/f<i>``."""
    return Dataset([
        FrameSample(f"{device_id}/f{i}", device_id, 0, frozenset(), ScenarioKind.ANIMAL_DETECTION)
        for device_id in device_ids for i in range(FRAMES_PER_DEVICE)
    ])


@st.composite
def fleets(draw):
    """1-40 devices, named so that their order is not the order of their
    scripts; each script's times come from a small range, so that times are
    often equal within a script and across devices, and some scripts are empty."""
    device_ids = draw(st.lists(st.text("abc-", min_size=1, max_size=4), min_size=1,
                               max_size=40, unique=True))
    scripts = []
    for device_id in device_ids:
        times = sorted(draw(st.lists(st.integers(0, 12), max_size=8)))
        frames = st.integers(0, FRAMES_PER_DEVICE - 1).map(lambda i: f"{device_id}/f{i}")
        entries = tuple((at, draw(frames)) for at in times)
        scripts.append(MotionScript(device_id, entries, debounce_ms=draw(st.integers(0, 4))))
    return scripts


def debounce_survivors(script):
    """The entries that the debounce rule keeps: each one at least
    ``debounce_ms`` after the last entry kept before it."""
    kept = []
    for at, frame_id in script.entries:
        if not kept or at - kept[-1][0] >= script.debounce_ms:
            kept.append((at, frame_id))
    return kept


class TestFleetReplay:
    """The replay of a fleet's scripts, specified: one stream in (at,
    device_id) order, each device's events the debounce survivors of its
    script in script order, and each device's event ids 0, 1, 2, ... in the
    order they are emitted."""

    @settings(max_examples=150, deadline=None)
    @given(fleets())
    def test_the_replay_is_the_ordered_union_of_each_scripts_survivors(self, scripts):
        dataset = fleet_dataset([script.device_id for script in scripts])
        emitted = list(run_motion_script(scripts, dataset, EventIdFactory()))
        keys = [(event.at, event.device_id) for event, _ in emitted]
        assert keys == sorted(keys)
        for script in scripts:
            device_id = script.device_id
            mine = [(event, frame) for event, frame in emitted if event.device_id == device_id]
            assert [(event.at, frame.frame_id) for event, frame in mine] == \
                debounce_survivors(script)
            assert [event.event_id for event, _ in mine] == \
                [format_event_id(device_id, n) for n in range(len(mine))]
            assert all(frame.device_id == device_id and frame.captured_at == event.at
                       for event, frame in mine)

    def test_one_script_or_a_list_of_it_replays_the_same(self):
        dataset = make_dataset(3)
        script = MotionScript("door-1", ((0, "f0"), (500, "f1"), (2000, "f2")))
        assert list(run_motion_script(script, dataset)) == \
            list(run_motion_script([script], dataset))

    def test_ties_keep_the_order_of_the_scripts_then_of_their_entries(self):
        # two scripts of one device are not a valid run, but the order is defined
        dataset = make_dataset(4)
        first = MotionScript("door-1", ((0, "f0"), (0, "f1")), debounce_ms=0)
        second = MotionScript("door-1", ((0, "f2"), (0, "f3")), debounce_ms=0)
        emitted = list(run_motion_script([second, first], dataset))
        assert [frame.frame_id for _, frame in emitted] == ["f2", "f3", "f0", "f1"]
        assert [event.event_id for event, _ in emitted] == [f"door-1:{n}" for n in range(4)]

    @pytest.mark.parametrize("frame_id,message", [
        ("missing", "unknown frame_id: missing"),
        ("door-1/f1", "frame door-1/f1 belongs to door-1, not door-2"),
    ], ids=["unknown", "foreign"])
    def test_a_bad_later_entry_is_refused_before_any_event(self, frame_id, message):
        dataset = fleet_dataset(["door-1", "door-2"])
        scripts = [MotionScript("door-1", ((0, "door-1/f0"), (2000, "door-1/f1"))),
                   MotionScript("door-2", ((0, "door-2/f0"), (9000, frame_id)))]
        factory = EventIdFactory()
        replay = run_motion_script(scripts, dataset, factory)
        with pytest.raises(DatasetError, match=f"^{message}$"):
            next(replay)
        assert factory.next_event_id("door-1") == "door-1:0"  # no id was issued

import random
import threading

import pytest

from doorsim.dataset import Dataset
from doorsim.device import (
    DeviceRegistry,
    MotionScript,
    load_motion_script,
    run_motion_script,
    script_covering,
)
from doorsim.errors import AuthError, ConflictError, DatasetError, NotFoundError, ValidationError
from doorsim.model import FrameSample, ScenarioKind


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

    def test_script_json_round_trip(self, tmp_path):
        script = MotionScript("door-1", ((0, "f0"), (2000, "f1")), debounce_ms=750)
        path = tmp_path / "script.json"
        path.write_text(__import__("json").dumps(script.to_dict()))
        assert load_motion_script(path) == script

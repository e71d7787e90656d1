import gc
import tracemalloc

import pytest

from doorsim import model
from doorsim.dataset import (
    DEFAULT_POSITIVE_FRACTION,
    Dataset,
    GeneratorConfig,
    generate_dataset,
    load_manifest,
    save_manifest,
)
from doorsim.errors import DatasetError
from doorsim.model import ScenarioKind


def test_generate_is_deterministic():
    config = GeneratorConfig(scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=20, seed=5)
    assert generate_dataset(config) == generate_dataset(config)


def test_positive_negative_split_uses_scenario_default():
    config = GeneratorConfig(scenarios=(ScenarioKind.MULTI_OBJECT,), positives=17, seed=1)
    frames = generate_dataset(config)
    positives = [f for f in frames if f.truth]
    negatives = [f for f in frames if not f.truth]
    assert len(positives) == 17
    # 17% positive fraction -> 83 negatives for 17 positives
    assert len(negatives) == 83
    assert DEFAULT_POSITIVE_FRACTION[ScenarioKind.MULTI_OBJECT] == pytest.approx(0.17)


def test_explicit_negative_count_wins():
    config = GeneratorConfig(
        scenarios=(ScenarioKind.UNSAFE_CONTENT,), positives=10, negatives=3, seed=1
    )
    frames = generate_dataset(config)
    assert sum(1 for f in frames if not f.truth) == 3


def test_face_positives_carry_identity():
    config = GeneratorConfig(scenarios=(ScenarioKind.FACE_RECOGNITION,), positives=30, seed=2)
    frames = [f for f in generate_dataset(config) if f.truth]
    assert all(f.truth_identity for f in frames)
    assert any(f.truth_identity in ("alice", "bob", "carol") for f in frames)
    assert any(f.truth_identity not in ("alice", "bob", "carol") for f in frames)


def test_devices_round_robin():
    config = GeneratorConfig(
        scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=4, negatives=0,
        devices=("door-1", "door-2"), seed=1,
    )
    frames = generate_dataset(config)
    assert {f.device_id for f in frames} == {"door-1", "door-2"}


def test_manifest_round_trip(tmp_path):
    config = GeneratorConfig(scenarios=(ScenarioKind.NOTEWORTHY_VEHICLE,), positives=12, seed=9)
    frames = generate_dataset(config)
    path = tmp_path / "data.ndjson"
    save_manifest(frames, path)
    loaded = load_manifest(path)
    assert list(loaded) == frames
    assert loaded.fingerprint() == Dataset(frames).fingerprint()


def test_manifest_rows_carry_exactly_the_documented_fields(tmp_path):
    import json

    config = GeneratorConfig(scenarios=(ScenarioKind.FACE_RECOGNITION,), positives=2, seed=9)
    path = tmp_path / "data.ndjson"
    save_manifest(generate_dataset(config), path)
    for line in path.read_text().strip().splitlines():
        assert set(json.loads(line)) == {
            "frame_id", "scenario", "truth_labels", "truth_identity", "device_id",
        }


def test_duplicate_frame_ids_rejected():
    config = GeneratorConfig(scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=2, seed=1)
    frames = generate_dataset(config)
    with pytest.raises(DatasetError):
        Dataset(frames + frames)


def test_unknown_frame_lookup_is_dataset_error():
    dataset = Dataset([])
    with pytest.raises(DatasetError):
        dataset.get("nope")


def test_bad_manifest_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"frame_id": "f0"}\n')
    with pytest.raises(DatasetError):
        load_manifest(path)


GOOD_ROW = ('{"frame_id": "f0", "device_id": "door-1", "scenario": "animal_detection", '
            '"truth_labels": ["dog"], "truth_identity": null}')


@pytest.mark.parametrize("row,message", [
    ("[1]", "a manifest line must be a JSON object"),
    ('"x"', "a manifest line must be a JSON object"),
    (GOOD_ROW.replace('"dog"', '"Dog"'), "label name must be a lowercase token: 'Dog'"),
    (GOOD_ROW.replace('"dog"', '""'), "label name must be non-empty"),
], ids=["array", "string", "uppercase_label", "empty_label"])
def test_bad_manifest_line_names_its_location(tmp_path, row, message):
    path = tmp_path / "bad.ndjson"
    path.write_text(GOOD_ROW.replace("f0", "f1") + "\n\n" + row + "\n")
    with pytest.raises(DatasetError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}:3: bad manifest line: {message}"


def test_a_manifest_line_that_is_not_utf8_names_its_location(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_bytes((GOOD_ROW + "\n").encode() + b"\xff\xfe" + GOOD_ROW.encode()[2:] + b"\n")
    with pytest.raises(DatasetError) as info:
        load_manifest(path)
    assert str(info.value) == (f"{path}:2: bad manifest line: 'utf-8' codec can't decode "
                               "byte 0xff in position 0: invalid start byte")


def test_a_manifest_line_nested_too_deep_names_its_location(tmp_path):
    path = tmp_path / "deep.ndjson"
    path.write_text(GOOD_ROW + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(DatasetError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}:2: bad manifest line: maximum recursion depth")
    assert isinstance(info.value.__cause__, RecursionError)


def test_a_missing_manifest_names_its_path(tmp_path):
    path = tmp_path / "nope.ndjson"
    with pytest.raises(DatasetError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: [Errno 2] No such file or directory: '{path}'"
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_a_manifest_that_is_a_directory_names_its_path(tmp_path):
    with pytest.raises(DatasetError) as info:
        load_manifest(tmp_path)
    assert str(info.value).startswith(f"{tmp_path}: [Errno ")
    assert isinstance(info.value.__cause__, OSError)


def _manifest_of(tmp_path, frames):
    path = tmp_path / "manifest.ndjson"
    save_manifest(frames, path)
    return path


def test_loaded_frames_share_device_ids_identities_and_truth_sets(tmp_path):
    frames = generate_dataset(GeneratorConfig(
        scenarios=tuple(ScenarioKind), positives=20, devices=("door-1", "door-2"), seed=4))
    loaded = list(load_manifest(_manifest_of(tmp_path, frames)))
    assert loaded == frames
    for device_id in ("door-1", "door-2"):
        first, second = [f for f in loaded if f.device_id == device_id][:2]
        assert first.device_id is second.device_id
    alices = [f.truth_identity for f in loaded if f.truth_identity == "alice"]
    assert len(alices) > 1 and all(identity is alices[0] for identity in alices)
    shared = model._VOCABULARY_TRUTHS.values()
    for frame in [*frames, *loaded]:  # generated and loaded frames alike
        assert any(frame.truth is truth for truth in shared)


def test_a_loaded_frame_stays_small(tmp_path):
    # tracemalloc bytes per loaded frame, the dataset's index included. With
    # shared truth sets, device ids and identities, CPython 3.10-3.13 take
    # 188-211 B a frame here; a set and a device id string per frame took
    # 454-486 B.
    frames = generate_dataset(GeneratorConfig(
        scenarios=tuple(ScenarioKind), positives=200, devices=("door-1", "door-2", "door-3"),
        seed=6))
    assert len(frames) >= 2000
    path = _manifest_of(tmp_path, frames)
    load_manifest(path)  # a first load, so that no one-off cache is counted
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = load_manifest(path)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dataset) == len(frames)
    assert grown / len(dataset) < 260


def test_fingerprint_tracks_content(tmp_path):
    a = generate_dataset(GeneratorConfig(scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=5, seed=1))
    b = generate_dataset(GeneratorConfig(scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=5, seed=2))
    assert Dataset(a).fingerprint() != Dataset(b).fingerprint()


def test_fingerprint_is_hashed_once(monkeypatch):
    import doorsim.dataset as dataset_module

    frames = generate_dataset(
        GeneratorConfig(scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=5, seed=1)
    )
    dataset = Dataset(frames)
    first = dataset.fingerprint()
    rows = []
    monkeypatch.setattr(dataset_module, "manifest_row", lambda frame: rows.append(frame))
    assert dataset.fingerprint() == dataset.fingerprint() == first
    assert rows == []  # the repeated calls hashed nothing
    monkeypatch.undo()
    assert first == Dataset(frames).fingerprint()


def _frames_across(devices):
    config = GeneratorConfig(
        scenarios=(ScenarioKind.ANIMAL_DETECTION, ScenarioKind.UNSAFE_CONTENT),
        positives=6, devices=devices, seed=3,
    )
    return generate_dataset(config)


def test_frames_for_device_keeps_manifest_order():
    frames = _frames_across(("door-2", "door-1", "door-3"))
    dataset = Dataset(frames)
    for device_id in ("door-1", "door-2", "door-3"):
        expected = [f for f in frames if f.device_id == device_id]
        assert expected
        assert dataset.frames_for_device(device_id) == expected


def test_frames_for_unknown_device_is_empty():
    assert Dataset(_frames_across(("door-1",))).frames_for_device("door-9") == []


def test_frames_for_device_returns_a_copy():
    dataset = Dataset(_frames_across(("door-1", "door-2")))
    first = dataset.frames_for_device("door-1")
    count = len(first)
    first.clear()
    assert len(dataset.frames_for_device("door-1")) == count


def test_device_ids_follow_first_appearance():
    frames = _frames_across(("door-3", "door-1", "door-2"))
    assert Dataset(frames).device_ids == ["door-3", "door-1", "door-2"]
    assert Dataset(list(reversed(frames))).device_ids == ["door-2", "door-1", "door-3"]

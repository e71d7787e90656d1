"""Dataset manifests: the single source of frames for every simulation.

A manifest is newline-delimited JSON, one frame per line:

    {"frame_id": "...", "scenario": "...", "truth_labels": [...],
     "truth_identity": "...", "device_id": "..."}

The generator fabricates labeled manifests with a configurable
positive/negative ratio per scenario; no imagery is ever produced.

Frames share the values that rows repeat. A truth set that is a sorted
subset of its scenario's vocabulary is one of ``model.truth_set``'s shared
frozensets, and ``load_manifest`` keeps each distinct device id and truth
identity once per load. A loaded frame of perfbench's 13,882-frame
remote-1dev manifest takes 188 B (tracemalloc, CPython 3.11); a set and a
device id string of its own per frame made it 463 B.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import field, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .draws import choice_draw, int_draw, unit_draw
from .errors import DatasetError, ProtocolError, ValidationError
from .model import (
    DEFAULT_VOCABULARY,
    FaceCategory,
    FrameSample,
    Label,
    ScenarioKind,
    field as json_field,
    list_field,
    map_field,
    refuse_unknown_keys,
    truth_set,
    value,
)

__all__ = [
    "Dataset",
    "GeneratorConfig",
    "generate_dataset",
    "load_manifest",
    "manifest_row",
    "save_manifest",
    "DEFAULT_POSITIVE_FRACTION",
    "DEFAULT_KNOWN_FACES",
]

# Positive/negative mix per scenario. Four scenarios use a balanced split;
# multi-object uses a 17/83 split so that per-object tallies line up with
# its published count row.
DEFAULT_POSITIVE_FRACTION: Mapping[ScenarioKind, float] = {
    ScenarioKind.FACE_RECOGNITION: 0.50,
    ScenarioKind.UNSAFE_CONTENT: 0.50,
    ScenarioKind.ANIMAL_DETECTION: 0.50,
    ScenarioKind.NOTEWORTHY_VEHICLE: 0.50,
    ScenarioKind.MULTI_OBJECT: 0.17,
}

# Identities enrolled by default before an experiment runs; everything else
# resolves to the unknown category.
DEFAULT_KNOWN_FACES: Mapping[str, FaceCategory] = {
    "alice": FaceCategory.FAMILY,
    "bob": FaceCategory.FRIEND,
    "carol": FaceCategory.VISITOR,
}

_STRANGERS = ("mallory", "trent", "oscar")


class Dataset:
    """An in-memory manifest with frame lookup by id and by device.

    A device index is built once, with the manifest: ``get`` is O(1),
    ``frames_for_device`` is O(frames of that device) and ``device_ids`` is
    O(devices), whatever the size of the rest of the manifest. A dataset
    never changes after construction, so its fingerprint is hashed once.
    """

    def __init__(self, frames: Sequence[FrameSample]):
        self._frames: dict[str, FrameSample] = {}
        self._by_device: dict[str, list[FrameSample]] = {}
        self._fingerprint: str | None = None
        for frame in frames:
            if frame.frame_id in self._frames:
                raise DatasetError(f"duplicate frame_id in manifest: {frame.frame_id}")
            self._frames[frame.frame_id] = frame
            self._by_device.setdefault(frame.device_id, []).append(frame)

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self):
        return iter(self._frames.values())

    def get(self, frame_id: str) -> FrameSample:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise DatasetError(f"unknown frame_id: {frame_id}") from None

    def frames_for_device(self, device_id: str) -> list[FrameSample]:
        """The device's frames in manifest order, as a new list."""
        return list(self._by_device.get(device_id, ()))

    @property
    def device_ids(self) -> list[str]:
        """Devices in order of their first frame in the manifest."""
        return list(self._by_device)

    def fingerprint(self) -> str:
        """Content hash of the manifest, used to pair reports with data."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for frame in self:
                digest.update(json.dumps(manifest_row(frame), sort_keys=True).encode())
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint


def load_manifest(path: str | Path) -> Dataset:
    """Read a newline-delimited JSON manifest. JSON decodes a new string
    for each row's device id and truth identity; each distinct one is kept
    once per load and shared by every frame that names it. A malformed
    line, or one that is not UTF-8, is a DatasetError naming the file and
    the line; a file that cannot be read is one naming the file."""
    frames = []
    strings: dict[str, str] = {}
    share = strings.setdefault
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise ProtocolError("a manifest line must be a JSON object")
                    # Only an exact string is swapped, for an equal one: any other
                    # value reaches from_dict as it is, and fails there as before.
                    device_id = row.get("device_id")
                    if type(device_id) is str:
                        row["device_id"] = share(device_id, device_id)
                    identity = row.get("truth_identity")
                    if type(identity) is str:
                        row["truth_identity"] = share(identity, identity)
                    frames.append(FrameSample.from_dict(row))
                except (ValueError, ProtocolError, ValidationError) as exc:
                    # JSONDecodeError is a ValueError; a bad label is a ValidationError
                    raise DatasetError(f"{path}:{lineno}: bad manifest line: {exc}") from exc
    except UnicodeDecodeError:
        # the file is decoded a chunk at a time: find the line, in bytes
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DatasetError(f"{path}:{lineno}: bad manifest line: {exc}") from exc
        raise
    except OSError as exc:  # missing, a directory, unreadable
        raise DatasetError(f"{path}: {exc}") from exc
    return Dataset(frames)


def manifest_row(frame: FrameSample) -> dict:
    """The manifest projection of a frame: fixture data only, no timestamps."""
    return {
        "frame_id": frame.frame_id,
        "scenario": frame.scenario.value,
        "truth_labels": sorted(label.name for label in frame.truth),
        "truth_identity": frame.truth_identity,
        "device_id": frame.device_id,
    }


def save_manifest(frames: Iterable[FrameSample], path: str | Path) -> None:
    """Write frames as a newline-delimited JSON manifest."""
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(json.dumps(manifest_row(frame), sort_keys=True))
            fh.write("\n")


@value
class GeneratorConfig:
    """Parameters for synthetic manifest generation.

    ``negatives`` may be left None to derive the count from the scenario's
    default positive fraction.
    """

    scenarios: tuple[ScenarioKind, ...]
    positives: int
    negatives: int | None = None
    devices: tuple[str, ...] = ("door-1",)
    seed: int = 0
    known_faces: Mapping[str, FaceCategory] = field(
        default_factory=lambda: dict(DEFAULT_KNOWN_FACES)
    )
    known_face_fraction: float = 0.5
    max_labels_per_frame: int = 2

    def __post_init__(self) -> None:
        if self.positives < 0:
            raise ValidationError("positives must be >= 0")
        if self.negatives is not None and self.negatives < 0:
            raise ValidationError("negatives must be >= 0")
        if not self.devices:
            raise ValidationError("at least one device id required")
        if not self.scenarios:
            raise ValidationError("at least one scenario required")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GeneratorConfig":
        """The config of a JSON object whose keys are the field names; a malformed
        value or an unknown key is a ProtocolError naming it."""
        refuse_unknown_keys(data, (f.name for f in fields(cls)))
        known = map_field(data, "known_faces", FaceCategory, None)
        return cls(
            scenarios=list_field(data, "scenarios", ScenarioKind, ()) or tuple(ScenarioKind),
            positives=json_field(data, "positives", int, 100),
            negatives=json_field(data, "negatives", int, None),
            devices=list_field(data, "devices", str, ("door-1",)),
            seed=json_field(data, "seed", int, 0),
            known_faces=dict(DEFAULT_KNOWN_FACES) if known is None else known,
            known_face_fraction=json_field(data, "known_face_fraction", float, 0.5),
            max_labels_per_frame=json_field(data, "max_labels_per_frame", int, 2),
        )


def _negative_count(config: GeneratorConfig, scenario: ScenarioKind) -> int:
    if config.negatives is not None:
        return config.negatives
    fraction = DEFAULT_POSITIVE_FRACTION[scenario]
    if config.positives == 0:
        return 0
    return round(config.positives * (1.0 - fraction) / fraction)


def _truth_for_positive(
    config: GeneratorConfig, scenario: ScenarioKind, frame_id: str
) -> tuple[frozenset[Label], str | None]:
    vocab = DEFAULT_VOCABULARY[scenario]
    if scenario is ScenarioKind.FACE_RECOGNITION:
        known = unit_draw("gen-known", config.seed, frame_id) < config.known_face_fraction
        if known and config.known_faces:
            token = choice_draw(sorted(config.known_faces), "gen-id", config.seed, frame_id)
        else:
            token = choice_draw(_STRANGERS, "gen-id", config.seed, frame_id)
        return truth_set(scenario, (vocab[0],)), token
    if scenario is ScenarioKind.MULTI_OBJECT and config.max_labels_per_frame > 1:
        count = int_draw(1, min(config.max_labels_per_frame, len(vocab)),
                         "gen-count", config.seed, frame_id)
        names = {choice_draw(vocab, "gen-label", config.seed, frame_id, slot)
                 for slot in range(count)}
        return truth_set(scenario, sorted(names)), None  # sorted: the shared set's key
    name = choice_draw(vocab, "gen-label", config.seed, frame_id)
    return truth_set(scenario, (name,)), None


def generate_dataset(config: GeneratorConfig) -> list[FrameSample]:
    """Fabricate a labeled dataset, deterministic for a given config."""
    frames: list[FrameSample] = []
    for scenario in config.scenarios:
        total = config.positives + _negative_count(config, scenario)
        for index in range(total):
            frame_id = f"{scenario.value}-{index:05d}"
            device_id = config.devices[index % len(config.devices)]
            if index < config.positives:
                truth, identity = _truth_for_positive(config, scenario, frame_id)
            else:
                truth, identity = truth_set(scenario, ()), None
            frames.append(FrameSample(frame_id, device_id, 0, truth, scenario, identity))
    return frames

"""Device layer: registry, mutual authentication, and motion-driven capture.

Certificate-based identity is emulated by a secret token whose SHA-256
fingerprint is the only thing stored server-side; authentication succeeds
iff the presented secret hashes to the stored fingerprint. Session tokens
are random, registry-tracked, and required by cloud ingest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .dataset import Dataset
from .errors import AuthError, ConflictError, DatasetError, NotFoundError, ValidationError
from .model import (EventIdFactory, FrameSample, MotionEvent, encoder, field, list_field,
                    read_document, read_value, refuse_unknown_keys, value)

__all__ = [
    "DeviceRecord",
    "Credential",
    "DeviceRegistry",
    "MotionScript",
    "run_motion_script",
    "script_covering",
    "load_motion_script",
    "DEFAULT_DEBOUNCE_MS",
]

# Re-trigger behaviour is undefined upstream of this simulator; one second
# is the shipped default and a config value everywhere it is used.
DEFAULT_DEBOUNCE_MS = 1000


def fingerprint_secret(secret: str) -> str:
    return hashlib.sha256(secret.encode("utf-8")).hexdigest()


@value
class DeviceRecord:
    device_id: str
    attributes: Mapping[str, str]
    credential_fingerprint: str
    registered_at: int

    to_dict = encoder()


@value
class Credential:
    """Returned to the device once at registration; never stored server-side."""

    device_id: str
    secret: str
    fingerprint: str


class DeviceRegistry:
    """Registered devices, their fingerprints, and live session tokens.

    Safe to share between threads without a lock. Every step that reads or
    changes shared state is one C-level call on a dict or on the
    ``random.Random``: ``dict.get``, ``dict.setdefault``, one item
    assignment, ``len`` and ``getrandbits``. Each is atomic under the GIL,
    and on a free-threaded build dicts and ``Random`` lock themselves
    around each such call. ``register`` checks for a taken id first, so a
    run on one thread draws the RNG exactly once per registered device,
    then claims the id with one ``setdefault``: of callers racing for one
    id, exactly one finds its own record stored and the others get
    :class:`ConflictError`. ``authenticate`` stores each fresh token with
    one assignment, and a token is only ever looked up, so a session is
    visible to every thread once its token is returned. The rest of
    :class:`~doorsim.cloud.CloudService` is single-threaded and relies on
    the HTTP binding's lock; the registry is also used on its own, and its
    contract, tested from eight threads, is safe concurrent use.
    """

    def __init__(self, rng: random.Random | None = None):
        self._rng = rng or random.Random(0)  # seeded: the same secrets and tokens every run
        self._records: dict[str, DeviceRecord] = {}
        self._sessions: dict[str, str] = {}

    def register(
        self, device_id: str, attributes: Mapping[str, str] | None = None, at: int = 0
    ) -> tuple[DeviceRecord, Credential]:
        if not device_id:
            raise ValidationError("device_id must be non-empty")
        if device_id in self._records:
            raise ConflictError(f"device already registered: {device_id}")
        secret = self._rng.getrandbits(256).to_bytes(32, "big").hex()
        fingerprint = fingerprint_secret(secret)
        record = DeviceRecord(device_id, dict(attributes or {}), fingerprint, at)
        if self._records.setdefault(device_id, record) is not record:  # lost a race
            raise ConflictError(f"device already registered: {device_id}")
        return record, Credential(device_id, secret, fingerprint)

    def authenticate(self, device_id: str, secret: str) -> str:
        """Return a session token iff the secret matches the stored fingerprint."""
        record = self._records.get(device_id)
        if record is None:
            raise NotFoundError(f"unknown device: {device_id}")
        if fingerprint_secret(secret) != record.credential_fingerprint:
            raise AuthError(f"credential mismatch for {device_id}")
        token = self._rng.getrandbits(256).to_bytes(32, "big").hex()
        self._sessions[token] = device_id
        return token

    def validate_session(self, token: str | None) -> str:
        """Device id for a live session token; raises AuthError otherwise."""
        # a token that is not a string is no session's
        device_id = self._sessions.get(token) if type(token) is str else None
        if device_id is None:
            raise AuthError("missing or invalid session token")
        return device_id

    def get(self, device_id: str) -> DeviceRecord:
        record = self._records.get(device_id)
        if record is None:
            raise NotFoundError(f"unknown device: {device_id}")
        return record

    def __len__(self) -> int:
        return len(self._records)


@value
class MotionScript:
    """Scripted motion triggers for one device, sorted by time."""

    device_id: str
    entries: tuple[tuple[int, str], ...]
    debounce_ms: int = DEFAULT_DEBOUNCE_MS

    def __post_init__(self) -> None:
        if self.debounce_ms < 0:
            raise ValidationError("debounce_ms must be >= 0")
        times = [at for at, _ in self.entries]
        if times != sorted(times):
            raise ValidationError("script entries must be sorted by time")

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "debounce_ms": self.debounce_ms,
            "entries": [{"at": at, "frame_id": fid} for at, fid in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MotionScript":
        """The script of a JSON object shaped as :meth:`to_dict`, read by
        :func:`~doorsim.model.read_value` but for its entry objects."""
        script = read_value(cls, data, "a motion script", entries=())
        entries = []
        for entry in list_field(data, "entries", dict):
            refuse_unknown_keys(entry, ("at", "frame_id"), "an item of entries")
            entries.append((field(entry, "at", int), field(entry, "frame_id", str)))
        return replace(script, entries=tuple(entries))


def load_motion_script(path: str | Path) -> MotionScript:
    """Read a motion script file (:func:`~doorsim.model.read_document`)."""
    return read_document(path, "motion script", MotionScript.from_dict)


def script_covering(
    dataset: Dataset,
    device_id: str,
    spacing_ms: int = 2000,
    debounce_ms: int = DEFAULT_DEBOUNCE_MS,
) -> MotionScript:
    """A script that triggers every frame of one device, none debounced."""
    if spacing_ms <= debounce_ms:
        raise ValidationError("spacing_ms must exceed debounce_ms to cover all frames")
    entries = tuple(
        (i * spacing_ms, frame.frame_id)
        for i, frame in enumerate(dataset.frames_for_device(device_id))
    )
    return MotionScript(device_id=device_id, entries=entries, debounce_ms=debounce_ms)


_AT = itemgetter(0)  # a script entry's time
_DEVICE = attrgetter("device_id")


def run_motion_script(
    scripts: MotionScript | Iterable[MotionScript],
    dataset: Dataset,
    event_ids: EventIdFactory | None = None,
) -> Iterator[tuple[MotionEvent, FrameSample]]:
    """Replay one script, or a fleet's scripts as one stream of motion events.

    In each script, an entry closer than ``debounce_ms`` to the script's
    previously emitted event is dropped. The surviving entries of all
    scripts come out in ``(at, device_id)`` order; equal keys keep the order
    of the scripts as given, then each script's own order. Each event is
    paired with its frame, stamped with the emitting device and trigger
    time, and its event id is issued in that output order, so a device's
    sequences rise by one per emitted event.

    The schedule is built and sorted at the first ``next()``, and every
    entry's frame, debounced or not, is looked up and checked then: a frame
    that is unknown, or that belongs to another device, is a DatasetError
    before any event is yielded. The schedule holds the scripts' own entry
    tuples, so it adds no object per event, and it shrinks as events are
    yielded.
    """
    if isinstance(scripts, MotionScript):
        scripts = (scripts,)
    factory = event_ids or EventIdFactory()
    get = dataset.get
    schedule: list[tuple[int, str]] = []
    # Scripts by device, so that one stable sort by time leaves equal times
    # in device order, then in the order of the scripts and of their entries.
    for script in sorted(scripts, key=_DEVICE):
        device_id, debounce_ms = script.device_id, script.debounce_ms
        last_emitted: int | None = None
        for entry in script.entries:
            at, frame_id = entry
            fixture = get(frame_id)  # every entry is checked, debounced or not
            if fixture.device_id != device_id:
                raise DatasetError(
                    f"frame {frame_id} belongs to {fixture.device_id}, not {device_id}")
            if last_emitted is not None and at - last_emitted < debounce_ms:
                continue
            last_emitted = at
            schedule.append(entry)
    schedule.sort(key=_AT)
    schedule.reverse()  # so that each pop() takes the next entry
    pop, next_event_id = schedule.pop, factory.next_event_id
    while schedule:
        at, frame_id = pop()
        fixture = get(frame_id)
        device_id = fixture.device_id  # the script's, as checked above
        yield (MotionEvent(device_id, at, next_event_id(device_id)),
               fixture.stamped(device_id, at))

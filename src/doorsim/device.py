"""Device layer: registry, mutual authentication, and motion-driven capture.

Certificate-based identity is emulated by a secret token whose SHA-256
fingerprint is the only thing stored server-side; authentication succeeds
iff the presented secret hashes to the stored fingerprint. Session tokens
are random, registry-tracked, and required by cloud ingest.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Iterator, Mapping

from .dataset import Dataset
from .errors import (AuthError, ConflictError, DatasetError, NotFoundError, ProtocolError,
                     ValidationError)
from .model import (EventIdFactory, FrameSample, MotionEvent, field, list_field,
                    refuse_unknown_keys, value)

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

    def to_dict(self) -> dict:
        return {
            "device_id": self.device_id,
            "attributes": dict(self.attributes),
            "credential_fingerprint": self.credential_fingerprint,
            "registered_at": self.registered_at,
        }


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
        self._rng = rng or random.Random()
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
        """The script of a JSON object shaped as :meth:`to_dict`; a malformed
        value or an unknown key is a ProtocolError naming it."""
        refuse_unknown_keys(data, ("device_id", "debounce_ms", "entries"), "a motion script")
        device_id = field(data, "device_id", str)
        entries = []
        for entry in list_field(data, "entries", dict):
            refuse_unknown_keys(entry, ("at", "frame_id"), "an item of entries")
            entries.append((field(entry, "at", int), field(entry, "frame_id", str)))
        return cls(device_id, tuple(entries), field(data, "debounce_ms", int, DEFAULT_DEBOUNCE_MS))


def load_motion_script(path: str | Path) -> MotionScript:
    """Read a motion script file; a malformed script, or a file that cannot
    be read as UTF-8 JSON, is a ValidationError (the latter naming the file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ValidationError(f"bad motion script: {path}: {exc}") from exc
    try:
        return MotionScript.from_dict(document)
    except (ProtocolError, ValidationError) as exc:
        raise ValidationError(f"bad motion script: {exc}") from exc


def script_covering(
    dataset: Dataset,
    device_id: str,
    start_at: int = 0,
    spacing_ms: int = 2000,
    debounce_ms: int = DEFAULT_DEBOUNCE_MS,
) -> MotionScript:
    """A script that triggers every frame of one device, none debounced."""
    if spacing_ms <= debounce_ms:
        raise ValidationError("spacing_ms must exceed debounce_ms to cover all frames")
    entries = tuple(
        (start_at + i * spacing_ms, frame.frame_id)
        for i, frame in enumerate(dataset.frames_for_device(device_id))
    )
    return MotionScript(device_id=device_id, entries=entries, debounce_ms=debounce_ms)


def run_motion_script(
    script: MotionScript,
    dataset: Dataset,
    event_ids: EventIdFactory | None = None,
) -> Iterator[tuple[MotionEvent, FrameSample]]:
    """Replay a script: one motion event per entry surviving debounce.

    Entries closer than ``debounce_ms`` to the previously emitted event are
    dropped. Each surviving event is paired with its frame, stamped with the
    emitting device and trigger time; sequence numbers are strictly
    increasing per device.
    """
    factory = event_ids or EventIdFactory()
    last_emitted: int | None = None
    for at, frame_id in script.entries:
        if last_emitted is not None and at - last_emitted < script.debounce_ms:
            continue
        fixture = dataset.get(frame_id)
        if fixture.device_id != script.device_id:
            raise DatasetError(
                f"frame {frame_id} belongs to {fixture.device_id}, "
                f"not {script.device_id}"
            )
        last_emitted = at
        event = MotionEvent(script.device_id, at, factory.next_event_id(script.device_id))
        yield event, fixture.stamped(script.device_id, at)

"""Seeded inputs for the benchmark's workloads and a pure-dict gateway model.

Nothing here imports doorsim: the inputs depend only on the workload name
and the seed, so every version of the program receives the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

DAY_MS = 24 * 60 * 60 * 1000

# (scenario, share of positives), in the order doorsim's own generator uses.
SCENARIOS = (
    ("face_recognition", 0.50),
    ("unsafe_content", 0.50),
    ("animal_detection", 0.50),
    ("noteworthy_vehicle", 0.50),
    ("multi_object", 0.17),
)
VOCABULARY = {
    "face_recognition": ("face",),
    "unsafe_content": ("gun", "knife"),
    "animal_detection": ("dog", "cat"),
    "noteworthy_vehicle": ("fedex", "usps", "ambulance", "dhl"),
    "multi_object": ("person", "dog", "package"),
}
IDENTITIES = ("alice", "bob", "carol", "mallory", "trent", "oscar")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment" or "gateway"
    devices: tuple[str, ...]
    positives: int
    backend_id: str = "aws-saas"
    fault_probability: float = 0.0


def _devices(count: int, width: int) -> tuple[str, ...]:
    if count == 1:
        return ("door-1",)
    return tuple(f"door-{i:0{width}d}" for i in range(count))


# positives=1000 gives the 13,882-frame manifest; the half-size manifest
# used for scaling_2x has positives=500 (6,941 frames) and the same devices.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("remote-1dev", "experiment", _devices(1, 1), 1000, "aws-saas", 0.02),
        Workload("local-fleet", "experiment", _devices(1000, 4), 1000, "haar", 0.0),
        Workload("gateway-mix", "gateway", _devices(8, 1), 150),
    )
}

# Gateway-mix pacing: each device captures one event every DAY_MS / 16, so a
# daily snapshot never holds more than 17 records of a device, and every
# range read spans at most READ_WINDOW records.
EVENT_SPACING_MS = DAY_MS // 16
READ_WINDOW = 8
DUPLICATE_PROBABILITY = 0.02
READ_KINDS = ("latest_activity", "daily_snapshot", "range_query", "activities")


def manifest_rows(workload: Workload, seed: int, positives: int | None = None) -> list[dict]:
    """Manifest frames; frame i of a scenario belongs to device i mod D."""
    rng = random.Random(f"manifest:{workload.name}:{seed}")
    positives = workload.positives if positives is None else positives
    rows = []
    for scenario, share in SCENARIOS:
        negatives = round(positives * (1.0 - share) / share)
        vocab = VOCABULARY[scenario]
        for index in range(positives + negatives):
            labels: list[str] = []
            identity = None
            if index < positives:
                if scenario == "multi_object":
                    labels = sorted(set(rng.choice(vocab) for _ in range(rng.randint(1, 2))))
                else:
                    labels = [rng.choice(vocab)]
                if scenario == "face_recognition":
                    identity = rng.choice(IDENTITIES)
            rows.append({
                "frame_id": f"{scenario}-{index:05d}",
                "scenario": scenario,
                "truth_labels": labels,
                "truth_identity": identity,
                "device_id": workload.devices[index % len(workload.devices)],
            })
    return rows


def write_manifest(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


@dataclass(frozen=True)
class Op:
    """One gateway request and the answer the reference model expects."""

    cls: str  # "ingest" or "read"
    kind: str  # "ingest" or one of READ_KINDS
    device: str
    at: int
    record: dict | None = None
    span: tuple[int, int] | None = None
    expected: Any = None


class ReferenceStore:
    """What the cloud should hold after a sequence of ingests, as plain dicts."""

    def __init__(self) -> None:
        self.sequence = 0
        self.seen: set[str] = set()
        self.by_device: dict[str, list[dict]] = {}

    def ingest(self, record: dict, now: int) -> dict:
        duplicate = record["event_id"] in self.seen
        if not duplicate:
            self.seen.add(record["event_id"])
            self.by_device.setdefault(record["device_id"], []).append(record)
        answer = {"sequence": self.sequence, "duplicate": duplicate, "ingested_at": now}
        self.sequence += 1
        return answer

    def read(self, kind: str, device: str, span: tuple[int, int] | None, now: int):
        """(records, counts) a read should return."""
        records = self.by_device.get(device, [])
        if kind == "latest_activity":
            return records[-1:], None
        if kind == "daily_snapshot":
            lo, hi = max(0, now - DAY_MS), now
        else:
            lo, hi = span
        hits = [r for r in records if lo <= r["captured_at"] <= hi]
        if kind != "daily_snapshot":
            return hits, None
        counts: dict[str, int] = {}
        for r in hits:
            key = r["detections"][0]["kind"] if r["detections"] else "none"
            counts[key] = counts.get(key, 0) + 1
        return hits, counts


def read_op(rng: random.Random, store: ReferenceStore, kind: str, now: int) -> Op:
    """A read of a random device that holds records, over a bounded window."""
    device = rng.choice(sorted(store.by_device))
    records = store.by_device[device]
    span = None
    if kind in ("range_query", "activities"):
        first = rng.randrange(len(records))
        last = min(first + READ_WINDOW - 1, len(records) - 1)
        span = (records[first]["captured_at"], records[last]["captured_at"])
    return Op("read", kind, device, now, span=span, expected=store.read(kind, device, span, now))


def _record(rng: random.Random, row: dict, sequence: int, captured_at: int) -> dict:
    detections = [
        {"label": label, "kind": row["scenario"], "confidence": rng.uniform(70.0, 100.0),
         "identity": None, "category": None, "box": None}
        for label in row["truth_labels"]
    ]
    return {
        "event_id": f"{row['device_id']}:{sequence}",
        "device_id": row["device_id"],
        "frame_id": row["frame_id"],
        "detections": detections,
        "backend_id": "aws-saas",
        "captured_at": captured_at,
        "detected_at": captured_at + rng.randint(60, 120),
        "threshold_used": 70.0,
    }


def gateway_ops(workload: Workload, rows: list[dict], seed: int) -> list[Op]:
    """Closed-loop request list: each ingest is followed by one read.

    Each manifest frame is ingested once, in capture order; about 2% of the
    ingests are followed by a re-send of an earlier record of the device,
    which the stream must flag as a duplicate.
    """
    rng = random.Random(f"ops:{workload.name}:{seed}")
    offsets = {d: i * EVENT_SPACING_MS // len(workload.devices)
               for i, d in enumerate(workload.devices)}
    per_device: dict[str, int] = {}
    timeline = []
    for row in rows:
        sequence = per_device.get(row["device_id"], 0)
        per_device[row["device_id"]] = sequence + 1
        captured_at = offsets[row["device_id"]] + sequence * EVENT_SPACING_MS
        timeline.append((captured_at, row, sequence))
    timeline.sort(key=lambda item: item[0])

    store = ReferenceStore()
    ops: list[Op] = []
    now = 0
    reads = 0

    def add_read():
        nonlocal reads
        ops.append(read_op(rng, store, READ_KINDS[reads % len(READ_KINDS)], now))
        reads += 1

    for captured_at, row, sequence in timeline:
        record = _record(rng, row, sequence, captured_at)
        now = max(now, record["detected_at"])
        ops.append(Op("ingest", "ingest", row["device_id"], now, record=record,
                      expected=store.ingest(record, now)))
        add_read()
        if rng.random() < DUPLICATE_PROBABILITY:
            earlier = rng.choice(store.by_device[row["device_id"]])
            ops.append(Op("ingest", "ingest", row["device_id"], now, record=earlier,
                          expected=store.ingest(earlier, now)))
            add_read()
    return ops


def probe_reads(records_by_device: dict[str, list[dict]], seed: int, count: int, now: int) -> list[Op]:
    """Reads over an experiment's final store, checked against its accepted records."""
    rng = random.Random(f"probe:{seed}")
    store = ReferenceStore()
    store.by_device = records_by_device
    kinds = ("activities", "range_query")
    return [read_op(rng, store, kinds[i % len(kinds)], now) for i in range(count)]

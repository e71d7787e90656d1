"""A fixed reference task that measures how fast the machine is right now.

On a shared host, neighbours switch the processor between speeds that
differ by up to about 2x for seconds at a time, so raw host times of
identical code drift far between runs. The benchmark therefore runs short
chunks of a fixed pure-Python task (no doorsim code) between the requests
of the sections it measures, about every 0.1 s, and reports each section's
program time in reference seconds: every stretch of program time between
two chunks is divided by the time those chunks took per pass, times
``PASSES_PER_REF_S``. A slowdown that hits both alike cancels; a slower
program does not.

The task has two parts. The first builds, groups, sorts, JSON-encodes and
hashes small dicts and objects in a fresh working set; the second scans a
14,000-record list that lives as long as the process, as doorsim's dataset
and store lookups do. Interpreter code on a small working set slows more
under the neighbours' load than doorsim does (log-log slope about 0.9 in
paired timings on a two-vCPU Intel Xeon virtual machine); with the scan
the slope is about 1.0. One pass takes about a millisecond on that machine
when it is idle, with Python 3.11.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import time

PASSES_PER_REF_S = 1000
_ROWS = 320
_RECORDS = [{"device": f"door-{i % 1000:04d}", "seq": i, "frame": f"frame-{i:05d}"}
            for i in range(14_000)]


class _Point:
    __slots__ = ("seq", "score", "device")

    def __init__(self, seq: int, score: float, device: str) -> None:
        self.seq = seq
        self.score = score
        self.device = device


def reference_pass() -> str:
    """One pass of the reference task; returns a digest that never changes."""
    rows = []
    for i in range(_ROWS):
        device = f"door-{i % 7}"
        rows.append({"event_id": f"{device}:{i}", "device": device, "seq": i,
                     "score": (i * 37 % 101) / 101.0, "labels": ["dog", "cat", "face"][: i % 4]})
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["device"], []).append(row)
    points = [_Point(r["seq"], r["score"], r["device"]) for r in rows]
    points.sort(key=lambda p: (p.score, p.seq))
    best = {device: max(r["seq"] for r in group) for device, group in groups.items()}
    found = [r["seq"] for r in _RECORDS if r["device"] == "door-0007"]
    text = json.dumps({"rows": rows[:20], "best": best, "order": [p.seq for p in points],
                       "found": found}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EXPECTED = reference_pass()


def chunk_seconds_per_pass(passes: int) -> float:
    """Host seconds per pass over ``passes`` passes, with the collector off
    so that the program's live objects never enter the reference's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(passes):
            digest = reference_pass()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if digest != EXPECTED:
        raise RuntimeError("reference task gave a different result")
    return elapsed / passes


class Gauge:
    """Reference chunks interleaved with the program being timed.

    A chunk runs at creation, whenever ``poll()`` finds ``interval_s``
    passed since the last one, and on ``chunk()``. Call ``poll()`` between
    requests, outside the timed calls, and ``chunk()`` when a section ends.
    """

    def __init__(self, passes: int = 10, interval_s: float = 0.1) -> None:
        self.passes = passes
        self.interval_s = interval_s
        self.chunks: list[float] = []  # host seconds per pass
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.chunk()

    def chunk(self) -> None:
        self.starts.append(time.perf_counter())
        self.chunks.append(chunk_seconds_per_pass(self.passes))
        self.ends.append(time.perf_counter())
        self.due = self.ends[-1] + self.interval_s

    def poll(self) -> None:
        if time.perf_counter() >= self.due:
            self.chunk()

    def host_per_ref_s(self, k: int) -> float:
        """Host seconds per reference second between chunks k - 1 and k."""
        return (self.chunks[k - 1] + self.chunks[k]) / 2 * PASSES_PER_REF_S

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of program time from host time start to end,
        which must lie between two chunks: each stretch between chunks k - 1
        and k is divided by ``host_per_ref_s(k)``; chunks are not program
        time."""
        total = 0.0
        k = bisect.bisect_right(self.ends, start)
        while k < len(self.chunks) and self.ends[k - 1] < end:
            stretch = min(end, self.starts[k]) - max(start, self.ends[k - 1])
            total += stretch / self.host_per_ref_s(k)
            k += 1
        return total

    def paused_s(self, start: float, end: float) -> float:
        """Host seconds spent in chunks from start to end."""
        return sum(min(end, e) - max(start, s) for s, e in zip(self.starts, self.ends)
                   if s < end and e > start)

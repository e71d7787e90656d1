"""Spans and counts recorded around doorsim's public calls, from outside it.

The benchmark never edits the package: ``install`` swaps each listed
function, method, classmethod or property for a recording wrapper, in every
``doorsim`` module that holds a reference to it, and ``Patches.restore``
puts the original objects back. A span records its name, start, end, parent
span and trace id in flat arrays that stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterable

# Routes the workloads call, as they appear in per-route metric names.
ROUTE_LABELS = {
    "/devices/register": "devices_register",
    "/devices/auth": "devices_auth",
    "/faces/enroll": "faces_enroll",
    "/ingest": "ingest",
    "/activities": "activities",
    "/query": "query",
    "/detect/faces": "detect_faces",
    "/detect/moderation": "detect_moderation",
    "/detect/text": "detect_text",
    "/detect/labels": "detect_labels",
}


class Tracer:
    """In-memory span store plus exact counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trace: list[Any] = []
        self.stack: list[int] = []
        self.trace_id: Any = None
        self.requests = 0
        self.counts: Counter[str] = Counter()
        self.backlog_max = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def write_ndjson(self, path) -> None:
        """One JSON object per span: id, name, parent, trace, start_s, end_s."""
        names, trace = self.names, self.trace
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"id":{i},"name":"{names[self.span_name[i]]}",'
                    f'"parent":{self.parent[i]},"trace":{json.dumps(trace[i])},'
                    f'"start_s":{self.start[i]!r},"end_s":{self.end[i]!r}}}\n'
                )


def self_times(
    names: Iterable[int], starts, ends, parents
) -> tuple[dict[int, float], dict[int, float], dict[int, int]]:
    """Busy time, self time and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children; children of one parent never overlap, because every span is
    opened and closed on one thread in call order.
    """
    names = list(names)
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    busy: dict[int, float] = {}
    own: dict[int, float] = {}
    calls: dict[int, int] = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        busy[name] = busy.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child[i]
        calls[name] = calls.get(name, 0) + 1
    return busy, own, calls


def tail_percentile(samples: int, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    for p in candidates:
        if samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def span_wrapper(
    tracer: Tracer,
    name: str,
    fn: Callable,
    trace_of: Callable | None = None,
    before: Callable | None = None,
    after: Callable | None = None,
) -> Callable:
    """Wrap ``fn`` so each call records one span named ``name``.

    ``trace_of(args)`` may return the trace id the call and its children
    carry; ``before(args)`` and ``after(args, result)`` update counters.
    """
    nid = tracer.name_id(name)
    span_name, start, end = tracer.span_name, tracer.start, tracer.end
    parent, trace, stack = tracer.parent, tracer.trace, tracer.stack
    counts = tracer.counts
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        outer = tracer.trace_id
        if trace_of is not None:
            tid = trace_of(args)
            if tid is not None:
                tracer.trace_id = tid
        idx = len(start)
        span_name.append(nid)
        parent.append(stack[-1] if stack else -1)
        trace.append(tracer.trace_id)
        end.append(0.0)
        stack.append(idx)
        start.append(perf())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            counts[name + ".errors"] += 1
            raise
        finally:
            end[idx] = perf()
            stack.pop()
            tracer.trace_id = outer
        if after is not None:
            after(args, result)
        return result

    return wrapper


def generator_span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function; each ``next`` on its iterator is one span.

    The trace id of the span, and of every span opened inside it, is the
    event id of the item it yields.
    """
    nid = tracer.name_id(name)
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def replay():
            while True:
                idx = len(tracer.start)
                tracer.span_name.append(nid)
                tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
                tracer.trace.append(tracer.trace_id)
                tracer.end.append(0.0)
                tracer.stack.append(idx)
                tracer.start.append(perf())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end[idx] = perf()
                    tracer.stack.pop()
                event_id = item[0].event_id
                for j in range(idx, len(tracer.trace)):
                    tracer.trace[j] = event_id
                yield item

        return replay()

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` so each call adds one to ``counts[name]``; no span."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Replacements made by ``install``, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def replace_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind every ``doorsim`` module attribute that is ``fn``."""
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "doorsim" or module_name.startswith("doorsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)
                    patched += 1
        if patched == 0:
            raise LookupError(f"{fn.__qualname__} is not bound in any doorsim module")

    def originals(self) -> list[tuple[Any, str, Any]]:
        return list(self._undo)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap the public calls of every measured doorsim module."""
    from doorsim import backends, dataset, device, draws, edge, harness, model, transport
    from doorsim.cloud import queries, service, stores, stream, notify

    patches = Patches()

    def function(fn, name, **hooks):
        patches.replace_function(fn, span_wrapper(tracer, name, fn, **hooks))

    def method(cls, attr, name, **hooks):
        patches.set(cls, attr, span_wrapper(tracer, name, cls.__dict__[attr], **hooks))

    def classmethod_(cls, attr, name):
        fn = cls.__dict__[attr].__func__
        patches.set(cls, attr, classmethod(span_wrapper(tracer, name, fn)))

    def property_(cls, attr, name):
        fget = cls.__dict__[attr].fget
        patches.set(cls, attr, property(span_wrapper(tracer, name, fget)))

    def counted(cls, attr, name):
        patches.set(cls, attr, count_wrapper(tracer, name, cls.__dict__[attr]))

    counts = tracer.counts

    def on_append(args, entry):
        if entry.duplicate:
            counts["stream.duplicates"] += 1

    def before_pass(args):
        dispatcher, ingest_stream = args[0], args[1]
        tracer.backlog_max = max(tracer.backlog_max, len(ingest_stream) - dispatcher.checkpoint)

    def on_publish(args, delivered):
        counts["notify.delivered"] += len(delivered)

    def handle_trace(args):
        if tracer.trace_id is not None:
            return None
        tracer.requests += 1
        return tracer.requests - 1

    def on_handle(args, response):
        label = ROUTE_LABELS.get(args[1].path, "other")
        counts["cloud.handle.calls." + label] += 1
        if response.status != 200:
            counts["cloud.handle.non_200." + label] += 1

    # dataset
    function(dataset.load_manifest, "dataset.load_manifest")
    method(dataset.Dataset, "frames_for_device", "dataset.frames_for_device")
    property_(dataset.Dataset, "device_ids", "dataset.device_ids")
    # device
    method(device.DeviceRegistry, "register", "device.registry")
    method(device.DeviceRegistry, "authenticate", "device.registry")
    patches.replace_function(
        device.run_motion_script,
        generator_span_wrapper(tracer, "device.script_replay", device.run_motion_script),
    )
    # model
    method(model.EventIdFactory, "next_event_id", "model.next_event_id")
    function(model.apply_confidence_threshold, "model.apply_confidence_threshold")
    for cls in (model.FrameSample, model.AnalyticsRecord):
        method(cls, "to_dict", "model.codec")
        classmethod_(cls, "from_dict", "model.codec")
    function(model.canonical_json, "model.codec")
    # draws
    function(draws.unit_draw, "draws.unit_draw")
    # backends
    function(backends.simulate_detections, "backends.simulate_detections")
    # edge
    method(edge.EdgePipeline, "process", "edge.process",
           trace_of=lambda args: args[1].event_id)
    method(edge.EdgePipeline, "analyze", "edge.analyze")
    method(edge.EdgePipeline, "forward", "edge.forward")
    # transport
    method(transport.CloudClient, "call", "transport.call")
    counted(transport.CloudClient, "detect", "transport.detect.calls")
    counted(transport.CloudClient, "ingest", "edge.forward.attempts")
    # cloud
    method(service.CloudService, "handle", "cloud.handle",
           trace_of=handle_trace, after=on_handle)
    method(stream.IngestStream, "append", "stream.append", after=on_append)
    method(stream.Dispatcher, "run_pass", "dispatch.run_pass", before=before_pass)
    for attr in ("put", "get_activities", "latest", "all_records"):
        method(stores.MetadataStore, attr, "store." + attr)
    method(notify.NotificationHub, "publish", "notify.publish", after=on_publish)
    function(queries.answer_query, "queries.answer_query")
    # harness
    function(harness.run_experiment, "harness.run_experiment")
    function(harness.tally_frame, "harness.tally_frame")
    function(harness.latency_stats, "harness.latency_stats")
    method(harness.ExperimentReport, "to_dict", "harness.report")
    method(harness.ExperimentReport, "write_json", "harness.report")
    return patches


# Every span name ``install`` records; each gets a ``.self_s`` metric so the
# self times plus the unspanned remainder add up to the traced wall time.
SPAN_NAMES = (
    "dataset.load_manifest", "dataset.frames_for_device", "dataset.device_ids",
    "device.registry", "device.script_replay",
    "model.next_event_id", "model.apply_confidence_threshold", "model.codec",
    "draws.unit_draw", "backends.simulate_detections",
    "edge.process", "edge.analyze", "edge.forward",
    "transport.call", "cloud.handle", "stream.append", "dispatch.run_pass",
    "store.put", "store.get_activities", "store.latest", "store.all_records",
    "notify.publish", "queries.answer_query",
    "harness.run_experiment", "harness.tally_frame", "harness.latency_stats",
    "harness.report",
)

"""Runs one workload in a fresh interpreter and prints one JSON line.

``run.py`` starts this file; it is not meant to be run by hand. Modes:

- ``setup``: import doorsim and do the workload's set-up, then report and
  exit. ``run.py`` times it from process start to the report line.
- ``measure``: untraced, timed runs for the end-to-end metrics.
- ``trace``: one untraced run, then runs with every measured public call
  wrapped in a span (at least two, until ``--seconds`` pass), for the
  per-layer metrics.

Every run's outputs are checked; a failed check counts against ``failed``.
In ``measure``, chunks of a fixed reference task run between the requests
of each timed section, and its host time is reported in reference seconds
(``reference.py``), so that the neighbours' changing load cancels.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS, Op, Workload, gateway_ops, manifest_rows, probe_reads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
_import_start = time.perf_counter()
import doorsim  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _import_start
# Module objects, not names: attributes are looked up at call time, so the
# wrappers tracing.install puts on them apply.
from doorsim import cloud, dataset, harness, model, transport  # noqa: E402

THRESHOLD = 70.0
MIN_REPEATS = 3
PROBE_READS = 1000  # gateway reads after each full experiment run


# -- experiment workloads ----------------------------------------------------


def run_experiment(workload: Workload, seed: int, data):
    injector = None
    if workload.fault_probability > 0:
        injector = transport.FailureInjector(workload.fault_probability, seed=seed)
    config = harness.ExperimentConfig(backend_id=workload.backend_id, threshold=THRESHOLD, seed=seed)
    return harness.run_experiment(config, dataset=data, failure_injector=injector)


def run_captured(run, gauge: reference.Gauge | None = None):
    """Run with ``harness.CloudService`` briefly swapped for a recording factory.

    Returns (result, service, calls). With a gauge, the service instance's
    ``handle`` records (path, host seconds, chunks so far) per request and
    polls the gauge after each.
    """
    real = harness.CloudService
    captured = []
    calls: list[tuple[str, float, int]] = []

    def factory(*args, **kwargs):
        service = real(*args, **kwargs)
        if gauge is not None:
            inner = service.handle
            perf = time.perf_counter
            chunks = gauge.chunks

            def handle(request):
                start = perf()
                response = inner(request)
                calls.append((request.path, perf() - start, len(chunks)))
                gauge.poll()
                return response

            service.handle = handle
        captured.append(service)
        return service

    harness.CloudService = factory
    try:
        result = run()
    finally:
        harness.CloudService = real
    if gauge is not None:
        del captured[0].handle
    return result, captured[0], calls


def timed_section(gauge: reference.Gauge, fn):
    """(fn's result, its host seconds less the chunks run inside it, its
    program time in reference seconds)."""
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    gauge.chunk()
    return result, end - start - gauge.paused_s(start, end), gauge.ref_seconds(start, end)


def in_ref_s(gauge: reference.Gauge, samples, marks) -> list[float]:
    """Per-request host seconds in reference seconds, each over the two
    chunks around the request (``marks`` holds the chunks run before it)."""
    return [dt / gauge.host_per_ref_s(k) for dt, k in zip(samples, marks)]


def report_digest(report) -> str:
    text = model.canonical_json(report.to_dict(include_trace=True))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seq(event_id: str) -> int:
    return int(event_id.rpartition(":")[2])


def check_counters(counters: dict, frames: int) -> list[str]:
    errors = []
    if not counters["events"] == frames == counters["sampled"]:
        errors.append(f"events {counters['events']} / frames {frames} / sampled {counters['sampled']} differ")
    if counters["ingested"] + counters["dead_letters"] != counters["sampled"]:
        errors.append("ingested + dead_letters != sampled")
    return errors


def check_experiment(report, service, frames: int) -> list[str]:
    """Output invariants of one experiment run, read from its cloud service."""
    errors = check_counters(report.counters, frames)
    accepted = [e.payload for e in service.stream.read_from(0) if not e.duplicate]
    ids = [r.event_id for r in accepted]
    if len(set(ids)) != len(ids):
        errors.append("stream accepted an event id twice as non-duplicate")
    last: dict[str, int] = {}
    for record in accepted:
        seq = _seq(record.event_id)
        if last.get(record.device_id, -1) >= seq:
            errors.append(f"stream order broken for {record.device_id} at {seq}")
            break
        last[record.device_id] = seq
    stored = service.store.all_records()
    if sorted(r.event_id for r in stored) != sorted(ids):
        errors.append("stored records are not the accepted records exactly once")
    last = {}
    for record in stored:
        seq = _seq(record.event_id)
        if last.get(record.device_id, -1) >= seq:
            errors.append(f"stored sequence not increasing for {record.device_id}")
            break
        last[record.device_id] = seq
    notified = [n.event_id for n in service.hub.subscription("operator").delivery_log]
    if sorted(notified) != sorted(ids):
        errors.append("operator notifications are not the accepted records exactly once")
    if report.counters["notifications"] != len(ids):
        errors.append("notification counter disagrees with accepted records")
    return errors


# -- gateway requests ----------------------------------------------------------


def api_request(op: Op, tokens: dict[str, str]):
    headers = {"x-sim-time": str(op.at)}
    if op.cls == "ingest":
        headers["x-session-token"] = tokens[op.device]
        return cloud.ApiRequest("POST", "/ingest", headers=headers, body={"record": op.record})
    if op.kind == "activities":
        query = {"device": op.device, "from": str(op.span[0]), "to": str(op.span[1])}
        return cloud.ApiRequest("GET", "/activities", headers=headers, query=query)
    body = {"kind": op.kind, "device_id": op.device}
    if op.span is not None:
        body["from"], body["to"] = op.span
    return cloud.ApiRequest("POST", "/query", headers=headers, body=body)


def response_ok(op: Op, response) -> bool:
    body = response.body
    if response.status != 200 or not body.get("ok"):
        return False
    data = body["data"]
    if op.cls == "ingest":
        return data == op.expected
    records, counts = op.expected
    if op.kind == "activities":
        return data["records"] == records
    return data["records"] == records and data["counts"] == counts


def timed_requests(handle, requests, gauge: reference.Gauge | None = None):
    """Closed loop, one caller: (per-request host seconds, chunks run before
    each request, responses). With a gauge, it is polled between requests."""
    perf = time.perf_counter
    samples = [0.0] * len(requests)
    marks = [0] * len(requests)
    responses = [None] * len(requests)
    for i, request in enumerate(requests):
        start = perf()
        responses[i] = handle(request)
        samples[i] = perf() - start
        if gauge is not None:
            marks[i] = len(gauge.chunks)
            gauge.poll()
    return samples, marks, responses


def responses_digest(responses) -> str:
    digest = hashlib.sha256()
    for response in responses:
        digest.update(json.dumps([response.status, response.body], sort_keys=True).encode())
    return digest.hexdigest()


def gateway_setup(manifest: Path, seed: int):
    """Load the manifest, build the cloud and register/authenticate its devices."""
    data = dataset.load_manifest(manifest)
    service = cloud.CloudService(seed=seed)
    service.subscribe("operator")
    tokens = {}
    for device_id in data.device_ids:
        response = service.handle(cloud.ApiRequest(
            "POST", "/devices/register", body={"device_id": device_id}))
        secret = response.body["data"]["secret"]
        response = service.handle(cloud.ApiRequest(
            "POST", "/devices/auth", body={"device_id": device_id, "secret": secret}))
        tokens[device_id] = response.body["data"]["session_token"]
    return service, tokens


def another_repeat(done: int, start: float, seconds: float, minimum: int = MIN_REPEATS) -> bool:
    """Start another repetition? At least ``minimum``, then only while one
    more of average length still ends within ``seconds`` of ``start``."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def latency(prefix: str, samples: list[float], res: Result) -> None:
    """Median time per request of one class, from samples in reference
    seconds; the tail percentile with ten samples beyond it goes to
    ``info`` (reported, not bounded)."""
    ordered = sorted(samples)
    tail = tracing.tail_percentile(len(ordered))
    if tail is None or tail < 99.0:
        raise RuntimeError(f"{prefix}: {len(ordered)} requests leave fewer than 10 beyond p99")
    res.metrics[f"{prefix}_p50_ref_us"] = (tracing.percentile(ordered, 50.0) * 1e6, "ref_us")
    res.info[f"{prefix}_latency"] = {"requests": len(ordered),
                                     f"p{tail:g}_ref_us": tracing.percentile(ordered, tail) * 1e6}


# -- modes -----------------------------------------------------------------------


class Result:
    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    def check(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.errors.append("; ".join(errors))

    def emit(self) -> None:
        print(json.dumps({
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            "info": self.info,
            "errors": self.errors[:20],
        }), flush=True)


def probe(service, seed: int, gauge: reference.Gauge, res: Result) -> list[float]:
    """Timed reads over an experiment's final store, checked against the
    records its stream accepted; returns the per-read reference seconds."""
    by_device: dict[str, list[dict]] = {}
    for entry in service.stream.read_from(0):
        if not entry.duplicate:
            by_device.setdefault(entry.partition, []).append(entry.payload.to_dict())
    ops = probe_reads(by_device, seed, PROBE_READS, service.now_ms)
    requests = [api_request(op, {}) for op in ops]
    gc.collect()
    (samples, marks, responses), _, _ = timed_section(
        gauge, lambda: timed_requests(service.handle, requests, gauge))
    for op, response in zip(ops, responses):
        res.check([] if response_ok(op, response) else [f"read {op.kind} {op.device} disagrees"])
    return in_ref_s(gauge, samples, marks)


def measure_experiment(workload: Workload, seed: int, paths: dict, seconds: float, res: Result) -> None:
    """Repeat (full run, reads of its store, half run) while it fits in ``seconds``.

    Every full run is checked through its cloud service and then read by
    PROBE_READS gateway reads; every run's report digest must equal the
    first one of its size. Each section is timed in reference seconds;
    run times are medians over the repetitions.
    """
    sizes = {"full": dataset.load_manifest(paths["full"]),
             "half": dataset.load_manifest(paths["half"])}
    digests: dict[str, str | None] = {"full": None, "half": None}
    runs: list[dict[str, float]] = []
    host: list[dict[str, float]] = []
    requests: set[int] = set()
    ingest: list[float] = []
    reads: list[float] = []
    gauge = reference.Gauge()
    start = time.perf_counter()
    while another_repeat(len(runs), start, seconds):
        run, run_host = {}, {}
        for size, data in sizes.items():
            gc.collect()
            (report, service, calls), run_host[size], run[size] = timed_section(
                gauge, lambda: run_captured(lambda: run_experiment(workload, seed, data), gauge))
            digest = report_digest(report)
            digests[size] = digests[size] or digest
            errors = [] if digest == digests[size] else [f"{size} report digest changed"]
            if size == "half":
                res.check(errors + check_counters(report.counters, len(data)))
                continue
            res.check(errors + check_experiment(report, service, len(data)))
            requests.add(len(calls))
            ingests = [(dt, k) for path, dt, k in calls if path == "/ingest"]
            ingest.extend(in_ref_s(gauge, *zip(*ingests)))
            reads.extend(probe(service, seed, gauge, res))
            del report, service, calls
        runs.append(run)
        host.append(run_host)

    if len(requests) != 1:
        res.errors.append(f"gateway request count varies between runs: {sorted(requests)}")
    full = statistics.median(r["full"] for r in runs)
    res.metrics["frames_per_ref_s"] = (len(sizes["full"]) / full, "frames/ref_s")
    res.metrics["gateway_ops_per_ref_s"] = (max(requests) / full, "req/ref_s")
    res.metrics["scaling_2x"] = (statistics.median(r["full"] / r["half"] for r in runs), "ratio")
    latency("ingest", ingest, res)
    latency("read", reads, res)
    res.info.update({"frames": len(sizes["full"]), "half_frames": len(sizes["half"]),
                     "runs_ref_s": runs, "runs_host_s": host,
                     "host_frames_per_s": len(sizes["full"]) / statistics.median(
                         h["full"] for h in host),
                     "ref_chunks": len(gauge.chunks),
                     "report_sha256": digests})


def measure_gateway(workload: Workload, seed: int, paths: dict, seconds: float, res: Result) -> None:
    """Repeat passes of the whole request list, each on a fresh cloud, while
    they fit in ``seconds``. Each pass is timed in reference seconds; times
    are medians over the passes."""
    ops = gateway_ops(workload, manifest_rows(workload, seed), seed)
    is_ingest = [op.cls == "ingest" for op in ops]
    half = len(ops) // 2
    service, tokens = gateway_setup(paths["full"], seed)
    requests = [api_request(op, tokens) for op in ops]
    passes: list[dict[str, float]] = []
    host: list[float] = []
    ingest: list[float] = []
    reads: list[float] = []
    digest = None
    gauge = reference.Gauge()
    start = time.perf_counter()
    while another_repeat(len(passes), start, seconds):
        if passes:
            service, again = gateway_setup(paths["full"], seed)
            res.check([] if again == tokens else ["session tokens differ between set-ups"])
        gc.collect()
        (samples, marks, responses), elapsed, pass_ref_s = timed_section(
            gauge, lambda: timed_requests(service.handle, requests, gauge))
        for op, response in zip(ops, responses):
            res.check([] if response_ok(op, response) else [f"{op.kind} on {op.device} at {op.at} disagrees"])
        this = responses_digest(responses)
        digest = digest or this
        if this != digest:
            res.errors.append("responses differ between passes")
        samples = in_ref_s(gauge, samples, marks)
        pass_ingest = [dt for dt, flag in zip(samples, is_ingest) if flag]
        ingest.extend(pass_ingest)
        reads.extend(dt for dt, flag in zip(samples, is_ingest) if not flag)
        host.append(elapsed)
        passes.append({"pass": pass_ref_s, "ingest": sum(pass_ingest),
                       "scaling": sum(samples) / sum(samples[:half])})

    res.metrics["frames_per_ref_s"] = (
        sum(is_ingest) / statistics.median(p["ingest"] for p in passes), "frames/ref_s")
    res.metrics["gateway_ops_per_ref_s"] = (
        len(ops) / statistics.median(p["pass"] for p in passes), "req/ref_s")
    res.metrics["scaling_2x"] = (statistics.median(p["scaling"] for p in passes), "ratio")
    latency("ingest", ingest, res)
    latency("read", reads, res)
    res.info.update({"requests_per_pass": len(ops), "passes": len(passes),
                     "host_ops_per_s": len(ops) / statistics.median(host),
                     "passes_host_s": host, "passes_ref_s": [p["pass"] for p in passes],
                     "ref_chunks": len(gauge.chunks),
                     "responses_sha256": digest})


def per_layer(tracer: tracing.Tracer, wall: float, overhead: float, service) -> tuple[dict, dict]:
    """(metrics, exact counts) of one traced run."""
    busy, own, calls = tracing.self_times(tracer.span_name, tracer.start, tracer.end, tracer.parent)
    ids = {name: tracer.name_id(name) for name in tracing.SPAN_NAMES}
    counts = {f"{name}.calls": calls.get(ids[name], 0) for name in tracing.SPAN_NAMES}
    counts.update(tracer.counts)
    counts["dispatch.backlog_max"] = tracer.backlog_max
    counts["dispatch.dead_letters"] = len(service.dispatcher.dead_letters)

    forwards = counts["edge.forward.calls"]
    attempts = counts.get("edge.forward.attempts", 0)
    dead = counts.get("edge.forward.errors", 0)
    m: dict[str, tuple[float, str]] = {
        "setup.import_s": (IMPORT_S, "s"),
        "dataset.load_manifest.busy_s": (busy.get(ids["dataset.load_manifest"], 0.0), "s"),
    }
    for name in tracing.SPAN_NAMES:
        m[f"{name}.self_s"] = (own.get(ids[name], 0.0), "s")
    for name in ("dataset.frames_for_device", "model.next_event_id", "draws.unit_draw",
                 "backends.simulate_detections", "edge.process", "transport.call",
                 "stream.append", "dispatch.run_pass", "notify.publish"):
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
    m["transport.detect.calls"] = (counts.get("transport.detect.calls", 0), "count")
    m["edge.forward.attempts"] = (attempts, "count")
    m["edge.retries"] = (attempts - forwards, "count")
    m["edge.dead_letters"] = (dead, "count")
    m["edge.delivery_ratio"] = ((forwards - dead) / attempts if attempts else 0.0, "ratio")
    for key in ("stream.duplicates", "notify.delivered", "dispatch.dead_letters",
                "dispatch.backlog_max"):
        m[key] = (counts.get(key, 0), "count")
    for label in tracing.ROUTE_LABELS.values():
        for kind in ("calls", "non_200"):
            key = f"cloud.handle.{kind}.{label}"
            m[key] = (counts.get(key, 0), "count")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unspanned_s"] = (wall - sum(own.values()), "s")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.spans"] = (len(tracer), "count")
    return m, counts


def check_restored(patches: tracing.Patches) -> list[str]:
    return [f"{getattr(owner, '__name__', owner)}.{attr} still wrapped"
            for owner, attr, original in patches.originals()
            if (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is not original]


def trace_workload(workload: Workload, seed: int, paths: dict, seconds: float,
                   out: Path, res: Result) -> None:
    gateway = workload.kind == "gateway"
    if gateway:
        ops = gateway_ops(workload, manifest_rows(workload, seed), seed)

    def section():
        """The traced section: set-up, the run and its digest."""
        if gateway:
            service, tokens = gateway_setup(paths["full"], seed)
            requests = [api_request(op, tokens) for op in ops]
            responses = timed_requests(service.handle, requests)[2]
            return responses, service, None
        data = dataset.load_manifest(paths["full"])
        report, service, _ = run_captured(lambda: run_experiment(workload, seed, data))
        return report, service, report_digest(report)

    def outcome(result, service, digest, frames):
        if gateway:
            errors = [f"{op.kind} on {op.device} disagrees"
                      for op, response in zip(ops, result) if not response_ok(op, response)]
            return errors, responses_digest(result)
        return check_experiment(result, service, frames), digest

    frames = len(manifest_rows(workload, seed))
    t0 = time.perf_counter()
    result, service, digest = section()
    untraced = time.perf_counter() - t0
    errors, reference = outcome(result, service, digest, frames)
    res.check(errors)

    first = None
    runs: list[dict] = []
    start = time.perf_counter()
    while another_repeat(len(runs), start, seconds, minimum=2):
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            t0 = time.perf_counter()
            result, service, digest = section()
            wall = time.perf_counter() - t0
        finally:
            patches.restore()
        errors, digest = outcome(result, service, digest, frames)
        errors += check_restored(patches)
        if digest != reference:
            errors.append("traced run output differs from the untraced run")
        metrics, counts = per_layer(tracer, wall, wall - untraced, service)
        if first is None:
            first = tracer, counts
        elif counts != first[1]:
            errors.append("per-layer counts differ between traced runs: " + ", ".join(
                sorted(k for k in set(counts) | set(first[1]) if counts.get(k) != first[1].get(k))))
        res.check(errors)
        runs.append(metrics)

    # The traced run of median wall time, whole, so its self times and its
    # unspanned remainder add up to its wall time; counts repeat exactly.
    runs.sort(key=lambda run: run["trace.wall_s"][0])
    res.metrics = runs[(len(runs) - 1) // 2]
    spans = out / f"spans-{workload.name}.ndjson"
    first[0].write_ndjson(spans)
    res.info.update({"spans_file": str(spans.relative_to(out.parent.parent)),
                     "traced_runs": len(runs), "untraced_s": untraced,
                     "output_sha256": reference})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--full", type=Path, required=True)
    parser.add_argument("--half", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    paths = {"full": args.full, "half": args.half}

    if args.mode == "setup":
        if workload.kind == "gateway":
            gateway_setup(paths["full"], args.seed)
        else:
            dataset.load_manifest(paths["full"])
        print(json.dumps({"import_s": IMPORT_S}), flush=True)
        return 0

    res = Result()
    if args.mode == "measure":
        measure = measure_gateway if workload.kind == "gateway" else measure_experiment
        measure(workload, args.seed, paths, args.seconds, res)
        res.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        trace_workload(workload, args.seed, paths, args.seconds, args.out, res)
    res.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Evaluation harness: confusion accounting, metrics, experiments, reports.

Outcomes are tallied per (frame, target-label) pair. A frame contributes
one pair for every label in the union of its truth and its predictions;
a frame with neither contributes a single true negative. Accuracy,
precision, and recall derive from the tallies; precision and recall are
reported as absent (None) when their denominator is zero, never as 0 or 1.
A frame's report row takes its sorted truth and predicted names from
:func:`~doorsim.model.truth_order`; a record without detections builds no
predicted set and sorts nothing.
"""

from __future__ import annotations

import csv
import enum
import heapq
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import AbstractSet, Any, Iterable, Mapping, Sequence

from .backends import (
    DEFAULT_PROFILES,
    BackendCategory,
    BackendProfile,
    FaceCollection,
    RemoteBackend,
    SimulatedBackend,
    load_profiles,
)
from .cloud import CloudService
from .dataset import DEFAULT_KNOWN_FACES, Dataset, load_manifest
from .device import (
    DEFAULT_DEBOUNCE_MS,
    MotionScript,
    load_motion_script,
    run_motion_script,
    script_covering,
)
from .edge import EdgeConfig, EdgePipeline, RetryPolicy, SamplingPolicy
from .errors import ValidationError
from .model import (
    DEFAULT_THRESHOLD,
    EventIdFactory,
    FaceCategory,
    Label,
    canonical_json,
    field as json_field,
    map_field,
    refuse_unknown_keys,
    truth_order,
    value,
    value_field,
)
from .transport import CloudClient, FailureInjector, NetworkModel

__all__ = [
    "Outcome",
    "ConfusionCounts",
    "MetricsReport",
    "LatencyStats",
    "classify_outcome",
    "tally_frame",
    "compute_metrics",
    "f1_score",
    "latency_stats",
    "ExperimentConfig",
    "FrameOutcome",
    "ExperimentReport",
    "run_experiment",
    "run_threshold_study",
    "compare_backends",
    "ComparisonTable",
    "CSV_COLUMNS",
]


class Outcome(enum.Enum):
    TP = "tp"
    FN = "fn"
    FP = "fp"
    TN = "tn"


@dataclass
class ConfusionCounts:
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fn + other.fn, self.fp + other.fp, self.tn + other.tn
        )


def classify_outcome(truth: set[Label], predicted: set[Label], target: Label) -> Outcome:
    """Four-way outcome of one prediction for one target label."""
    in_truth = target in truth
    in_predicted = target in predicted
    if in_truth:
        return Outcome.TP if in_predicted else Outcome.FN
    return Outcome.FP if in_predicted else Outcome.TN


def tally_frame(
    truth: AbstractSet[Label], predicted: AbstractSet[Label],
    counts: ConfusionCounts | None = None,
) -> ConfusionCounts:
    """Confusion contribution of one frame, per-object accounting.

    Targets are the union of truth and predictions; a frame with neither
    counts as one true negative (absence correctly reported). The
    contribution is added to ``counts`` in place (a new ConfusionCounts
    when it is None), which is returned.
    """
    if counts is None:
        counts = ConfusionCounts()
    tp = len(truth & predicted)  # each target is in truth, predicted or both
    counts.tp += tp
    counts.fn += len(truth) - tp
    counts.fp += len(predicted) - tp
    if not truth and not predicted:
        counts.tn += 1
    return counts


def f1_score(precision: float | None, recall: float | None) -> float | None:
    """Harmonic mean of precision and recall; None when undefined."""
    if precision is None or recall is None or precision + recall == 0:
        return None
    return 2.0 * precision * recall / (precision + recall)


@value
class MetricsReport:
    """Confusion counts plus the derived quality metrics."""

    counts: ConfusionCounts
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    scenario: str | None = None
    backend_id: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "backend_id": self.backend_id,
            "tp": self.counts.tp,
            "fn": self.counts.fn,
            "fp": self.counts.fp,
            "tn": self.counts.tn,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def compute_metrics(
    counts: ConfusionCounts, scenario: str | None = None, backend_id: str = ""
) -> MetricsReport:
    """Accuracy, precision, recall, and F1 from one confusion tally."""
    total = counts.total
    if total <= 0:
        raise ValidationError("cannot derive metrics from an empty tally")
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp > 0 else None
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn > 0 else None
    return MetricsReport(
        counts=counts,
        accuracy=(counts.tp + counts.tn) / total,
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        scenario=scenario,
        backend_id=backend_id,
    )


@value
class LatencyStats:
    backend_id: str
    samples: int
    mean_ms: float
    p50_ms: float
    p95_ms: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def latency_stats(trace: Sequence[tuple[int, int]], backend_id: str = "") -> LatencyStats:
    """Round-trip statistics from (request_at, response_at) pairs."""
    if not trace:
        raise ValidationError("latency trace is empty")
    samples = sorted(float(response - request) for request, response in trace)
    if samples[0] < 0:
        raise ValidationError("negative latency sample in trace")
    return LatencyStats(
        backend_id=backend_id,
        samples=len(samples),
        mean_ms=sum(samples) / len(samples),
        p50_ms=_percentile(samples, 50),
        p95_ms=_percentile(samples, 95),
    )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (Hyndman & Fan type 7) of sorted samples.

    The virtual index is ``(n - 1) * q / 100``; the lerp starts from the
    nearer neighbour, which keeps the result the same float that the common
    array libraries return for their default ``linear`` method.
    """
    index = (len(ordered) - 1) * (q / 100)
    low = int(index)
    a, b = ordered[low], ordered[min(low + 1, len(ordered) - 1)]
    t = index - low
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


@value
class ExperimentConfig:
    """Everything a reproducible end-to-end run depends on.

    Without explicit ``scripts``, each device gets an auto-generated motion
    script that triggers every one of its frames, evenly spaced. A device
    has at most one script: the run replays each script as its own stream,
    so two scripts of one device would be debounced apart and would take
    that device's event ids out of emission order.
    """

    dataset: str | None = None
    backend_id: str = "aws-saas"
    threshold: float = DEFAULT_THRESHOLD
    seed: int = 0
    network: NetworkModel = field(default_factory=NetworkModel)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)
    debounce_ms: int = DEFAULT_DEBOUNCE_MS
    event_spacing_ms: int = 2000
    profiles_path: str | None = None
    enroll: Mapping[str, FaceCategory] = field(
        default_factory=lambda: dict(DEFAULT_KNOWN_FACES)
    )
    scripts: tuple[MotionScript, ...] | None = None

    def __post_init__(self) -> None:
        devices: set[str] = set()
        for script in self.scripts or ():
            if script.device_id in devices:
                raise ValidationError(
                    f"scripts: more than one motion script for device {script.device_id}")
            devices.add(script.device_id)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """The config of a JSON object whose keys are those of :meth:`to_dict`,
        read strictly: a malformed value or an unknown key is a ProtocolError
        naming it. A ``threshold`` outside [0, 100] or an ``enroll`` category
        of ``unknown``, which the run would refuse, is a ValidationError
        naming it, raised once every field is read, as is a second motion
        script for one device. The network's seed is the top-level
        ``seed``. A ``scripts`` item is a motion script object or the path
        of a motion script file."""
        refuse_unknown_keys(data, cls().to_dict())
        seed = json_field(data, "seed", int, 0)
        enroll = map_field(data, "enroll", FaceCategory, None)
        scripts = json_field(data, "scripts", list, None)
        config = cls(
            dataset=json_field(data, "dataset", str, None),
            backend_id=json_field(data, "backend_id", str, "aws-saas"),
            threshold=json_field(data, "threshold", float, DEFAULT_THRESHOLD),
            seed=seed,
            network=value_field(data, "network", NetworkModel, seed=seed),
            retry=value_field(data, "retry", RetryPolicy),
            sampling=value_field(data, "sampling", SamplingPolicy),
            debounce_ms=json_field(data, "debounce_ms", int, DEFAULT_DEBOUNCE_MS),
            event_spacing_ms=json_field(data, "event_spacing_ms", int, 2000),
            profiles_path=json_field(data, "profiles", str, None),
            enroll=dict(DEFAULT_KNOWN_FACES) if enroll is None else enroll,
            scripts=tuple(
                load_motion_script(entry) if type(entry) is str else MotionScript.from_dict(entry)
                for entry in scripts
            ) if scripts else None,
        )
        # Well-typed values that the run would refuse, refused here instead.
        if not 0.0 <= config.threshold <= 100.0:  # as EdgeConfig
            raise ValidationError(f"threshold out of [0, 100]: {config.threshold}")
        for identity, category in config.enroll.items():
            if category is FaceCategory.UNKNOWN:  # as FaceCollection.enroll
                raise ValidationError(
                    f"enroll.{identity}: cannot enroll an identity as {category.value}")
        return config

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset,
            "backend_id": self.backend_id,
            "threshold": self.threshold,
            "seed": self.seed,
            "network": self.network.to_dict(),
            "retry": asdict(self.retry),
            "sampling": asdict(self.sampling),
            "debounce_ms": self.debounce_ms,
            "event_spacing_ms": self.event_spacing_ms,
            "profiles": self.profiles_path,
            "enroll": {k: v.value for k, v in sorted(self.enroll.items())},
            "scripts": (None if self.scripts is None
                        else [s.to_dict() for s in self.scripts]),
        }


@value
class FrameOutcome:
    """Raw (truth, prediction) pair for one analyzed frame."""

    frame_id: str
    event_id: str
    scenario: str
    truth: tuple[str, ...]
    predicted: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "frame_id": self.frame_id,
            "event_id": self.event_id,
            "scenario": self.scenario,
            "truth": list(self.truth),
            "predicted": list(self.predicted),
        }


CSV_COLUMNS = [
    "backend", "scenario", "tp", "fn", "fp", "tn", "accuracy", "precision",
    "recall", "f1", "mean_latency_ms", "p95_latency_ms", "memory_mb", "cpu_pct",
]


@dataclass
class ExperimentReport:
    """Full output of one end-to-end run."""

    backend_id: str
    dataset_fingerprint: str
    config: dict[str, Any]
    scenario_metrics: dict[str, MetricsReport]
    overall: MetricsReport
    latency: LatencyStats
    memory_mb: float
    cpu_pct: float
    counters: dict[str, int]
    frames: list[FrameOutcome] = field(default_factory=list)

    def to_dict(self, include_trace: bool = False) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "backend_id": self.backend_id,
            "dataset_fingerprint": self.dataset_fingerprint,
            "config": self.config,
            "counters": self.counters,
            "scenario_metrics": {
                name: report.to_dict() for name, report in sorted(self.scenario_metrics.items())
            },
            "overall": self.overall.to_dict(),
            "latency": self.latency.to_dict(),
            "resources": {"memory_mb": self.memory_mb, "cpu_pct": self.cpu_pct},
        }
        if include_trace:
            doc["frames"] = [f.to_dict() for f in self.frames]
        return doc

    def write_json(self, path: str | Path, include_trace: bool = False) -> None:
        Path(path).write_text(canonical_json(self.to_dict(include_trace)) + "\n", encoding="utf-8")

    def write_csv(self, path: str | Path) -> None:
        reports = [*self.scenario_metrics.items(), ("overall", self.overall)]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(_csv_row(self, name, metrics) for name, metrics in reports)


def _csv_row(report: ExperimentReport, scenario: str, metrics: MetricsReport) -> dict[str, Any]:
    """One CSV row: a report's metrics for one scenario (or overall)."""
    return {
        "backend": report.backend_id,
        "scenario": scenario,
        "tp": metrics.counts.tp,
        "fn": metrics.counts.fn,
        "fp": metrics.counts.fp,
        "tn": metrics.counts.tn,
        "accuracy": metrics.accuracy,
        "precision": "" if metrics.precision is None else metrics.precision,
        "recall": "" if metrics.recall is None else metrics.recall,
        "f1": "" if metrics.f1 is None else metrics.f1,
        "mean_latency_ms": report.latency.mean_ms,
        "p95_latency_ms": report.latency.p95_ms,
        "memory_mb": report.memory_mb,
        "cpu_pct": report.cpu_pct,
    }


def _resolve_profiles(config: ExperimentConfig) -> dict[str, BackendProfile]:
    if config.profiles_path:
        return load_profiles(config.profiles_path)
    return dict(DEFAULT_PROFILES)


def _dump_partial_trace(path, config, counters, trace) -> None:
    doc = {
        "config": config.to_dict(),
        "counters": counters,
        "frames": [
            {"event_id": event_id, "frame_id": frame_id, "delivered": delivered}
            for event_id, frame_id, delivered in trace
        ],
    }
    Path(path).write_text(canonical_json(doc) + "\n", encoding="utf-8")


def _make_backend(
    profile: BackendProfile,
    seed: int,
    client: CloudClient,
    enroll: Mapping[str, FaceCategory],
):
    if profile.category is BackendCategory.CLOUD_SAAS:
        return RemoteBackend(client, profile)
    collection = FaceCollection("on-device")
    for identity, category in sorted(enroll.items()):
        collection.enroll(identity, category)
    return SimulatedBackend(profile, seed, collection)


_NO_LABELS: frozenset[Label] = frozenset()  # the predicted set of a record with no detections


def run_experiment(
    config: ExperimentConfig,
    dataset: Dataset | None = None,
    profiles: Mapping[str, BackendProfile] | None = None,
    failure_injector: FailureInjector | None = None,
    partial_trace_path: str | Path | None = None,
) -> ExperimentReport:
    """Drive device -> edge -> cloud end to end and tally the results.

    Deterministic given the config seed: detection draws, network jitter,
    credentials, and stream sequencing are all derived from it. A component
    error aborts the run; when ``partial_trace_path`` is set, the frames
    processed so far are dumped there before the error propagates.
    """
    if dataset is None:
        if config.dataset is None:
            raise ValidationError("experiment config names no dataset")
        dataset = load_manifest(config.dataset)
    profile_map = dict(profiles) if profiles is not None else _resolve_profiles(config)
    if config.backend_id not in profile_map:
        raise ValidationError(f"unknown backend profile: {config.backend_id}")
    profile = profile_map[config.backend_id]

    service = CloudService(seed=config.seed, profiles=profile_map)
    service.subscribe("operator")
    client = CloudClient(
        service,
        network=replace(config.network, seed=config.seed),
        failure_injector=failure_injector,
    )
    for identity, category in sorted(config.enroll.items()):
        client.enroll_face(identity, category.value)

    backend = _make_backend(profile, config.seed, client, config.enroll)
    edge_config = EdgeConfig(
        threshold=config.threshold,
        retry=config.retry,
        sampling=config.sampling,
    )
    pipeline = EdgePipeline(edge_config, backend, client)

    sessions: dict[str, str] = {}
    for device_id in dataset.device_ids:
        _, secret = client.register_device(device_id)
        sessions[device_id] = client.authenticate(device_id, secret)

    event_ids = EventIdFactory()
    scripts = config.scripts or tuple(
        script_covering(
            dataset, device_id,
            spacing_ms=config.event_spacing_ms, debounce_ms=config.debounce_ms,
        )
        for device_id in dataset.device_ids
    )
    streams = [run_motion_script(script, dataset, event_ids) for script in scripts]
    merged = heapq.merge(*streams, key=lambda pair: (pair[0].at, pair[0].device_id))

    counters = {"events": 0, "sampled": 0, "ingested": 0, "dead_letters": 0}
    # Each event is tallied from the edge's own record as it is processed; a
    # dead-lettered record counts too, since the analysis happened even when
    # delivery did not. Per event, only the partial trace's fields are kept.
    trace: list[tuple[str, str, bool]] = []
    frames: list[FrameOutcome] = []
    latencies: list[tuple[int, int]] = []
    per_scenario: defaultdict[str, ConfusionCounts] = defaultdict(ConfusionCounts)
    try:
        for event, frame in merged:
            counters["events"] += 1
            outcome = pipeline.process(event, frame, sessions[event.device_id])
            record = outcome.record
            delivered = outcome.ack is not None
            trace.append((event.event_id, frame.frame_id, delivered))
            if record is None:
                continue
            counters["sampled"] += 1
            counters["ingested" if delivered else "dead_letters"] += 1
            latencies.append((record.captured_at, record.detected_at))
            detections = record.detections
            # most records have none: no set to build and nothing to sort then
            predicted = frozenset([d.label for d in detections]) if detections else _NO_LABELS
            scenario = frame.scenario._value_
            frames.append(FrameOutcome(
                frame.frame_id, record.event_id, scenario, truth_order(frame.truth)[1],
                truth_order(predicted)[1] if detections else (),
            ))
            tally_frame(frame.truth, predicted, per_scenario[scenario])
    except Exception:
        if partial_trace_path is not None:
            _dump_partial_trace(partial_trace_path, config, counters, trace)
        raise
    service.run_dispatch()
    counters["notifications"] = len(service.hub.subscription("operator").delivery_log)

    scenario_metrics = {
        name: compute_metrics(counts, scenario=name, backend_id=config.backend_id)
        for name, counts in per_scenario.items()
    }
    overall_counts = sum(per_scenario.values(), ConfusionCounts())
    overall = compute_metrics(overall_counts, scenario=None, backend_id=config.backend_id)
    latency = latency_stats(latencies, backend_id=config.backend_id)
    return ExperimentReport(
        backend_id=config.backend_id,
        dataset_fingerprint=dataset.fingerprint(),
        config=config.to_dict(),
        scenario_metrics=scenario_metrics,
        overall=overall,
        latency=latency,
        memory_mb=profile.memory_mb,
        cpu_pct=profile.cpu_pct,
        counters=counters,
        frames=frames,
    )


def run_threshold_study(
    config: ExperimentConfig,
    dataset: Dataset | None = None,
    thresholds: Iterable[float] = (90.0, 70.0),
) -> dict[float, ExperimentReport]:
    """Re-run one seeded experiment at several confidence thresholds.

    The study uses a perfect-emission variant of the configured backend
    (recall 1, no spurious detections), so every false negative it reports
    is caused by thresholding alone. With the default confidence model the
    stricter threshold clips low-confidence detections into false
    negatives; the relaxed threshold eliminates all of them.
    """
    profiles = _resolve_profiles(config)
    profiles[config.backend_id] = profiles[config.backend_id].with_perfect_recall()
    if dataset is None:
        if config.dataset is None:
            raise ValidationError("experiment config names no dataset")
        dataset = load_manifest(config.dataset)
    results = {}
    for threshold in thresholds:
        run_config = replace(config, threshold=float(threshold))
        results[float(threshold)] = run_experiment(run_config, dataset=dataset, profiles=profiles)
    return results


@dataclass
class ComparisonTable:
    """Backends side by side, best overall F1 first."""

    rows: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {"rows": self.rows}

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(canonical_json(self.to_dict()) + "\n", encoding="utf-8")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})


def compare_backends(reports: Sequence[ExperimentReport]) -> ComparisonTable:
    """Comparative table of >= 2 reports over the same dataset."""
    if len(reports) < 2:
        raise ValidationError("comparison needs at least two reports")
    fingerprints = {report.dataset_fingerprint for report in reports}
    if len(fingerprints) != 1:
        raise ValidationError("reports cover different datasets; comparison is meaningless")
    rows = [_csv_row(report, "overall", report.overall) for report in reports]
    rows.sort(key=lambda row: (-(row["f1"] if row["f1"] != "" else -1.0), row["backend"]))
    return ComparisonTable(rows)

"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
pass/fail line for every criterion alongside the pytest verdicts.
"""

import contextlib
import json
import random
import time

from doorsim.backends import DEFAULT_PROFILES, SimulatedBackend
from doorsim.cli import main
from doorsim.cloud import CloudService
from doorsim.cloud.service import ApiRequest, ROUTES
from doorsim.dataset import Dataset, GeneratorConfig, generate_dataset
from doorsim.edge import EdgeConfig, EdgePipeline, RetryPolicy
from doorsim.harness import (
    ConfusionCounts,
    ExperimentConfig,
    compare_backends,
    compute_metrics,
    f1_score,
    run_experiment,
    run_threshold_study,
)
from doorsim.model import FrameSample, Label, MotionEvent, ScenarioKind, canonical_json
from doorsim.transport import CloudClient, FailureInjector, NetworkModel
from make_golden import GOLDEN_DIR, GOLDEN_SEED

# Published per-100-frame count rows: scenario, (tp, fn, fp, tn),
# (accuracy %, precision %, recall %).
TABLE_ROWS = [
    (ScenarioKind.FACE_RECOGNITION, (45, 5, 0, 50), (95, 100, 90)),
    (ScenarioKind.UNSAFE_CONTENT, (44, 6, 0, 50), (94, 100, 88)),
    (ScenarioKind.ANIMAL_DETECTION, (40, 10, 0, 50), (90, 100, 80)),
    (ScenarioKind.NOTEWORTHY_VEHICLE, (43, 7, 0, 50), (93, 100, 86)),
    (ScenarioKind.MULTI_OBJECT, (15, 2, 0, 83), (98, 100, 88)),
]

TABLE_RECALL = {scenario: recall / 100 for scenario, _, (_, _, recall) in TABLE_ROWS}

RESOURCE_TABLE = {
    "aws-saas": (1.99, 28.0),
    "mobilenet-ssd": (473.96, 33.30),
    "hog-svm": (30.09, 30.0),
    "haar": (22.86, 30.20),
}


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[acceptance] criterion {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_metric_reproduction():
    with criterion(1, "metric reproduction from count rows", budget_s=1.0):
        for scenario, counts, (accuracy, precision, recall) in TABLE_ROWS:
            report = compute_metrics(ConfusionCounts(*counts), scenario=scenario.value)
            assert round(report.accuracy * 100) == accuracy, scenario
            assert round(report.precision * 100) == precision, scenario
            assert round(report.recall * 100) == recall, scenario


def test_criterion_2_f1_reproduction():
    with criterion(2, "F1 against the harmonic-mean oracle", budget_s=1.0):
        expected_4dp = [0.9474, 0.9362, 0.9247, 0.8889, 0.9375]
        ordered = [TABLE_ROWS[0], TABLE_ROWS[1], TABLE_ROWS[3], TABLE_ROWS[2], TABLE_ROWS[4]]
        for (scenario, counts, _), expected in zip(ordered, expected_4dp):
            report = compute_metrics(ConfusionCounts(*counts))
            oracle = (2 * report.precision * report.recall
                      / (report.precision + report.recall))
            value = f1_score(report.precision, report.recall)
            assert abs(value - oracle) < 1e-9, scenario
            assert round(value, 4) == expected, scenario


def test_criterion_3_end_to_end_calibration():
    with criterion(3, "remote-backend recall calibration", budget_s=30.0):
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=tuple(ScenarioKind), positives=1000, negatives=1000, seed=404,
        )))
        config = ExperimentConfig(backend_id="aws-saas", threshold=70.0, seed=404)
        report = run_experiment(config, dataset=dataset)
        for scenario, expected_recall in TABLE_RECALL.items():
            metrics = report.scenario_metrics[scenario.value]
            assert metrics.precision == 1.0, scenario
            assert abs(metrics.recall - expected_recall) <= 0.03, (
                scenario, metrics.recall, expected_recall,
            )


def test_criterion_4_threshold_study():
    with criterion(4, "threshold 90 vs 70 false negatives", budget_s=30.0):
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=tuple(ScenarioKind), positives=100, negatives=100, seed=55,
        )))
        config = ExperimentConfig(backend_id="aws-saas", seed=55)
        results = run_threshold_study(config, dataset=dataset, thresholds=(90.0, 70.0))
        assert results[90.0].overall.counts.fn > 0
        assert results[70.0].overall.counts.fn == 0


def test_criterion_5_latency_ordering():
    with criterion(5, "remote latency exceeds on-device", budget_s=30.0):
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=(ScenarioKind.ANIMAL_DETECTION,), positives=100, negatives=100,
            seed=77,
        )))
        means = {}
        for backend_id in RESOURCE_TABLE:
            config = ExperimentConfig(backend_id=backend_id, threshold=70.0, seed=77)
            means[backend_id] = run_experiment(config, dataset=dataset).latency.mean_ms

        network = NetworkModel()
        service_time = DEFAULT_PROFILES["aws-saas"].service_time_ms
        lo = 2 * (network.base_delay_ms - network.jitter_ms) + service_time
        hi = 2 * (network.base_delay_ms + network.jitter_ms) + service_time
        assert lo <= means["aws-saas"] <= hi
        for backend_id in ("mobilenet-ssd", "hog-svm", "haar"):
            assert means["aws-saas"] > means[backend_id], (backend_id, means)
            assert means[backend_id] == DEFAULT_PROFILES[backend_id].service_time_ms


def test_criterion_6_resource_table():
    with criterion(6, "resource columns and memory ratio", budget_s=1.0):
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=(ScenarioKind.UNSAFE_CONTENT,), positives=5, negatives=5, seed=6,
        )))
        reports = [
            run_experiment(
                ExperimentConfig(backend_id=backend_id, threshold=70.0, seed=6),
                dataset=dataset,
            )
            for backend_id in RESOURCE_TABLE
        ]
        table = compare_backends(reports)
        by_backend = {row["backend"]: row for row in table.rows}
        for backend_id, (memory_mb, cpu_pct) in RESOURCE_TABLE.items():
            assert by_backend[backend_id]["memory_mb"] == memory_mb
            assert by_backend[backend_id]["cpu_pct"] == cpu_pct
        ratio = by_backend["mobilenet-ssd"]["memory_mb"] / by_backend["aws-saas"]["memory_mb"]
        assert ratio > 15


def _pipeline_trial(trial: int) -> None:
    """One seeded trial of criterion 7; raises on any violation."""
    devices = [f"door-{d}" for d in range(1, 6)]
    events_per_device = 100
    service = CloudService(seed=trial, auto_dispatch=(trial % 2 == 0))
    service.subscribe("operator")
    injector = FailureInjector(probability=0.3, seed=trial * 31 + 7)
    client = CloudClient(service, network=NetworkModel(jitter_ms=0), failure_injector=injector)
    profile = DEFAULT_PROFILES["haar"]
    pipeline = EdgePipeline(
        EdgeConfig(threshold=70.0, retry=RetryPolicy(max_attempts=60, backoff_ms=10)),
        SimulatedBackend(profile, seed=trial),
        client,
    )
    sessions = {}
    for device_id in devices:
        _, secret = client.register_device(device_id)
        sessions[device_id] = client.authenticate(device_id, secret)

    label = Label("dog", ScenarioKind.ANIMAL_DETECTION)
    expected_event_ids = set()
    for seq in range(events_per_device):
        for device_id in devices:
            at = seq * 2000
            event = MotionEvent(device_id, at, f"{device_id}:{seq}")
            frame = FrameSample(
                frame_id=f"{device_id}-f{seq}", device_id=device_id, captured_at=at,
                truth=frozenset({label}), scenario=ScenarioKind.ANIMAL_DETECTION,
            )
            outcome = pipeline.process(event, frame, sessions[device_id])
            assert outcome.ack is not None, "delivery must eventually succeed"
            expected_event_ids.add(event.event_id)
        if not service.auto_dispatch and seq % 7 == 0:
            service.run_dispatch()  # interleave dispatch passes with ingests
    service.run_dispatch()

    # exactly one stored record per event
    stored = service.store.all_records()
    assert len(stored) == len(expected_event_ids)
    assert {r.event_id for r in stored} == expected_event_ids

    # per-device order preserved
    for device_id in devices:
        activities = service.store.get_activities(device_id, 0, 10**9)
        sequences = [int(r.event_id.split(":")[1]) for r in activities]
        assert sequences == list(range(events_per_device)), device_id

    # exactly one notification per subscribed event
    log = service.hub.subscription("operator").delivery_log
    assert len(log) == len(expected_event_ids)
    assert {n.event_id for n in log} == expected_event_ids


def test_criterion_7_pipeline_properties_under_failures():
    with criterion(7, "exactly-once effects under transient faults", budget_s=60.0):
        for trial in range(100):
            _pipeline_trial(trial)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "confusion counts vs brute-force recount", budget_s=60.0):
        rng = random.Random(2718)
        backends = list(RESOURCE_TABLE)
        for case in range(200):
            scenarios = tuple(rng.sample(list(ScenarioKind), rng.randint(1, 3)))
            positives = rng.randint(1, 12)
            negatives = rng.randint(0, max(0, (50 - positives * len(scenarios))
                                           // len(scenarios) - positives))
            dataset = Dataset(generate_dataset(GeneratorConfig(
                scenarios=scenarios, positives=positives, negatives=negatives,
                seed=case,
            )))
            assert len(dataset) <= 50
            config = ExperimentConfig(
                backend_id=backends[case % len(backends)],
                threshold=float(rng.choice([70, 80, 90])),
                seed=case * 13 + 1,
            )
            report = run_experiment(config, dataset=dataset)

            recount = ConfusionCounts()
            for pair in report.frames:
                truth = set(pair.truth)
                predicted = set(pair.predicted)
                targets = truth | predicted
                if not targets:
                    recount.tn += 1
                    continue
                for target in targets:
                    if target in truth and target in predicted:
                        recount.tp += 1
                    elif target in truth:
                        recount.fn += 1
                    else:
                        recount.fp += 1
            totals = report.overall.counts
            assert (totals.tp, totals.fn, totals.fp, totals.tn) == (
                recount.tp, recount.fn, recount.fp, recount.tn,
            ), f"case {case}"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical evaluate runs", budget_s=60.0):
        gen_config = tmp_path / "gen.json"
        gen_config.write_text(json.dumps({
            "scenarios": [kind.value for kind in ScenarioKind],
            "positives": 50, "seed": 12,
        }))
        dataset_path = tmp_path / "data.ndjson"
        assert main(["gen-dataset", "--config", str(gen_config),
                     "--out", str(dataset_path)]) == 0
        exp_config = tmp_path / "exp.json"
        exp_config.write_text(json.dumps({
            "dataset": str(dataset_path), "backend_id": "aws-saas",
            "threshold": 70.0, "seed": 12,
        }))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["evaluate", "--config", str(exp_config), "--out", str(out_a)]) == 0
        assert main(["evaluate", "--config", str(exp_config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes()  # non-empty


def test_criterion_10_protocol_conformance():
    with criterion(10, "golden protocol replay", budget_s=30.0):
        paths = sorted(GOLDEN_DIR.glob("*.json"))
        assert paths, "golden files missing; run python3 tests/make_golden.py"
        service = CloudService(seed=GOLDEN_SEED)
        covered = set()
        names = []
        for path in paths:
            step = json.loads(path.read_text())
            names.append(step["name"])
            request = step["request"]
            response = service.handle(ApiRequest(
                method=request["method"], path=request["path"],
                headers=request["headers"], body=request["body"],
                query=request["query"],
            ))
            actual = canonical_json({"status": response.status, "body": response.body})
            assert actual.encode() == canonical_json(step["response"]).encode(), step["name"]
            path_key = request["path"]
            if path_key.startswith("/blobs/"):
                path_key = "/blobs/{ref}"
            covered.add((request["method"], path_key))
        assert len({(m, p) for m, p, _ in ROUTES}) == 13
        assert covered >= {
            (m, "/blobs/{ref}" if p.startswith(r"/blobs/(") else p)
            for m, p, _ in ROUTES
        }
        # enrollment happened before the known-face match and unknown fallback
        assert names.index("enroll_face") < names.index("detect_faces_known")
        assert names.index("detect_faces_known") < names.index("detect_faces_unknown")

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from doorsim import harness as harness_module
from doorsim.backends import DEFAULT_PROFILES, RemoteBackend, simulate_detections
from doorsim.cloud import CloudService
from doorsim.dataset import Dataset, GeneratorConfig, generate_dataset
from doorsim.errors import DatasetError, ValidationError
from doorsim.harness import (
    ConfusionCounts,
    ExperimentConfig,
    FrameOutcome,
    Outcome,
    classify_outcome,
    compare_backends,
    compute_metrics,
    f1_score,
    latency_stats,
    run_experiment,
    run_threshold_study,
    tally_frame,
)
from doorsim.device import MotionScript
from doorsim.edge import EdgePipeline, RetryPolicy, SamplingPolicy
from doorsim.model import (
    DEFAULT_VOCABULARY, FaceCategory, FrameSample, Label, ScenarioKind, canonical_json, truth_set,
)
from doorsim.transport import CloudClient, FailureInjector, NetworkModel

ANIMAL = ScenarioKind.ANIMAL_DETECTION


def labels(*names):
    return {Label(n, ANIMAL) for n in names}


class TestClassifyOutcome:
    def test_present_and_detected_is_tp(self):
        target = Label("ambulance", ScenarioKind.NOTEWORTHY_VEHICLE)
        assert classify_outcome({target}, {target}, target) is Outcome.TP

    def test_present_and_missed_is_fn(self):
        target = Label("ambulance", ScenarioKind.NOTEWORTHY_VEHICLE)
        assert classify_outcome({target}, set(), target) is Outcome.FN

    def test_absent_but_detected_is_fp(self):
        target = Label("ambulance", ScenarioKind.NOTEWORTHY_VEHICLE)
        assert classify_outcome(set(), {target}, target) is Outcome.FP

    def test_absent_and_not_detected_is_tn(self):
        target = Label("ambulance", ScenarioKind.NOTEWORTHY_VEHICLE)
        assert classify_outcome(set(), set(), target) is Outcome.TN


class TestTallyFrame:
    def test_empty_frame_is_one_tn(self):
        counts = tally_frame(set(), set())
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (0, 0, 0, 1)

    def test_multi_label_per_object_accounting(self):
        counts = tally_frame(labels("person", "dog"), labels("person", "package"))
        assert counts.tp == 1  # person
        assert counts.fn == 1  # dog missed
        assert counts.fp == 1  # package fabricated
        assert counts.tn == 0

    @given(
        st.sets(st.sampled_from(["person", "dog", "package", "cat"]), max_size=4),
        st.sets(st.sampled_from(["person", "dog", "package", "cat"]), max_size=4),
    )
    def test_matches_naive_recount(self, truth_names, predicted_names):
        truth, predicted = labels(*truth_names), labels(*predicted_names)
        counts = tally_frame(truth, predicted)

        naive = ConfusionCounts()
        targets = truth | predicted
        if not targets:
            naive.tn = 1
        for target in targets:
            if target in truth and target in predicted:
                naive.tp += 1
            elif target in truth:
                naive.fn += 1
            elif target in predicted:
                naive.fp += 1
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (
            naive.tp, naive.fn, naive.fp, naive.tn,
        )


# Published per-100-frame count rows and their integer-percent metrics.
COUNT_ROWS = [
    ("face_recognition", (45, 5, 0, 50), (95, 100, 90)),
    ("unsafe_content", (44, 6, 0, 50), (94, 100, 88)),
    ("animal_detection", (40, 10, 0, 50), (90, 100, 80)),
    ("noteworthy_vehicle", (43, 7, 0, 50), (93, 100, 86)),
    ("multi_object", (15, 2, 0, 83), (98, 100, 88)),
]


class TestComputeMetrics:
    @pytest.mark.parametrize("scenario,counts,expected", COUNT_ROWS)
    def test_count_rows_reproduce_percentages(self, scenario, counts, expected):
        report = compute_metrics(ConfusionCounts(*counts), scenario=scenario)
        accuracy, precision, recall = expected
        assert round(report.accuracy * 100) == accuracy
        assert round(report.precision * 100) == precision
        assert round(report.recall * 100) == recall

    def test_empty_tally_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(ConfusionCounts())

    def test_precision_absent_when_no_positive_predictions(self):
        report = compute_metrics(ConfusionCounts(tp=0, fn=3, fp=0, tn=7))
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None

    def test_recall_absent_when_no_positive_truth(self):
        report = compute_metrics(ConfusionCounts(tp=0, fn=0, fp=2, tn=8))
        assert report.recall is None
        assert report.precision == 0.0

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_metric_identities(self, tp, fn, fp, tn):
        counts = ConfusionCounts(tp, fn, fp, tn)
        if counts.total == 0:
            return
        report = compute_metrics(counts)
        assert report.accuracy * counts.total == pytest.approx(tp + tn, abs=1e-12)
        if report.precision is not None:
            assert report.precision * (tp + fp) == pytest.approx(tp, abs=1e-12)
        if report.recall is not None:
            assert report.recall * (tp + fn) == pytest.approx(tp, abs=1e-12)
        if report.f1 is not None:
            p, r = report.precision, report.recall
            assert report.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestF1:
    @pytest.mark.parametrize("precision,recall,expected4", [
        (1.00, 0.90, 0.9474),
        (1.00, 0.88, 0.9362),
        (1.00, 0.86, 0.9247),
        (1.00, 0.80, 0.8889),
        (1.00, 15 / 17, 0.9375),
    ])
    def test_against_direct_oracle(self, precision, recall, expected4):
        oracle = 2 * precision * recall / (precision + recall)
        value = f1_score(precision, recall)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert round(value, 4) == expected4

    @given(st.floats(min_value=0.001, max_value=1.0))
    def test_harmonic_mean_of_equals(self, x):
        assert f1_score(x, x) == pytest.approx(x)

    def test_undefined_cases(self):
        assert f1_score(0.0, 0.0) is None
        assert f1_score(None, 0.9) is None
        assert f1_score(0.9, None) is None


class TestLatencyStats:
    def test_constant_samples(self):
        stats = latency_stats([(0, 100), (50, 150), (200, 300)], backend_id="b")
        assert stats.mean_ms == 100.0
        assert stats.p50_ms == 100.0
        assert stats.p95_ms == 100.0

    def test_remote_model_without_jitter_is_exact(self):
        # 2 x 40 one-way + 20 service = 100 per round trip
        client = CloudClient(CloudService(), network=NetworkModel(base_delay_ms=40, jitter_ms=0))
        backend = RemoteBackend(client, replace(DEFAULT_PROFILES["aws-saas"], service_time_ms=20))
        trace = []
        for i in range(10):
            start = i * 1000
            frame = FrameSample(f"f{i}", "door-1", start, frozenset(), ANIMAL)
            trace.append((start, start + backend.detect(frame)[1]))
        stats = latency_stats(trace)
        assert stats.mean_ms == 100.0
        assert stats.p50_ms == 100.0

    def test_local_backend_latency_is_service_time(self):
        stats = latency_stats([(0, 15)])
        assert stats.mean_ms == 15.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            latency_stats([])

    def test_p50_le_p95(self):
        rng = random.Random(4)
        trace = [(0, rng.randrange(10, 500)) for _ in range(100)]
        stats = latency_stats(trace)
        assert stats.p50_ms <= stats.p95_ms

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 101, 1000])
    def test_matches_numpy_exactly(self, n):
        np = pytest.importorskip("numpy")
        rng = random.Random(n)
        trace = []
        for _ in range(n):
            start = rng.randrange(0, 10_000)
            trace.append((start, start + rng.randrange(0, 500)))
        samples = np.array([response - request for request, response in trace], dtype=float)
        stats = latency_stats(trace)
        assert stats.mean_ms == float(np.mean(samples))
        assert stats.p50_ms == float(np.percentile(samples, 50))
        assert stats.p95_ms == float(np.percentile(samples, 95))


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, doorsim; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


NAMES = st.text(max_size=8)
COUNTS = st.integers(0, 10 ** 6)


@st.composite
def motion_scripts(draw):
    entries = draw(st.lists(st.tuples(COUNTS, NAMES), max_size=4))
    return MotionScript(draw(NAMES), tuple(sorted(entries)), debounce_ms=draw(COUNTS))


@st.composite
def experiment_configs(draw):
    """Valid configs, every field drawn; the network's seed is the config's.
    The threshold is in [0, 100], no identity is enrolled as unknown, and
    without scripts the event spacing exceeds the debounce window: reading a
    config refuses each, as the run would."""
    seed = draw(st.integers() | st.integers(-(2 ** 70), 2 ** 70))
    base = draw(COUNTS)
    debounce_ms = draw(COUNTS)
    # [] is read as "no scripts" (None), so a drawn script list is
    # non-empty; a device has at most one script
    scripts = draw(st.none() | st.lists(motion_scripts(), min_size=1, max_size=3,
                                        unique_by=lambda script: script.device_id).map(tuple))
    spacing = COUNTS if scripts is not None else st.integers(debounce_ms + 1, 10 ** 6 + 1)
    return ExperimentConfig(
        dataset=draw(st.none() | NAMES),
        backend_id=draw(NAMES),
        threshold=draw(st.floats(0.0, 100.0)),
        seed=seed,
        network=NetworkModel(base, draw(st.integers(0, base)), seed),
        retry=RetryPolicy(draw(st.integers(1, 10)), draw(COUNTS)),
        sampling=SamplingPolicy(draw(st.integers(1, 10)), draw(COUNTS)),
        debounce_ms=debounce_ms,
        event_spacing_ms=draw(spacing),
        profiles_path=draw(st.none() | NAMES),
        enroll=draw(st.dictionaries(NAMES, st.sampled_from(
            [c for c in FaceCategory if c is not FaceCategory.UNKNOWN]), max_size=4)),
        scripts=scripts,
    )


def small_dataset(seed, scenarios=(ANIMAL,), positives=10, negatives=None):
    return Dataset(generate_dataset(GeneratorConfig(
        scenarios=scenarios, positives=positives, negatives=negatives, seed=seed,
    )))


@st.composite
def truth_datasets(draw):
    """Small datasets whose truths are shared sets, fresh frozensets equal to
    one, or sets with names outside the vocabulary or of another scenario."""
    frames = []
    for index in range(draw(st.integers(1, 12))):
        scenario = draw(st.sampled_from(list(ScenarioKind)))
        vocabulary = DEFAULT_VOCABULARY[scenario]
        names = sorted(draw(st.sets(st.sampled_from(vocabulary))))
        form = draw(st.sampled_from(["shared", "equal", "other"]))
        if form == "shared":
            truth = truth_set(scenario, names)
        elif form == "equal":
            truth = frozenset(Label(name, scenario) for name in names)
        else:  # a face detection of another scenario's label would be invalid
            kinds = [scenario] if scenario is ScenarioKind.FACE_RECOGNITION else list(ScenarioKind)
            truth = frozenset({Label(name, scenario) for name in names} | draw(st.sets(
                st.builds(Label, st.sampled_from(["zebra", "a", *vocabulary]),
                          st.sampled_from(kinds)), max_size=3)))
        frames.append(FrameSample(f"f{index:02d}", "door-1", 0, truth, scenario,
                                  draw(st.none() | st.just("alice"))))
    return Dataset(frames)


class TestRunExperiment:
    @settings(max_examples=60, deadline=None)
    @given(dataset=truth_datasets(), seed=st.integers(0, 50), perfect=st.booleans())
    def test_frame_outcomes_equal_a_reference_that_sorts(self, dataset, seed, perfect):
        profiles = dict(DEFAULT_PROFILES)
        if perfect:
            profiles["haar"] = profiles["haar"].with_perfect_recall()
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=seed)
        report = run_experiment(config, dataset=dataset, profiles=profiles)
        assert report.frames
        for outcome in report.frames:
            frame = dataset.get(outcome.frame_id)
            detections = simulate_detections(frame, profiles["haar"], seed)
            predicted = {d.label for d in detections if d.confidence >= 70.0}
            assert outcome.truth == tuple(sorted(label.name for label in frame.truth))
            assert outcome.predicted == tuple(sorted(label.name for label in predicted))

    def test_perfect_backend_has_accuracy_one(self):
        profiles = dict(DEFAULT_PROFILES)
        profiles["aws-saas"] = profiles["aws-saas"].with_perfect_recall()
        dataset = small_dataset(seed=3, scenarios=(ANIMAL, ScenarioKind.UNSAFE_CONTENT))
        config = ExperimentConfig(backend_id="aws-saas", threshold=70.0, seed=5)
        report = run_experiment(config, dataset=dataset, profiles=profiles)
        assert report.overall.accuracy == 1.0
        assert report.overall.counts.fn == 0
        assert report.overall.counts.fp == 0

    def test_determinism_byte_identical_reports(self, tmp_path):
        dataset = small_dataset(seed=9)
        config = ExperimentConfig(backend_id="mobilenet-ssd", threshold=70.0, seed=11)
        paths = []
        for name in ("a.json", "b.json"):
            report = run_experiment(config, dataset=dataset)
            path = tmp_path / name
            report.write_json(path, include_trace=True)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_confusion_counts_match_brute_force_recount(self):
        dataset = small_dataset(seed=21, positives=15)
        config = ExperimentConfig(backend_id="hog-svm", threshold=70.0, seed=2)
        report = run_experiment(config, dataset=dataset)

        recount = ConfusionCounts()
        for outcome in report.frames:
            truth = labels(*outcome.truth)
            predicted = labels(*outcome.predicted)
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
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment(ExperimentConfig(backend_id="nope"), dataset=small_dataset(1))

    def test_the_threshold_study_refuses_an_unknown_backend_as_the_run_does(self):
        dataset = small_dataset(1)
        message = "^unknown backend profile: nope$"
        with pytest.raises(ValidationError, match=message):
            run_experiment(ExperimentConfig(backend_id="nope"), dataset=dataset)
        with pytest.raises(ValidationError, match=message):
            run_threshold_study(ExperimentConfig(backend_id="nope"), dataset=dataset)

    def test_multi_device_runs_interleave_deterministically(self):
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=(ANIMAL,), positives=12, negatives=4,
            devices=("door-1", "door-2", "door-3"), seed=8,
        )))
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=8)
        report_a = run_experiment(config, dataset=dataset)
        report_b = run_experiment(config, dataset=dataset)
        assert report_a.counters["events"] == len(dataset)
        assert report_a.to_dict(include_trace=True) == report_b.to_dict(include_trace=True)
        devices_seen = {outcome.event_id.rsplit(":", 1)[0] for outcome in report_a.frames}
        assert devices_seen == {"door-1", "door-2", "door-3"}

    def test_profiles_registry_file_feeds_experiments(self, tmp_path):
        from doorsim.model import canonical_json

        custom = DEFAULT_PROFILES["haar"]
        from dataclasses import replace as dc_replace

        custom = dc_replace(custom, backend_id="haar-tuned",
                            per_scenario_recall={k: 1.0 for k in ScenarioKind},
                            false_positive_rate=0.0, face_miss_rate=0.0)
        registry = [custom.to_dict()] + [p.to_dict() for p in DEFAULT_PROFILES.values()]
        path = tmp_path / "profiles.json"
        path.write_text(canonical_json(registry))

        dataset = small_dataset(seed=3, positives=6, negatives=2)
        config = ExperimentConfig(backend_id="haar-tuned", threshold=70.0, seed=3,
                                  profiles_path=str(path))
        report = run_experiment(config, dataset=dataset)
        assert report.overall.accuracy == 1.0
        assert report.memory_mb == DEFAULT_PROFILES["haar"].memory_mb

    def test_custom_motion_scripts_replace_auto_coverage(self):
        from doorsim.device import MotionScript

        dataset = small_dataset(seed=13, positives=4, negatives=0)
        frame_ids = [f.frame_id for f in dataset]
        # only two triggers, 300 ms apart: debounce keeps the first alone
        script = MotionScript("door-1", ((0, frame_ids[0]), (300, frame_ids[1])),
                              debounce_ms=1000)
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=1,
                                  scripts=(script,))
        report = run_experiment(config, dataset=dataset)
        assert report.counters["events"] == 1
        assert len(report.frames) == 1

    def test_a_second_script_for_one_device_is_refused_before_the_run(self):
        # each script is debounced on its own, so two scripts of one device
        # would let through triggers closer together than debounce_ms
        dataset = small_dataset(seed=13, positives=4, negatives=0)
        f0, f1, f2, f3 = [f.frame_id for f in dataset]
        scripts = (MotionScript("door-1", ((0, f0), (2000, f1))),
                   MotionScript("door-2", ((0, f0),)),
                   MotionScript("door-1", ((10000, f2), (12000, f3))))
        message = "^scripts: more than one motion script for device door-1$"
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(backend_id="haar", scripts=scripts)
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_dict({"backend_id": "haar",
                                        "scripts": [s.to_dict() for s in scripts]})
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=1,
                                  scripts=(scripts[0], scripts[1]))
        with pytest.raises(ValidationError, match=message):
            replace(config, scripts=scripts)
        report = run_experiment(replace(config, scripts=(
            MotionScript("door-1", scripts[0].entries + scripts[2].entries),)), dataset=dataset)
        assert report.counters["events"] == 4

    def test_the_fleet_is_replayed_by_one_call(self, monkeypatch):
        # one call, so that perfbench's device.script_replay span covers the whole replay
        calls = []
        replay = harness_module.run_motion_script

        def counting(scripts, *args):
            calls.append([script.device_id for script in scripts])
            return replay(scripts, *args)

        monkeypatch.setattr(harness_module, "run_motion_script", counting)
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=(ANIMAL,), positives=6, negatives=0,
            devices=("door-1", "door-2", "door-3"), seed=8,
        )))
        report = run_experiment(ExperimentConfig(backend_id="haar", seed=8), dataset=dataset)
        assert calls == [["door-1", "door-2", "door-3"]]
        assert report.counters["events"] == len(dataset)

    @pytest.mark.parametrize("bad", ["unknown", "foreign"])
    def test_a_bad_later_script_entry_is_refused_before_any_event(self, tmp_path, bad):
        dataset = Dataset(generate_dataset(GeneratorConfig(
            scenarios=(ANIMAL,), positives=4, negatives=0, devices=("door-1", "door-2"), seed=8,
        )))
        ones, twos = ([f.frame_id for f in dataset if f.device_id == device_id]
                      for device_id in ("door-1", "door-2"))
        frame_id = "missing" if bad == "unknown" else ones[1]
        scripts = (MotionScript("door-1", ((0, ones[0]), (2000, ones[1]))),
                   MotionScript("door-2", ((0, twos[0]), (9000, frame_id))))
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=1, scripts=scripts)
        trace_path = tmp_path / "partial.json"
        with pytest.raises(DatasetError, match=frame_id):
            run_experiment(config, dataset=dataset, partial_trace_path=trace_path)
        dumped = json.loads(trace_path.read_text())
        assert dumped["frames"] == []
        assert dumped["counters"]["events"] == 0

    def test_scripts_survive_config_round_trip(self):
        config = ExperimentConfig.from_dict({
            "backend_id": "haar",
            "scripts": [{"device_id": "door-1", "debounce_ms": 500,
                         "entries": [{"at": 0, "frame_id": "f0"}]}],
        })
        assert config.scripts is not None
        assert config.scripts[0].debounce_ms == 500
        echoed = config.to_dict()["scripts"][0]
        assert echoed["entries"] == [{"at": 0, "frame_id": "f0"}]

    def test_config_round_trips_through_its_own_keys(self):
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=4,
                                  network=NetworkModel(base_delay_ms=30, jitter_ms=5, seed=4))
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @given(st.data())
    def test_strict_reading_accepts_every_config_the_program_writes(self, data):
        config = data.draw(experiment_configs())
        written = json.loads(canonical_json(config.to_dict()))
        assert ExperimentConfig.from_dict(written) == config

    @pytest.mark.parametrize("ack_lost_fraction", [0.0, 1.0])
    def test_dead_lettered_frames_are_tallied_from_the_edge_record(self, ack_lost_fraction):
        dataset = small_dataset(seed=4, scenarios=(ANIMAL, ScenarioKind.UNSAFE_CONTENT),
                                positives=8)
        config = ExperimentConfig(backend_id="aws-saas", threshold=70.0, seed=6)
        clean = run_experiment(config, dataset=dataset)
        faulty = run_experiment(config, dataset=dataset, failure_injector=FailureInjector(
            probability=1.0, ack_lost_fraction=ack_lost_fraction))
        sampled = faulty.counters["sampled"]
        assert sampled == clean.counters["sampled"] == len(dataset)
        assert faulty.counters["dead_letters"] == sampled
        assert faulty.counters["ingested"] == 0
        # With every ack lost the cloud still stored (and notified) each record.
        assert faulty.counters["notifications"] == (sampled if ack_lost_fraction else 0)
        assert faulty.latency.samples == sampled
        assert faulty.latency == clean.latency
        assert faulty.scenario_metrics == clean.scenario_metrics
        assert faulty.overall == clean.overall
        assert faulty.frames == clean.frames

    def test_component_error_dumps_partial_trace(self, tmp_path, monkeypatch):
        from doorsim.backends import SimulatedBackend

        dataset = small_dataset(seed=13, positives=6, negatives=0)
        calls = {"n": 0}
        original = SimulatedBackend.detect

        def failing_detect(self, frame):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("camera backend fell over")
            return original(self, frame)

        monkeypatch.setattr(SimulatedBackend, "detect", failing_detect)
        trace_path = tmp_path / "partial.json"
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=1)
        from doorsim.errors import DetectionFailedError

        with pytest.raises(DetectionFailedError):
            run_experiment(config, dataset=dataset, partial_trace_path=trace_path)
        dumped = json.loads(trace_path.read_text())
        assert len(dumped["frames"]) == 3
        assert dumped["counters"]["events"] == 4

    def test_every_frame_is_analyzed_once(self):
        dataset = small_dataset(seed=13, positives=8)
        config = ExperimentConfig(backend_id="haar", threshold=70.0, seed=1)
        report = run_experiment(config, dataset=dataset)
        assert report.counters["events"] == len(dataset)
        assert report.counters["sampled"] == len(dataset)
        assert report.counters["ingested"] == len(dataset)
        assert len(report.frames) == len(dataset)
        assert report.counters["notifications"] == len(dataset)


# sha256 of canonical_json(report.to_dict(include_trace=True)) for the run
# below. A refactor or optimisation must leave these bytes unchanged; only a
# deliberate change of the simulated behaviour may update them.
PINNED_REPORT_SHA256 = {
    "aws-saas": "0282336cfb79bde11c31751b2dab0c44b62de26101fe75cd2b590acaa3e93890",
    "haar": "9525cd9d6c5b1c7128974173482dd527cc13dc4e50e19ea1ef77feda274f0bf6",
}


@pytest.fixture(scope="module")
def pinned_dataset():
    return Dataset(generate_dataset(GeneratorConfig(
        scenarios=tuple(ScenarioKind), positives=40,
        devices=("door-1", "door-2", "door-3"), seed=5,
    )))


@pytest.mark.parametrize("backend_id", sorted(PINNED_REPORT_SHA256))
def test_report_bytes_are_pinned(pinned_dataset, backend_id):
    assert len(pinned_dataset) == 555
    config = ExperimentConfig(backend_id=backend_id, threshold=70.0, seed=7)
    report = run_experiment(
        config, dataset=pinned_dataset, failure_injector=FailureInjector(0.05, seed=3)
    )
    payload = canonical_json(report.to_dict(include_trace=True)).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == PINNED_REPORT_SHA256[backend_id]


# sha256 of the cloud's conversation during the run below (every request
# that CloudService.handle receives and its reply, in order) and of its end
# state, read through public views only. The report digests above cannot see
# the stream's order and duplicate flags, each ack, each notification's time
# or the dead letters; these can. A change to how the cloud stores or answers
# must leave them unchanged.
PINNED_CONVERSATIONS = {
    "aws-saas": ("0c7a2f2620782ce82f5655205649725438561c2169f666b4782aa6ff6539ee73",
                 "c55687d0cda2b1982d797d6b33107c91630738ef965e7746f665711f98804dc7"),
    "haar": ("62ea7c5d75586c545859f3b4bb5559cbd91b861d23c1645fee633c44b85f3e70",
             "3abf20db00695e552941525e4cb8d3648add22d3718a7f9cff91bab2dda7b9b2"),
}


class RecordingService(CloudService):
    """A CloudService that hashes each request and reply, as canonical JSON,
    and remembers its subscribers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.conversation = hashlib.sha256()
        self.subscribers = []

    def handle(self, request):
        response = super().handle(request)
        for message in ([request.method, request.path, request.headers, request.body,
                         request.query], [response.status, response.body]):
            self.conversation.update(canonical_json(message).encode("utf-8") + b"\n")
        return response

    def subscribe(self, subscriber_id, filter=None):
        self.subscribers.append(subscriber_id)
        return super().subscribe(subscriber_id, filter)


def state_sha256(service):
    """sha256 of what the service holds, through its public views."""
    state = {
        "stream": [entry.to_dict() for entry in service.stream.read_from(0)],
        "store": [record.to_dict() for record in service.store.all_records()],
        "deliveries": {name: [n.to_dict() for n in service.hub.subscription(name).delivery_log]
                       for name in service.subscribers},
        "dead_letters": [[entry.to_dict(), message]
                         for entry, message in service.dispatcher.dead_letters],
    }
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("backend_id", sorted(PINNED_CONVERSATIONS))
def test_conversation_and_state_are_pinned(monkeypatch, backend_id):
    services = []

    def recording(*args, **kwargs):
        services.append(RecordingService(*args, **kwargs))
        return services[-1]

    monkeypatch.setattr(harness_module, "CloudService", recording)
    # aws-saas: one device and ingest faults (retries, duplicates, dead
    # letters); haar: several devices, each with its own event sequence
    dataset = Dataset(generate_dataset(GeneratorConfig(
        scenarios=tuple(ScenarioKind), positives=20, seed=9,
        devices=("door-1",) if backend_id == "aws-saas" else ("door-1", "door-2", "door-3"),
    )))
    injector = FailureInjector(0.15, seed=4) if backend_id == "aws-saas" else None
    report = run_experiment(ExperimentConfig(backend_id=backend_id, threshold=70.0, seed=3),
                            dataset=dataset, failure_injector=injector)
    (service,) = services
    if injector is not None:
        assert report.counters["dead_letters"] > 0
        assert any(entry.duplicate for entry in service.stream.read_from(0))
    else:
        assert len({entry.partition for entry in service.stream.read_from(0)}) == 3
    assert (service.conversation.hexdigest(), state_sha256(service)) \
        == PINNED_CONVERSATIONS[backend_id]


class TestCompareBackends:
    def test_rows_sorted_by_f1_and_resources_echoed(self):
        # overall F1 compares whole-model quality, so the dataset spans all
        # five scenarios; per-scenario slices can legitimately flip ranks
        dataset = small_dataset(seed=31, scenarios=tuple(ScenarioKind), positives=100)
        reports = []
        for backend_id in ("haar", "aws-saas", "mobilenet-ssd", "hog-svm"):
            config = ExperimentConfig(backend_id=backend_id, threshold=70.0, seed=11)
            reports.append(run_experiment(config, dataset=dataset))
        table = compare_backends(reports)
        assert [row["backend"] for row in table.rows] == [
            "aws-saas", "mobilenet-ssd", "hog-svm", "haar",
        ]
        by_backend = {row["backend"]: row for row in table.rows}
        assert by_backend["aws-saas"]["memory_mb"] == 1.99
        assert by_backend["mobilenet-ssd"]["memory_mb"] == 473.96
        assert by_backend["hog-svm"]["memory_mb"] == 30.09
        assert by_backend["haar"]["memory_mb"] == 22.86

    def test_needs_two_reports(self):
        dataset = small_dataset(seed=1)
        report = run_experiment(
            ExperimentConfig(backend_id="haar", threshold=70.0), dataset=dataset
        )
        with pytest.raises(ValidationError):
            compare_backends([report])

    def test_mismatched_datasets_rejected(self):
        config = ExperimentConfig(backend_id="haar", threshold=70.0)
        report_a = run_experiment(config, dataset=small_dataset(seed=1))
        report_b = run_experiment(config, dataset=small_dataset(seed=2))
        with pytest.raises(ValidationError):
            compare_backends([report_a, report_b])


# -- what a run keeps per frame ----------------------------------------------------


def test_a_kept_run_leaves_few_collector_tracked_objects_per_frame(monkeypatch):
    # A run keeps its per-event facts as columns of str, int and shared
    # tuples, which CPython's collector does not walk; what is left per frame
    # is the stored record and its detections. It was 4.77 objects per frame
    # when the stream, the notification log and the report rows kept a value each.
    dataset = small_dataset(seed=21, scenarios=tuple(ScenarioKind), positives=100)
    services = []

    def keep(*args, **kwargs):
        services.append(CloudService(*args, **kwargs))
        return services[-1]

    monkeypatch.setattr(harness_module, "CloudService", keep)
    config = ExperimentConfig(backend_id="aws-saas", threshold=70.0, seed=7)
    injector = FailureInjector(0.02, seed=3)
    gc.collect()
    before = len(gc.get_objects())
    report = run_experiment(config, dataset=dataset, failure_injector=injector)
    gc.collect()
    per_frame = (len(gc.get_objects()) - before) / len(dataset)
    assert len(dataset) == 1388 and len(services) == 1
    assert report.counters["sampled"] == len(services[0].store) == len(dataset)
    assert per_frame < 2.5, per_frame


def test_report_rows_are_built_by_position_when_read(monkeypatch):
    built = []

    def positional(*fields):  # a field passed by keyword would be a TypeError here
        built.append(fields)
        return FrameOutcome(*fields)

    monkeypatch.setattr(harness_module, "FrameOutcome", positional)
    dataset = small_dataset(seed=3, positives=4)
    report = run_experiment(ExperimentConfig(backend_id="haar", seed=1), dataset=dataset)
    assert built == []  # nothing is built until the rows are read
    assert len(list(report.frames)) == len(built) == len(dataset)


def test_report_rows_and_scenario_keys_are_plain_str():
    # a scenario member equals its value string, so only the type shows a
    # row or a metrics key that kept the member
    dataset = small_dataset(seed=3, scenarios=tuple(ScenarioKind), positives=4)
    report = run_experiment(ExperimentConfig(backend_id="aws-saas", seed=1), dataset=dataset)
    rows = report.to_dict(include_trace=True)["frames"]
    assert {row["scenario"] for row in rows} == {kind.value for kind in ScenarioKind}
    assert {type(row["scenario"]) for row in rows} | {type(row.scenario) for row in report.frames} == {str}
    assert {type(key) for key in report.scenario_metrics} == {str}


class RecordingPipeline(EdgePipeline):
    """The edge, recording each processed (frame, outcome) in order."""

    processed = []

    def process(self, event, frame, session_token):
        outcome = super().process(event, frame, session_token)
        self.processed.append((frame, outcome))
        return outcome


def eager_rows(processed):
    """The report rows as the run built them one by one before they were columns."""
    return [
        FrameOutcome(frame.frame_id, outcome.record.event_id, frame.scenario.value,
                     tuple(sorted(label.name for label in frame.truth)),
                     tuple(sorted(label.name for label in {d.label for d in outcome.record.detections})))
        for frame, outcome in processed if outcome.record is not None
    ]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 50), backend_id=st.sampled_from(["haar", "aws-saas"]),
       devices=st.integers(1, 3), positives=st.integers(1, 4),
       fault=st.sampled_from([0.0, 0.3, 1.0]))
def test_report_frames_equal_the_rows_built_eagerly(seed, backend_id, devices, positives, fault):
    dataset = Dataset(generate_dataset(GeneratorConfig(
        scenarios=(ANIMAL, ScenarioKind.UNSAFE_CONTENT, ScenarioKind.MULTI_OBJECT),
        positives=positives, devices=tuple(f"door-{i}" for i in range(devices)), seed=seed)))
    RecordingPipeline.processed = []
    with mock.patch.object(harness_module, "EdgePipeline", RecordingPipeline):
        report = run_experiment(
            ExperimentConfig(backend_id=backend_id, threshold=70.0, seed=seed), dataset=dataset,
            failure_injector=FailureInjector(fault, seed=seed) if fault else None)
    rows = eager_rows(RecordingPipeline.processed)
    frames = report.frames
    n = len(rows)
    assert n == len(frames) == report.counters["sampled"] > 0
    assert frames == rows and list(frames) == rows == list(frames)
    for i in range(-n - 1, n + 1):
        if -n <= i < n:
            assert frames[i] == rows[i]
        else:
            with pytest.raises(IndexError):
                frames[i]
    assert frames[1:] == rows[1:] and frames[::-2] == rows[::-2]
    assert report.to_dict(include_trace=True)["frames"] == [row.to_dict() for row in rows]
    assert report.to_dict(include_trace=False) == {
        key: value for key, value in report.to_dict(include_trace=True).items() if key != "frames"}

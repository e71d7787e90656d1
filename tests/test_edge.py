import pytest

from doorsim.backends import BackendCategory, BackendProfile, SimulatedBackend
from doorsim.cloud import CloudService
from doorsim.edge import EdgeConfig, EdgePipeline, FrameSampler, RetryPolicy, SamplingPolicy
from doorsim.errors import DeliveryFailedError, RoutingError
from doorsim.model import FrameSample, Label, MotionEvent, ScenarioKind
from doorsim.transport import CloudClient, FailureInjector, NetworkModel


def profile(recall=1.0, backend_id="unit-backend", confidence=None, **kwargs):
    extra = {} if confidence is None else {"confidence": confidence}
    return BackendProfile(
        backend_id=backend_id,
        category=BackendCategory.ON_DEVICE_ML,
        memory_mb=10.0,
        cpu_pct=20.0,
        service_time_ms=15,
        per_scenario_recall={kind: recall for kind in ScenarioKind},
        **extra,
        **kwargs,
    )


def frame(names=("dog",), frame_id="f0", at=0, device_id="door-1"):
    scenario = ScenarioKind.ANIMAL_DETECTION
    return FrameSample(
        frame_id=frame_id,
        device_id=device_id,
        captured_at=at,
        truth=frozenset(Label(n, scenario) for n in names),
        scenario=scenario,
    )


def event(at=0, device_id="door-1", seq=0):
    return MotionEvent(device_id=device_id, at=at, event_id=f"{device_id}:{seq}")


def make_stack(backend_profile=None, threshold=90.0, retry=None, injector=None, seed=0):
    backend_profile = backend_profile or profile()
    service = CloudService(seed=seed)
    client = CloudClient(service, network=NetworkModel(seed=seed), failure_injector=injector)
    config = EdgeConfig(threshold=threshold, retry=retry or RetryPolicy())
    pipeline = EdgePipeline(config, SimulatedBackend(backend_profile, seed), client)
    _, secret = client.register_device("door-1")
    session = client.authenticate("door-1", secret)
    return service, pipeline, session


class TestSampler:
    def test_first_frame_passes(self):
        sampler = FrameSampler(SamplingPolicy(min_interval_ms=500))
        assert sampler.sample(event(at=0), frame(at=0)) is not None

    def test_too_soon_suppressed(self):
        sampler = FrameSampler(SamplingPolicy(min_interval_ms=500))
        sampler.sample(event(at=0), frame(at=0))
        assert sampler.sample(event(at=100, seq=1), frame(at=100, frame_id="f1")) is None

    def test_after_interval_passes(self):
        sampler = FrameSampler(SamplingPolicy(min_interval_ms=500))
        sampler.sample(event(at=0), frame(at=0))
        assert sampler.sample(event(at=600, seq=1), frame(at=600, frame_id="f1")) is not None

    def test_devices_rate_limited_independently(self):
        sampler = FrameSampler(SamplingPolicy(min_interval_ms=500))
        sampler.sample(event(at=0), frame(at=0))
        other = sampler.sample(
            event(at=100, device_id="door-2"), frame(at=100, device_id="door-2", frame_id="f9")
        )
        assert other is not None

    def test_device_mismatch_is_routing_error(self):
        sampler = FrameSampler(SamplingPolicy())
        with pytest.raises(RoutingError):
            sampler.sample(event(device_id="door-2"), frame(device_id="door-1"))


class TestAnalyze:
    def test_perfect_backend_detects_truth(self):
        _, pipeline, _ = make_stack(threshold=70.0)
        record = pipeline.analyze(event(), frame({"dog"}))
        assert [d.label.name for d in record.detections] == ["dog"]
        assert record.backend_id == "unit-backend"
        assert record.threshold_used == 70.0

    def test_negative_frame_has_no_detections(self):
        _, pipeline, _ = make_stack(threshold=70.0)
        record = pipeline.analyze(event(), frame(()))
        assert record.detections == ()

    def test_threshold_90_drops_85_confidence_but_70_keeps_it(self):
        from doorsim.backends import ConfidenceModel

        fixed_85 = ConfidenceModel(true_mean=85.0, true_spread=0.0)
        record_90 = make_stack(profile(confidence=fixed_85), threshold=90.0)[1].analyze(
            event(), frame({"dog"})
        )
        assert record_90.detections == ()
        record_70 = make_stack(profile(confidence=fixed_85), threshold=70.0)[1].analyze(
            event(), frame({"dog"})
        )
        assert len(record_70.detections) == 1

    def test_detected_at_is_captured_plus_latency(self):
        _, pipeline, _ = make_stack()
        record = pipeline.analyze(event(at=1000), frame(at=1000))
        assert record.detected_at == 1000 + 15

    def test_backend_fault_surfaces_frame_id(self):
        from doorsim.errors import DetectionFailedError

        class BrokenBackend(SimulatedBackend):
            def detect(self, f):
                raise RuntimeError("inference engine unavailable")

        service = CloudService(seed=0)
        client = CloudClient(service, network=NetworkModel(seed=0))
        pipeline = EdgePipeline(EdgeConfig(), BrokenBackend(profile(), 0), client)
        with pytest.raises(DetectionFailedError, match="f0"):
            pipeline.analyze(event(), frame(frame_id="f0"))

    def test_threshold_monotonicity_for_same_draw(self):
        # same frame and seed: detections at 70 are a superset of those at 90
        prof = profile(recall=1.0)
        for i in range(50):
            f = frame({"dog"}, frame_id=f"f{i}")
            at_70 = make_stack(prof, threshold=70.0)[1].analyze(event(), f)
            at_90 = make_stack(prof, threshold=90.0)[1].analyze(event(), f)
            names_70 = {(d.label.name, d.confidence) for d in at_70.detections}
            names_90 = {(d.label.name, d.confidence) for d in at_90.detections}
            assert names_90 <= names_70


class TestForward:
    def test_healthy_cloud_acks_with_sequence(self):
        service, pipeline, session = make_stack()
        record = pipeline.analyze(event(), frame())
        ack = pipeline.forward(record, session)
        assert ack.sequence == 0
        assert ack.attempts == 1
        assert len(service.stream) == 1

    def test_retry_until_healthy(self):
        class FailTwice:
            def __init__(self):
                self.calls = 0

            def next_fault(self):
                self.calls += 1
                return "drop" if self.calls <= 2 else None

        service, pipeline, session = make_stack(
            retry=RetryPolicy(max_attempts=3, backoff_ms=50), injector=FailTwice()
        )
        record = pipeline.analyze(event(), frame())
        ack = pipeline.forward(record, session)
        assert ack.attempts == 3
        assert len(service.stream) >= 1

    def test_exhaustion_dead_letters_the_record(self):
        always_fail = FailureInjector(probability=1.0, seed=1, ack_lost_fraction=0.0)
        service, pipeline, session = make_stack(
            retry=RetryPolicy(max_attempts=3, backoff_ms=50), injector=always_fail
        )
        record = pipeline.analyze(event(), frame())
        with pytest.raises(DeliveryFailedError):
            pipeline.forward(record, session)
        assert pipeline.dead_letters == [record]
        assert len(service.stream) == 0

    def test_ack_lost_fault_duplicates_on_stream_but_store_dedups(self):
        class AckLostOnce:
            def __init__(self):
                self.calls = 0

            def next_fault(self):
                self.calls += 1
                return "ack_lost" if self.calls == 1 else None

        service, pipeline, session = make_stack(injector=AckLostOnce())
        record = pipeline.analyze(event(), frame())
        ack = pipeline.forward(record, session)
        assert ack.attempts == 2
        assert len(service.stream) == 2  # original + duplicate
        assert len(service.store) == 1  # consumer-side dedup

    def test_invalid_session_is_not_retried_as_transient(self):
        from doorsim.errors import ProtocolError

        _, pipeline, _ = make_stack()
        record = pipeline.analyze(event(), frame())
        with pytest.raises(ProtocolError, match="auth"):
            pipeline.forward(record, "bogus-token")

    def test_exactly_one_record_per_sampled_frame_despite_retries(self):
        class CountingBackend(SimulatedBackend):
            calls = 0

            def detect(self, f):
                CountingBackend.calls += 1
                return super().detect(f)

        class FailOnce:
            done = False

            def next_fault(self):
                if not self.done:
                    self.done = True
                    return "drop"
                return None

        service = CloudService(seed=0)
        client = CloudClient(service, network=NetworkModel(seed=0), failure_injector=FailOnce())
        config = EdgeConfig(retry=RetryPolicy(max_attempts=5))
        pipeline = EdgePipeline(config, CountingBackend(profile(), 0), client)
        _, secret = client.register_device("door-1")
        session = client.authenticate("door-1", secret)
        outcome = pipeline.process(event(), frame(), session)
        assert outcome.ack is not None
        assert CountingBackend.calls == 1

    def test_exhausted_retries_dead_letter_the_record(self):
        always_fail = FailureInjector(probability=1.0, seed=1, ack_lost_fraction=0.0)
        _, pipeline, session = make_stack(
            retry=RetryPolicy(max_attempts=2), injector=always_fail
        )
        outcome = pipeline.process(event(), frame(), session)
        assert outcome.record is not None
        assert outcome.ack is None
        assert [record.event_id for record in pipeline.dead_letters] == ["door-1:0"]


class TestEdgeConfig:
    def test_records_name_the_given_backend(self):
        # the config names no backend: one config serves any backend
        config = EdgeConfig(threshold=70.0)
        client = CloudClient(CloudService(seed=0))
        for backend_id in ("unit-backend", "other"):
            pipeline = EdgePipeline(config, SimulatedBackend(profile(backend_id=backend_id), 0),
                                    client)
            assert pipeline.analyze(event(), frame()).backend_id == backend_id

"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Workload, gateway_ops, manifest_rows  # noqa: E402


class PercentileSelection(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(tracing.tail_percentile(10_000), 99.9)
        self.assertEqual(tracing.tail_percentile(9_999), 99.0)
        self.assertEqual(tracing.tail_percentile(1_000), 99.0)
        self.assertEqual(tracing.tail_percentile(999), 95.0)
        self.assertEqual(tracing.tail_percentile(100), 90.0)
        self.assertEqual(tracing.tail_percentile(20), 50.0)
        self.assertIsNone(tracing.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(tracing.percentile(values, 50.0), 500)
        self.assertEqual(tracing.percentile(values, 99.0), 990)
        self.assertEqual(tracing.percentile([7], 99.0), 7)


class Latency(unittest.TestCase):
    def test_median_and_tail_over_all_requests(self):
        res = worker.Result()
        worker.latency("x", [1e-6] * 990 + [9e-6] * 10, res)
        self.assertAlmostEqual(res.metrics["x_p50_ref_us"][0], 1.0)
        self.assertAlmostEqual(res.info["x_latency"]["p99_ref_us"], 1.0)  # exactly ten beyond
        with self.assertRaises(RuntimeError):
            worker.latency("x", [1e-6] * 999, res)


class ReferenceGauge(unittest.TestCase):
    def test_stretches_between_chunks_are_divided_by_their_speed(self):
        gauge = reference.Gauge(passes=1)
        # chunks over [0, 1], [3, 4] and [6, 7] s at 1, 2 and 1 ms per pass
        gauge.starts, gauge.ends, gauge.chunks = [0.0, 3.0, 6.0], [1.0, 4.0, 7.0], [1e-3, 2e-3, 1e-3]
        self.assertAlmostEqual(gauge.host_per_ref_s(1), 1.5)
        # program from 2 to 5 s: 1 s on either side of the middle chunk
        self.assertAlmostEqual(gauge.ref_seconds(2.0, 5.0), 2 / 1.5)
        self.assertAlmostEqual(gauge.paused_s(2.0, 5.0), 1.0)

    def test_chunks_run_between_requests_and_not_in_their_time(self):
        gauge = reference.Gauge(passes=2, interval_s=0.0)
        (samples, marks, responses), host, ref = worker.timed_section(
            gauge, lambda: worker.timed_requests(lambda r: r, [1, 2, 3], gauge))
        self.assertEqual(responses, [1, 2, 3])
        self.assertEqual(marks, [1, 2, 3])  # a chunk after every request
        self.assertEqual(len(gauge.chunks), 5)  # and one before and one after
        self.assertLess(host, gauge.paused_s(gauge.starts[0], gauge.ends[-1]))
        self.assertGreater(ref, 0.0)
        self.assertAlmostEqual(worker.in_ref_s(gauge, samples, marks)[1],
                               samples[1] / gauge.host_per_ref_s(2))


class SelfTime(unittest.TestCase):
    def test_nested_and_adjacent_spans(self):
        # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and, adjacent
        # to a, b [4, 9]; a second root d [10, 12] follows the first.
        names = [0, 1, 2, 1, 3]
        starts = [0.0, 1.0, 2.0, 4.0, 10.0]
        ends = [10.0, 4.0, 3.0, 9.0, 12.0]
        parents = [-1, 0, 1, 0, -1]
        busy, own, calls = tracing.self_times(names, starts, ends, parents)
        self.assertEqual(own, {0: 2.0, 1: 7.0, 2: 1.0, 3: 2.0})
        self.assertEqual(busy, {0: 10.0, 1: 8.0, 2: 1.0, 3: 2.0})
        self.assertEqual(calls, {0: 1, 1: 2, 2: 1, 3: 1})
        self.assertEqual(sum(own.values()), 12.0)  # self times tile the roots


class Wrappers(unittest.TestCase):
    def test_restore_puts_back_every_original(self):
        import doorsim
        from doorsim import backends, dataset, draws, harness
        from doorsim.model import FrameSample

        before = {
            "unit_draw": [draws.unit_draw, backends.unit_draw, dataset.unit_draw],
            "run_experiment": [harness.run_experiment, doorsim.run_experiment],
            "from_dict": FrameSample.__dict__["from_dict"],
            "device_ids": dataset.Dataset.__dict__["device_ids"],
        }
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            self.assertIsNot(draws.unit_draw, before["unit_draw"][0])
            self.assertIs(backends.unit_draw, dataset.unit_draw)
            self.assertIsNot(FrameSample.__dict__["from_dict"], before["from_dict"])
            draws.unit_draw("x")
            backends.unit_draw("y")
            self.assertEqual(len(tracer), 2)
        finally:
            patches.restore()
        self.assertEqual(worker.check_restored(patches), [])
        self.assertEqual(
            [draws.unit_draw, backends.unit_draw, dataset.unit_draw], before["unit_draw"])
        self.assertEqual([harness.run_experiment, doorsim.run_experiment],
                         before["run_experiment"])
        self.assertIs(FrameSample.__dict__["from_dict"], before["from_dict"])
        self.assertIs(dataset.Dataset.__dict__["device_ids"], before["device_ids"])
        draws.unit_draw("z")
        self.assertEqual(len(tracer), 2)

    def test_script_replay_spans_carry_the_event_id(self):
        from doorsim import device
        from doorsim.dataset import Dataset
        from doorsim.model import FrameSample, ScenarioKind

        frames = [FrameSample(f"f{i}", "door-1", 0, frozenset(), ScenarioKind.UNSAFE_CONTENT)
                  for i in range(3)]
        data = Dataset(frames)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            script = device.script_covering(data, "door-1")
            events = [event.event_id for event, _ in device.run_motion_script(script, data)]
        finally:
            patches.restore()
        replay = tracer.name_id("device.script_replay")
        ids = [tracer.trace[i] for i in range(len(tracer)) if tracer.span_name[i] == replay]
        self.assertEqual(ids[:3], events)
        self.assertEqual(len(ids), 4)  # the last next() ends the iterator


class GatewayReferenceModel(unittest.TestCase):
    def test_model_agrees_with_the_cloud(self):
        import tempfile

        from workloads import write_manifest

        workload = Workload("test", "gateway", ("door-1", "door-2"), 20)
        rows = manifest_rows(workload, seed=5)
        ops = gateway_ops(workload, rows, seed=5)
        self.assertEqual(sum(op.cls == "ingest" for op in ops), sum(op.cls == "read" for op in ops))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.ndjson"
            write_manifest(rows, path)
            service, tokens = worker.gateway_setup(path, seed=5)
        requests = [worker.api_request(op, tokens) for op in ops]
        responses = worker.timed_requests(service.handle, requests)[2]
        bad = [op for op, response in zip(ops, responses) if not worker.response_ok(op, response)]
        self.assertEqual(bad, [])


if __name__ == "__main__":
    unittest.main()

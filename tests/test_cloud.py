from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from doorsim import model
from doorsim.cloud import CloudService
from doorsim.cloud import service as service_module
from doorsim.cloud import stores as stores_module
from doorsim.cloud import stream as stream_module
from doorsim.cloud.notify import (
    Notification,
    NotificationHub,
    Subscription,
    SubscriptionFilter,
    summarize_record,
)
from doorsim.cloud.queries import QueryKind, QueryRequest, answer_query
from doorsim.cloud.service import ApiRequest, ApiResponse
from doorsim.cloud.stores import BlobStore, CustomLabelJobs, MetadataStore
from doorsim.cloud.stream import Dispatcher, IngestStream
from doorsim.errors import AuthError, ConflictError, DoorsimError, NotFoundError, ValidationError
from doorsim.model import (
    AnalyticsRecord,
    Detection,
    FaceCategory,
    FaceIdentity,
    Label,
    ScenarioKind,
    field,
    parse_int,
)


def record(seq=0, device="door-1", names=("dog",), at=0, kind=ScenarioKind.ANIMAL_DETECTION,
           identity=None):
    detections = tuple(
        Detection(Label(n, kind), 95.0, identity=identity if kind is ScenarioKind.FACE_RECOGNITION else None)
        for n in names
    )
    return AnalyticsRecord(
        event_id=f"{device}:{seq}",
        device_id=device,
        frame_id=f"frame-{device}-{seq}",
        detections=detections,
        backend_id="aws-saas",
        captured_at=at,
        detected_at=at + 100,
        threshold_used=90.0,
    )


def pass_over_tail_copy(self, stream):
    """A dispatch pass written over a copy of the stream's tail: the
    reference that Dispatcher.run_pass, which walks the stream in place,
    must equal."""
    for entry in stream.read_from(self.checkpoint):
        if entry.duplicate:
            self.checkpoint = entry.sequence + 1
            continue
        try:
            for _, handler in self._handlers:
                handler(entry)
        except Exception as exc:
            failures = self._failure_counts.get(entry.sequence, 0) + 1
            self._failure_counts[entry.sequence] = failures
            if failures >= self._poison_passes:
                self.dead_letters.append((entry, repr(exc)))
                self.checkpoint = entry.sequence + 1
                continue
            break
        self.checkpoint = entry.sequence + 1
    return self.checkpoint


class TestIngestStream:
    def test_first_sequence_is_zero(self):
        stream = IngestStream()
        assert stream.append(record(0), ingested_at=5).sequence == 0

    def test_sequences_are_monotone(self):
        stream = IngestStream()
        assert stream.append(record(0), 0).sequence == 0
        assert stream.append(record(1), 1).sequence == 1

    def test_reingest_flags_duplicate_with_new_sequence(self):
        stream = IngestStream()
        stream.append(record(0), 0)
        entry = stream.append(record(0), 1)
        assert entry.sequence == 1
        assert entry.duplicate is True

    def test_partitioned_by_device(self):
        stream = IngestStream()
        stream.append(record(0, device="door-1"), 0)
        entry = stream.append(record(0, device="door-2"), 0)
        assert entry.partition == "door-2"
        assert entry.duplicate is False

    def test_partition_is_the_records_own_device_id(self):
        # one string per device, not a fresh slice of every entry's event id
        stream = IngestStream()
        records = [record(i, device="door-10") for i in range(3)]
        entries = [stream.append(r, i) for i, r in enumerate(records)]
        assert all(e.partition is r.device_id for e, r in zip(entries, records))


class TestDispatcher:
    def make(self, poison_passes=3):
        stream = IngestStream()
        store = MetadataStore()
        hub = NotificationHub()
        hub.subscribe("user")
        dispatcher = Dispatcher(poison_passes=poison_passes)
        dispatcher.register("persist_metadata", lambda e: store.put(e.payload))
        dispatcher.register("publish_notification", lambda e: hub.publish(e.payload, e.ingested_at))
        return stream, store, hub, dispatcher

    def test_happy_path_single_pass(self):
        stream, store, hub, dispatcher = self.make()
        for i in range(3):
            stream.append(record(i), i)
        assert dispatcher.run_pass(stream) == 3
        assert len(store) == 3
        assert len(hub.subscription("user").delivery_log) == 3

    def test_handler_failure_redelivers_without_gaps(self):
        stream, store, hub, dispatcher = self.make()
        fails = {"left": 1}

        def flaky(entry):
            if entry.sequence == 2 and fails["left"]:
                fails["left"] -= 1
                raise RuntimeError("transient handler fault")

        dispatcher.register("flaky", flaky)
        for i in range(3):
            stream.append(record(i), i)
        assert dispatcher.run_pass(stream) == 2  # stopped at the failing record
        assert dispatcher.run_pass(stream) == 3
        # after 2 passes: all three persisted, no gaps, one notification each
        assert len(store) == 3
        assert [r.event_id for r in store.get_activities("door-1", 0, 10)] == [
            "door-1:0", "door-1:1", "door-1:2",
        ]
        assert len(hub.subscription("user").delivery_log) == 3

    def test_duplicate_records_skip_handlers_but_advance(self):
        stream, store, hub, dispatcher = self.make()
        stream.append(record(0), 0)
        stream.append(record(0), 1)
        assert dispatcher.run_pass(stream) == 2
        assert len(store) == 1
        assert len(hub.subscription("user").delivery_log) == 1

    def test_poison_record_dead_letters_after_n_passes(self):
        stream, store, hub, dispatcher = self.make(poison_passes=3)
        dispatcher.register("poison", lambda e: (_ for _ in ()).throw(RuntimeError("boom")))
        stream.append(record(0), 0)
        stream.append(record(1), 1)
        # a poisoned head blocks the stream for poison_passes passes, then
        # moves to the dead-letter queue and the next record gets its turn
        for _ in range(3):
            dispatcher.run_pass(stream)
        assert len(dispatcher.dead_letters) == 1
        assert dispatcher.checkpoint == 1
        for _ in range(2):
            dispatcher.run_pass(stream)
        assert len(dispatcher.dead_letters) == 2
        assert dispatcher.checkpoint == 2

    def test_a_pass_stops_at_the_head_it_started_with(self):
        stream, store, hub, dispatcher = self.make()
        dispatcher.register("reingest", lambda e: stream.append(e.payload, e.ingested_at + 1))
        stream.append(record(0), 0)
        assert dispatcher.run_pass(stream) == 1  # the re-ingest waits for the next pass
        assert len(stream) == 2
        assert dispatcher.run_pass(stream) == 2  # a duplicate: skipped, not re-handled
        assert len(stream) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.integers(1, 3),
           st.sets(st.tuples(st.integers(0, 7), st.integers(0, 5))), st.integers(1, 6))
    def test_passes_equal_a_pass_over_a_copy_of_the_tail(self, seqs, poison_passes,
                                                          faults, passes):
        # faults: (sequence, pass) pairs at which the handler raises
        def run(run_pass):
            stream, dispatcher = IngestStream(), Dispatcher(poison_passes=poison_passes)
            handled, current = [], [0]

            def handler(entry):
                if (entry.sequence, current[0]) in faults:
                    raise RuntimeError(f"fault {entry.sequence}")
                handled.append(entry.sequence)

            dispatcher.register("h", handler)
            for seq in sorted(seqs):  # per-device order; repeats are duplicates
                stream.append(record(seq), seq)
            checkpoints = []
            for current[0] in range(passes):
                checkpoints.append(run_pass(dispatcher, stream))
            return checkpoints, handled, [(e.sequence, m) for e, m in dispatcher.dead_letters]

        assert run(Dispatcher.run_pass) == run(pass_over_tail_copy)

    def test_notification_lands_in_same_pass_as_persistence(self):
        # "real time" budget: the notification carries the ingest timestamp
        stream, store, hub, dispatcher = self.make()
        stream.append(record(0), ingested_at=4321)
        dispatcher.run_pass(stream)
        assert len(store) == 1
        (notification,) = hub.subscription("user").delivery_log
        assert notification.at == 4321

    def test_redelivery_does_not_double_notify(self):
        stream, store, hub, dispatcher = self.make()
        fails = {"left": 1}

        def after_notify(entry):
            # fails after persist+notify already ran for this record
            if fails["left"]:
                fails["left"] -= 1
                raise RuntimeError("post-notify fault")

        dispatcher.register("zz_after", after_notify)
        stream.append(record(0), 0)
        dispatcher.run_pass(stream)
        dispatcher.run_pass(stream)
        assert len(hub.subscription("user").delivery_log) == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        # "pass" runs a dispatch pass; None appends the next event id; an
        # integer re-appends an already issued id, a duplicate
        steps=st.lists(st.one_of(st.just("pass"), st.none(), st.integers(0, 9)), max_size=40),
        failing=st.sets(st.tuples(st.integers(0, 40), st.integers(0, 15)), max_size=25),
        poison_passes=st.integers(1, 3),
    )
    def test_each_event_is_handled_once_or_dead_lettered_once(self, steps, failing,
                                                              poison_passes):
        stream, dispatcher = IngestStream(), Dispatcher(poison_passes=poison_passes)
        attempts, handled = [], []
        passes = 0

        def flaky(entry):  # fails on the seeded (stream sequence, pass) pairs
            attempts.append(entry)
            if (entry.sequence, passes) in failing:
                raise RuntimeError("seeded handler fault")

        dispatcher.register("flaky", flaky)
        dispatcher.register("done", lambda entry: handled.append(entry.payload.event_id))
        issued = 0
        for step in steps:
            if step == "pass":
                dispatcher.run_pass(stream)
                passes += 1
                continue
            seq = issued if step is None or issued == 0 else step % issued
            issued = max(issued, seq + 1)
            stream.append(record(seq), ingested_at=len(stream))
        assert not any(entry.duplicate for entry in attempts)
        dead = [entry.payload.event_id for entry, _ in dispatcher.dead_letters]
        for event_id in set(handled) | set(dead):
            assert handled.count(event_id) + dead.count(event_id) == 1, event_id


class TestNotifications:
    def test_single_matching_subscriber(self):
        hub = NotificationHub()
        hub.subscribe("user")
        assert len(hub.publish(record(0), at=10)) == 1

    def test_device_filter(self):
        hub = NotificationHub()
        hub.subscribe("user", SubscriptionFilter(devices=frozenset({"door-2"})))
        assert hub.publish(record(0, device="door-1"), at=0) == []

    def test_scenario_filter(self):
        hub = NotificationHub()
        hub.subscribe("user", SubscriptionFilter(scenarios=frozenset({ScenarioKind.UNSAFE_CONTENT})))
        assert hub.publish(record(0, names=("dog",)), at=0) == []
        gun = record(1, names=("gun",), kind=ScenarioKind.UNSAFE_CONTENT)
        assert len(hub.publish(gun, at=0)) == 1

    def test_zero_subscribers_is_noop(self):
        hub = NotificationHub()
        assert hub.publish(record(0), at=0) == []

    def test_unknown_face_summary_mentions_unknown(self):
        rec = record(0, names=("face",), kind=ScenarioKind.FACE_RECOGNITION,
                     identity=FaceIdentity("mallory", FaceCategory.UNKNOWN))
        assert "unknown" in summarize_record(rec).lower()

    def test_known_face_summary_names_identity_and_category(self):
        rec = record(0, names=("face",), kind=ScenarioKind.FACE_RECOGNITION,
                     identity=FaceIdentity("alice", FaceCategory.FAMILY))
        summary = summarize_record(rec)
        assert "Known face: alice (Family)" == summary

    def test_empty_detections_still_summarized(self):
        assert summarize_record(record(0, names=())) != ""

    def test_each_logged_summary_is_that_of_its_record(self):
        hub = NotificationHub()
        hub.subscribe("user")
        sent = [record(0, names=()), record(1, names=()), record(0, device="door-2", names=()),
                record(2), record(3, names=("face",), kind=ScenarioKind.FACE_RECOGNITION,
                                  identity=FaceIdentity("alice", FaceCategory.FAMILY))]
        for at, rec in enumerate(sent):
            assert hub.publish(rec, at=at) == ["user"]
        log = hub.subscription("user").delivery_log
        assert [n.summary for n in log] == [summarize_record(rec) for rec in sent] == [
            "Motion at door-1: nothing recognized", "Motion at door-1: nothing recognized",
            "Motion at door-2: nothing recognized", "Detected animal: dog",
            "Known face: alice (Family)"]
        assert list(log) == [Notification(rec.event_id, rec.device_id, summarize_record(rec), at)
                             for at, rec in enumerate(sent)]


class TestColumnViews:
    """The stream, the dead letters and the delivery logs read back as the
    values that would have been stored eagerly, one per entry or delivery."""

    SUBSCRIPTIONS = {
        "ops": SubscriptionFilter(),
        "d2": SubscriptionFilter(devices=frozenset({"d2"})),
        "unsafe": SubscriptionFilter(scenarios=frozenset({ScenarioKind.UNSAFE_CONTENT})),
    }

    def test_views_equal_an_eager_mirror(self):
        seen = set()

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(
            # ("append", device, sequence, unsafe): re-appending an id makes a
            # duplicate, and a lower sequence is refused; ("pass",) runs one pass
            steps=st.lists(st.one_of(
                st.tuples(st.just("append"), st.sampled_from(["d1", "d2"]), st.integers(0, 5),
                          st.booleans()),
                st.tuples(st.just("pass"))), max_size=30),
            failing=st.sets(st.tuples(st.integers(0, 30), st.integers(1, 4)), max_size=15),
            poison_passes=st.integers(1, 3),
        )
        def compare(steps, failing, poison_passes):
            seen.update(self.check_views(steps, failing, poison_passes))

        compare()
        # the property is only as good as its mix
        assert {"duplicate", "refused", "backlog", "redelivered", "dead letter",
                "not yet handled"} <= seen, seen

    def check_views(self, steps, failing, poison_passes):
        """Drive ``steps``, check the views, and return what the run reached."""
        seen = set()
        service = CloudService(seed=0, auto_dispatch=False, poison_passes=poison_passes)
        for name, filter_ in self.SUBSCRIPTIONS.items():
            service.subscribe(name, filter_)
        stream, dispatcher = service.stream, service.dispatcher
        entries = []  # every entry append returned, as the stream once kept them
        handed = []  # (entry, its event_seq, the mirrored entry) per handler call
        dead = []  # (entry, message) when a handler fails for the last time
        logs = {name: [] for name in self.SUBSCRIPTIONS}
        notified = set()
        raised = {}

        def mirror_notify(entry):  # runs after the service's persist-and-notify handler
            rec = entry.payload
            for name, filter_ in self.SUBSCRIPTIONS.items():
                if (name, rec.event_id) not in notified and filter_.matches(rec):
                    logs[name].append(Notification(rec.event_id, rec.device_id,
                                                   summarize_record(rec), entry.ingested_at))
                    notified.add((name, rec.event_id))

        def faulty(entry):  # fails on the drawn (sequence, attempt) pairs
            handed.append((entry, entry.event_seq, entries[entry.sequence]))
            attempt = len([e for e, _, _ in handed if e.sequence == entry.sequence])
            if (entry.sequence, attempt) in failing:
                raised[entry.sequence] = raised.get(entry.sequence, 0) + 1
                exc = RuntimeError(f"fault at {entry.sequence}")
                if raised[entry.sequence] == poison_passes:
                    dead.append((entries[entry.sequence], repr(exc)))
                raise exc

        dispatcher.register("mirror_notify", mirror_notify)
        dispatcher.register("faulty", faulty)
        for at, step in enumerate(steps):
            if step[0] == "pass":
                if len(stream) - dispatcher.checkpoint > 1:
                    seen.add("backlog")
                dispatcher.run_pass(stream)
                continue
            _, device_id, seq, unsafe = step
            kind = ScenarioKind.UNSAFE_CONTENT if unsafe else ScenarioKind.ANIMAL_DETECTION
            rec = record(seq, device=device_id, names=("gun",) if unsafe else (), kind=kind)
            try:
                entries.append(stream.append(rec, at))
            except ValidationError:
                seen.add("refused")  # out of order: nothing appended
        n = len(entries)
        assert len(stream) == n
        for entry, event_seq, mirrored in handed:
            assert (entry, event_seq) == (mirrored, mirrored.event_seq)
        for start in range(-n - 1, n + 2):
            assert ([(e, e.event_seq, e.partition) for e in stream.read_from(start)]
                    == [(e, e.event_seq, e.partition) for e in entries[start:]])
        assert dispatcher.dead_letters == dead
        assert [e.event_seq for e, _ in dispatcher.dead_letters] == [e.event_seq for e, _ in dead]
        for name, log in logs.items():
            view = service.hub.subscription(name).delivery_log
            assert len(view) == len(log) and view == log and list(view) == log
            for i in range(-len(log) - 1, len(log) + 1):
                if -len(log) <= i < len(log):
                    assert view[i] == log[i]
                else:
                    with pytest.raises(IndexError):
                        view[i]
            assert view[1:] == log[1:] and view[::-1] == log[::-1]
        seen.update(name for name, reached in (
            ("duplicate", any(e.duplicate for e in entries)),
            ("redelivered", len({e.sequence for e, _, _ in handed}) < len(handed)),
            ("dead letter", dead),
            ("not yet handled", dispatcher.checkpoint < n)) if reached)
        return seen


class TestMetadataStore:
    def test_put_is_idempotent(self):
        store = MetadataStore()
        store.put(record(0))
        store.put(record(0))
        assert len(store) == 1

    def test_range_excluding_record_time(self):
        store = MetadataStore()
        store.put(record(0, at=5000))
        assert store.get_activities("door-1", 0, 4999) == []

    def test_inverted_range_rejected(self):
        with pytest.raises(ValidationError):
            MetadataStore().get_activities("door-1", 10, 5)

    def test_full_range_matches_naive_oracle(self):
        store = MetadataStore()
        records = [record(i, at=i * 1000) for i in range(10)]
        for r in reversed(records):  # insertion order must not matter
            store.put(r)
        got = store.get_activities("door-1", 0, 10_000)

        naive = sorted(
            (r for r in records if 0 <= r.captured_at <= 10_000),
            key=lambda r: int(r.event_id.split(":")[1]),
        )
        assert got == naive

    def test_devices_are_isolated(self):
        store = MetadataStore()
        store.put(record(0, device="door-1"))
        store.put(record(0, device="door-2"))
        assert len(store.get_activities("door-1", 0, 10)) == 1

    def test_out_of_order_puts_read_back_in_sequence_order(self):
        store = MetadataStore()
        for seq in (3, 0, 7, 1, 5):
            store.put(record(seq, at=100 - seq))
        got = store.get_activities("door-1", 0, 1000)
        assert [r.event_id for r in got] == [f"door-1:{s}" for s in (0, 1, 3, 5, 7)]
        assert [r.event_id for r in store.all_records()] == [r.event_id for r in got]
        store.put(record(9, at=0))  # in order again after the re-sort
        assert store.get_activities("door-1", 0, 1000)[-1].event_id == "door-1:9"

    def test_duplicate_put_keeps_first_record(self):
        store = MetadataStore()
        first = record(4, names=("dog",))
        store.put(first)
        store.put(record(4, names=("cat",)))
        assert len(store) == 1
        assert store.get_activities("door-1", 0, 10) == [first]
        assert store.latest("door-1") == first  # built from its row: equal, not the same

    def test_latest_prefers_capture_time_then_sequence(self):
        store = MetadataStore()
        store.put(record(0, at=500))
        store.put(record(1, at=200))
        store.put(record(2, at=500))
        assert store.latest("door-1").event_id == "door-1:2"
        assert store.latest("door-9") is None

    def test_latest_across_devices_ties_go_to_first_put(self):
        store = MetadataStore()
        store.put(record(1, device="door-2", at=300))
        store.put(record(1, device="door-1", at=300))
        store.put(record(0, device="door-3", at=300))
        assert store.latest().device_id == "door-2"
        store.put(record(2, device="door-3", at=300))
        assert store.latest().device_id == "door-3"
        assert MetadataStore().latest() is None

    def test_len_counts_distinct_records_across_devices(self):
        store = MetadataStore()
        for device in ("door-1", "door-2"):
            for seq in (2, 0, 1, 0):
                store.put(record(seq, device=device))
        assert len(store) == 6

    def test_all_records_ordered_by_device_then_sequence(self):
        store = MetadataStore()
        for device, seq in (("door-2", 0), ("door-1", 1), ("door-2", 1), ("door-1", 0)):
            store.put(record(seq, device=device))
        assert [r.event_id for r in store.all_records()] == [
            "door-1:0", "door-1:1", "door-2:0", "door-2:1",
        ]

    def test_same_sequence_spellings_read_back_in_put_order(self):
        store = MetadataStore()
        first = spelled("door-1:1", at=200)
        second = spelled("door-1:01", at=100)
        third = spelled("door-1:001", at=100)
        for r in (first, second, third):
            store.put(r)
        assert store.get_activities("door-1", 0, 1000) == [first, second, third]
        assert store.get_activities("door-1", 100, 100) == [second, third]
        assert store.all_records() == [first, second, third]
        assert store.latest("door-1") == first  # built from its row: equal, not the same


def spelled(event_id, at=0, frame_id=None):
    """A record whose event id is given verbatim, e.g. a zero-padded one."""
    device = event_id.rpartition(":")[0]
    return AnalyticsRecord(
        event_id=event_id,
        device_id=device,
        frame_id=frame_id or f"frame-{event_id}",
        detections=(),
        backend_id="aws-saas",
        captured_at=at,
        detected_at=at + 100,
        threshold_used=90.0,
    )


STORE_DEVICES = ("door-1", "door-2", "door-3")

# One put: device index, sequence, extra leading zeros, capture time. Small
# ranges make duplicate ids, out-of-order sequences, capture times that fall
# as sequences rise, and several spellings of one sequence all common.
STORE_PUTS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 12), st.integers(0, 2), st.integers(0, 40)),
    max_size=40,
)
STORE_RANGES = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-5, 45), st.integers(-5, 45)), max_size=8,
)


class TestMetadataStoreAgainstOracle:
    """Every read of the store equals a scan of a plain list of the puts,
    both for a device that puts in order (a read is one slice of its index)
    and for one that does not (a read sorts its slice)."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(device_count=st.integers(1, 3), puts=STORE_PUTS, ranges=STORE_RANGES,
           in_order=st.booleans())
    def test_reads_match_plain_list(self, device_count, puts, ranges, in_order):
        if in_order:
            # sequences rise with capture times, as a device puts its events;
            # a duplicate id or a respelled sequence may still come along
            puts = [(device_index, seq, pad, at) for (device_index, seq, pad, _), at
                    in zip(sorted(puts, key=lambda put: put[1]), sorted(put[3] for put in puts))]
        store = MetadataStore()
        stored = []  # first record put under each event id, in put order
        for index, (device_index, seq, pad, at) in enumerate(puts):
            device = STORE_DEVICES[device_index % device_count]
            r = spelled(f"{device}:{'0' * pad}{seq}", at=at, frame_id=f"frame-{index}")
            store.put(r)
            if r.event_id not in {s.event_id for s in stored}:
                stored.append(r)

        def seq_of(r):
            return int(r.event_id.rpartition(":")[2])

        def first_latest(records):
            best = None
            for r in records:
                if best is None or (r.captured_at, seq_of(r)) > (best.captured_at, seq_of(best)):
                    best = r
            return best

        for device_index, a, b in ranges:
            device = (STORE_DEVICES + ("door-9",))[device_index]
            lo, hi = min(a, b), max(a, b)
            expected = sorted(
                (r for r in stored if r.device_id == device and lo <= r.captured_at <= hi),
                key=seq_of,
            )
            got = store.get_activities(device, lo, hi)
            assert got == expected
            got.reverse()
            got.append(None)  # the caller's list: the next read is unchanged
            assert store.get_activities(device, lo, hi) == expected
        everything = sorted(stored, key=lambda r: (r.device_id, seq_of(r)))
        got = store.all_records()
        assert got == everything
        got.clear()
        assert store.all_records() == everything
        if in_order:
            for device in STORE_DEVICES:
                seqs = [seq_of(r) for r in stored if r.device_id == device]
                if len(set(seqs)) == len(seqs):  # no sequence spelled twice
                    assert device not in store._devices or store._devices[device].ordered
        for device in STORE_DEVICES + ("door-9",):
            # built from its row: equal, not the same; every record put here is distinct
            assert store.latest(device) == first_latest(r for r in stored if r.device_id == device)
        assert store.latest() == first_latest(stored)
        assert len(store) == len(stored)


class TestBlobStore:
    def test_round_trip(self):
        blobs = BlobStore()
        ref = blobs.put(b"front-porch-clip")
        assert blobs.get(ref) == b"front-porch-clip"

    def test_content_addressing(self):
        blobs = BlobStore()
        assert blobs.put(b"same") == blobs.put(b"same")
        assert len(blobs) == 1

    def test_unknown_ref_not_found(self):
        with pytest.raises(NotFoundError):
            BlobStore().get("0" * 64)


class TestQueries:
    def test_latest_activity_mentions_unsafe_content(self):
        store = MetadataStore()
        store.put(record(0, names=("gun",), kind=ScenarioKind.UNSAFE_CONTENT, at=100))
        answer = answer_query(
            QueryRequest(QueryKind.LATEST_ACTIVITY, "door-1"), store, now_ms=1000
        )
        assert "unsafe content" in answer.summary
        assert len(answer.records) == 1

    def test_empty_store_says_no_activity(self):
        answer = answer_query(
            QueryRequest(QueryKind.LATEST_ACTIVITY, "door-1"), MetadataStore(), now_ms=0
        )
        assert "No activity" in answer.summary
        assert answer.records == ()

    def test_daily_snapshot_counts_match_naive_oracle(self):
        store = MetadataStore()
        rows = []
        for i in range(3):
            rows.append(record(i, names=("face",), kind=ScenarioKind.FACE_RECOGNITION,
                               at=1000 + i,
                               identity=FaceIdentity("alice", FaceCategory.FAMILY)))
        for i in range(3, 5):
            rows.append(record(i, names=("dog",), at=1000 + i))
        for r in rows:
            store.put(r)

        answer = answer_query(
            QueryRequest(QueryKind.DAILY_SNAPSHOT, "door-1"), store, now_ms=10_000
        )

        naive = {}
        for r in rows:
            key = r.detections[0].label.kind.value if r.detections else "none"
            naive[key] = naive.get(key, 0) + 1
        assert answer.counts == naive
        assert answer.counts == {"face_recognition": 3, "animal_detection": 2}

    def test_daily_snapshot_is_last_24h_only(self):
        store = MetadataStore()
        day = 24 * 60 * 60 * 1000
        store.put(record(0, at=10))
        store.put(record(1, at=day + 5000))
        answer = answer_query(
            QueryRequest(QueryKind.DAILY_SNAPSHOT, "door-1"), store, now_ms=day + 10_000
        )
        assert sum(answer.counts.values()) == 1

    def test_range_query_requires_range(self):
        with pytest.raises(ValidationError):
            QueryRequest(QueryKind.RANGE_QUERY, "door-1")
        with pytest.raises(ValidationError):
            QueryRequest(QueryKind.RANGE_QUERY, "door-1", range=(10, 5))

    def test_range_query_returns_raw_records(self):
        store = MetadataStore()
        store.put(record(0, at=100))
        store.put(record(1, at=200))
        answer = answer_query(
            QueryRequest(QueryKind.RANGE_QUERY, "door-1", range=(0, 150)), store, now_ms=0
        )
        assert len(answer.records) == 1


class TestCustomLabels:
    def test_register_job(self):
        jobs = CustomLabelJobs()
        job = jobs.create("license-plates", 200)
        assert job.status == "registered"
        assert jobs.get("license-plates").example_count == 200

    def test_duplicate_name_conflicts(self):
        jobs = CustomLabelJobs()
        jobs.create("license-plates", 200)
        with pytest.raises(ConflictError):
            jobs.create("license-plates", 300)

    def test_zero_examples_rejected(self):
        with pytest.raises(ValidationError):
            CustomLabelJobs().create("x", 0)

    def test_status_never_advances(self):
        jobs = CustomLabelJobs()
        jobs.create("a", 10)
        assert jobs.get("a").status == "registered"


class TestServiceWiring:
    def test_ingest_requires_session_service_level(self):
        from doorsim.cloud.service import ApiRequest

        service = CloudService(seed=0)
        response = service.handle(ApiRequest("POST", "/ingest", body={"record": record(0).to_dict()}))
        assert response.status == 401
        assert response.body["ok"] is False

    def test_session_cannot_ingest_for_other_device(self):
        from doorsim.cloud.service import ApiRequest

        service = CloudService(seed=0)
        reg = service.handle(ApiRequest("POST", "/devices/register", body={"device_id": "door-9"}))
        auth = service.handle(ApiRequest("POST", "/devices/auth", body={
            "device_id": "door-9", "secret": reg.body["data"]["secret"]}))
        token = auth.body["data"]["session_token"]
        response = service.handle(ApiRequest(
            "POST", "/ingest",
            headers={"x-session-token": token},
            body={"record": record(0, device="door-1").to_dict()},
        ))
        assert response.status == 401


def session(service, device_id):
    """Register and authenticate ``device_id``; its session token."""
    secret = service.handle(ApiRequest("POST", "/devices/register",
                                       body={"device_id": device_id})).body["data"]["secret"]
    return service.handle(ApiRequest("POST", "/devices/auth", body={
        "device_id": device_id, "secret": secret})).body["data"]["session_token"]


def ingest(service, token, body, at=None):
    headers = {"x-session-token": token}
    if at is not None:
        headers["x-sim-time"] = str(at)
    return service.handle(ApiRequest("POST", "/ingest", headers=headers, body=body))


class TestIngestRequest:
    def test_envelopes_off_the_exact_dict_path(self):
        service = CloudService(seed=0)
        token = session(service, "door-1")
        rec = record(0).to_dict()
        cases = [
            (MappingProxyType({"record": rec}), 200, None),  # any mapping is a body
            ({"record": MappingProxyType(record(1).to_dict())}, 200, None),
            ([{"record": rec}], 400, ("protocol", "request body must be a JSON object")),
            (None, 400, ("protocol", "request body must be a JSON object")),
            ({}, 400, ("protocol", "record is required")),
            ({"record": None}, 400, ("protocol", "record must be an object")),
            ({"record": [rec]}, 400, ("protocol", "record must be an object")),
            ({"record": "x"}, 400, ("protocol", "record must be an object")),
        ]
        for body, status, error in cases:
            response = ingest(service, token, body)
            assert response.status == status, body
            if error is None:
                assert response.body["ok"] is True
            else:
                assert response.body == {"ok": False, "error": dict(zip(("code", "message"), error))}
        assert len(service.stream) == 2

    def test_filtered_subscriptions_still_filter(self):
        service = CloudService(seed=0)
        tokens = {device_id: session(service, device_id) for device_id in ("door-1", "door-2")}
        service.subscribe("all")
        service.subscribe("door-2", SubscriptionFilter(devices=frozenset({"door-2"})))
        service.subscribe("unsafe", SubscriptionFilter(
            scenarios=frozenset({ScenarioKind.UNSAFE_CONTENT})))
        service.subscribe("nothing", SubscriptionFilter(devices=frozenset()))
        gun = record(1, names=("gun",), kind=ScenarioKind.UNSAFE_CONTENT)
        for device_id, rec in (("door-1", record(0)), ("door-1", gun),
                               ("door-2", record(0, device="door-2"))):
            assert ingest(service, tokens[device_id], {"record": rec.to_dict()}).status == 200
        delivered = {name: [n.event_id for n in service.hub.subscription(name).delivery_log]
                     for name in ("all", "door-2", "unsafe", "nothing")}
        assert delivered == {"all": ["door-1:0", "door-1:1", "door-2:0"], "door-2": ["door-2:0"],
                             "unsafe": ["door-1:1"], "nothing": []}

    def test_a_publish_failing_after_its_put_is_redelivered_once(self):
        service = CloudService(seed=0)
        token = session(service, "door-1")
        service.subscribe("ops")
        service.subscribe("door-1", SubscriptionFilter(devices=frozenset({"door-1"})))
        real_publish, publishes = service.hub.publish, []

        def fails_once(rec, at):
            publishes.append(rec.event_id)
            delivered = real_publish(rec, at)
            if len(publishes) == 1:
                raise RuntimeError("push service down")
            return delivered

        service.hub.publish = fails_once
        response = ingest(service, token, {"record": record(0).to_dict()}, at=7)
        assert response.status == 200 and response.body["data"]["sequence"] == 0
        assert publishes == ["door-1:0", "door-1:0"]  # redelivered within the request
        assert service.store.all_records() == [record(0)]
        for name in ("ops", "door-1"):
            assert [n.event_id for n in service.hub.subscription(name).delivery_log] == ["door-1:0"]
        assert service.dispatcher.checkpoint == 1 and service.dispatcher.dead_letters == []

    @pytest.fixture()
    def passes(self, monkeypatch):
        """The dispatch passes run, counted."""
        count, real_run_pass = [0], Dispatcher.run_pass

        def counted(dispatcher, stream):
            count[0] += 1
            return real_run_pass(dispatcher, stream)

        monkeypatch.setattr(Dispatcher, "run_pass", counted)
        return count

    def test_a_caught_up_ingest_is_delivered_without_a_pass(self, passes):
        service = CloudService(seed=0)
        token = session(service, "door-1")
        service.subscribe("ops")
        audited = []  # a handler registered after construction runs too, after the service's
        service.dispatcher.register("audit", lambda entry: audited.append(
            (entry.sequence, service.store.latest("door-1").event_id)))
        for seq in (0, 1):
            assert ingest(service, token, {"record": record(seq).to_dict()}).status == 200
        assert audited == [(0, "door-1:0"), (1, "door-1:1")]
        assert [n.event_id for n in service.hub.subscription("ops").delivery_log] == [
            "door-1:0", "door-1:1"]
        assert service.dispatcher.checkpoint == 2 and passes[0] == 0

    def test_a_caught_up_duplicate_skips_the_handlers_without_a_pass(self, passes):
        service = CloudService(seed=0)
        token = session(service, "door-1")
        publishes, real_publish = [], service.hub.publish
        service.hub.publish = lambda rec, at: publishes.append(rec.event_id) or real_publish(rec, at)
        for _ in range(2):
            response = ingest(service, token, {"record": record(0).to_dict()})
        assert response.body["data"] == {"sequence": 1, "duplicate": True, "ingested_at": 0}
        assert publishes == ["door-1:0"]
        assert service.dispatcher.checkpoint == 2 and passes[0] == 0

    def test_one_poison_pass_dead_letters_within_the_request(self, passes):
        service = CloudService(seed=0, poison_passes=1)
        token = session(service, "door-1")
        real_put = service.store.put

        def fails_for_the_first(rec, seq):
            if rec.event_id == "door-1:0":
                raise RuntimeError("metadata store down")
            real_put(rec, seq)

        service.store.put = fails_for_the_first
        for seq in (0, 1):
            assert ingest(service, token, {"record": record(seq).to_dict()}).status == 200
        assert [(entry.sequence, message) for entry, message in service.dispatcher.dead_letters] \
            == [(0, "RuntimeError('metadata store down')")]
        assert service.store.all_records() == [record(1)]
        assert service.dispatcher.checkpoint == 2 and passes[0] == 0

    def test_an_appended_record_is_acked_when_the_dispatch_budget_runs_out(self):
        service = CloudService(seed=0)
        token = session(service, "door-1")
        chained = []

        def appender(entry):  # one more entry per delivery: no pass reaches the head
            service.stream.append(record(len(chained), device="chain"), entry.ingested_at)
            chained.append(entry.sequence)

        service.dispatcher.register("appender", appender)
        response = ingest(service, token, {"record": record(0).to_dict()}, at=900)
        assert response.status == 200
        assert response.body == {"ok": True, "data": {
            "sequence": 0, "duplicate": False, "ingested_at": 900}}
        assert response.body["data"]["ingested_at"] <= service.now_ms == 900
        assert service.dispatcher.checkpoint < len(service.stream)  # the backlog waits
        head = len(service.stream)
        retry = ingest(service, token, {"record": record(0).to_dict()}, at=900)
        assert retry.body == {"ok": True, "data": {
            "sequence": head, "duplicate": True, "ingested_at": 900}}
        assert service.store.latest("door-1") == record(0)  # stored once, by the first pass


# -- one-pass ingest against the pass-by-pass reference ------------------------
#
# CloudService runs an accepted /ingest in one request: the stream parses
# the event id once and hands its sequence to the store, ``x-sim-time`` is
# read inline, an ingest that finds the dispatcher caught up delivers its own
# entry without a pass and runs passes only when a backlog was waiting or a
# handler failed or appended, and the hub keeps one delivered-id set per
# subscriber. ReferenceService is the service as it was written before,
# with its two dispatch handlers, kept here as the reference that it must
# equal; it shares two later rules: a request answered with ``ok: false``
# leaves the clock where it was, and an appended record is answered 200 even
# when the dispatch budget runs out.

def run_until_current_pass_by_pass(dispatcher, stream, max_passes=1000):
    for _ in range(max_passes):
        if dispatcher.run_pass(stream) >= len(stream):
            return dispatcher.checkpoint
    raise ValidationError(f"dispatcher did not converge in {max_passes} passes")


class TupleSetHub(NotificationHub):
    """The hub that remembered delivered (subscriber id, event id) pairs."""

    def __init__(self):
        self._subscriptions = {}
        self._delivered = set()

    def subscribe(self, subscriber_id, filter=None):
        subscription = Subscription(subscriber_id, filter or SubscriptionFilter())
        self._subscriptions[subscriber_id] = subscription
        return subscription

    def publish(self, record, at):
        delivered = []
        for subscription in self._subscriptions.values():
            key = (subscription.subscriber_id, record.event_id)
            if key in self._delivered:
                continue
            if not subscription.filter.matches(record):
                continue
            subscription.sent.append(record.to_row())  # a subscription keeps rows
            subscription.sent_at.append(at)
            self._delivered.add(key)
            delivered.append(subscription.subscriber_id)
        return delivered


class ReferenceService(CloudService):
    """The gateway, ingest, persistence and dispatch loop before one-pass ingest."""

    def __init__(self, seed=0, auto_dispatch=True, poison_passes=3):
        super().__init__(seed, auto_dispatch=auto_dispatch, poison_passes=poison_passes)
        self.hub = TupleSetHub()
        self.dispatcher = Dispatcher(poison_passes=poison_passes)
        self.dispatcher.register("persist_metadata", self._persist_metadata)
        self.dispatcher.register("publish_notification", self._publish_notification)

    def _persist_metadata(self, entry):
        self.store.put(entry.payload)  # parses the event id again

    def _publish_notification(self, entry):
        self.hub.publish(entry.payload, at=entry.ingested_at)

    def run_dispatch(self):
        return run_until_current_pass_by_pass(self.dispatcher, self.stream)

    def handle(self, request):
        handler = self._routes.get((request.method, request.path))
        if handler is None and request.method == "GET":
            if service_module._BLOB_ROUTE.fullmatch(request.path):
                handler = self._handle_get_blob
        now_ms = self.now_ms
        try:
            if "x-sim-time" in request.headers:
                self.advance_clock(parse_int(request.headers["x-sim-time"], "x-sim-time"))
            if handler is None:
                raise NotFoundError(f"no route for {request.method} {request.path}")
            data = handler(request)
        except DoorsimError as exc:
            self._now_ms = now_ms  # a refused request leaves the clock where it was
            return service_module._error(exc)
        return ApiResponse(200, {"ok": True, "data": data})

    def _handle_ingest(self, request):
        device_id = self.registry.validate_session(request.headers.get("x-session-token"))
        record = AnalyticsRecord.from_dict(field(self._body(request), "record", dict))
        if record.device_id != device_id:
            raise AuthError(
                f"session for {device_id} cannot ingest records of {record.device_id}"
            )
        entry = self.stream.append(record, ingested_at=self.now_ms)
        if self.auto_dispatch:
            try:
                self.run_dispatch()
            except ValidationError:  # the record is in; the backlog waits
                pass
        return {
            "sequence": entry.sequence,
            "duplicate": entry.duplicate,
            "ingested_at": entry.ingested_at,
        }


class WrittenOutDispatcher(Dispatcher):
    """A dispatcher whose passes are written out (``pass_over_tail_copy``):
    it shares no delivery step with :class:`Dispatcher`."""

    run_pass = pass_over_tail_copy


class WrittenOutReferenceService(ReferenceService):
    """The reference service over a :class:`WrittenOutDispatcher`."""

    def __init__(self, seed=0, auto_dispatch=True, poison_passes=3):
        super().__init__(seed, auto_dispatch=auto_dispatch, poison_passes=poison_passes)
        self.dispatcher = WrittenOutDispatcher(poison_passes=poison_passes)
        self.dispatcher.register("persist_metadata", self._persist_metadata)
        self.dispatcher.register("publish_notification", self._publish_notification)


SIM_TIMES = (st.sampled_from([None, "-5", "+5", "", " 7", "٣", "9" * 4301, "9" * 4300, "0"])
             | st.integers(0, 10 ** 6).map(str))
FILTERS = st.sampled_from([
    None,
    SubscriptionFilter(devices=frozenset({"d1"})),
    SubscriptionFilter(scenarios=frozenset({ScenarioKind.UNSAFE_CONTENT})),
])
INGESTS = (
    # (session device or None, record device, event sequence, x-sim-time, scenario)
    st.tuples(st.just("ingest"), st.sampled_from(["d1", "d1", "d2", None]),
              st.sampled_from(["d1", "d1", "d2"]), st.integers(0, 6), SIM_TIMES,
              st.sampled_from([ScenarioKind.ANIMAL_DETECTION, ScenarioKind.UNSAFE_CONTENT]))
)
STEPS = st.one_of(
    INGESTS, INGESTS, INGESTS,
    st.tuples(st.just("subscribe"), st.sampled_from(["ops", "filtered"]), FILTERS),
    st.tuples(st.just("dispatch")),
    st.tuples(st.just("pass")), st.tuples(st.just("pass")),
    st.tuples(st.just("auto"), st.booleans()),
)
NAMES_BY_KIND = {ScenarioKind.ANIMAL_DETECTION: ("dog",), ScenarioKind.UNSAFE_CONTENT: ("gun",)}


def drive(cls, plan, probe=None):
    """Run ``plan`` on a fresh service of ``cls``; everything the two
    services must agree on, as plain data.

    ``faults_at`` None registers two more handlers, ``faulty`` and
    ``appender``. A pair ("put" or "publish", pairs) keeps only the
    service's own handler and makes ``store.put`` fail before it stores, or
    ``hub.publish`` after it publishes, on the (event sequence, attempt)
    pairs. ``probe``, if given, counts the accepted ingests that ran no
    dispatch pass and the faults raised outside a pass."""
    steps, auto_dispatch, poison_passes, failing, appending, chain, faults_at = plan
    service = cls(seed=3, auto_dispatch=auto_dispatch, poison_passes=poison_passes)
    tokens = {}
    for device_id in ("d1", "d2"):
        secret = service.handle(ApiRequest("POST", "/devices/register",
                                           body={"device_id": device_id})).body["data"]["secret"]
        tokens[device_id] = service.handle(ApiRequest("POST", "/devices/auth", body={
            "device_id": device_id, "secret": secret})).body["data"]["session_token"]
    service.subscribe("ops")
    service.subscribe("filtered", SubscriptionFilter(devices=frozenset({"d2"})))
    attempts = {}
    chained = [0]
    resubscribed = set()  # sequences delivered before the last re-subscribe
    redelivered = []

    def faulty(entry):  # fails on the generated (stream sequence, attempt) pairs
        attempt = attempts[entry.sequence] = attempts.get(entry.sequence, 0) + 1
        if entry.sequence in resubscribed:
            redelivered.append(entry.sequence)
        if (entry.sequence, attempt) in failing:
            fault_raised()
            raise RuntimeError(f"fault at {entry.sequence} attempt {attempt}")

    def appender(entry):  # appends to the stream during delivery
        if entry.sequence in appending:
            device_id, seq = appending[entry.sequence]
            service.stream.append(record(seq, device=device_id, at=entry.ingested_at),
                                  entry.ingested_at)
        if chained[0] < chain:  # one more entry per delivery: a pass never reaches the head
            service.stream.append(record(chained[0], device="chain"), entry.ingested_at)
            chained[0] += 1

    layer_attempts = {}
    passes = [0]  # dispatch passes started
    running = [False]  # whether a pass is running

    def fault_raised():
        if probe is not None and not running[0]:
            probe["faults without a pass"] += 1

    def failing_layer(real, fails_after):  # store.put or hub.publish, failing as planned
        def call(rec, *args, **kwargs):
            attempt = layer_attempts[rec.event_id] = layer_attempts.get(rec.event_id, 0) + 1
            fails = (int(rec.event_id.split(":")[1]), attempt) in layer_failing
            if fails:
                fault_raised()
                if not fails_after:
                    raise RuntimeError(f"{rec.event_id} not stored, attempt {attempt}")
            result = real(rec, *args, **kwargs)
            if fails:
                raise RuntimeError(f"{rec.event_id} published, then failed, attempt {attempt}")
            return result
        return call

    def counted_pass(stream, run_pass=service.dispatcher.run_pass):
        passes[0] += 1
        running[0] = True
        try:
            return run_pass(stream)
        finally:
            running[0] = False

    service.dispatcher.run_pass = counted_pass
    if faults_at is None:
        service.dispatcher.register("faulty", faulty)
        service.dispatcher.register("appender", appender)
    else:
        layer, layer_failing = faults_at
        if layer == "put":
            service.store.put = failing_layer(service.store.put, False)
        else:
            service.hub.publish = failing_layer(service.hub.publish, True)
    outcomes = []
    for step in steps:
        if step[0] == "ingest":
            _, session, device_id, seq, sim_time, kind = step
            headers = {} if session is None else {"x-session-token": tokens[session]}
            if sim_time is not None:
                headers["x-sim-time"] = sim_time
            body = {"record": record(seq, device=device_id, names=NAMES_BY_KIND[kind],
                                     at=seq * 10, kind=kind).to_dict()}
            passes_before = passes[0]
            response = service.handle(ApiRequest("POST", "/ingest", headers=headers, body=body))
            outcomes.append((response.status, response.body))
            if probe is not None and response.status == 200 and passes[0] == passes_before:
                probe["ingests without a pass"] += 1
        elif step[0] == "subscribe":
            service.subscribe(step[1], step[2])
            resubscribed.update(attempts)
        elif step[0] == "dispatch":
            try:
                outcomes.append(service.run_dispatch())
            except ValidationError as exc:
                outcomes.append(str(exc))
        elif step[0] == "pass":  # a single pass, as any owner of a dispatcher may run
            outcomes.append(service.dispatcher.run_pass(service.stream))
        else:
            service.auto_dispatch = step[1]
    return {
        "responses": outcomes,
        "stream": [entry.to_dict() for entry in service.stream.read_from(0)],
        "store": service.store.all_records(),
        # the columns, and the notifications the view builds from them
        "deliveries": {name: (subscription.sent, subscription.sent_at,
                              list(subscription.delivery_log))
                       for name in ("ops", "filtered")
                       for subscription in [service.hub.subscription(name)]},
        "dispatch_dead_letters": [(entry.to_dict(), message)
                                  for entry, message in service.dispatcher.dead_letters],
        "failure_counts": service.dispatcher._failure_counts,
        "attempts": attempts,
        "layer_attempts": layer_attempts,
        "redelivered_after_resubscribe": redelivered,
        "checkpoint": service.dispatcher.checkpoint,
        "now_ms": service.now_ms,
    }


LAYER_FAULTS = st.sets(st.tuples(st.integers(0, 6), st.integers(1, 3)), min_size=1, max_size=8)
PLANS = st.tuples(
    st.lists(STEPS, min_size=1, max_size=25),
    st.booleans(),  # auto_dispatch
    st.integers(1, 3),  # poison_passes
    st.sets(st.tuples(st.integers(0, 6) | st.integers(0, 40), st.integers(1, 4)),
            max_size=20),  # failing
    st.dictionaries(st.integers(0, 30), st.tuples(st.sampled_from(["d1", "d2"]),
                                                  st.integers(0, 6)), max_size=4),  # appending
    st.sampled_from([0, 3, 1200]),  # chain: 1200 outlasts the 1,000-pass budget
    # faults_at: None, or the layer that fails and its (event sequence, attempt) pairs
    st.one_of(st.none(), st.none(), *(st.tuples(st.just(layer), LAYER_FAULTS)
                                      for layer in ("put", "publish"))),
)


def outcomes_of(result):
    """What kinds of outcome a driven plan reached."""
    seen = set()
    for outcome in result["responses"]:
        if type(outcome) is tuple:
            status, body = outcome
            seen.add(status if status == 200 else body["error"]["message"].split(":")[0])
        else:
            seen.add("dispatch" if type(outcome) is int else outcome)
    if result["dispatch_dead_letters"]:
        seen.add("dead letter")
    if any(entry["duplicate"] for entry in result["stream"]):
        seen.add("duplicate")
    if result["redelivered_after_resubscribe"]:
        seen.add("redelivered after a re-subscribe")
    return seen


class TestOnePassIngest:
    def test_equals_the_pass_by_pass_reference(self):
        seen = set()

        @settings(max_examples=500, deadline=None, database=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(plan=PLANS)
        # a pass fails after publishing, the subscriber re-subscribes, and the
        # next pass redelivers: the hub must not notify it twice
        @example(plan=([("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION), ("pass",),
                        ("subscribe", "ops", None), ("pass",)], False, 3, {(0, 1)}, {}, 0, None))
        # a put fails within the request that delivers its entry without a
        # pass, and one failure is poison: the entry is dead-lettered there
        @example(plan=([("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d1", 1, "6", ScenarioKind.ANIMAL_DETECTION)],
                       True, 1, set(), {}, 0, ("put", {(0, 1)})))
        # a publish fails after it published: the request's passes redeliver
        # the entry, and the hub notifies no subscriber twice
        @example(plan=([("subscribe", "filtered", None),
                        ("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION)],
                       True, 3, set(), {}, 0, ("publish", {(0, 1)})))
        # a retried ingest is a duplicate, and an explicit dispatch catches up
        @example(plan=([("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d1", 0, "6", ScenarioKind.ANIMAL_DETECTION),
                        ("dispatch",)], True, 3, set(), {}, 0, None))
        # each refusal: a bad x-sim-time, no session, another device's record,
        # and an event sequence below the device's last
        @example(plan=([("ingest", "d1", "d1", 2, "5", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d1", 3, "+5", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", None, "d1", 3, "6", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d2", 3, "6", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d1", 1, "7", ScenarioKind.ANIMAL_DETECTION)],
                       True, 3, set(), {}, 0, None))
        # an appending handler outlasts the budget of an explicit dispatch
        @example(plan=([("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION),
                        ("dispatch",)], False, 3, set(), {}, 1200, None))
        def compare(plan):
            probe = {"ingests without a pass": 0, "faults without a pass": 0}
            result = drive(CloudService, plan, probe)
            assert result == drive(ReferenceService, plan)
            seen.update(outcomes_of(result))
            seen.update(name for name, count in probe.items() if count)
            if plan[-1] is not None and probe["faults without a pass"]:
                seen.add(f"{plan[-1][0]} fault without a pass")

        compare()
        # the property is only as good as its mix
        assert {200, "x-sim-time must be an integer", "out-of-order ingest for d1",
                "missing or invalid session token", "session for d1 cannot ingest records of d2",
                "dispatcher did not converge in 1000 passes", "dispatch", "dead letter",
                "duplicate", "redelivered after a re-subscribe", "ingests without a pass",
                "faults without a pass", "put fault without a pass",
                "publish fault without a pass"} <= seen, seen

    def test_equals_a_reference_whose_passes_are_written_out(self):
        # ReferenceService shares Dispatcher.run_pass, and with it the step an
        # ingest runs; this reference writes its passes out, so the step's
        # duplicate skip, poison rule and checkpoint move are checked too
        @settings(max_examples=200, deadline=None, database=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(plan=PLANS)
        # a retried ingest is a duplicate, which skips the failing handler; with
        # poison_passes 1, the next entry fails, is dead-lettered, and the
        # checkpoint moves past it
        @example(plan=([("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d1", 0, "6", ScenarioKind.ANIMAL_DETECTION),
                        ("ingest", "d1", "d1", 1, "7", ScenarioKind.ANIMAL_DETECTION)],
                       True, 1, {(1, 1), (2, 1)}, {}, 0, None))
        # a handler fails twice short of poison_passes 3, then succeeds
        @example(plan=([("ingest", "d1", "d1", 0, "5", ScenarioKind.ANIMAL_DETECTION),
                        ("dispatch",)], True, 3, {(0, 1), (0, 2)}, {}, 0, None))
        def compare(plan):
            assert drive(CloudService, plan) == drive(WrittenOutReferenceService, plan)

        compare()

    def test_each_event_id_is_parsed_once_per_appended_record(self, monkeypatch):
        calls = {"parse_event_id": 0, "_decimal": 0}

        def counted(module, name):
            real = getattr(module, name)

            def count(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, count)

        counted(model, "_decimal")
        counted(stream_module, "parse_event_id")
        counted(stores_module, "parse_event_id")
        service = CloudService(seed=0)
        secret = service.handle(ApiRequest("POST", "/devices/register",
                                           body={"device_id": "door-1"})).body["data"]["secret"]
        token = service.handle(ApiRequest("POST", "/devices/auth", body={
            "device_id": "door-1", "secret": secret})).body["data"]["session_token"]
        service.subscribe("ops")
        for seq in [0, 1, 2, 1, 3, 4, 4, 5]:  # two duplicates
            response = service.handle(ApiRequest(
                "POST", "/ingest", headers={"x-session-token": token, "x-sim-time": str(seq)},
                body={"record": record(seq, at=seq).to_dict()}))
            assert response.status == 200
        assert len(service.stream) == 8 and len(service.store) == 6
        assert calls == {"parse_event_id": 8, "_decimal": 8}
        entry = service.stream.read_from(0)[-1]
        assert entry.event_seq == 5
        assert "event_seq" not in entry.to_dict() and "event_seq" not in repr(entry)

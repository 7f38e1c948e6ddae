"""Tests for the pipelined streaming executor."""

import pytest

from repro.apps import build_hospital_job
from repro.apps.stream_exec import StreamExecutor, StreamStats, WindowRecord
from repro.api import connect
from repro.dataflow import Job, Task, WorkSpec

KiB = 1024


def hospital_template(index: int):
    job = build_hospital_job(n_frames=8)
    job.name = f"window-{index}"
    return job


@pytest.fixture
def session():
    return connect("pooled-rack", seed=83)


class TestStreamExecutor:
    def test_all_windows_complete_with_queueing(self, session):
        executor = StreamExecutor(session, hospital_template, max_in_flight=2)
        stats = executor.run(n_windows=10, interval_ns=50_000.0)
        assert stats.completed == 10
        assert stats.dropped == 0
        assert session.rts.memory.live_regions() == []

    def test_pipelining_beats_serial_throughput(self):
        horizons = {}
        for in_flight in (1, 3):
            session = connect("pooled-rack", seed=84)
            executor = StreamExecutor(
                session, hospital_template, max_in_flight=in_flight)
            executor.run(n_windows=8, interval_ns=10_000.0)
            horizons[in_flight] = session.cluster.engine.now
        assert horizons[3] < horizons[1]

    def test_queue_policy_latency_grows_under_overload(self, session):
        """Arrivals faster than service: queued windows wait longer and
        longer — the textbook backpressure signature."""
        executor = StreamExecutor(session, hospital_template, max_in_flight=1,
                                  backpressure="queue")
        stats = executor.run(n_windows=8, interval_ns=20_000.0)
        assert stats.completed == 8
        latencies = [w.latency for w in stats.windows]
        assert latencies[-1] > latencies[0] * 2

    def test_drop_policy_bounds_latency(self, session):
        executor = StreamExecutor(session, hospital_template, max_in_flight=1,
                                  backpressure="drop")
        stats = executor.run(n_windows=12, interval_ns=20_000.0)
        assert stats.dropped > 0
        assert stats.completed + stats.dropped == 12
        # Completed windows never waited in a queue.
        max_latency = max(w.latency for w in stats.windows if w.completed)
        queueing = StreamExecutor(
            connect("pooled-rack", seed=83),
            hospital_template, max_in_flight=1, backpressure="queue")
        q_stats = queueing.run(n_windows=12, interval_ns=20_000.0)
        assert max_latency < max(w.latency for w in q_stats.windows if w.completed)

    def test_deferred_admission_of_a_short_job_settles(self):
        """A window queued behind the admission gate whose job runs for
        a nanosecond settles at its finish, not at a later poll."""
        def tiny(index):
            job = Job(f"tiny-{index}")
            job.add_task(Task("t", work=WorkSpec(ops=10)))
            return job

        session = connect("pooled-rack", seed=5, max_concurrent=1)
        executor = StreamExecutor(session, tiny, max_in_flight=3)
        stats = executor.run(n_windows=6, interval_ns=0.5)
        assert stats.completed == 6
        handles = {job.name: job for job in session.driver.stats.jobs}
        deferred = 0
        for window in stats.windows:
            handle = handles[f"tiny-{window.index}"]
            deferred += handle.admitted_at > window.started_at
            assert window.finished_at == handle.finished_at
        assert deferred > 0

    def test_percentiles(self):
        stats = StreamStats()
        for i, latency in enumerate([10.0, 20.0, 30.0, 40.0]):
            record = WindowRecord(i, arrived_at=0.0)
            record.finished_at = latency
            stats.windows.append(record)
        assert stats.percentile(0) == 10.0
        assert stats.percentile(100) == 40.0
        assert stats.percentile(50) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            stats.percentile(120)

    def test_empty_stats(self):
        stats = StreamStats()
        assert stats.percentile(50) == 0.0
        assert stats.throughput_per_s(1e9) == 0.0

    def test_validation(self, session):
        with pytest.raises(ValueError):
            StreamExecutor(session, hospital_template, max_in_flight=0)
        with pytest.raises(ValueError):
            StreamExecutor(session, hospital_template, backpressure="explode")
        executor = StreamExecutor(session, hospital_template)
        with pytest.raises(ValueError):
            executor.run(n_windows=0, interval_ns=100.0)

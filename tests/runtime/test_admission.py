"""Tests for the multi-tenant rack driver (admission + utilization)."""

import pytest

from repro import connect
from repro.dataflow import Job, RegionUsage, Task, WorkSpec

KiB = 1024
MiB = 1024 * KiB


def small_job(name: str, payload=2 * MiB):
    def factory():
        job = Job(name)
        a = job.add_task(Task("a", work=WorkSpec(
            ops=1e5, output=RegionUsage(payload))))
        b = job.add_task(Task("b", work=WorkSpec(
            ops=1e5, input_usage=RegionUsage(0))))
        job.connect(a, b)
        return job

    return factory


def rack(**options):
    return connect("pooled-rack", seed=37, **options)


class TestRackDriver:
    def test_all_jobs_complete(self):
        session = rack(max_concurrent=4)
        arrivals = [
            (i * 10_000.0, f"job{i}", small_job(f"job{i}")) for i in range(12)
        ]
        stats = session.run_trace(arrivals)
        assert stats.completed == 12
        assert session.rts.memory.live_regions() == []

    def test_concurrency_cap_respected(self):
        session = rack(max_concurrent=2)
        arrivals = [(0.0, f"job{i}", small_job(f"job{i}")) for i in range(8)]
        stats = session.run_trace(arrivals)
        assert stats.completed == 8
        assert stats.peak_concurrency <= 2

    def test_queueing_shows_up_as_wait(self):
        tight = rack(max_concurrent=1)
        arrivals = [(0.0, f"job{i}", small_job(f"job{i}")) for i in range(6)]
        stats = tight.run_trace(arrivals)
        assert stats.mean_queue_wait > 0
        # Later arrivals waited longer than the first.
        waits = [j.queue_wait for j in stats.jobs]
        assert waits[-1] > waits[0]

    def test_wider_gate_reduces_wait(self):
        waits = {}
        for cap in (1, 8):
            session = connect("pooled-rack", seed=38, max_concurrent=cap)
            arrivals = [(0.0, f"j{i}", small_job(f"j{i}")) for i in range(8)]
            waits[cap] = session.run_trace(arrivals).mean_queue_wait
        assert waits[8] < waits[1]

    def test_utilization_sampled(self):
        session = rack(max_concurrent=4)
        session.obs.telemetry.configure(window_ns=10_000.0)
        arrivals = [(0.0, f"job{i}", small_job(f"job{i}", payload=64 * MiB))
                    for i in range(4)]
        stats = session.run_trace(arrivals)
        until = session.cluster.engine.now
        assert stats.memory_utilization.samples > 2
        assert 0.0 <= stats.mean_memory_utilization(until) < 1.0
        assert stats.memory_utilization.maximum > 0.0

    def test_arrival_times_honoured(self):
        session = rack(max_concurrent=8)
        arrivals = [(500_000.0, "late", small_job("late"))]
        stats = session.run_trace(arrivals)
        assert stats.jobs[0].arrived_at == pytest.approx(500_000.0)
        assert stats.jobs[0].admitted_at >= 500_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rack(max_concurrent=0)
        with pytest.raises(ValueError):
            rack(memory_headroom=1.5)

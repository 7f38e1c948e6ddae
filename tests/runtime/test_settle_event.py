"""Tests: the admission handle's completion event (``AdmittedJob.settled``).

Observers of a job learn that it finished, failed or was shed from one
event fired by the driver at the simulated instant, instead of polling
the handle.  The LLM serving engine and the stream executor settle from
it; the event budget below fails if a polling loop comes back.
"""

import pytest

from repro import connect
from repro.apps.llm import define_pd_pools
from repro.apps.llm_exec import LLMEngine
from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.hardware import Cluster
from repro.runtime import HealthMonitor
from repro.runtime.tenancy import TenantQuota, TenantRegistry
from repro.workloads import llm_request_stream

KiB = 1024
MiB = 1024 * KiB

#: Ceiling on engine events per served request.  Settling from the
#: event takes about 490 (open) and 590 (closed) on the stream below; a
#: 2 µs completion poll per in-flight request took about 2,800 and 1,900.
EVENTS_PER_REQUEST = 800


def small_job(name: str, payload: int = 64 * KiB) -> Job:
    job = Job(name)
    job.add_task(Task("t", work=WorkSpec(ops=1e5, output=RegionUsage(payload))))
    return job


def failing_job(name: str) -> Job:
    job = Job(name)

    @task(job, name="crasher", work=WorkSpec(output=RegionUsage(4 * KiB)))
    def crasher(ctx):
        yield from ctx.sleep(25.0)
        raise RuntimeError("mid-task crash")

    return job


def watch(handle, engine):
    """Record every firing of ``handle.settled`` as (time, value)."""
    firings = []
    handle.settled.add_callback(
        lambda event: firings.append((engine.now, event.value))
    )
    return firings


class TestSettledEvent:
    def test_completed_job_settles_once_at_finish(self):
        session = connect("pooled-rack", seed=41)
        engine = session.cluster.engine
        handle = session.submit(small_job("ok"))
        firings = watch(handle, engine)
        engine.run()
        assert handle.completed
        assert firings == [(handle.finished_at, handle)]

    def test_failed_job_settles_once_at_finish(self):
        session = connect("pooled-rack", seed=41)
        engine = session.cluster.engine
        handle = session.submit(failing_job("bad"))
        firings = watch(handle, engine)
        engine.run()
        assert handle.finished_at is not None
        assert not handle.completed
        assert firings == [(handle.finished_at, handle)]

    def test_watermark_shed_settles_once(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=0.0)
        session = connect(cluster=cluster, shed_below_capacity_fraction=0.5)
        cluster.crash_node("stornode0")
        engine = cluster.engine
        handle = session.submit(small_job("late"))
        firings = watch(handle, engine)
        engine.run()
        assert handle.shed
        assert handle.finished_at is None
        assert firings == [(handle.arrived_at, handle)]

    def test_memory_quota_shed_settles_once(self):
        registry = TenantRegistry()
        registry.register("tiny", quota=TenantQuota(memory_bytes=1 * KiB))
        session = connect("pooled-rack", seed=41, tenants=registry)
        engine = session.cluster.engine
        handle = session.submit(small_job("huge", payload=8 * MiB),
                                tenant="tiny")
        firings = watch(handle, engine)
        engine.run()
        assert handle.shed
        assert firings == [(handle.arrived_at, handle)]

    def test_queued_job_settles_after_admission(self):
        session = connect("pooled-rack", seed=41, max_concurrent=1)
        engine = session.cluster.engine
        first = session.submit(small_job("first"))
        second = session.submit(small_job("second"))
        assert second.execution is None  # queued behind the gate
        firings = watch(second, engine)
        engine.run()
        assert second.admitted_at == first.finished_at
        assert firings == [(second.finished_at, second)]


def stream(n=24, **kw):
    kw.setdefault("seed", 11)
    kw.setdefault("output_tokens", (4, 16))
    kw.setdefault("prompt_tail_tokens", (16, 64))
    return llm_request_stream(n, **kw)


@pytest.fixture
def session():
    with connect("pooled-rack", seed=11) as s:
        s.register_tenant("chat", weight=2.0, priority="interactive")
        yield s


class TestLLMSettle:
    def test_records_finish_at_the_simulated_instant(self, session):
        define_pd_pools(session.cluster)
        result = LLMEngine(session).serve(stream())
        handles = {job.name: job for job in session.driver.stats.jobs}
        assert result.completed == 24
        for record in result.records:
            assert record.finished_at == handles[record.request.name].finished_at
        # The horizon ends at the last settle, not at a later sampler tick.
        assert result.horizon_ns == max(r.finished_at for r in result.records)

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_event_budget_per_request(self, session, mode):
        define_pd_pools(session.cluster)
        engine = session.cluster.engine
        requests = stream()
        before = engine.events_processed
        result = LLMEngine(session).serve(requests, mode=mode, concurrency=3)
        assert result.completed == len(requests)
        per_request = (engine.events_processed - before) / len(requests)
        assert per_request <= EVENTS_PER_REQUEST

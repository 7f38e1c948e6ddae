"""Tests: runs and drains end on completion events, not polled predicates.

``RackDriver.drive`` runs the clock to one event (the trace's handles
all settled, or every served request settled); the federation's
``RoutedJob.settled`` covers jobs still in a cross-rack fetch, so a
rack drain waits on exactly the work routed to it and then on the
health monitor's per-node drain processes.  The first two tests pin
defects of the old drained predicates, which compared cumulative
counts and so misread a session that had run jobs before.
"""

import contextlib
import signal

from repro import connect
from repro.apps.llm import define_pd_pools
from repro.apps.llm_exec import LLMEngine
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.sim.faults import FaultKind
from repro.workloads import llm_request_stream

KiB = 1024
MiB = 1024 * KiB


def small_job(name: str, ops: float = 1e5) -> Job:
    job = Job(name)
    job.add_task(Task("t", work=WorkSpec(ops=ops, output=RegionUsage(64 * KiB))))
    return job


def trace(n: int, prefix: str, gap_ns: float = 10_000.0):
    return [
        (gap_ns * i, f"{prefix}{i}", (lambda i=i: small_job(f"{prefix}{i}")))
        for i in range(n)
    ]


@contextlib.contextmanager
def wall_deadline(seconds: int):
    """Fail instead of hanging when a run never reaches its end."""

    def expire(signum, frame):
        raise TimeoutError(f"run still going after {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def watch(event, engine):
    """Record every firing of ``event`` as (time, value)."""
    firings = []
    event.add_callback(lambda e: firings.append((engine.now, e.value)))
    return firings


def record_processes(engine):
    """Collect every process ``engine`` starts, by name."""
    started = []
    spawn = engine.process

    def process(generator, name=""):
        proc = spawn(generator, name=name)
        started.append((name, proc))
        return proc

    engine.process = process
    return started


class TestEarlierJobsDoNotConfuseTheEnd:
    def test_session_run_trace_after_an_earlier_job_returns(self):
        session = connect("pooled-rack", seed=5)
        session.run(small_job("earlier"))
        with wall_deadline(30):
            stats = session.run_trace(trace(3, "t"))
        assert stats.completed == 4
        assert all(j.finished_at is not None for j in stats.jobs)

    def test_federated_run_trace_keeps_the_heartbeat_after_earlier_jobs(self):
        def pulses(fed, arrivals):
            before = fed.registry.stats.heartbeats
            fed.run_trace(arrivals)
            return fed.registry.stats.heartbeats - before

        arrivals = trace(4, "t", gap_ns=3_000_000.0)  # spans 9 ms
        fresh = connect("pooled-rack", racks=2, seed=5)
        used = connect("pooled-rack", racks=2, seed=5)
        used.run(small_job("e0"), small_job("e1"))
        # The trace's arrival times are absolute, and the used session
        # starts it a little later: a couple of pulses fewer, not none.
        expected = pulses(fresh, arrivals)
        assert expected > arrivals[-1][0] / fresh.registry.heartbeat_ns
        assert expected - 3 <= pulses(used, trace(4, "u", 3_000_000.0))


class TestRoutedJobSettled:
    def test_front_door_shed_settles_once(self):
        fed = connect("pooled-rack", racks=2, seed=5)
        for rack in fed.racks:
            fed.registry.begin_drain(rack.name)
        handle = fed.submit(small_job("nowhere"))
        firings = watch(handle.settled, fed.engine)
        fed.run()
        assert handle.shed
        assert firings == [(0.0, handle)]

    def test_local_job_settles_once_at_its_finish(self):
        fed = connect("pooled-rack", racks=2, seed=5)
        handle = fed.submit(small_job("local"))
        firings = watch(handle.settled, fed.engine)
        fed.run()
        assert handle.admitted.completed
        assert firings == [(handle.admitted.finished_at, handle)]

    def test_cross_rack_fetch_job_settles_once_after_landing(self):
        fed = connect("pooled-rack", racks=2, seed=5)
        fed.pin_dataset("ds", "rack0", nbytes=MiB)
        local = fed.submit(small_job("first"), session="ds")
        fetched = fed.submit(small_job("second"), session="ds")
        assert (local.rack, fetched.rack) == ("rack0", "rack1")
        assert fetched.admitted is None  # still crossing the fabric
        firings = watch(fetched.settled, fed.engine)
        fed.run()
        assert fetched.fetched_bytes == MiB
        assert fetched.admitted.completed
        assert fetched.admitted.arrived_at > 0.0
        assert firings == [(fetched.admitted.finished_at, fetched)]


class TestDrainByEvent:
    def test_drain_waits_for_a_fetch_in_flight_toward_the_rack(self):
        fed = connect("pooled-rack", racks=2, seed=5)
        fed.pin_dataset("ds", "rack0", nbytes=MiB)
        fed.submit(small_job("first"), session="ds")
        fetched = fed.submit(small_job("second", ops=1e6), session="ds")
        done = fed.drain_rack("rack1")
        drained = watch(done, fed.engine)
        settled = watch(fetched.settled, fed.engine)
        fed.run()
        assert fetched.admitted.completed
        assert not fed.job_failures()
        assert drained and settled
        assert drained[0][0] >= settled[0][0] == fetched.admitted.finished_at
        assert "rack1" not in fed.registry

    def test_drain_completes_at_the_last_node_reboot(self):
        fed = connect("pooled-rack", racks=2, seed=5)
        rack = fed.rack("rack0")
        reboots = []
        rack.cluster.faults.on(
            FaultKind.NODE_REBOOT, lambda fault: reboots.append(fed.engine.now)
        )
        for i in range(4):
            fed.submit(small_job(f"j{i}", ops=1e6))
        drained = watch(fed.drain_rack("rack0"), fed.engine)
        fed.run()
        assert len(reboots) == rack.monitor.stats.drains_started > 1
        assert drained == [(max(reboots), "rack0")]


class TestNoSamplerOutlivesItsRun:
    """Telemetry folds on a clock watch, so a run starts no rack sampler,
    and no process it does start is still alive when it returns."""

    def test_run_trace_kills_the_rack_sampler(self):
        session = connect("pooled-rack", seed=5)
        started = record_processes(session.cluster.engine)
        session.run_trace(trace(3, "t"))
        assert started
        assert "rack-sampler" not in [name for name, _ in started]
        assert [name for name, p in started if p.is_alive] == []

    def test_serve_kills_the_rack_sampler(self):
        session = connect("pooled-rack", seed=5)
        define_pd_pools(session.cluster)
        started = record_processes(session.cluster.engine)
        requests = llm_request_stream(
            6, seed=5, prompt_tail_tokens=(16, 64), output_tokens=(4, 16),
        )
        result = LLMEngine(session).serve(requests)
        assert result.completed == 6
        assert started
        assert "rack-sampler" not in [name for name, _ in started]
        assert [name for name, p in started if p.is_alive] == []


class TestClockEndsOnTheLastEvent:
    """Telemetry folds on a clock watch, not on a sampler process, so
    nothing is left queued past a run's last event."""

    def test_run_trace_ends_at_the_last_finish(self):
        session = connect("pooled-rack", seed=5)
        stats = session.run_trace(trace(3, "t"))
        assert stats.completed == 3
        assert session.cluster.engine.now == max(
            j.finished_at for j in stats.jobs
        )

    def test_serve_ends_at_the_last_finish(self):
        session = connect("pooled-rack", seed=5)
        define_pd_pools(session.cluster)
        requests = llm_request_stream(
            6, seed=5, prompt_tail_tokens=(16, 64), output_tokens=(4, 16),
        )
        result = LLMEngine(session).serve(requests)
        assert result.completed == 6
        assert session.cluster.engine.now == max(
            r.finished_at for r in result.records
        )

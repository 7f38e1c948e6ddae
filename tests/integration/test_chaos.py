"""Chaos property tests: random fault schedules against the runtime.

Hypothesis draws crash/restart schedules and job shapes; the resilient
runtime must always terminate in one of two sanctioned ways — success
or an explicit ``JobAbandoned`` — and in both cases the cluster must
drain completely (no leaked regions, no phantom device bytes, intact
allocator invariants).  Silent hangs, silent corruption, and silent
partial states are all failures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.ft import OutputBackupStore
from repro.hardware import Cluster
from repro.runtime import (
    HealthMonitor,
    JobAbandoned,
    RackDriver,
    RecoveryPolicy,
    ResilientRuntime,
    RuntimeSystem,
)
from repro.sim.faults import FaultKind

KiB = 1024
MiB = 1024 * KiB

#: Failure domains of the pooled rack worth crashing in tests (crashing
#: compute blades kills the schedulers' candidates; memory domains are
#: the interesting chaos).
CRASHABLE = ["mem-shelf", "memnode0", "stornode0"]


@st.composite
def chaos_schedule(draw):
    n_events = draw(st.integers(1, 4))
    events = []
    for _ in range(n_events):
        crash_at = draw(st.floats(1_000.0, 2_000_000.0))
        restart_after = draw(st.floats(50_000.0, 1_000_000.0))
        node = draw(st.sampled_from(CRASHABLE))
        events.append((crash_at, restart_after, node))
    return events


@st.composite
def chaos_job_shape(draw):
    n_stages = draw(st.integers(2, 4))
    payload = draw(st.sampled_from([1 * MiB, 8 * MiB, 64 * MiB]))
    touches = draw(st.floats(0.5, 2.0))
    return n_stages, payload, touches


def build_job(shape, attempt_tag):
    n_stages, payload, touches = shape
    job = Job(f"chaos-{attempt_tag}")
    previous = None
    for i in range(n_stages):
        task = job.add_task(Task(f"s{i}", work=WorkSpec(
            ops=1e5,
            input_usage=RegionUsage(0, touches=touches) if previous else None,
            output=RegionUsage(payload) if i < n_stages - 1 else None,
            scratch=RegionUsage(2 * MiB) if i % 2 else None,
        )))
        if previous is not None:
            job.connect(previous, task)
        previous = task
    return job


class TestChaos:
    @settings(max_examples=40, deadline=None)
    @given(schedule=chaos_schedule(), shape=chaos_job_shape(),
           seed=st.integers(0, 50))
    def test_crashes_never_leave_partial_state(self, schedule, shape, seed):
        cluster = Cluster.preset("pooled-rack", seed=seed)
        rts = RuntimeSystem(cluster)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=4
        )

        for crash_at, restart_after, node in schedule:
            cluster.faults.inject_at(crash_at, FaultKind.NODE_CRASH, node)
            cluster.faults.inject_at(
                crash_at + restart_after, FaultKind.NODE_RESTART, node)

        counter = [0]

        def factory():
            counter[0] += 1
            rts.costmodel.invalidate()  # device liveness may have changed
            return build_job(shape, counter[0])

        outcome = None
        try:
            stats = resilient.run_job(factory)
            outcome = "ok"
            assert stats.ok
        except JobAbandoned:
            outcome = "abandoned"
        assert outcome in ("ok", "abandoned")

        # Drain everything that is still scheduled (restarts, repairs).
        cluster.engine.run()
        # Regardless of outcome: nothing leaked.
        assert rts.memory.live_regions() == []
        for allocator in rts.memory.allocators.values():
            allocator.check_invariants()
        for device in cluster.memory.values():
            if not device.failed:
                assert device.used == 0, device.name

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_crash_free_chaos_schedule_is_control(self, seed):
        """Without faults the same machinery always succeeds first try."""
        cluster = Cluster.preset("pooled-rack", seed=seed)
        rts = RuntimeSystem(cluster)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=2
        )
        stats = resilient.run_job(lambda: build_job((3, 8 * MiB, 1.0), "c"))
        assert stats.ok
        assert resilient.stats.failures == 0


class TestChaosWithRecovery:
    """The same sanctioned outcomes and no-leak invariants, but against
    the FULL recovery stack — health monitor, task-level retries with
    re-placement, output backups — and a nastier fault mix that adds
    fabric link flaps and cluster-wide power outages."""

    @settings(max_examples=25, deadline=None)
    @given(schedule=chaos_schedule(), shape=chaos_job_shape(),
           seed=st.integers(0, 50),
           link_flap=st.one_of(st.none(), st.floats(1_000.0, 1_000_000.0)),
           outage_at=st.one_of(st.none(), st.floats(10_000.0, 2_000_000.0)))
    def test_recovery_stack_never_leaves_partial_state(
        self, schedule, shape, seed, link_flap, outage_at
    ):
        cluster = Cluster.preset("pooled-rack", seed=seed)
        HealthMonitor(cluster, detection_delay_ns=5_000.0)
        rts = RuntimeSystem(cluster, recovery=RecoveryPolicy(
            backoff_base_ns=1_000.0, max_task_attempts=3,
        ))
        rts.backups = OutputBackupStore(cluster, rts.memory)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=4
        )

        for crash_at, restart_after, node in schedule:
            cluster.faults.inject_at(crash_at, FaultKind.NODE_CRASH, node)
            cluster.faults.inject_at(
                crash_at + restart_after, FaultKind.NODE_RESTART, node)
        if link_flap is not None:
            cluster.faults.inject_at(
                link_flap, FaultKind.LINK_DOWN, "far0--tor")
            cluster.faults.inject_at(
                link_flap + 300_000.0, FaultKind.LINK_UP, "far0--tor")
        if outage_at is not None:
            cluster.faults.inject_at(
                outage_at, FaultKind.POWER_OUTAGE, "rack")

        counter = [0]

        def factory():
            counter[0] += 1
            return build_job(shape, counter[0])

        outcome = None
        try:
            stats = resilient.run_job(factory)
            outcome = "ok"
            assert stats.ok
        except JobAbandoned:
            outcome = "abandoned"
        assert outcome in ("ok", "abandoned")

        cluster.engine.run()
        assert rts.memory.live_regions() == []
        for allocator in rts.memory.allocators.values():
            allocator.check_invariants()
        for device in cluster.memory.values():
            if not device.failed:
                assert device.used == 0, device.name
        # Quiescent means *fully* quiescent: every task attempt ended,
        # so the monitor's watch table must not retain dead entries
        # (empty per-device sets used to leak here forever).
        assert cluster.health_monitor._watched == {}

    def test_power_outage_wipes_volatile_state_but_job_recovers(self):
        """A cluster-wide POWER_OUTAGE mid-run loses every volatile
        region; the resilient layer re-executes and still succeeds."""
        shape = (3, 8 * MiB, 2.0)  # touches=2.0: reads span two passes
        cluster = Cluster.preset("pooled-rack", seed=3)
        engine = cluster.engine
        rts = RuntimeSystem(cluster)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=3
        )

        fired = []

        def saboteur():
            # Cut power exactly once, while s1 is mid-read of its input:
            # the second read pass then finds the region LOST.
            while not (rts.executions
                       and rts.executions[0]._inboxes["s1"]):
                yield engine.timeout(1_000.0)
            yield engine.timeout(1_000.0)
            cluster.faults.inject_now(FaultKind.POWER_OUTAGE, "rack")
            fired.append(engine.now)

        engine.process(saboteur(), name="saboteur")
        counter = [0]

        def factory():
            counter[0] += 1
            return build_job(shape, counter[0])

        stats = resilient.run_job(factory)
        assert stats.ok
        assert fired  # the outage really happened mid-run
        assert rts.memory.lost_regions > 0
        assert resilient.stats.failures >= 1
        cluster.engine.run()
        assert rts.memory.live_regions() == []
        for device in cluster.memory.values():
            assert device.used == 0, device.name

"""Tests for job-level fault tolerance (retries + checkpoint pruning)."""

import pytest

from repro.api import Session, connect
from repro.dataflow import Job, RegionUsage, Task, TaskProperties, WorkSpec
from repro.hardware import Cluster
from repro.runtime import (
    HealthMonitor,
    JobAbandoned,
    RackDriver,
    ResilientRuntime,
    RuntimeSystem,
    prune_with_checkpoints,
)

KiB = 1024
MiB = 1024 * KiB


def chain_job(persist_middle=True, bomb=None, fuse=None):
    """a -> b(persistent) -> c; ``bomb`` names a task that raises.

    ``fuse`` is a mutable list: the bomb only detonates while it is
    non-empty, so retries can succeed after popping it.
    """
    job = Job("chain")

    def exploding(ctx):
        yield from ctx.sleep(10.0)
        if fuse:
            fuse.pop()
            raise RuntimeError(f"bomb in {ctx.task.name}")
        if ctx.task.work.output is not None:
            out = ctx.output()
            yield from ctx.write(out)

    def make(name, persistent=False, has_input=True, has_output=True):
        work = WorkSpec(
            ops=1e5,
            input_usage=RegionUsage(0) if has_input else None,
            output=RegionUsage(2 * MiB) if has_output else None,
        )
        fn = exploding if bomb == name else None
        return Task(name, work=work, fn=fn,
                    properties=TaskProperties(persistent=persistent))

    a = job.add_task(make("a", has_input=False))
    b = job.add_task(make("b", persistent=persist_middle))
    c = job.add_task(make("c", has_output=False))
    job.connect(a, b)
    job.connect(b, c)
    return job


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        cluster = Cluster.preset("pooled-rack", seed=1)
        resilient = ResilientRuntime(connect(cluster=cluster),
                                     max_attempts=3)
        fuse = [1]  # fail exactly once
        stats = resilient.run_job(
            lambda: chain_job(bomb="c", fuse=fuse)
        )
        assert stats.ok
        assert resilient.stats.attempts == 2
        assert resilient.stats.failures == 1
        assert resilient.stats.wasted_time_ns > 0

    def test_permanent_failure_abandoned(self):
        cluster = Cluster.preset("pooled-rack", seed=2)
        resilient = ResilientRuntime(connect(cluster=cluster),
                                     max_attempts=3)
        fuse = [1, 1, 1, 1]
        with pytest.raises(JobAbandoned) as excinfo:
            resilient.run_job(lambda: chain_job(bomb="c", fuse=fuse))
        assert excinfo.value.attempts == 3

    def test_failed_attempts_leak_nothing(self):
        cluster = Cluster.preset("pooled-rack", seed=3)
        rts = RuntimeSystem(cluster)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=3
        )
        fuse = [1, 1]
        stats = resilient.run_job(lambda: chain_job(bomb="c", fuse=fuse))
        assert stats.ok
        assert rts.memory.live_regions() == []
        assert sum(d.used for d in cluster.memory.values()) == 0

    def test_max_attempts_validated(self):
        cluster = Cluster.preset("pooled-rack", seed=4)
        with pytest.raises(ValueError):
            ResilientRuntime(connect(cluster=cluster), max_attempts=0)

    def test_shed_attempts_end_in_abandonment(self):
        cluster = Cluster.preset("pooled-rack", seed=4)
        HealthMonitor(cluster, detection_delay_ns=0.0)
        session = connect(cluster=cluster, shed_below_capacity_fraction=0.5)
        cluster.crash_node("stornode0")
        resilient = ResilientRuntime(session, max_attempts=2)
        with pytest.raises(JobAbandoned, match="shed"):
            resilient.run_job(chain_job)
        assert resilient.stats.failures == 2
        assert all(job.shed for job in session.stats.jobs)

    def test_takes_a_session_not_a_bare_runtime(self):
        rts = RuntimeSystem(Cluster.preset("pooled-rack", seed=4))
        with pytest.raises(TypeError, match="Session"):
            ResilientRuntime(rts)


class TestCheckpointPruning:
    def test_checkpoint_skips_completed_prefix(self):
        """b persisted before c exploded -> the retry restores b instead
        of recomputing a and b."""
        cluster = Cluster.preset("pooled-rack", seed=5)
        resilient = ResilientRuntime(connect(cluster=cluster),
                                     max_attempts=3)
        fuse = [1]
        stats = resilient.run_job(lambda: chain_job(bomb="c", fuse=fuse))
        assert stats.ok
        assert resilient.stats.tasks_skipped_by_checkpoints >= 1  # task a
        assert resilient.stats.checkpoints_used >= 1  # restore of b
        # The retry's job contained a restore task named b but no a.
        assert set(stats.tasks) == {"b", "c"}

    def test_no_checkpoint_means_full_rerun(self):
        cluster = Cluster.preset("pooled-rack", seed=6)
        resilient = ResilientRuntime(connect(cluster=cluster),
                                     max_attempts=3)
        fuse = [1]
        stats = resilient.run_job(
            lambda: chain_job(persist_middle=False, bomb="c", fuse=fuse)
        )
        assert stats.ok
        assert set(stats.tasks) == {"a", "b", "c"}
        assert resilient.stats.checkpoints_used == 0

    def test_prune_function_drops_dead_lineage(self):
        job = chain_job()
        pruned, skipped = prune_with_checkpoints(job, {"b": 2 * MiB})
        assert skipped == 1
        assert set(pruned.tasks) == {"b", "c"}
        assert [t.name for t in pruned.sources()] == ["b"]
        pruned.validate()

    def test_prune_keeps_branches_not_covered_by_checkpoint(self):
        """a feeds both the checkpointed b and an unchecked d: a must
        still re-run for d's sake."""
        job = Job("branchy")
        a = job.add_task(Task("a", work=WorkSpec(ops=1, output=RegionUsage(KiB))))
        b = job.add_task(Task(
            "b", work=WorkSpec(ops=1, input_usage=RegionUsage(0),
                               output=RegionUsage(KiB)),
            properties=TaskProperties(persistent=True)))
        c = job.add_task(Task("c", work=WorkSpec(ops=1, input_usage=RegionUsage(0))))
        d = job.add_task(Task("d", work=WorkSpec(ops=1, input_usage=RegionUsage(0))))
        job.connect(a, b)
        job.connect(b, c)
        job.connect(a, d)
        pruned, skipped = prune_with_checkpoints(job, {"b": KiB})
        assert skipped == 0
        assert set(pruned.tasks) == {"a", "b", "c", "d"}
        # But the b->restore has no in-edge from a anymore.
        assert pruned.tasks["b"].upstream() == []

    def test_prune_noop_without_matching_checkpoints(self):
        job = chain_job()
        same, skipped = prune_with_checkpoints(job, {"ghost": KiB})
        assert same is job
        assert skipped == 0


class TestNodeCrashRecovery:
    def test_job_survives_node_crash_via_retry(self):
        """Crash the memory shelf mid-run: the attempt dies with lost
        regions, the node restarts, the retry succeeds."""
        from repro.sim.faults import FaultKind

        cluster = Cluster.preset("pooled-rack", seed=7)
        rts = RuntimeSystem(cluster)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=4
        )

        def crash_then_restore():
            # Crash whichever node backs the producer's output while the
            # consumer is streaming it; restore before the retry arrives.
            yield cluster.engine.timeout(900_000.0)
            victims = [
                r for r in rts.memory.live_regions() if "a#out" in r.name
            ]
            assert victims, "expected the producer output to be live"
            node = cluster.node_of(victims[0].device.name)
            cluster.crash_node(node)
            yield cluster.engine.timeout(600_000.0)
            cluster.faults.inject_now(FaultKind.NODE_RESTART, node)
            rts.costmodel.invalidate()

        cluster.engine.process(crash_then_restore())

        GiB = 1024 * MiB

        def factory():
            job = Job("survivor", global_state_size=64 * KiB)
            a = job.add_task(Task("a", work=WorkSpec(
                ops=1e6, output=RegionUsage(32 * MiB))))
            b = job.add_task(Task("b", work=WorkSpec(
                ops=1e6, input_usage=RegionUsage(0, touches=2.0),
                scratch=RegionUsage(20 * GiB, touches=0.01))))
            job.connect(a, b)
            return job

        stats = resilient.run_job(factory)
        assert stats.ok
        assert resilient.stats.failures >= 1
        assert rts.memory.live_regions() == []

"""Tests: routing survives link/plane failures when redundancy exists."""

import pytest

from repro.hardware import Cluster, NoRouteError
from repro.sim.faults import FaultKind

MiB = 1024 * 1024


@pytest.fixture
def rack():
    return Cluster.preset("dual-plane-rack")


class TestDualPlaneRouting:
    def test_default_route_uses_faster_plane(self, rack):
        route = rack.topology.route("cpu1", "dram-pool0")
        names = [link.name for link in route]
        assert any("plane-a" in n for n in names)  # 70 ns beats 75 ns

    def test_plane_failure_reroutes(self, rack):
        before = rack.topology.route("cpu1", "dram-pool0")
        # Take down every link of plane-a.
        for link in rack.topology.links():
            if "plane-a" in link.name:
                rack.faults.inject_now(FaultKind.LINK_DOWN, link.name)
        after = rack.topology.route("cpu1", "dram-pool0")
        assert after != before
        assert all("plane-a" not in link.name for link in after)
        # Coherence classification follows the live route.
        assert rack.topology.coherent("cpu1", "dram-pool0")

    def test_transfer_completes_over_surviving_plane(self, rack):
        for link in rack.topology.links():
            if "plane-a" in link.name:
                rack.faults.inject_now(FaultKind.LINK_DOWN, link.name)
        done = rack.transfer("dram-local1", "dram-pool0", 4 * MiB)
        rack.engine.run(until=done)
        assert done.ok

    def test_restore_returns_to_fast_plane(self, rack):
        victims = [l for l in rack.topology.links() if "plane-a" in l.name]
        for link in victims:
            rack.faults.inject_now(FaultKind.LINK_DOWN, link.name)
        assert all(
            "plane-a" not in l.name
            for l in rack.topology.route("cpu1", "dram-pool0")
        )
        for link in victims:
            rack.faults.inject_now(FaultKind.LINK_UP, link.name)
        route = rack.topology.route("cpu1", "dram-pool0")
        assert any("plane-a" in l.name for l in route)

    def test_total_partition_still_errors(self, rack):
        for link in rack.topology.links():
            if "plane" in link.name:
                rack.faults.inject_now(FaultKind.LINK_DOWN, link.name)
        with pytest.raises(NoRouteError):
            rack.topology.route("cpu1", "dram-pool0")

    def test_job_survives_plane_loss_transparently(self, rack):
        """End to end: a pipeline keeps running across a mid-flight plane
        failure because new accesses route over the surviving plane."""
        from repro.dataflow import Job, RegionUsage, Task, WorkSpec
        from repro.api import Session
        from repro.runtime import RackDriver, ResilientRuntime, RuntimeSystem

        rts = RuntimeSystem(rack)
        resilient = ResilientRuntime(
            Session(rts, RackDriver(rts)), max_attempts=3
        )

        def saboteur():
            yield rack.engine.timeout(50_000.0)
            for link in rack.topology.links():
                if "plane-a" in link.name:
                    rack.faults.inject_now(FaultKind.LINK_DOWN, link.name)
            rts.costmodel.invalidate()

        rack.engine.process(saboteur())

        def factory():
            job = Job("plane-survivor")
            a = job.add_task(Task("a", work=WorkSpec(
                ops=1e6, output=RegionUsage(64 * MiB))))
            b = job.add_task(Task("b", work=WorkSpec(
                ops=1e6, input_usage=RegionUsage(0, touches=2.0))))
            job.connect(a, b)
            return job

        stats = resilient.run_job(factory)
        assert stats.ok
        assert rts.memory.live_regions() == []

"""Tests for pointer swizzling, hotness tracking, and the tiering daemon."""

import pytest

from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.memory.pointers import RemotePointer
from repro.memory.properties import LatencyClass, MemoryProperties
from repro.memory.tiering import TieringDaemon, TieringPolicy
from repro.obs.telemetry import SampledHotness


def exact_tracker(half_life_ns=1e6):
    """Hotness with every access counted (rate 1) and room to spare."""
    return SampledHotness(rate=1, k=8, half_life_ns=half_life_ns)


@pytest.fixture
def env():
    cluster = Cluster.preset("table1-host")
    return cluster, MemoryManager(cluster)


class TestHotnessTracker:
    def test_accumulates_and_decays(self):
        tracker = exact_tracker(half_life_ns=1000.0)
        tracker.record(1, 100.0, time=0.0)
        assert tracker.hotness(1, 0.0) == pytest.approx(100.0)
        assert tracker.hotness(1, 1000.0) == pytest.approx(50.0)
        assert tracker.hotness(1, 2000.0) == pytest.approx(25.0)

    def test_repeated_access_beats_one_big_access_later(self):
        tracker = exact_tracker(half_life_ns=1000.0)
        for t in range(10):
            tracker.record(1, 100.0, time=float(t * 100))
        tracker.record(2, 300.0, time=900.0)
        ranked = tracker.ranked(900.0)
        assert ranked[0][0] == 1

    def test_unknown_region_is_cold(self):
        tracker = exact_tracker()
        assert tracker.hotness(42, 100.0) == 0.0

    def test_forget(self):
        tracker = exact_tracker()
        tracker.record(1, 10.0, 0.0)
        tracker.forget(1)
        assert tracker.hotness(1, 0.0) == 0.0

    def test_negative_bytes_rejected(self):
        tracker = exact_tracker()
        with pytest.raises(ValueError):
            tracker.record(1, -1.0, 0.0)

    def test_invalid_half_life_rejected(self):
        with pytest.raises(ValueError):
            SampledHotness(rate=1, half_life_ns=0.0)


class TestRemotePointer:
    def test_mode_tracks_current_placement(self, env):
        cluster, mm = env
        near = mm.allocate_on("dram0", 4096, MemoryProperties(), owner="t1")
        far = mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        assert RemotePointer(cluster, near).mode("cpu0") == "direct"
        assert RemotePointer(cluster, far).mode("cpu0") == "remote"

    def test_mode_flips_after_migration(self, env):
        cluster, mm = env
        region = mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        ptr = RemotePointer(cluster, region)
        assert ptr.mode("cpu0") == "remote"

        def driver():
            yield from mm.migrate(region, "dram0")

        cluster.engine.run(until=cluster.engine.process(driver()))
        assert ptr.mode("cpu0") == "direct"

    def test_dereference_records_hotness(self, env):
        cluster, mm = env
        tracker = exact_tracker()
        region = mm.allocate_on("dram0", 4096, MemoryProperties(), owner="t1")
        ptr = RemotePointer(cluster, region, tracker=tracker)

        def driver():
            yield from ptr.dereference("cpu0", nbytes=64)

        cluster.engine.run(until=cluster.engine.process(driver()))
        assert ptr.dereferences == 1
        assert tracker.hotness(region.id, cluster.engine.now) > 0

    def test_out_of_bounds_offset_rejected(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 64, MemoryProperties(), owner="t1")
        with pytest.raises(ValueError):
            RemotePointer(cluster, region, offset=64)


class TestTiering:
    def make_policy(self, cluster, mm, tracker, **kwargs):
        return TieringPolicy(cluster, mm, tracker, observer="cpu0", **kwargs)

    def test_tier_order_fastest_first(self, env):
        cluster, mm = env
        policy = self.make_policy(cluster, mm, exact_tracker())
        names = [d.name for d in policy.tier_order()]
        assert names.index("cache0") < names.index("dram0") < names.index("cxl0")
        assert names.index("cxl0") < names.index("far0")
        assert "ssd0" not in names  # not byte-addressable

    def test_hot_region_on_slow_tier_promoted(self, env):
        cluster, mm = env
        tracker = exact_tracker()
        region = mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        tracker.record(region.id, 1e6, time=0.0)
        policy = self.make_policy(cluster, mm, tracker)
        moves = policy.decide(time=0.0)
        assert moves, "hot far region should be promoted"
        target = moves[0][1]
        assert policy.rtt(cluster.memory[target]) < policy.rtt(cluster.memory["far0"])

    def test_cold_region_not_promoted(self, env):
        cluster, mm = env
        tracker = exact_tracker()
        mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        policy = self.make_policy(cluster, mm, tracker)
        assert policy.decide(time=0.0) == []

    def test_promotion_respects_latency_requirement(self, env):
        """A region that declared latency=LOW must never land on a tier
        that only offers MEDIUM/HIGH — and vice versa the policy must not
        promote into a tier violating other constraints."""
        cluster, mm = env
        tracker = exact_tracker()
        region = mm.allocate_on(
            "pmem0", 4096, MemoryProperties(persistent=True), owner="t1"
        )
        tracker.record(region.id, 1e6, time=0.0)
        policy = self.make_policy(cluster, mm, tracker)
        for _region, target in policy.decide(time=0.0):
            assert cluster.memory[target].spec.persistent

    def test_demotion_from_full_tier(self, env):
        cluster, mm = env
        tracker = exact_tracker()
        # Fill cache0 (fastest tier) past the watermark with cold regions.
        cache = cluster.memory["cache0"]
        region = mm.allocate_on(
            "cache0", int(cache.capacity * 0.95), MemoryProperties(), owner="t1"
        )
        policy = self.make_policy(cluster, mm, tracker, watermark=0.9)
        moves = policy.decide(time=0.0)
        assert moves
        moved, target = moves[0]
        assert moved is region
        assert policy.rtt(cluster.memory[target]) > policy.rtt(cache)

    def test_daemon_migrates_hot_region_up(self, env):
        cluster, mm = env
        tracker = exact_tracker(half_life_ns=1e9)
        region = mm.allocate_on("far0", 64 * 1024, MemoryProperties(), owner="t1")
        tracker.record(region.id, 1e9, time=0.0)
        policy = self.make_policy(cluster, mm, tracker)
        daemon = TieringDaemon(policy, interval_ns=1000.0)
        cluster.engine.process(daemon.run())
        cluster.engine.run(until=50_000.0)
        daemon.stop()
        assert daemon.promotions >= 1
        assert region.device.name != "far0"

    def test_daemon_interval_validation(self, env):
        cluster, mm = env
        policy = self.make_policy(cluster, mm, exact_tracker())
        with pytest.raises(ValueError):
            TieringDaemon(policy, interval_ns=0.0)

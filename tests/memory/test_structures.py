"""Tests for far-memory data structures (RemoteArray, RemoteHashMap)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties
from repro.memory.structures import RemoteArray, RemoteHashMap, StructureError
from repro.obs.telemetry import SampledHotness

KiB = 1024


@pytest.fixture
def env():
    cluster = Cluster.preset("table1-host")
    return cluster, MemoryManager(cluster)


def run(cluster, gen):
    def driver():
        result = yield from gen
        return result

    return cluster.engine.run(until=cluster.engine.process(driver()))


class TestRemoteArray:
    def make(self, cluster, mm, device="dram0", elements=128, element_size=64):
        region = mm.allocate_on(
            device, elements * element_size, MemoryProperties(), owner="app"
        )
        return RemoteArray(cluster, region, "cpu0", element_size)

    def test_set_get_roundtrip(self, env):
        cluster, mm = env
        array = self.make(cluster, mm)
        run(cluster, array.set(5, "hello"))
        assert run(cluster, array.get(5)) == "hello"
        assert run(cluster, array.get(6)) is None

    def test_bounds_checked(self, env):
        cluster, mm = env
        array = self.make(cluster, mm, elements=8)
        with pytest.raises(StructureError):
            run(cluster, array.get(8))
        with pytest.raises(StructureError):
            run(cluster, array.set(-1, 0))
        with pytest.raises(StructureError):
            run(cluster, array.scan(0, 9))

    def test_scan_returns_range(self, env):
        cluster, mm = env
        array = self.make(cluster, mm, elements=16)
        for i in range(16):
            run(cluster, array.set(i, i * i))
        values = run(cluster, array.scan(4, 4))
        assert values == [16, 25, 36, 49]

    def test_scan_cheaper_than_pointwise_on_far_memory(self, env):
        cluster, mm = env
        array = self.make(cluster, mm, device="far0", elements=256)
        t0 = cluster.engine.now
        run(cluster, array.scan())
        scan_time = cluster.engine.now - t0

        t0 = cluster.engine.now

        def pointwise():
            for i in range(256):
                yield from array.get(i)

        run(cluster, pointwise())
        pointwise_time = cluster.engine.now - t0
        assert scan_time < pointwise_time / 5

    def test_access_faster_after_promotion(self, env):
        """AIFM's effect: migrate the structure up and the same code
        gets faster without changes."""
        cluster, mm = env
        region = mm.allocate_on("far0", 64 * KiB, MemoryProperties(), owner="a")
        array = RemoteArray(cluster, region, "cpu0", element_size=64)

        t0 = cluster.engine.now
        run(cluster, array.get(3))
        far_time = cluster.engine.now - t0

        def migrate():
            yield from mm.migrate(region, "dram0")

        cluster.engine.run(until=cluster.engine.process(migrate()))
        assert array.backing_device == "dram0"
        t0 = cluster.engine.now
        run(cluster, array.get(3))
        near_time = cluster.engine.now - t0
        assert near_time < far_time / 5

    def test_hotness_feed(self, env):
        cluster, mm = env
        tracker = SampledHotness(rate=1, k=1, half_life_ns=1e6)
        region = mm.allocate_on("dram0", 8 * KiB, MemoryProperties(), owner="a")
        array = RemoteArray(cluster, region, "cpu0", 64, tracker=tracker)
        run(cluster, array.get(0))
        run(cluster, array.set(1, "x"))
        assert tracker.hotness(region.id, cluster.engine.now) > 0
        assert array.accesses == 2

    def test_invalid_construction(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 64, MemoryProperties(), owner="a")
        with pytest.raises(ValueError):
            RemoteArray(cluster, region, "cpu0", element_size=0)
        with pytest.raises(ValueError):
            RemoteArray(cluster, region, "cpu0", element_size=128)


#: Fills a 64-slot map with string keys and prints each key's slot and
#: the probe count: what the simulated latencies depend on.
_SLOTS_SCRIPT = """
import json
from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties
from repro.memory.structures import RemoteHashMap

cluster = Cluster.preset("table1-host")
mm = MemoryManager(cluster)
region = mm.allocate_on("dram0", 64 * 64, MemoryProperties(), owner="app")
table = RemoteHashMap(cluster, region, "cpu0", slot_size=64)
keys = [f"user:{i}" for i in range(40)] + [("tuple", 1), 7]

def fill():
    for key in keys:
        yield from table.put(key, 0)

cluster.engine.run(until=cluster.engine.process(fill()))
print(json.dumps({"slots": [table._slot_of(k) for k in keys],
                  "probes": table.total_probes,
                  "now": cluster.engine.now}))
"""


def _slots_in_fresh_process(hash_seed: str) -> dict:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _SLOTS_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


class TestRemoteHashMap:
    def make(self, cluster, mm, device="dram0", slots=64):
        region = mm.allocate_on(
            device, slots * 64, MemoryProperties(), owner="app"
        )
        return RemoteHashMap(cluster, region, "cpu0", slot_size=64)

    def test_slots_do_not_depend_on_the_hash_seed(self):
        """Slots, probe counts and so simulated time are the same in
        every process, whatever ``PYTHONHASHSEED`` is."""
        first = _slots_in_fresh_process("1")
        assert _slots_in_fresh_process("2") == first
        assert len(set(first["slots"])) > 1

    def test_put_get_roundtrip(self, env):
        cluster, mm = env
        table = self.make(cluster, mm)
        run(cluster, table.put("alice", 1))
        run(cluster, table.put("bob", 2))
        assert run(cluster, table.get("alice")) == 1
        assert run(cluster, table.get("bob")) == 2
        assert table.size == 2

    def test_update_in_place(self, env):
        cluster, mm = env
        table = self.make(cluster, mm)
        run(cluster, table.put("k", 1))
        run(cluster, table.put("k", 2))
        assert run(cluster, table.get("k")) == 2
        assert table.size == 1

    def test_missing_key_raises(self, env):
        cluster, mm = env
        table = self.make(cluster, mm)
        with pytest.raises(KeyError):
            run(cluster, table.get("ghost"))
        assert run(cluster, table.contains("ghost")) is False

    def test_fills_to_capacity_then_errors(self, env):
        cluster, mm = env
        table = self.make(cluster, mm, slots=8)
        for i in range(8):
            run(cluster, table.put(f"k{i}", i))
        assert table.load_factor == 1.0
        with pytest.raises(StructureError):
            run(cluster, table.put("overflow", 0))
        # All keys still retrievable under full load (wrap-around probes).
        for i in range(8):
            assert run(cluster, table.get(f"k{i}")) == i

    def test_probe_cost_grows_with_load(self, env):
        cluster, mm = env
        table = self.make(cluster, mm, slots=256)
        for i in range(32):
            run(cluster, table.put(f"k{i}", i))
        probes_light = table.total_probes
        for i in range(32, 224):
            run(cluster, table.put(f"k{i}", i))
        t0 = table.total_probes

        for i in range(224):
            run(cluster, table.get(f"k{i}"))
        mean_probes_loaded = (table.total_probes - t0) / 224
        mean_probes_light = probes_light / 32  # includes the write probe
        assert mean_probes_loaded > mean_probes_light * 0.9

    def test_lookup_cost_tracks_backing_device(self, env):
        cluster, mm = env
        near = self.make(cluster, mm, device="dram0")
        far = self.make(cluster, mm, device="far0")
        run(cluster, near.put("k", 1))
        run(cluster, far.put("k", 1))

        t0 = cluster.engine.now
        run(cluster, near.get("k"))
        near_time = cluster.engine.now - t0
        t0 = cluster.engine.now
        run(cluster, far.get("k"))
        far_time = cluster.engine.now - t0
        assert far_time > near_time * 5

#!/usr/bin/env python3
"""A far-memory key-value store that tunes itself (AIFM/TPP, §3 ch.1-3).

A RemoteHashMap lives in NIC-attached far memory — huge and cheap, but
every probe pays a network round trip.  A zipfian client hammers a hot
key set; the hotness tracker notices, and the tiering daemon promotes
the table into DRAM mid-run.  The same client code keeps running — the
pointers swizzle under it — and the per-op latency drops by an order of
magnitude.

Run:  python examples/far_memory_kv.py
"""

import numpy as np

from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties
from repro.memory.structures import RemoteHashMap
from repro.memory.tiering import TieringDaemon, TieringPolicy
from repro.metrics import format_ns
from repro.obs.telemetry import SampledHotness
from repro.workloads import ZipfSampler

KiB = 1024


def main() -> None:
    cluster = Cluster.preset("table1-host", seed=3)
    manager = MemoryManager(cluster)
    tracker = SampledHotness(rate=1, k=1, half_life_ns=5e6)  # exact

    region = manager.allocate_on(
        "far0", 256 * KiB, MemoryProperties(), owner="kv",
        name="kv-table",
    )
    table = RemoteHashMap(cluster, region, "cpu0", slot_size=64,
                          tracker=tracker)

    policy = TieringPolicy(
        cluster, manager, tracker, observer="cpu0",
        hot_bytes_threshold=2.0 * KiB,
        allowed_devices=["dram0", "cxl0", "far0"],  # caches are not a tier
    )
    daemon = TieringDaemon(policy, interval_ns=500_000.0)

    sampler = ZipfSampler(512, skew=1.1)
    rng = np.random.default_rng(0)
    window_latencies = []

    def client():
        # Load phase (tiering daemon not yet watching).
        for key in range(512):
            yield from table.put(f"user{key}", key)
        cluster.engine.process(daemon.run())
        # Query phase: 12 windows of 50 zipfian lookups each.
        for window in range(12):
            t0 = cluster.engine.now
            for rank in sampler.sample(rng, 50):
                yield from table.get(f"user{int(rank)}")
            window_latencies.append((cluster.engine.now - t0) / 50.0)
            yield cluster.engine.timeout(200_000.0)

    cluster.engine.run(until=cluster.engine.process(client()))
    daemon.stop()

    print("far-memory KV store under a zipfian client\n")
    print(f"{'window':>6}  {'mean get latency':>18}")
    for i, latency in enumerate(window_latencies):
        print(f"{i:>6}  {format_ns(latency):>18}")
    print(f"\ntable now lives on: {table.backing_device} "
          f"(promotions: {daemon.promotions})")
    first = window_latencies[0]
    last = window_latencies[-1]
    print(f"window 0 mean get: {format_ns(first)}  ->  "
          f"window {len(window_latencies) - 1}: {format_ns(last)} "
          f"({first / last:.1f}x faster, zero client changes)")


if __name__ == "__main__":
    main()

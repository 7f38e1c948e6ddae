"""C7 — ablation: hotness-driven tiering on skewed access streams.

The paper (§3, Challenges 1–3) points to pointer tagging / hotness
tracking (TPP, LeanStore, AIFM) as the mechanism for continuous
placement optimization.  We fill far memory with regions, replay a
zipfian access trace, and compare total access time with the tiering
daemon on vs. off.  Pass criteria: hot regions migrate up, the skewed
trace speeds up by an integer factor, and a uniform trace (no skew)
gains little — the ablation's control.
"""

import numpy as np
import pytest

from benchmarks.conftest import once, run_sim
from repro.hardware import Cluster
from repro.memory.interfaces import AccessPattern, Accessor
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties
from repro.memory.tiering import TieringDaemon, TieringPolicy
from repro.obs.telemetry import SampledHotness
from repro.workloads import zipfian_trace, uniform_trace

from repro.metrics import Table, format_ns

KiB = 1024
MiB = 1024 * KiB

N_REGIONS = 32
REGION_BYTES = 2 * MiB


def exact_tracker():
    """Every access counted (rate 1), room for every region."""
    return SampledHotness(rate=1, k=N_REGIONS, half_life_ns=5e6)


def build_environment(seed=29):
    cluster = Cluster.preset("table1-host", seed=seed)
    manager = MemoryManager(cluster)
    # Constrain the fast tiers so tiering has real capacity pressure:
    # DRAM fits only ~8 of the 32 regions.
    manager.allocators["dram0"] = type(manager.allocators["dram0"])(
        16 * MiB + 64 * KiB, cluster.memory["dram0"].spec.granularity
    )
    regions = [
        manager.allocate_on("far0", REGION_BYTES, MemoryProperties(),
                            owner="workload", name=f"obj{i}")
        for i in range(N_REGIONS)
    ]
    return cluster, manager, regions


def replay(cluster, manager, regions, trace, tracker, tiering: bool):
    daemon = None
    if tiering:
        policy = TieringPolicy(
            cluster, manager, tracker, observer="cpu0",
            hot_bytes_threshold=256.0 * KiB, watermark=0.95,
        )
        daemon = TieringDaemon(policy, interval_ns=200_000.0,
                               max_moves_per_round=2)
        cluster.engine.process(daemon.run())

    def workload():
        total = 0.0
        for event in trace:
            region = regions[event.key]
            if not region.alive:
                continue
            tracker.record(region.id, 64 * KiB, cluster.engine.now)
            owner = next(iter(region.ownership.owners))
            accessor = Accessor(cluster, region.handle(owner), "cpu0")
            duration = yield from accessor.read(
                64 * KiB, pattern=AccessPattern.RANDOM, access_size=256,
            )
            total += duration
        return total

    total = run_sim(cluster, workload())
    if daemon is not None:
        daemon.stop()
    return total, daemon


def test_ablation_tiering(benchmark, report):
    rng = np.random.default_rng(5)
    skewed = zipfian_trace(rng, 600, N_REGIONS, skew=1.2,
                           interarrival_ns=2000.0)
    uniform = uniform_trace(np.random.default_rng(5), 600, N_REGIONS,
                            interarrival_ns=2000.0)
    results = {}

    def experiment():
        for trace_name, trace in (("zipfian (skew=1.2)", skewed),
                                  ("uniform", uniform)):
            for tiering in (False, True):
                cluster, manager, regions = build_environment()
                total, daemon = replay(
                    cluster, manager, regions, trace,
                    exact_tracker(), tiering,
                )
                promoted = daemon.promotions if daemon else 0
                results[(trace_name, tiering)] = (total, promoted)
        return results

    once(benchmark, experiment)

    table = Table(
        ["trace", "static (all far)", "with tiering daemon", "speedup",
         "promotions"],
        title="C7 (ablation): TPP-style tiering under skew",
    )
    for trace_name in ("zipfian (skew=1.2)", "uniform"):
        static_total, _ = results[(trace_name, False)]
        tiered_total, promotions = results[(trace_name, True)]
        table.add_row(
            trace_name, format_ns(static_total), format_ns(tiered_total),
            f"{static_total / tiered_total:.2f}x", promotions,
        )
    report("ablation_tiering", table.render())

    zipf_speedup = results[("zipfian (skew=1.2)", False)][0] / \
        results[("zipfian (skew=1.2)", True)][0]
    uniform_speedup = results[("uniform", False)][0] / \
        results[("uniform", True)][0]
    assert results[("zipfian (skew=1.2)", True)][1] >= 4  # hot set promoted
    assert zipf_speedup > 1.5, zipf_speedup
    assert zipf_speedup > uniform_speedup  # skew is where tiering pays


def test_ablation_tiering_respects_capacity(benchmark, report):
    """Promotions never overflow a tier: the daemon observes allocator
    headroom, so capacity accounting stays exact during migration."""

    def experiment():
        rng = np.random.default_rng(11)
        trace = zipfian_trace(rng, 300, N_REGIONS, skew=1.2,
                              interarrival_ns=2000.0)
        cluster, manager, regions = build_environment(seed=31)
        replay(cluster, manager, regions, trace,
               exact_tracker(), tiering=True)
        return cluster, manager

    cluster, manager = once(benchmark, experiment)
    table = Table(["device", "used", "capacity"],
                  title="C7 follow-on: capacity accounting after migrations")
    rows = []
    for name in ("cache0", "dram0", "cxl0", "far0"):
        device = cluster.memory[name]
        cap = manager.allocators[name].capacity
        table.add_row(name, device.used, cap)
        rows.append((manager.allocators[name].allocated_bytes, device))
    report("ablation_tiering_capacity", table.render())

    for allocated, device in rows:
        manager.allocators[device.name].check_invariants()
        assert allocated <= manager.allocators[device.name].capacity

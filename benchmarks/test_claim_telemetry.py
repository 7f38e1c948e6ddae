"""Continuous-telemetry claim — burn alerts track gray failures.

The paper's argument for continuous signals is operational: a runtime
that only reports SLO state at the end of the run cannot react to a
fail-slow episode while it is happening.  This bench stages exactly
that scenario and checks the telemetry layer end to end:

* **Burn-rate alerting** — the same tenant trace runs twice on a
  pooled rack: once clean, once with a deterministic gray-failure
  storm (``DEVICE_SLOW`` on the busy compute/memory devices,
  PR 7's injector).  The per-tenant multi-window burn alert must stay
  silent on the clean run, open within a bounded detection delay of
  the storm's onset, and close after restore once the backlog drains
  and the slow window ages the misses out — all from SLO observations
  alone, with no handler on any fault kind.
* **Sampled hotness** — a 1/64-sampled space-saving sketch replays a
  Zipf-skewed access stream next to an exact counter (the same class
  at rate 1 with room for every region) and must agree on at
  least 90% of the top-k hottest regions (the set the tiering layer
  would promote), at a fraction of the bookkeeping.
* **Self-metering** — the hub prices itself: bounded series/sketch
  memory and its own wall-clock are asserted from the hub's own
  ``obs.telemetry.*`` accounting.  (The tight 1.10x wall-clock
  overhead gate lives in ``scripts/perf_report.py --check``, where
  paired same-machine runs make the ratio meaningful.)
"""

import random

from benchmarks.conftest import once
from repro import api
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.metrics import Table, format_bytes, format_ns
from repro.obs.telemetry import SampledHotness
from repro.sim.faults import FaultKind

KiB = 1024
MiB = 1024 * KiB

#: The devices the pipeline leans on (same victims as the gray-failure
#: claim): the blades running its stages plus the node-local memories
#: hosting its stage outputs.
SLOW_TARGETS = ["cpu1", "gpu1", "dram-local1", "gddr1"]
#: Speed multiplier while degraded: 5x slower — a throttled DIMM, not
#: a dead one.  Mild enough that the rack drains its backlog within
#: the trace, harsh enough that every in-storm job misses its SLO.
SLOW_FACTOR = 0.2

#: Arrivals are spaced one telemetry window apart; the storm spans
#: windows [20, 30) of a 90-window trace, leaving three full slow
#: windows of clean traffic after restore for the alert to close in.
N_JOBS = 90
STORM_START_W = 20
STORM_END_W = 30

HOTNESS_SEEDS = range(3)
HOTNESS_REGIONS = 1000
HOTNESS_ACCESSES = 400_000
HOTNESS_RATE = 64
HOTNESS_TOPK = 20
ZIPF_S = 1.3


def build_job(tag) -> Job:
    job = Job(f"telem-{tag}")
    previous = None
    for i in range(4):
        task = job.add_task(Task(f"s{i}", work=WorkSpec(
            ops=2e5,
            input_usage=RegionUsage(0, touches=2.0) if previous else None,
            output=RegionUsage(8 * MiB) if i < 3 else None,
        )))
        if previous is not None:
            job.connect(previous, task)
        previous = task
    return job


def probe_clean_latency() -> float:
    """One clean job's makespan — sizes the SLO target and spacing."""
    session = api.connect("pooled-rack", seed=0)
    return session.run(build_job("probe")).makespan


def run_mode(mode: str, spacing: float, target: float) -> dict:
    """One 90-arrival tenant trace; ``storm`` mode degrades the hot
    devices over windows [20, 30) and restores them, clean runs as-is.

    The telemetry window is sized to the arrival spacing *before* the
    tenant registers, so the default burn rule lands at fast = 5
    arrivals, slow = 30 arrivals.
    """
    session = api.connect("pooled-rack", seed=0)
    hub = session.obs.telemetry.configure(window_ns=spacing)
    session.register_tenant("web", slo_target_ns=target, slo_objective=0.9)
    rule = hub.alerts.rules["tenant:web"]
    storm_start = STORM_START_W * spacing
    storm_end = STORM_END_W * spacing
    if mode == "storm":
        for device in SLOW_TARGETS:
            session.cluster.faults.inject_at(
                storm_start, FaultKind.DEVICE_SLOW, device,
                factor=SLOW_FACTOR,
            )
            session.cluster.faults.inject_at(
                storm_end, FaultKind.DEVICE_RESTORED, device,
            )
    arrivals = [
        (i * spacing, f"j{i}", build_job(i), "web") for i in range(N_JOBS)
    ]
    session.run_trace(arrivals)
    end = session.cluster.engine.now
    hub.finalize(end)
    alerts = list(hub.alerts.log) + list(hub.alerts.active.values())
    slo = session.obs.slo["tenant:web"]
    return {
        "opened": hub.alerts.opened,
        "closed": hub.alerts.closed,
        "alerts": sorted(alerts, key=lambda a: a.opened_at),
        "rule": rule,
        "storm_start": storm_start,
        "storm_end": storm_end,
        "missed": slo.missed,
        "total": slo.total,
        "memory_bytes": hub.memory_bytes(),
        "self_wall_s": hub.self_wall_s,
        "end": end,
    }


def run_hotness(seed: int) -> dict:
    """Replay one Zipf-skewed access stream through the 1/64 sketch and
    the full counter; returns the top-k agreement."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOTNESS_REGIONS)]
    # Equal (huge) half-lives: the claim compares ranking fidelity, not
    # decay curves, so decay is effectively off for both trackers.
    # Rate 1 and capacity 2k == HOTNESS_REGIONS: every access counted,
    # nothing ever evicted, so this is the exact reference.
    full = SampledHotness(rate=1, k=HOTNESS_REGIONS // 2, half_life_ns=1e15)
    sketch = SampledHotness(rate=HOTNESS_RATE, k=32, half_life_ns=1e15)
    stream = rng.choices(
        range(HOTNESS_REGIONS), weights=weights, k=HOTNESS_ACCESSES,
    )
    t = 0.0
    for region in stream:
        t += 10.0
        full.record(region, 4096.0, t)
        sketch.record(region, 4096.0, t)
    assert full.evictions == 0
    full_top = {r for r, _ in full.ranked(t)[:HOTNESS_TOPK]}
    sketch_top = {r for r, _ in sketch.ranked(t)[:HOTNESS_TOPK]}
    return {
        "overlap": len(full_top & sketch_top) / HOTNESS_TOPK,
        "sampled": sketch.sampled,
        "seen": sketch.seen,
        "sketch_bytes": sketch.memory_bytes(),
        "full_entries": len(full.ranked(t)),
    }


def test_claim_telemetry(benchmark, report):
    results = {}

    def experiment():
        latency = probe_clean_latency()
        spacing = 2.0 * latency  # clean jobs never queue
        target = 2.0 * latency   # clean jobs never miss
        results["clean"] = run_mode("clean", spacing, target)
        results["storm"] = run_mode("storm", spacing, target)
        results["hotness"] = [run_hotness(seed) for seed in HOTNESS_SEEDS]
        results["latency"] = latency
        return results

    once(benchmark, experiment)

    clean, storm = results["clean"], results["storm"]
    rule = storm["rule"]
    table = Table(
        ["run", "alerts", "opened at", "closed at", "peak burn",
         "SLO misses", "telemetry mem"],
        title=f"Burn-rate alerting over {N_JOBS} arrivals "
              f"(storm windows [{STORM_START_W}, {STORM_END_W}))",
    )
    for mode in ("clean", "storm"):
        r = results[mode]
        first = r["alerts"][0] if r["alerts"] else None
        table.add_row(
            mode, r["opened"],
            format_ns(first.opened_at) if first else "-",
            format_ns(first.closed_at) if first and first.closed_at else "-",
            f"{first.peak_burn:.1f}x" if first else "-",
            f"{r['missed']}/{r['total']}",
            format_bytes(r["memory_bytes"]),
        )
    overlaps = [h["overlap"] for h in results["hotness"]]
    lines = [table.render(), ""]
    lines.append(
        "hotness top-{k} overlap at 1/{n} sampling: {o} (mean {m:.2f}); "
        "sketch {b} vs {f} fully-counted regions".format(
            k=HOTNESS_TOPK, n=HOTNESS_RATE,
            o=", ".join(f"{o:.2f}" for o in overlaps),
            m=sum(overlaps) / len(overlaps),
            b=format_bytes(results["hotness"][0]["sketch_bytes"]),
            f=results["hotness"][0]["full_entries"],
        )
    )
    report("claim_telemetry", "\n".join(lines))

    # -- burn-rate alerting ------------------------------------------------
    # Clean run: every job lands under target, nothing opens.
    assert clean["opened"] == 0
    assert clean["missed"] == 0
    # Storm run: exactly one episode — opened once, closed once.
    assert storm["opened"] == 1
    assert storm["closed"] == 1
    alert = storm["alerts"][0]
    # Detection is bounded: the alert opens after the storm starts (no
    # precognition) and within the fast window of its end — the rule
    # needs min_samples misses in the fast window, each a job finish.
    assert alert.opened_at > storm["storm_start"]
    assert alert.opened_at <= storm["storm_end"] + rule.fast_ns
    # The alert closes only after restore, once the backlog drains and
    # the slow window no longer sees the storm's misses.
    assert alert.closed_at is not None
    assert alert.closed_at > storm["storm_end"]
    assert alert.closed_at <= storm["storm_end"] + 2 * rule.slow_ns
    # The storm genuinely breached: misses concentrated in the storm,
    # and the burn peaked well over the open threshold.
    assert storm["missed"] > 0
    assert alert.peak_burn > rule.open_above

    # -- sampled hotness ---------------------------------------------------
    assert sum(overlaps) / len(overlaps) >= 0.9
    for h in results["hotness"]:
        # The stride sampler kept 1-in-64 and the sketch stayed tiny
        # next to the 1000-region full table.
        assert h["sampled"] == h["seen"] // HOTNESS_RATE
        assert h["sketch_bytes"] < 16 * KiB

    # -- self-metering -----------------------------------------------------
    # Bounded memory: windowed series + sketch for a 90-job trace stay
    # far below even one raw per-event trace ring.
    assert storm["memory_bytes"] < 1 * MiB
    # The hub measured its own wall-clock (the 1.10x gate in
    # scripts/perf_report.py prices it against the uninstrumented run).
    assert storm["self_wall_s"] >= 0.0

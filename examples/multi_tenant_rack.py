#!/usr/bin/env python3
"""One rack, many tenants: fair shares, priorities, and calibration.

The paper's runtime serves "thousands of jobs in parallel" (§2.1).
This example drives a Poisson mix of hospital-CCTV and analytics jobs
through the QoS admission layer at two concurrency settings — the CCTV
tenant is interactive and weighted 2x, analytics is best-effort — shows
the throughput/latency trade-off, the per-tenant accounting (shares,
preemptions), and then lets the calibrated cost model learn the
contention it just caused — closing the statistics loop of §3.

Run:  python examples/multi_tenant_rack.py
"""

import numpy as np

from repro import Cluster, connect
from repro.apps import build_hospital_job, build_query_job
from repro.metrics import Profile, Table, format_ns
from repro.runtime import CalibratedCostModel
from repro.workloads import poisson_arrivals


def make_trace(n_jobs=20, seed=5):
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rng, rate_per_ns=1 / 100_000.0,
                             horizon_ns=n_jobs * 100_000.0)[:n_jobs]
    while len(times) < n_jobs:
        times.append((times[-1] if times else 0.0) + 100_000.0)

    def named(job, name):
        job.name = name
        return job

    arrivals = []
    for i, t in enumerate(times):
        if i % 3 == 0:
            arrivals.append((t, f"cctv{i}",
                             lambda i=i: named(build_hospital_job(n_frames=8),
                                               f"cctv{i}"),
                             "cctv"))
        else:
            arrivals.append((t, f"query{i}",
                             lambda i=i: named(build_query_job(n_rows=100_000),
                                               f"query{i}"),
                             "analytics"))
    return arrivals


def connect_tenants(cluster, **rack_options):
    """A session with the example's two tenants registered."""
    session = connect(cluster=cluster, **rack_options)
    session.register_tenant("cctv", weight=2.0, priority="interactive",
                            slo_target_ns=5e6, slo_objective=0.9)
    session.register_tenant("analytics", weight=1.0, priority="best_effort")
    return session


def main() -> None:
    table = Table(["concurrency", "completed", "mean wait", "mean makespan",
                   "horizon", "peak mem util"],
                  title="One rack, 20 mixed tenant jobs (Poisson arrivals)")
    last_session = None
    for cap in (2, 8):
        cluster = Cluster.preset("pooled-rack", seed=5)
        # Sample pool memory every 25 us: the hub's window is the
        # cadence of every telemetry fold.
        cluster.obs.telemetry.configure(window_ns=25_000.0)
        session = connect_tenants(cluster, max_concurrent=cap)
        stats = session.run_trace(make_trace())
        horizon = cluster.engine.now
        table.add_row(
            cap, stats.completed, format_ns(stats.mean_queue_wait),
            format_ns(stats.mean_makespan), format_ns(horizon),
            f"{stats.memory_utilization.maximum:.4%}",
        )
        last_session = session
    print(table)

    # Who actually got the rack?  Weighted-fair queueing should give the
    # 2x-weighted interactive tenant the larger share under contention.
    tenant_table = Table(["tenant", "priority", "weight", "admitted",
                          "completed", "share", "preempted", "won"],
                         title="Per-tenant accounting (cap=8 run)")
    for name, row in last_session.tenant_report().items():
        tenant_table.add_row(
            name, row["priority"], f"{row['weight']:g}", row["admitted"],
            row["completed"], f"{row['share']:.0%}", row["preempted"],
            row["preemptions_won"],
        )
    print()
    print(tenant_table)

    # Round 2: the statistics loop — observe contention, predict better.
    print("\nCalibrating the cost model on the contended rack:")
    cluster = Cluster.preset("pooled-rack", seed=6,
                             trace_categories={"causal"})
    session = connect(cluster=cluster, max_concurrent=8)
    model = CalibratedCostModel(cluster)
    for wave in range(2):
        jobs = [build_query_job(n_rows=150_000) for _ in range(4)]
        for i, job in enumerate(jobs):
            job.name = f"wave{wave}-{i}"
        samples0 = model.stats.samples
        raw0, corr0 = model.stats.raw_error_sum, model.stats.corrected_error_sum
        for stats in session.run(*jobs):
            model.observe(Profile.from_run(cluster, stats), stats)
        n = model.stats.samples - samples0
        print(f"  wave {wave}: raw prediction error "
              f"{(model.stats.raw_error_sum - raw0) / n:.1%}, "
              f"calibrated {(model.stats.corrected_error_sum - corr0) / n:.1%}")
    factors = [
        (key, factor) for key, factor in sorted(model.corrections().items())
    ]
    for key, factor in factors:
        print(f"  learned: {'/'.join(str(k) for k in key[1:])} -> {factor:.2f}x")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Cross-layer profiling of a dataflow job (paper challenge 8(1)).

The paper asks how to debug and profile applications "with multiple
abstraction layers for performance when the runtime system hides
performance-relevant details".  This example runs the hospital job with
profiling traces enabled, renders the four-level profile (job → tasks →
regions → devices), and then acts on what the profiler found: it moves
the region the profiler blames for the most stall time and shows the
makespan improve.

Run:  python examples/profiling_debugging.py
"""

import repro.api as api
from repro import Cluster
from repro.apps import build_hospital_job
from repro.metrics import Profile, format_ns


def profiled_run(tune_hot_region: bool):
    cluster = Cluster.preset("pooled-rack", seed=11,
                             trace_categories={"causal"})
    job = build_hospital_job(n_frames=64)
    if tune_hot_region:
        # The fix the profiler suggests below: the track-hours timesheet
        # table is small but random-access — tell the model it is
        # latency-critical scratch with a finer access size so the
        # runtime can plan (and the developer can batch) accordingly.
        import dataclasses

        track = job.tasks["track_hours"]
        tuned_scratch = dataclasses.replace(track.work.scratch, access_size=256)
        track.work = dataclasses.replace(track.work, scratch=tuned_scratch)
    with api.connect(cluster=cluster) as session:
        stats = session.run(job)
    return cluster, stats


def main() -> None:
    cluster, stats = profiled_run(tune_hot_region=False)
    profile = Profile.from_run(cluster, stats)

    print(profile.render())

    hottest = profile.hottest_region()
    print(f"\nprofiler verdict: {hottest!r} dominates memory stall time")
    print(f"critical path: {' -> '.join(profile.critical_path())}")
    worst_task = max(stats.tasks, key=lambda t: profile.memory_fraction(t))
    print(f"most memory-bound task: {worst_task} "
          f"({profile.memory_fraction(worst_task):.0%} of its runtime)")

    # Act on the finding: batch the random accesses of the hot region.
    _cluster2, tuned = profiled_run(tune_hot_region=True)
    print(f"\nafter batching {hottest!r}'s accesses (64B -> 256B):")
    print(f"  makespan {format_ns(stats.makespan)} -> {format_ns(tuned.makespan)} "
          f"({stats.makespan / tuned.makespan:.2f}x)")


if __name__ == "__main__":
    main()

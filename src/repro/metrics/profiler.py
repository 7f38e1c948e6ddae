"""Multi-level profiling across the abstraction layers.

Paper §3, Challenge 8(1): *"How can we debug, profile, and optimize
dataflow applications with multiple abstraction layers for performance
when the runtime system hides performance-relevant details?"* — and the
paper's answer is that cross-layer profiling is possible (citing
Beischl et al., EuroSys '21).

:class:`Profile` is that tool for this runtime.  From one traced run it
produces aligned views at four abstraction levels:

* **job level** — makespan, critical path, queueing;
* **task level** — per-task compute vs. memory time, split by phase;
* **region level** — which memory regions cost how much, on which
  backing device, per region type;
* **device level** — bytes moved per fabric link, per-device traffic.

Every phase is read from the job's causal DAG (:mod:`repro.obs.causal`),
the runtime's one per-phase record: each ``memory_phase`` and
``compute_phase`` node carries its task, device, op, bytes and
interval.  Enable the ``causal`` trace category on the cluster (it is
on by default), run a job, then ``Profile.from_run(cluster,
stats).render()``.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.hardware.cluster import Cluster
from repro.metrics.report import Table, format_bytes, format_ns
from repro.obs.causal import JobGraph, critical_path
from repro.runtime.rts import JobStats


@dataclasses.dataclass
class PhaseRecord:
    task: str
    kind: str  # 'compute' | 'read' | 'write'
    detail: str  # op class or region name
    backing: str  # device for memory phases, compute device otherwise
    duration: float
    start: float  # simulated ns
    nbytes: float = 0.0
    pattern: str = ""  # 'sequential' | 'random' for memory phases
    access_size: int = 64


class Profile:
    """One profiled job run, queryable at four levels."""

    def __init__(self, stats: JobStats, graph: JobGraph):
        self.stats = stats
        self.graph = graph
        prefix = f"{graph.job}/"
        self.phases: typing.List[PhaseRecord] = []
        for node in graph.nodes.values():
            fields = node.fields
            if node.kind == "compute_phase":
                self.phases.append(PhaseRecord(
                    task=node.task[len(prefix):], kind="compute",
                    detail=fields["op"], backing=node.device,
                    duration=node.duration, start=node.begin,
                ))
            elif node.kind == "memory_phase":
                self.phases.append(PhaseRecord(
                    task=node.task[len(prefix):], kind=fields["op"],
                    detail=fields["region"], backing=fields["backing"],
                    duration=node.duration, start=node.begin,
                    nbytes=float(fields["nbytes"]),
                    pattern=fields["pattern"],
                    access_size=fields["access_size"],
                ))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_run(cls, cluster: Cluster, stats: JobStats) -> "Profile":
        """Build a profile from the causal graph of a finished run.

        Raises ``ValueError`` when the cluster holds no graph for the
        run: causal tracing was off, or the graph was evicted past
        ``CausalTracer.max_jobs``.
        """
        for graph in reversed(cluster.obs.causal.jobs.values()):
            if (graph.job == stats.job_name
                    and graph.submitted_at == stats.submitted_at):
                return cls(stats, graph)
        raise ValueError(
            f"no causal graph for job {stats.job_name!r}: run it with "
            f'trace_categories={{"causal"}} and profile it before '
            f"CausalTracer.max_jobs later jobs evict its graph"
        )

    # -- queries ----------------------------------------------------------

    def task_breakdown(self, task: str) -> typing.Dict[str, float]:
        """compute/read/write/queue/other time for one task (ns)."""
        task_stats = self.stats.tasks[task]
        breakdown = {"compute": 0.0, "read": 0.0, "write": 0.0}
        for phase in self.phases:
            if phase.task == task:
                breakdown[phase.kind] = breakdown.get(phase.kind, 0.0) + phase.duration
        accounted = sum(breakdown.values())
        breakdown["queue"] = task_stats.queue_delay or 0.0
        breakdown["other"] = max(0.0, task_stats.duration - accounted)
        return breakdown

    def memory_fraction(self, task: str) -> float:
        """Fraction of a task's runtime spent waiting on memory."""
        breakdown = self.task_breakdown(task)
        duration = self.stats.tasks[task].duration
        if duration == 0:
            return 0.0
        return (breakdown["read"] + breakdown["write"]) / duration

    def by_backing_device(self) -> typing.Dict[str, typing.Tuple[float, float]]:
        """device -> (total memory-phase time, total bytes) for the job."""
        out: typing.Dict[str, typing.List[float]] = {}
        for phase in self.phases:
            if phase.kind in ("read", "write"):
                entry = out.setdefault(phase.backing, [0.0, 0.0])
                entry[0] += phase.duration
                entry[1] += phase.nbytes
        return {k: (v[0], v[1]) for k, v in out.items()}

    def by_region(self) -> typing.Dict[str, typing.Tuple[float, float]]:
        """region name -> (total access time, total bytes)."""
        out: typing.Dict[str, typing.List[float]] = {}
        for phase in self.phases:
            if phase.kind in ("read", "write"):
                entry = out.setdefault(phase.detail, [0.0, 0.0])
                entry[0] += phase.duration
                entry[1] += phase.nbytes
        return {k: (v[0], v[1]) for k, v in out.items()}

    def critical_path(self) -> typing.List[str]:
        """Tasks in order along the causal critical path
        (:func:`repro.obs.causal.critical_path`): the chain of phases
        and waits the job's finish actually waited for."""
        prefix = f"{self.graph.job}/"
        tasks = (self.graph.nodes[nid].task
                 for nid in critical_path(self.graph))
        return list(dict.fromkeys(
            task[len(prefix):] for task in tasks if task
        ))

    def hottest_region(self) -> typing.Optional[str]:
        """The region with the largest total access time (None if none)."""
        regions = self.by_region()
        if not regions:
            return None
        return max(regions, key=lambda name: regions[name][0])

    # -- export -----------------------------------------------------------

    def to_chrome_trace(self) -> typing.List[dict]:
        """The run as Chrome trace events (load in chrome://tracing or
        https://ui.perfetto.dev).  Tasks become rows ("threads"); compute
        and memory phases become nested duration events.

        Simulated nanoseconds map to trace microseconds so sub-µs phases
        stay visible in the viewer.
        """
        events: typing.List[dict] = []
        tids = {name: i + 1 for i, name in enumerate(sorted(self.stats.tasks))}
        for name, tid in tids.items():
            task_stats = self.stats.tasks[name]
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": f"{name} @ {task_stats.device}"},
            })
            if task_stats.started_at is None:
                continue  # never started (upstream failed): no span to draw
            events.append({
                "name": name, "cat": "task", "ph": "X", "pid": 1, "tid": tid,
                "ts": task_stats.started_at, "dur": task_stats.duration,
                "args": {"device": task_stats.device},
            })
        for phase in self.phases:
            if phase.task not in tids:
                continue
            args = {"backing": phase.backing}
            if phase.kind != "compute":
                args["bytes"] = phase.nbytes
                args["pattern"] = phase.pattern
            events.append({
                "name": f"{phase.kind}:{phase.detail}",
                "cat": phase.kind, "ph": "X", "pid": 1,
                "tid": tids[phase.task],
                "ts": phase.start, "dur": phase.duration, "args": args,
            })
        return events

    def write_chrome_trace(self, path: str) -> None:
        """Dump the Chrome-trace JSON for chrome://tracing / Perfetto."""
        import json

        with open(path, "w") as handle:
            json.dump({"traceEvents": self.to_chrome_trace(),
                       "displayTimeUnit": "ns"}, handle)

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """The four-level profile as aligned text tables."""
        sections = []
        job = Table(["job", "makespan", "tasks", "zero-copy", "copies"],
                    title="Level 1 — job")
        job.add_row(self.stats.job_name, format_ns(self.stats.makespan),
                    len(self.stats.tasks), self.stats.zero_copy_handover,
                    self.stats.copy_handover)
        sections.append(job.render())

        tasks = Table(
            ["task", "device", "total", "compute", "read", "write",
             "queue", "mem%"],
            title="Level 2 — tasks",
        )
        for name, task_stats in self.stats.tasks.items():
            breakdown = self.task_breakdown(name)
            tasks.add_row(
                name, task_stats.device, format_ns(task_stats.duration),
                format_ns(breakdown["compute"]), format_ns(breakdown["read"]),
                format_ns(breakdown["write"]), format_ns(breakdown["queue"]),
                f"{self.memory_fraction(name):.0%}",
            )
        sections.append(tasks.render())

        regions = Table(["region", "access time", "bytes"],
                        title="Level 3 — regions")
        for name, (duration, nbytes) in sorted(
            self.by_region().items(), key=lambda kv: -kv[1][0]
        ):
            regions.add_row(name, format_ns(duration), format_bytes(nbytes))
        sections.append(regions.render())

        devices = Table(["backing device", "stall time", "bytes"],
                        title="Level 4 — devices")
        for name, (duration, nbytes) in sorted(
            self.by_backing_device().items(), key=lambda kv: -kv[1][0]
        ):
            devices.add_row(name, format_ns(duration), format_bytes(nbytes))
        sections.append(devices.render())
        return "\n\n".join(sections)

"""Job-level fault tolerance: retries + checkpoint-pruned re-execution.

Paper §3, Challenge 8(3): node faults are routine, and *"if not handled
properly, failures may lead to data loss and force applications to stop
and restart"*.  This module implements the application-facing half of
the answer (the memory-level half — replication/erasure coding — lives
in :mod:`repro.ft`):

* :class:`ResilientRuntime` re-executes a failed job up to
  ``max_attempts`` times through a :class:`repro.api.Session` (so every
  attempt passes admission), releasing all of the failed attempt's
  regions first;
* tasks whose property card says ``persistent=True`` act as
  **checkpoints**: their outputs were written to durable media, so a
  retry *prunes* the DAG — each completed checkpoint task is replaced
  by a cheap ``restore`` source re-reading the persisted bytes, and
  every ancestor that only fed checkpointed paths is dropped (lineage
  truncation, the Spark/Ray recovery model generalized to regions).
"""

from __future__ import annotations

import dataclasses
import typing

import networkx as nx

from repro.dataflow.graph import Job, Task
from repro.dataflow.properties import TaskProperties
from repro.dataflow.workspec import RegionUsage, WorkSpec
from repro.hardware.spec import OpClass
from repro.runtime.rts import JobStats


class JobAbandoned(Exception):
    """The job kept failing past the retry budget."""

    def __init__(self, job_name: str, attempts: int, last_error: BaseException):
        super().__init__(
            f"job {job_name!r} failed {attempts} times; last error: {last_error!r}"
        )
        self.attempts = attempts
        self.last_error = last_error


@dataclasses.dataclass
class ResilienceStats:
    attempts: int = 0
    failures: int = 0
    wasted_time_ns: float = 0.0  # simulated time spent in failed attempts
    tasks_skipped_by_checkpoints: int = 0
    checkpoints_used: int = 0


class ResilientRuntime:
    """Retrying, checkpoint-aware job runner over a :class:`Session`."""

    def __init__(self, session, max_attempts: int = 3):
        from repro.api import Session

        if not isinstance(session, Session):
            raise TypeError(
                f"ResilientRuntime needs a repro.api Session; got "
                f"{type(session).__name__} (a hand-built runtime enters as "
                f"Session(rts, RackDriver(rts)))"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.session = session
        self.max_attempts = max_attempts
        self.stats = ResilienceStats()

    def run_job(
        self, job_factory: typing.Callable[[], Job]
    ) -> JobStats:
        """Run ``job_factory()`` to success, retrying on failure.

        The factory is called once per attempt (jobs are single-use).
        Completed ``persistent=True`` tasks of a failed attempt are
        carried into the next attempt as checkpoints.
        """
        engine = self.session.cluster.engine
        checkpoints: typing.Dict[str, int] = {}  # task name -> output size
        last_error: typing.Optional[BaseException] = None
        job_name: typing.Optional[str] = None
        prev_key: typing.Optional[str] = None

        for _attempt in range(self.max_attempts):
            self.stats.attempts += 1
            job = job_factory()
            job_name = job.name
            if checkpoints:
                job, skipped = prune_with_checkpoints(job, checkpoints)
                self.stats.tasks_skipped_by_checkpoints += skipped
                self.stats.checkpoints_used += sum(
                    1 for name in checkpoints if name in job.tasks
                )
            started = engine.now
            handle = self.session.submit(job)
            engine.run(until=handle.settled)
            execution = handle.execution
            if execution is None:  # shed by admission
                last_error = RuntimeError(f"job {job_name!r} was shed")
                self.stats.failures += 1
                continue
            if prev_key is not None:
                # Chain whole-job re-executions in the causal record.
                self.session.obs.causal.link_retry(
                    prev_key, execution.job_owner
                )
            prev_key = execution.job_owner
            if handle.completed:
                return handle.stats
            last_error = execution.stats.error
            self.stats.failures += 1
            self.stats.wasted_time_ns += engine.now - started
            engine.run()  # drain stragglers
            execution.abort()
            checkpoints.update(self._harvest_checkpoints(job, execution))

        raise JobAbandoned(job_name, self.stats.attempts, last_error)

    @staticmethod
    def _harvest_checkpoints(job: Job, execution) -> typing.Dict[str, int]:
        """Tasks that finished AND persisted their output before the crash."""
        harvested = {}
        for name, task_stats in execution.stats.tasks.items():
            task = job.tasks.get(name)
            if task is None or not task.properties.persistent:
                continue
            if task.work.output is None:
                continue
            if (
                task_stats.started_at is not None
                and task_stats.finished_at is not None
                and task_stats.finished_at >= task_stats.started_at
            ):
                # finished_at is set on both success and failure; a task
                # that persisted counts only if it reached its epilogue,
                # which _run_task records by triggering its done event.
                if execution.task_succeeded(name):
                    harvested[name] = task.work.output.size
        return harvested


def prune_with_checkpoints(
    job: Job, checkpoints: typing.Mapping[str, int]
) -> typing.Tuple[Job, int]:
    """Rebuild ``job`` with completed checkpoints as restore-sources.

    Returns ``(pruned_job, n_tasks_skipped)``.  A task is skipped when
    it cannot reach any sink without passing through a completed
    checkpoint — its work is already durably captured downstream of it.
    """
    present = {name for name in checkpoints if name in job.tasks}
    if not present:
        return job, 0

    # Cut the in-edges of checkpointed tasks; whatever can no longer
    # reach a sink fed only checkpointed paths and is dead lineage.
    cut = nx.DiGraph(job.graph)
    # Sinks of the *original* DAG: cutting edges must not promote dead
    # ancestors into sinks of their own.
    sinks = [n for n in job.graph.nodes if job.graph.out_degree(n) == 0]
    for name in present:
        for pred in list(cut.predecessors(name)):
            cut.remove_edge(pred, name)
    alive: set = set()
    for sink in sinks:
        alive.add(sink)
        alive |= nx.ancestors(cut, sink)

    pruned = Job(job.name, global_state_size=job.global_state_size)
    for name in job.tasks:
        if name not in alive:
            continue
        original = job.tasks[name]
        if name in present:
            pruned.add_task(_restore_task(original, checkpoints[name]))
        else:
            clone = Task(
                original.name, work=original.work,
                properties=original.properties, fn=original.fn,
            )
            pruned.add_task(clone)
    for u, v in cut.edges:
        if u in pruned.tasks and v in pruned.tasks:
            pruned.connect(u, v)
    pruned.validate()
    return pruned, len(job.tasks) - len(pruned.tasks)


def _restore_task(original: Task, output_size: int) -> Task:
    """A source task that re-reads a checkpoint instead of recomputing.

    Cost model: stage the persisted bytes through scratch (one read of
    the checkpoint) and republish the output region — no recomputation.
    """
    work = WorkSpec(
        op_class=OpClass.SCALAR,
        ops=output_size / 4096.0,  # metadata walking, not recompute
        scratch=RegionUsage(max(output_size, 64), touches=1.0),
        output=RegionUsage(output_size),
        scratch_puts=original.work.scratch_puts,
    )
    properties = TaskProperties(
        compute=original.properties.compute,
        confidential=original.properties.confidential,
        persistent=True,  # the restored output remains durable
        mem_latency=original.properties.mem_latency,
    )
    return Task(original.name, work=work, properties=properties)

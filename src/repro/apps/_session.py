"""Session plumbing shared by the physical app executors.

The ``*_exec`` drivers (``LinearTrainer``, ``JacobiSolver``,
``PhysicalQueryEngine``, ``StreamExecutor``, ``LLMEngine``) take a
:class:`repro.api.Session` first and submit through it, so their jobs
enter through admission, tenancy and QoS like any other job.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session
    from repro.dataflow.graph import Job
    from repro.runtime.rts import JobStats


def resolve(driver_name: str, session) -> "Session":
    """Check that an executor was given a :class:`repro.api.Session`."""
    from repro.api import Session

    if not isinstance(session, Session):
        raise TypeError(
            f"{driver_name} needs a repro.api Session (from connect(...)); "
            f"got {type(session).__name__}"
        )
    return session


def run_job(session: "Session", job: "Job") -> "JobStats":
    """Run one job through the session's QoS admission to completion;
    raises the job's error on failure."""
    stats = session.run(job)
    if stats is None:
        raise RuntimeError(f"job {job.name!r} was shed by admission")
    return stats

"""The benchmark's three whole-scenario workloads.

Each workload makes its inputs from a seed (``generate``), builds the
system through the public front door up to the first simulated arrival
(``setup``), runs the arrivals to completion (``run``) and checks what
the simulated system reports (``check``).  The program only ever sees
the generated inputs: request lists, job specs and a fault plan.

* ``llm_serve`` — the C21 LLM stream made steady-state: disaggregated
  prefill/decode with a refcounted prefix cache, open loop at about 70%
  of the rack's capacity.
* ``tenant_mix`` — four tenants submitting app-class jobs through
  weighted-fair admission with preemption; no shared regions, no LLM.
* ``fault_storm`` — three federated racks under fail-slow episodes, a
  blade crash and restart per rack, and a rack drained late in the trace.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

import repro
from repro.apps import LLMEngine, build_app_job, define_pd_pools
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.runtime.health import DegradationPolicy, RecoveryPolicy
from repro.sim.faults import FaultKind
from repro.workloads import llm_request_stream

MiB = 1 << 20


class CheckFailed(Exception):
    """A simulated output broke one of the benchmark's correctness checks."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass(frozen=True)
class Request:
    """One attempted request as the simulated system reports it."""

    name: str
    tenant: str
    #: When the generator scheduled it (open-loop due time, sim ns).
    due_ns: float
    #: When the system stamped its arrival (None if it never arrived).
    arrived_ns: typing.Optional[float]
    finished_ns: typing.Optional[float]
    #: "ok", "failed" or "shed".
    status: str
    #: False when ``arrived_ns`` is a later landing (a job that reached
    #: its rack only after a cross-rack fetch), not the front door.
    front_door: bool = True


@dataclasses.dataclass
class Scenario:
    """A set-up system plus the handles its metrics are read from."""

    inputs: typing.Any
    session: typing.Any
    engine: typing.Any
    #: Every rack's RuntimeSystem and admission RackDriver.
    runtimes: typing.List[typing.Any]
    drivers: typing.List[typing.Any]
    #: Anything the workload's run and checks need later.
    extra: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict
    )


def _status(shed: bool, completed: bool) -> str:
    if shed:
        return "shed"
    return "ok" if completed else "failed"


def _admitted_record(handle, due_ns: float) -> Request:
    """A Request from a rack-level ``AdmittedJob`` handle."""
    return Request(
        name=handle.name, tenant=handle.tenant, due_ns=due_ns,
        arrived_ns=handle.arrived_at, finished_ns=handle.finished_at,
        status=_status(handle.shed, handle.completed),
    )


def _check_accounted(requests: typing.Sequence[Request], attempted: int,
                     horizon_ns: float) -> None:
    """Every attempted request is completed, failed or shed, once."""
    check(len(requests) == attempted,
          f"{attempted} requests attempted but {len(requests)} reported")
    check(len({r.name for r in requests}) == attempted,
          "request names are not unique")
    for r in requests:
        check(r.status in ("ok", "failed", "shed"),
              f"{r.name}: unknown status {r.status!r}")
        if r.status == "ok":
            check(r.arrived_ns is not None and r.finished_ns is not None,
                  f"{r.name}: completed without arrival/finish times")
            check(r.due_ns <= r.arrived_ns <= r.finished_ns <= horizon_ns,
                  f"{r.name}: times out of order "
                  f"(due {r.due_ns}, arrived {r.arrived_ns}, "
                  f"finished {r.finished_ns}, horizon {horizon_ns})")


class LLMServe:
    """C21's stream in steady state: P/D split, prefix cache, open loop."""

    name = "llm_serve"
    interactive = "chat"
    slo_ns = 20e6
    n_requests = 120
    #: 1 ms mean gap: about 70% of the ~1,450 req/s the rack saturates at.
    mean_gap_ns = 1e6

    def generate(self, seed: int):
        return llm_request_stream(
            self.n_requests, seed=seed,
            prompt_tail_tokens=(64, 512), output_tokens=(4, 16),
            template_blocks=(4, 12),
            mean_interarrival_ns=self.mean_gap_ns,
            batch_tenant="batch", batch_fraction=0.25,
        )

    def setup(self, requests, seed: int) -> Scenario:
        session = repro.connect("pooled-rack", seed=seed, max_concurrent=32)
        session.register_tenant("chat", weight=2.0, priority="interactive",
                                slo_target_ns=self.slo_ns)
        session.register_tenant("batch", weight=1.0, priority="batch",
                                slo_target_ns=200e6)
        define_pd_pools(session.cluster)
        engine = LLMEngine(session, disaggregate=True, prefix_caching=True,
                           kv_bytes_per_token=512, ops_per_token=1e8)
        return Scenario(requests, session, session.cluster.engine,
                        [session.rts], [session.driver],
                        extra={"llm": engine})

    def run(self, sc: Scenario) -> typing.List[Request]:
        result = sc.extra["llm"].serve(sc.inputs)
        sc.extra["result"] = result
        return [
            Request(
                name=r.request.name, tenant=r.request.tenant,
                due_ns=r.request.arrival_ns, arrived_ns=r.arrived_at,
                finished_ns=r.finished_at,
                status=_status(r.shed, r.completed),
            )
            for r in result.records
        ]

    def check(self, sc: Scenario, requests: typing.Sequence[Request]) -> None:
        result = sc.extra["result"]
        _check_accounted(requests, len(sc.inputs), sc.engine.now)
        leaked = sc.extra["llm"].audit()
        check(leaked == {}, f"prefix-cache refcount leak: {leaked}")
        check(result.kv_bytes_moved == 0,
              f"{result.kv_bytes_moved} KV bytes copied on pooled-rack, "
              f"where the P->D handover must be zero-copy")


class TenantMix:
    """Four tenants of app-class jobs through WFQ admission."""

    name = "tenant_mix"
    interactive = "web"
    slo_ns = 5e6
    n_jobs = 160
    #: Near the admission gate's capacity at max_concurrent=6, not backlogged.
    mean_gap_ns = 3e6
    #: (share of the jobs, tenant, app class).  Shares are exact per
    #: stream (a seeded shuffle), so seeds vary sizes, order and timing
    #: but not the class mix.  The median lands inside the narrow
    #: streaming mode and the p95 inside the ml mode, not on a boundary
    #: between two modes, where it would jump from seed to seed.
    classes = (
        (0.15, "web", "census"),
        (0.40, "web", "streaming"),
        (0.15, "analytics", "dbms"),
        (0.15, "sci", "hpc"),
        (0.15, "train", "ml"),
    )

    @staticmethod
    def _spec(app: str, rng) -> dict:
        if app == "census":
            return {"payload_bytes": int(rng.integers(64 << 10, 512 << 10))}
        if app == "streaming":
            return {"n_frames": int(rng.integers(4, 33))}
        if app == "dbms":
            return {"n_rows": int(rng.integers(100_000, 1_000_001))}
        if app == "hpc":
            return {"n_workers": int(rng.integers(4, 17)),
                    "grid_bytes": int(rng.integers(8, 33)) * MiB}
        return {"n_samples": int(rng.integers(30_000, 60_001)),
                "model_bytes": 16 * MiB, "epochs": 2}

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        kinds = []
        for share, tenant, app in self.classes:
            kinds += [(tenant, app)] * round(share * self.n_jobs)
        if len(kinds) != self.n_jobs:
            raise ValueError(f"class shares do not split {self.n_jobs} jobs")
        order = rng.permutation(self.n_jobs)
        due = np.cumsum(rng.exponential(self.mean_gap_ns, size=self.n_jobs))
        arrivals = []
        for i, k in enumerate(order):
            tenant, app = kinds[k]
            arrivals.append((float(due[i]), f"{tenant}-{app}-{i}", tenant,
                             app, self._spec(app, rng)))
        return arrivals

    def setup(self, arrivals, seed: int) -> Scenario:
        session = repro.connect("pooled-rack", seed=seed, max_concurrent=6,
                                policy="wfq", enable_preemption=True)
        session.register_tenant("web", weight=3.0, priority="interactive",
                                slo_target_ns=self.slo_ns)
        session.register_tenant("analytics", weight=2.0, priority="batch")
        session.register_tenant("sci", weight=1.0, priority="batch")
        session.register_tenant("train", weight=1.0, priority="best_effort")

        def factory(name, app, spec):
            def build():
                job = build_app_job(app, **spec)
                job.name = name
                return job
            return build

        trace = [(due, name, factory(name, app, spec), tenant)
                 for due, name, tenant, app, spec in arrivals]
        return Scenario(arrivals, session, session.cluster.engine,
                        [session.rts], [session.driver],
                        extra={"trace": trace})

    def run(self, sc: Scenario) -> typing.List[Request]:
        stats = sc.session.run_trace(sc.extra["trace"])
        due = {name: t for t, name, *_ in sc.inputs}
        return [_admitted_record(h, due[h.name]) for h in stats.jobs]

    def check(self, sc: Scenario, requests: typing.Sequence[Request]) -> None:
        _check_accounted(requests, len(sc.inputs), sc.engine.now)
        live = sc.session.rts.memory.live_regions()
        check(not live, f"{len(live)} regions still live after the mix, "
                        f"e.g. {live[0].name if live else ''}")


def _pipeline(name: str, ops: float, payload: int) -> Job:
    """Three stages, each handing its output region to the next."""
    job = Job(name)
    previous = None
    for k in range(3):
        task = job.add_task(Task(f"stage{k}", work=WorkSpec(
            ops=ops,
            input_usage=RegionUsage(0) if previous is not None else None,
            output=RegionUsage(payload) if k < 2 else None,
        )))
        if previous is not None:
            job.connect(previous, task)
        previous = task
    return job


class FaultStorm:
    """Three racks, gray failures, a crash per rack, a late rack drain."""

    name = "fault_storm"
    interactive = "web"
    slo_ns = 5e6
    n_jobs = 450
    mean_gap_ns = 150e3
    racks = 3
    sessions = tuple(f"sess{i}" for i in range(6))
    #: Each session's pinned dataset: what a job routed off its rack
    #: fetches across the inter-rack fabric first.
    dataset_bytes = 4 * MiB
    drained_rack = "rack2"
    #: The drain starts this far into the arrivals.  Later than halfway
    #: keeps the two-rack tail after it from setting the p95 alone.
    drain_share = 0.75
    #: The blade that crashes and restarts on every rack.  It holds no
    #: memory: without output backups (see README.md) a crash of a blade
    #: that holds stage outputs fails the jobs whose inputs it lost.
    crash_node = "blade-fpga"
    #: The devices the fail-slow episodes hit: the pipeline's hot path.
    slow_targets = ("cpu1", "gpu1", "dram-local1")
    episodes_per_target = 8
    #: Length of one fail-slow episode as a share of the arrival horizon.
    episode_share = 1 / 80
    #: Speed multiplier while an episode lasts (0.3: about 3.3x slower).
    slow_factor = 0.3

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        due = np.cumsum(rng.exponential(self.mean_gap_ns, size=self.n_jobs))
        jobs = []
        for i in range(self.n_jobs):
            session = self.sessions[int(rng.integers(0, len(self.sessions)))]
            tenant = "web" if rng.random() < 0.6 else "batch"
            jobs.append((float(due[i]), f"{tenant}-{session}-{i}", tenant,
                         session, float(rng.uniform(1e5, 4e5)),
                         int(rng.integers(1, 5)) * MiB))
        horizon = float(due[-1])
        # Per rack: a fixed number of short fail-slow episodes on each
        # hot-path target at seeded times, then one blade crash and its
        # restart.  Many short episodes rather than a few long ones keep
        # the slowed share of jobs, and so the tail, alike across seeds.
        faults = []
        for _ in range(self.racks):
            plan = [(float(rng.uniform(0.0, 0.95)) * horizon, target)
                    for target in self.slow_targets
                    for _ in range(self.episodes_per_target)]
            crash_at = float(rng.uniform(0.2, 0.4)) * horizon
            faults.append((plan, crash_at))
        return {"jobs": jobs, "horizon": horizon, "faults": faults,
                "drain_at": horizon * self.drain_share}

    def setup(self, inputs, seed: int) -> Scenario:
        fed = repro.connect(
            "pooled-rack", racks=self.racks, seed=seed, routing="affinity",
            max_concurrent=4,
            recovery=RecoveryPolicy(max_task_attempts=8, transfer_retries=4,
                                    backoff_base_ns=5_000.0),
        )
        fed.register_tenant("web", weight=2.0, priority="interactive",
                            slo_target_ns=self.slo_ns)
        fed.register_tenant("batch", weight=1.0, priority="batch")
        for k, session in enumerate(self.sessions):
            fed.pin_dataset(session, f"rack{k % self.racks}",
                            self.dataset_bytes)
        horizon = inputs["horizon"]
        episode, outage = horizon * self.episode_share, horizon / 10
        for rack, (episodes, crash_at) in zip(fed.racks, inputs["faults"]):
            # Turn on the evidence-based fail-slow detector.
            rack.monitor.degradation = DegradationPolicy()
            faults = rack.cluster.faults
            for start, target in episodes:
                faults.inject_at(start, FaultKind.DEVICE_SLOW, target,
                                 factor=self.slow_factor)
                faults.inject_at(start + episode, FaultKind.DEVICE_RESTORED,
                                 target)
            faults.inject_at(crash_at, FaultKind.NODE_CRASH, self.crash_node)
            faults.inject_at(crash_at + outage, FaultKind.NODE_RESTART,
                             self.crash_node)
        drain = {}

        def chaos():
            yield fed.engine.timeout(inputs["drain_at"])
            drain["started_ns"] = fed.engine.now
            drain["rack"] = yield fed.drain_rack(self.drained_rack)
            drain["finished_ns"] = fed.engine.now

        fed.engine.process(chaos(), name="bench-chaos")
        trace = [
            (due, name,
             (lambda name=name, ops=ops, payload=payload:
              _pipeline(name, ops, payload)),
             tenant, None, session)
            for due, name, tenant, session, ops, payload in inputs["jobs"]
        ]
        racks = fed.racks
        return Scenario(inputs, fed, fed.engine,
                        [r.rts for r in racks], [r.driver for r in racks],
                        extra={"trace": trace, "drain": drain})

    def run(self, sc: Scenario) -> typing.List[Request]:
        handles = sc.session.run_trace(sc.extra["trace"])
        sc.extra["handles"] = handles
        jobs = {name: (t, tenant) for t, name, tenant, *_ in sc.inputs["jobs"]}
        requests = []
        for h in handles:
            due, tenant = jobs[h.name]
            if h.admitted is not None:
                requests.append(dataclasses.replace(
                    _admitted_record(h.admitted, due),
                    front_door=h.fetched_bytes == 0))
            else:
                # Shed at the federation's front door.
                requests.append(Request(h.name, tenant, due, None, None,
                                        "shed"))
        return requests

    def check(self, sc: Scenario, requests: typing.Sequence[Request]) -> None:
        _check_accounted(requests, len(sc.inputs["jobs"]), sc.engine.now)
        handles = sc.extra["handles"]
        check(all(h.accounted for h in handles),
              "a routed job was never accounted for")
        drain = sc.extra["drain"]
        check(drain.get("rack") == self.drained_rack,
              f"the drain of {self.drained_rack} did not complete")
        check(self.drained_rack not in sc.session.registry,
              f"{self.drained_rack} is still registered after its drain")


WORKLOADS = {w.name: w for w in (LLMServe(), TenantMix(), FaultStorm())}

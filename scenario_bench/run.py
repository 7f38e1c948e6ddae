"""Whole-scenario benchmark of the simulated runtime.

Run from the repository root::

    python3 scenario_bench/run.py --workload llm_serve --seed 1 \\
        --seconds 30 --trace 0

``--seed`` and ``--seconds`` fix the run's input streams, each made
from its own sub-seed, and how many executions they get: one per
``STREAM_SECONDS`` of budget.  Each execution is a worker, a fresh
interpreter that sets the system up several times (``setup_s``), runs
one stream once and checks the simulated outputs.  The first streams
run twice; the host metrics come from those, slice by slice the
cheaper execution, at the reference speed (see ``Meter`` and
``floor_cost``).  Simulated metrics pool every request of every
stream.  ``--trace 1`` runs the first stream once more with every
layer's entry points wrapped, checks that it simulates the same
digest, and prints the per-layer metrics instead; its full trace goes
to ``scenario_bench/out/``.  The last line of standard output is one
JSON object; a failed check exits non-zero without it.  See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import typing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MiB = 1 << 20

#: Set-up-only repetitions before the measured runs (setup_s is their
#: median together with the measured runs' own set-up times).
SETUP_REPS = 25

#: (name, unit, better, bound) — mirrored by BENCHMARK.json.
END_TO_END = (
    ("req_per_wall_s", "req/s", "higher", 0.24),
    ("cpu_ms_per_req", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("sim_p50_ms", "ms", "lower", 0.2),
    ("sim_p95_ms", "ms", "lower", 0.24),
    ("sim_slo_attain", "fraction", "higher", 0.05),
    ("completed_frac", "fraction", "higher", 0.01),
)

#: Event sources reported as metrics (the trace file lists every source).
SOURCES = (
    "llm-wait", "llm-arrivals", "llm-sampler", "rack-sampler",
    "rack-arrivals", "task", "federation:arrivals", "federation:heartbeat",
    "federation:fetch", "federation:drain", "health#detect", "(callback)",
)


def _metric_key(source: str) -> str:
    return "".join(c if c.isalnum() or c in "_.-" else "_" for c in source)


#: (name, unit, better) — mirrored by BENCHMARK.json.
PER_LAYER = (
    ("sim.engine.events_per_req", "count", "lower"),
    ("sim.engine.self_ms_per_req", "ms", "lower"),
    ("sim.engine.share", "fraction", "lower"),
) + tuple(
    (f"sim.engine.timeouts_per_req.{_metric_key(s)}", "count", "lower")
    for s in SOURCES
) + (
    ("sim.flows.transfers_per_req", "count", "lower"),
    ("sim.flows.mb_per_req", "MiB", "lower"),
    ("sim.flows.resolved_per_req", "count", "lower"),
    ("sim.flows.self_ms_per_req", "ms", "lower"),
    ("sim.flows.share", "fraction", "lower"),
    ("runtime.admission.self_ms_per_req", "ms", "lower"),
    ("runtime.admission.queue_wait_p50_ms", "ms", "lower"),
    ("runtime.admission.preemptions", "count", "lower"),
    ("runtime.admission.late_over_early", "ratio", "lower"),
    ("runtime.admission.share", "fraction", "lower"),
    ("runtime.scheduler.calls_per_req", "count", "lower"),
    ("runtime.scheduler.self_ms_per_req", "ms", "lower"),
    ("runtime.scheduler.share", "fraction", "lower"),
    ("runtime.placement.calls_per_req", "count", "lower"),
    ("runtime.placement.self_ms_per_req", "ms", "lower"),
    ("runtime.placement.rejections", "count", "lower"),
    ("runtime.placement.share", "fraction", "lower"),
    ("runtime.transfer.handovers_per_req", "count", "lower"),
    ("runtime.transfer.zero_copy_ratio", "fraction", "higher"),
    ("runtime.transfer.self_ms_per_req", "ms", "lower"),
    ("runtime.transfer.share", "fraction", "lower"),
    ("runtime.health.degraded_events", "count", "lower"),
    ("runtime.health.retries_per_job", "count", "lower"),
    ("runtime.health.retry_success_ratio", "fraction", "higher"),
    ("runtime.health.observations_per_req", "count", "lower"),
    ("runtime.health.self_ms_per_req", "ms", "lower"),
    ("runtime.health.share", "fraction", "lower"),
    ("memory.allocs_per_req", "count", "lower"),
    ("memory.self_ms_per_req", "ms", "lower"),
    ("memory.share", "fraction", "lower"),
    ("memory.sharing.hit_rate", "fraction", "higher"),
    ("memory.sharing.evictions", "count", "lower"),
    ("apps.llm.ttft_p50_ms", "ms", "lower"),
    ("apps.llm.decode_p50_ms", "ms", "lower"),
    ("apps.llm.stall_p50_ms", "ms", "lower"),
    ("apps.llm.kv_mb_moved", "MiB", "lower"),
    ("apps.llm.self_ms_per_req", "ms", "lower"),
    ("apps.llm.share", "fraction", "lower"),
    ("federation.route_per_req", "count", "lower"),
    ("federation.self_ms_per_req", "ms", "lower"),
    ("federation.cross_rack_mb", "MiB", "lower"),
    ("federation.spills", "count", "lower"),
    ("federation.drain_ms", "ms", "lower"),
    ("federation.share", "fraction", "lower"),
    ("obs.telemetry.polls_per_req", "count", "lower"),
    ("obs.telemetry.self_ms_per_req", "ms", "lower"),
    ("obs.telemetry.share", "fraction", "lower"),
    ("hardware.preset_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("workload.arrival_lag_max_ns", "ns", "lower"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources or config)."""


def check_benchmark_json() -> None:
    """BENCHMARK.json must name exactly the metrics this file reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc
    declared = [(m["name"], m["unit"], m["better"], m.get("bound"))
                for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        raise SetupError("BENCHMARK.json end_to_end differs from run.py")
    declared = [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer"]]
    if declared != list(PER_LAYER):
        raise SetupError("BENCHMARK.json per_layer differs from run.py")


def import_program():
    """Import the program from this checkout's ``src`` (nowhere else)."""
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    import scenarios

    return scenarios


# -- statistics ---------------------------------------------------------------


def percentile(sorted_values: typing.Sequence[float], p: float) -> float:
    """Linear-interpolated p-th percentile (p in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return (sorted_values[low] * (1 - (rank - low))
            + sorted_values[high] * (rank - low))


def digest(requests) -> str:
    """Hash of every request's (name, arrival, finish, status)."""
    h = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.name):
        h.update(f"{r.name}|{r.arrived_ns!r}|{r.finished_ns!r}|{r.status}\n"
                 .encode())
    return h.hexdigest()[:16]


#: CPU seconds between two progress samples of a measured run.
SAMPLE_TICK_S = 0.005

#: What one ``reference_loop()`` takes on a quiet core of the machine
#: the baseline was recorded on.  Host times are reported at this
#: reference speed: see ``Meter``.
REFERENCE_S = 65e-6


def reference_loop() -> int:
    """A fixed pure-Python loop of dict reads and writes.  It calls no
    program code, so its time says only how fast the host runs Python
    at this moment."""
    table: typing.Dict[int, int] = {}
    total = 0
    for i in range(400):
        key = (i * 40503) & 255
        table[key] = table.get(key, 0) + i
        total += len(table)
    return total


def host_speed() -> typing.Tuple[float, float]:
    """(cpu, wall) factors that scale a time measured just now to the
    reference speed: ``REFERENCE_S`` over the reference loop's time."""
    cpu, wall = time.thread_time(), time.perf_counter()
    reference_loop()
    cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
    return REFERENCE_S / max(cpu, 1e-7), REFERENCE_S / max(wall, 1e-7)


class Meter:
    """Host cost of one run, sampled every ``SAMPLE_TICK_S`` of CPU.

    A sample is ``(events processed, cpu s, wall s)``, counted from the
    start of the run, with each interval scaled by the host's speed
    measured right after it.  A neighbour on a shared host slows the
    reference loop as much as the run, so the scaled times hold still
    when the host's speed does not.  CPU is the thread's clock: while a
    profiling timer is armed, the process clock only moves at the
    kernel's tick.  The meter reads clocks and the engine's event count
    and moves no simulated number.
    """

    def __init__(self, engine):
        self.engine = engine
        self.base = engine.events_processed
        self.samples = [(0, 0.0, 0.0)]
        self._busy = False
        self._cpu, self._wall = time.thread_time(), time.perf_counter()

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that lands inside the meter
            return
        self._busy = True
        cpu = time.thread_time() - self._cpu
        wall = time.perf_counter() - self._wall
        cpu_scale, wall_scale = host_speed()
        _, scaled_cpu, scaled_wall = self.samples[-1]
        self.samples.append((self.engine.events_processed - self.base,
                             scaled_cpu + cpu * cpu_scale,
                             scaled_wall + wall * wall_scale))
        self._cpu, self._wall = time.thread_time(), time.perf_counter()
        self._busy = False


def metered(workload, scenario):
    """Run ``scenario`` under a ``Meter``; returns (requests, meter)."""
    meter = Meter(scenario.engine)
    previous = signal.signal(signal.SIGPROF, meter.sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_TICK_S, SAMPLE_TICK_S)
    try:
        requests = workload.run(scenario)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    meter.sample()
    return requests, meter


def run_once(workload, inputs, seed: int):
    """Set up, run and check once; returns (requests, meter)."""
    gc.collect()
    scenario = workload.setup(inputs, seed)
    requests, meter = metered(workload, scenario)
    workload.check(scenario, requests)
    return requests, meter


def setup_times(workload, inputs, seed: int) -> typing.List[float]:
    """Wall seconds of SETUP_REPS set-ups that are then thrown away, each
    at the reference speed (the mean of the host's speed just before
    and just after it)."""
    times = []
    for _ in range(SETUP_REPS):
        _, before = host_speed()
        start = time.perf_counter()
        workload.setup(inputs, seed)
        elapsed = time.perf_counter() - start
        _, after = host_speed()
        times.append(elapsed * (before + after) / 2)
    return times


def sim_outcome(workload, requests) -> dict:
    """What the parent pools into the simulated end-to-end metrics."""
    interactive = [r for r in requests if r.tenant == workload.interactive]
    return {
        "latencies_ms": sorted((r.finished_ns - r.due_ns) / 1e6
                               for r in requests if r.status == "ok"),
        "interactive": len(interactive),
        "interactive_in_slo": sum(
            1 for r in interactive if r.status == "ok"
            and r.finished_ns - r.due_ns <= workload.slo_ns),
    }


def sim_metrics(reps: typing.Sequence[dict]) -> typing.Dict[str, float]:
    """Simulated end-to-end metrics over every request of every stream."""
    latencies = sorted(x for r in reps for x in r["latencies_ms"])
    attempted = sum(r["attempted"] for r in reps)
    interactive = sum(r["interactive"] for r in reps)
    return {
        "sim_p50_ms": percentile(latencies, 50),
        "sim_p95_ms": percentile(latencies, 95),
        "sim_slo_attain": (sum(r["interactive_in_slo"] for r in reps)
                           / interactive if interactive else 0.0),
        "completed_frac": len(latencies) / attempted,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the traced run -------------------------------------------------------------


def traced_run(workload, inputs, seed: int):
    """One run with every layer entry point wrapped; its wall time is at
    the reference speed, like the untraced run's."""
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        gc.collect()
        scenario = workload.setup(inputs, seed)
        preset_s = tracer.inclusive_s["Cluster.preset"]
        tracer.reset()
        tracer.engine = scenario.engine
        with tracer.root():
            requests, meter = metered(workload, scenario)
        wall_s = meter.samples[-1][2]
    finally:
        tracer.uninstall()
    workload.check(scenario, requests)
    return tracer, scenario, requests, wall_s, preset_s


def per_layer(tracer, scenario, requests,
              preset_s: float) -> typing.Dict[str, float]:
    import layertrace

    n = len(requests)
    calls = tracer.calls

    def per_req(count: float) -> float:
        return count / n

    def self_ms(layer: str) -> float:
        return 1e3 * tracer.self_s.get(layer, 0.0) / n

    m: typing.Dict[str, float] = {}
    for layer in layertrace.LAYERS:
        if layer == "hardware":
            continue  # set-up only: reported as preset_ms below
        m[f"{layer}.self_ms_per_req"] = self_ms(layer)
        m[f"{layer}.share"] = tracer.share(layer)
    m["sim.engine.events_per_req"] = per_req(tracer.steps)
    for source in SOURCES:
        m[f"sim.engine.timeouts_per_req.{_metric_key(source)}"] = per_req(
            tracer.timeouts[source])

    runtimes, drivers = scenario.runtimes, scenario.drivers
    m["sim.flows.transfers_per_req"] = per_req(calls["FlowNetwork.transfer"])
    m["sim.flows.mb_per_req"] = per_req(tracer.transfer_bytes / MiB)
    m["sim.flows.resolved_per_req"] = per_req(
        sum(rts.cluster.flownet.flows_resolved for rts in runtimes))

    handles = [h for d in drivers for h in d.stats.jobs]
    waits = sorted(h.queue_wait / 1e6 for h in handles
                   if h.admission_index is not None)
    m["runtime.admission.queue_wait_p50_ms"] = percentile(waits, 50)
    m["runtime.admission.preemptions"] = sum(d.stats.preemptions
                                             for d in drivers)
    own = tracer.submit_self_s
    quarter = len(own) // 4
    m["runtime.admission.late_over_early"] = (
        (sum(own[-quarter:]) / sum(own[:quarter]))
        if quarter and sum(own[:quarter]) > 0 else 0.0)

    m["runtime.scheduler.calls_per_req"] = per_req(
        calls["HeftScheduler.assign"])
    m["runtime.placement.calls_per_req"] = per_req(
        calls["PlacementPolicy.place"])
    m["runtime.placement.rejections"] = tracer.errors["PlacementPolicy.place"]

    zero_copy = sum(rts.handover.stats.zero_copy for rts in runtimes)
    copies = sum(rts.handover.stats.copies for rts in runtimes)
    m["runtime.transfer.handovers_per_req"] = per_req(
        calls["HandoverManager.hand_over"])
    m["runtime.transfer.zero_copy_ratio"] = (
        zero_copy / (zero_copy + copies) if zero_copy + copies else 0.0)

    jobs = [e.stats for rts in runtimes for e in rts.executions]
    retried = [s for s in jobs if s.task_retries]
    m["runtime.health.degraded_events"] = sum(
        rts.cluster.obs.counter("health.degraded_events").value
        for rts in runtimes)
    m["runtime.health.retries_per_job"] = per_req(
        sum(s.task_retries for s in jobs))
    m["runtime.health.retry_success_ratio"] = (
        sum(1 for s in retried if s.ok) / len(retried) if retried else 0.0)
    m["runtime.health.observations_per_req"] = per_req(
        calls["HealthMonitor.observe_latency"]
        + calls["HealthMonitor.observe_transfer"])

    m["memory.allocs_per_req"] = per_req(calls["MemoryManager.allocate_on"])
    llm = scenario.extra.get("llm")
    result = scenario.extra.get("result")
    # Share of prompt blocks served from shared regions.
    m["memory.sharing.hit_rate"] = result.hit_rate if result else 0.0
    m["memory.sharing.evictions"] = llm.cache.evictions if llm else 0
    m["apps.llm.ttft_p50_ms"] = percentile(
        result.ttft_ns(), 50) / 1e6 if result else 0.0
    m["apps.llm.decode_p50_ms"] = percentile(
        result.decode_ns(), 50) / 1e6 if result else 0.0
    m["apps.llm.stall_p50_ms"] = percentile(
        result.stall_ns(), 50) / 1e6 if result else 0.0
    m["apps.llm.kv_mb_moved"] = result.kv_bytes_moved / MiB if result else 0.0

    router = getattr(scenario.session, "router", None)
    drain = scenario.extra.get("drain", {})
    m["federation.route_per_req"] = per_req(calls["Router.route"])
    m["federation.cross_rack_mb"] = (
        router.stats.cross_rack_bytes / MiB if router else 0.0)
    m["federation.spills"] = router.stats.spills if router else 0
    m["federation.drain_ms"] = (
        (drain["finished_ns"] - drain["started_ns"]) / 1e6
        if "finished_ns" in drain else 0.0)

    m["obs.telemetry.polls_per_req"] = per_req(calls["TelemetryHub.poll"])
    m["hardware.preset_ms"] = 1e3 * preset_s
    m["workload.arrival_lag_max_ns"] = max(
        (r.arrived_ns - r.due_ns for r in requests
         if r.arrived_ns is not None and r.front_door), default=0.0)
    return m


def write_trace(name: str, seed: int, digest_: str, tracer, wall_s: float,
                metrics) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{seed}.trace.json")
    layers = {
        layer: {"self_ms": 1e3 * tracer.self_s.get(layer, 0.0),
                "share": tracer.share(layer)}
        for layer in sorted(tracer.self_s, key=lambda l: -tracer.self_s[l])
    }
    entries = {
        entry: {"calls": tracer.calls[entry],
                "inclusive_ms": 1e3 * tracer.inclusive_s[entry],
                "errors": tracer.errors[entry]}
        for entry in sorted(tracer.calls)
    }
    doc = {
        "workload": name, "seed": seed, "digest": digest_,
        "traced_wall_s": wall_s, "root_s": tracer.root_s,
        "events": tracer.steps,
        "layers": layers, "entry_points": entries,
        "events_by_source": tracer.events_by_source(),
        "unwrapped": tracer.unwrapped,
        "metrics": metrics,
        "span_fields": ["layer", "entry", "request", "start_us", "dur_us",
                        "parent"],
        "spans": [[layer, entry, rid, round(1e6 * start, 3),
                   round(1e6 * dur, 3), parent]
                  for layer, entry, rid, start, dur, parent in tracer.spans],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


# -- worker processes -------------------------------------------------------------


def worker(workload_name: str, seed: int, traced: bool,
           untraced_wall_s: float) -> dict:
    """One measured run in this (fresh) interpreter, as a JSON-able dict.

    Each run gets a fresh interpreter because the program keeps
    process-wide state between sessions (job ids feed the retry-jitter
    streams), so a second run of the same seed in one process can
    simulate a different result.  See README.md.
    """
    scenarios = import_program()
    workload = scenarios.WORKLOADS[workload_name]
    inputs = workload.generate(seed)
    setups = setup_times(workload, inputs, seed)
    if not traced:
        requests, meter = run_once(workload, inputs, seed)
        return {
            "digest": digest(requests), "attempted": len(requests),
            "failed": sum(1 for r in requests if r.status != "ok"),
            "setup_s": setups, "events": meter.samples[-1][0],
            "samples": meter.samples, "rss_mb": peak_rss_mb(),
            **sim_outcome(workload, requests),
        }
    tracer, scenario, requests, wall_s, preset_s = traced_run(
        workload, inputs, seed)
    metrics = per_layer(tracer, scenario, requests, preset_s)
    metrics["trace.overhead_ratio"] = wall_s / untraced_wall_s
    result = {
        "digest": digest(requests), "attempted": len(requests),
        "failed": sum(1 for r in requests if r.status != "ok"),
        "per_layer": metrics, "events_by_source": tracer.events_by_source(),
    }
    result["trace"] = write_trace(workload_name, seed, result["digest"],
                                  tracer, wall_s, metrics)
    return result


class RunFailed(Exception):
    """A worker failed: a correctness check or the program itself."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


#: Past this many seconds a run stops its worker and fails.
RUN_DEADLINE_S = 170.0


def spawn(workload: str, seed: int, deadline: float, traced: bool = False,
          untraced_wall_s: float = 0.0) -> dict:
    """Run one worker to completion and return its result.

    ``deadline`` is a ``time.monotonic()`` instant: a worker still
    running then is killed (and waited for) and the run fails.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--worker", "traced" if traced else "plain",
               "--untraced-wall", repr(untraced_wall_s)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(1, f"run passed its {RUN_DEADLINE_S:.0f}s "
                           f"deadline") from None
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr.strip())
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Budget seconds per stream execution, per workload: ``--seconds``
#: buys ``seconds / STREAM_SECONDS`` executions.  ``fault_storm``
#: streams are longer because each holds one drain and one crash per
#: rack, which would dominate a short stream's tail.
STREAM_SECONDS = {"llm_serve": 5.0, "tenant_mix": 5.0, "fault_storm": 7.5}

#: Executions of each stream the host metrics are measured on.
EXECUTIONS = 2

#: Slices of the event sequence over which the executions of one
#: stream are compared (see ``floor_cost``).
SLICES = 200


def plan(workload: str, seed: int,
         seconds: float) -> typing.Tuple[typing.List[int], int]:
    """The input streams of one run and how many of them are measured.

    Fixed by ``--seed`` and ``--seconds`` alone, never by how fast the
    host is, so the simulated metrics of a run are exact.  About a
    third of the executions the budget buys (at least one) go to
    further executions of the first streams, which the host metrics
    are measured on; the rest run one stream each.
    """
    executions = min(32, max(2, round(seconds / STREAM_SECONDS[workload])))
    measured = max(1, round(executions / 3))
    streams = max(measured, executions - (EXECUTIONS - 1) * measured)
    return [16 * seed + k for k in range(streams)], measured


def _at(samples: typing.Sequence[typing.Sequence[float]],
        events: typing.Sequence[int], e: float) -> typing.Tuple[float, float]:
    """(cpu s, wall s) when the run had processed ``e`` events, by linear
    interpolation between the two progress samples around it."""
    i = bisect.bisect_left(events, e)
    if i == 0:
        return samples[0][1], samples[0][2]
    (e0, c0, w0), (e1, c1, w1) = samples[i - 1], samples[i]
    f = (e - e0) / (e1 - e0) if e1 > e0 else 1.0
    return c0 + f * (c1 - c0), w0 + f * (w1 - w0)


def floor_cost(runs: typing.Sequence[dict]) -> typing.Tuple[float, float]:
    """(cpu s, wall s) of one stream with the host's noise taken out.

    ``runs`` are executions of the same stream in fresh interpreters, so
    they process the same events in the same order.  The event sequence
    is cut into ``SLICES`` equal slices; each slice costs what its
    cheapest execution spent on it, and the stream costs the sum.  A
    neighbour's burst on a shared host only ever adds time, and it
    rarely hits the same slice of two executions made seconds apart.
    """
    total = runs[0]["events"]
    curves = []
    for run in runs:
        samples = run["samples"]
        events = [e for e, _, _ in samples]
        curves.append([_at(samples, events, total * k / SLICES)
                       for k in range(SLICES)] + [samples[-1][1:]])
    cpu = wall = 0.0
    for k in range(SLICES):
        cpu += min(c[k + 1][0] - c[k][0] for c in curves)
        wall += min(c[k + 1][1] - c[k][1] for c in curves)
    return cpu, wall


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> typing.Tuple[typing.List[dict], dict]:
    """One worker per stream, then either the further executions of the
    measured streams or the traced worker on the first stream."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    seeds, measured = plan(workload, seed, seconds)
    reps = [spawn(workload, s, deadline) for s in seeds]
    if trace:
        first = reps[0]
        traced = spawn(workload, seeds[0], deadline, traced=True,
                       untraced_wall_s=first["samples"][-1][2])
        if traced["digest"] != first["digest"]:
            raise RunFailed(1, f"tracing changed the simulated result "
                               f"({traced['digest']} != {first['digest']})")
        return reps, traced
    runs = [[r] for r in reps[:measured]]
    for _ in range(EXECUTIONS - 1):
        for stream, same in zip(seeds, runs):
            again = spawn(workload, stream, deadline)
            if (again["digest"], again["events"]) != (same[0]["digest"],
                                                      same[0]["events"]):
                raise RunFailed(1, f"two executions of stream {stream} "
                                   f"simulated different results")
            same.append(again)
    costs = [floor_cost(same) for same in runs]
    extra = [r for same in runs for r in same[1:]]
    metrics = {
        "req_per_wall_s": (sum(same[0]["attempted"] - same[0]["failed"]
                               for same in runs)
                           / sum(wall for _, wall in costs)),
        "cpu_ms_per_req": (1e3 * sum(cpu for cpu, _ in costs)
                           / sum(same[0]["attempted"] for same in runs)),
        "setup_s": statistics.median(
            t for r in reps + extra for t in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps + extra),
    }
    metrics.update(sim_metrics(reps))
    return reps, {"metrics": metrics}


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--untraced-wall", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        try:
            result = worker(args.workload, args.seed,
                            args.worker == "traced", args.untraced_wall)
        except SetupError as exc:
            print(f"scenario_bench: cannot run: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        return 0

    workloads = tuple(STREAM_SECONDS)
    try:
        check_benchmark_json()
        if not os.path.isdir(os.path.join(SRC, "repro")):
            raise SetupError(f"no program sources under {SRC}")
        if args.workload not in workloads:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads)}")
    except SetupError as exc:
        print(f"scenario_bench: cannot run: {exc}", file=sys.stderr)
        return 2
    try:
        reps, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except RunFailed as exc:
        print(f"scenario_bench: {args.workload} seed {args.seed} failed:\n"
              f"{exc}", file=sys.stderr)
        return exc.code or 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    combined = hashlib.sha256(
        " ".join(r["digest"] for r in reps).encode()).hexdigest()[:16]
    print(f"{args.workload} seed={args.seed} streams={len(reps)} "
          f"requests={attempted} failed={failed} digest={combined} "
          f"(streams: {' '.join(r['digest'] for r in reps)})")
    if args.trace:
        metrics = result["per_layer"]
        units = {n: u for n, u, _ in PER_LAYER}
        print(f"traced stream 0 digest={result['digest']} "
              f"trace={result['trace']}")
        print("events by source (timeouts, processes made):")
        for row in result["events_by_source"][:8]:
            print(f"  {row['source']:<24} {row['timeouts']:>10} "
                  f"{row['processes']:>8}")
    else:
        metrics = result["metrics"]
        units = {n: u for n, u, _, _ in END_TO_END}
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

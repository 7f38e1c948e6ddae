"""Per-layer tracing from outside the program.

:class:`Tracer` wraps each layer's public entry points (class methods,
patched for the duration of one traced run and restored afterwards)
and keeps, at every wrapped boundary:

* a span per call — layer, entry point, request id, start, duration and
  the index of the span that caused it — kept in memory and written
  out at the end; ``Engine.step`` (one call per event) and
  ``Engine.run`` (its loop) are the exception: they only feed counters
  and the self-time stack, never the span list, so trace memory stays
  bounded by the layer calls;
* self time per layer: a call's duration minus the time its wrapped
  child calls cover.  Code no wrapped boundary covers (process bodies
  the engine resumes) stays with ``sim.engine``, as the remainder of
  the root span;
* events by source: each ``Engine.timeout``/``Engine.process`` call is
  counted under the name of the process that made it, with request
  and device indices stripped (``llm-wait``, ``rack-sampler``,
  ``federation:drain``, ``task#backup``, ...).

An entry point the program no longer has is listed in ``unwrapped``
instead of failing the run, so a refactor inside one layer cannot break
the benchmark; its layer then reads as zero.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import inspect
import re
import time
import typing

ENGINE = "sim.engine"

#: (layer, module, class, method): the wrapped public entry points.
ENTRY_POINTS = (
    ("sim.flows", "repro.sim.flows", "FlowNetwork", "transfer"),
    ("runtime.admission", "repro.runtime.admission", "RackDriver",
     "submit_job"),
    ("runtime.scheduler", "repro.runtime.scheduler", "HeftScheduler",
     "assign"),
    ("runtime.placement", "repro.runtime.placement", "PlacementPolicy",
     "place"),
    ("runtime.transfer", "repro.runtime.transfer", "HandoverManager",
     "hand_over"),
    ("runtime.health", "repro.runtime.health", "HealthMonitor",
     "observe_latency"),
    ("runtime.health", "repro.runtime.health", "HealthMonitor",
     "observe_transfer"),
    ("memory", "repro.memory.manager", "MemoryManager", "allocate_on"),
    ("memory", "repro.memory.manager", "MemoryManager", "free"),
    ("memory", "repro.memory.sharing", "SharedRegionCache", "acquire"),
    ("memory", "repro.memory.sharing", "SharedRegionCache", "release"),
    ("memory", "repro.memory.sharing", "SharedRegionCache", "insert"),
    ("apps.llm", "repro.apps.llm_exec", "LLMEngine", "serve"),
    ("federation", "repro.federation.router", "Router", "route"),
    ("obs.telemetry", "repro.obs.telemetry", "TelemetryHub", "poll"),
    ("obs.telemetry", "repro.obs.telemetry", "AlertEngine", "evaluate"),
    ("obs.telemetry", "repro.obs.telemetry", "AlertEngine", "sweep"),
    ("hardware", "repro.hardware.cluster", "Cluster", "preset"),
)

LAYERS = (ENGINE,) + tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))

#: Entry points whose first argument names the request they serve.
_NAMED_BY_ARG = {"RackDriver.submit_job", "Router.route"}

_INDEX = re.compile(r"-\d+$")


def source_of(process_name: typing.Optional[str]) -> str:
    """The event source a process name belongs to.

    Task processes (``job/task[#role]``) collapse to ``task[#role]``;
    other names keep their leading component with a trailing ``-<n>``
    index stripped, plus any later ``:``-component that names no
    particular rack, device or request (those contain digits).
    """
    if process_name is None:
        return "(callback)"
    base, _, role = process_name.partition("#")
    if "/" in base:
        base = "task"
    else:
        parts = [_INDEX.sub("", p) for p in base.split(":")]
        base = ":".join(
            [parts[0]] + [p for p in parts[1:]
                          if p and not any(c.isdigit() for c in p)]
        )
    return f"{base}#{role}" if role else base


def _request_of(process_name: typing.Optional[str]) -> str:
    """The request a process works for: the job of a task process."""
    if process_name is None:
        return "-"
    base = process_name.partition("#")[0]
    return base.partition("/")[0] if "/" in base else base


class Tracer:
    """Wraps the layers' entry points and accounts time per layer."""

    def __init__(self):
        self._patches: typing.List[tuple] = []
        self.unwrapped: typing.List[str] = []
        self._sources: typing.Dict[typing.Optional[str], str] = {}
        #: The engine whose active process names the request of a span.
        self.engine = None
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (patches stay installed)."""
        self.origin = time.perf_counter()
        #: [child seconds, index of the nearest stored span]
        self._stack: typing.List[list] = []
        self.spans: typing.List[typing.Optional[tuple]] = []
        self.self_s: typing.Dict[str, float] = collections.defaultdict(float)
        self.inclusive_s: typing.Dict[str, float] = collections.defaultdict(
            float)
        self.calls: typing.Counter = collections.Counter()
        self.errors: typing.Counter = collections.Counter()
        self.steps = 0
        self.timeouts: typing.Counter = collections.Counter()
        self.processes: typing.Counter = collections.Counter()
        self.transfer_bytes = 0.0
        #: Self seconds of each RackDriver.submit_job call, in call order.
        self.submit_self_s: typing.List[float] = []
        self.root_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point that exists; remember the originals."""
        from repro.sim.engine import Engine

        self._patch(Engine, "step", self._wrap_engine(Engine.step, True))
        self._patch(Engine, "run", self._wrap_engine(Engine.run, False))
        self._patch(Engine, "timeout",
                    self._wrap_source(Engine.timeout, "timeouts"))
        self._patch(Engine, "process",
                    self._wrap_source(Engine.process, "processes"))
        for layer, module_name, class_name, method in ENTRY_POINTS:
            entry = f"{class_name}.{method}"
            try:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                raw = cls.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                self.unwrapped.append(entry)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, entry, raw.__func__))
            else:
                wrapped = self._wrap(layer, entry, raw)
            self._patch(cls, method, wrapped)

    def uninstall(self) -> None:
        """Restore every patched method."""
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        self._patches.clear()

    def _patch(self, cls, name: str, replacement) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    # -- wrappers -------------------------------------------------------------

    def _enter(self) -> list:
        stack = self._stack
        frame = [0.0, stack[-1][1] if stack else -1]
        stack.append(frame)
        return frame

    def _leave(self, layer: str, frame: list, duration: float) -> float:
        stack = self._stack
        stack.pop()
        own = duration - frame[0]
        self.self_s[layer] += own
        if stack:
            stack[-1][0] += duration
        return own

    def _wrap_engine(self, method, counts_events: bool):
        """``Engine.step``/``run``: engine time, counted but no span."""
        clock = time.perf_counter

        def traced(engine, *args, **kwargs):
            frame = self._enter()
            start = clock()
            try:
                return method(engine, *args, **kwargs)
            finally:
                self._leave(ENGINE, frame, clock() - start)
                if counts_events:
                    self.steps += 1

        return traced

    def _wrap_source(self, factory, counter_name: str):
        sources = self._sources

        def traced(engine, *args, **kwargs):
            counter = getattr(self, counter_name)
            process = engine.active_process
            name = process.name if process is not None else None
            source = sources.get(name)
            if source is None:
                source = sources[name] = source_of(name)
            counter[source] += 1
            return factory(engine, *args, **kwargs)

        return traced

    def _wrap(self, layer: str, entry: str, fn):
        clock = time.perf_counter
        named_by_arg = entry in _NAMED_BY_ARG
        is_transfer = entry == "FlowNetwork.transfer"
        is_submit = entry == "RackDriver.submit_job"

        def request_id(args) -> str:
            if named_by_arg and len(args) > 1:
                return str(args[1])
            engine = self.engine
            process = engine.active_process if engine is not None else None
            return _request_of(process.name if process is not None else None)

        def span(start: float, duration: float, rid: str, parent: int,
                 index: int) -> None:
            self.spans[index] = (layer, entry, rid, start - self.origin,
                                 duration, parent)

        def call(args, kwargs, run):
            self.calls[entry] += 1
            if is_transfer:
                nbytes = args[2] if len(args) > 2 else kwargs.get("nbytes", 0)
                self.transfer_bytes += float(nbytes)
            rid = request_id(args)
            frame = self._enter()
            parent = frame[1]
            index = frame[1] = len(self.spans)
            self.spans.append(None)
            start = clock()
            try:
                return run()
            except StopIteration:
                raise  # a wrapped generator finishing, not an error
            except Exception:
                self.errors[entry] += 1
                raise
            finally:
                duration = clock() - start
                own = self._leave(layer, frame, duration)
                self.inclusive_s[entry] += duration
                span(start, duration, rid, parent, index)
                if is_submit:
                    self.submit_self_s.append(own)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                generator = fn(*args, **kwargs)
                return (yield from self._resumes(layer, entry, generator,
                                                 call, args, kwargs))

            return traced_gen

        def traced(*args, **kwargs):
            return call(args, kwargs, lambda: fn(*args, **kwargs))

        return traced

    def _resumes(self, layer, entry, generator, call, args, kwargs):
        """Drive ``generator``, timing each resumption as one call."""
        value, error = None, None
        first = True
        while True:
            def resume():
                if error is not None:
                    return generator.throw(error)
                return generator.send(value)

            try:
                if first:
                    yielded = call(args, kwargs, resume)
                    first = False
                else:
                    yielded = self._timed(layer, resume)
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:
                # Thrown into the wrapped generator on the next resume.
                value, error = None, exc

    def _timed(self, layer: str, run):
        """Account one untallied stretch of ``layer`` work (no span)."""
        clock = time.perf_counter
        frame = self._enter()
        start = clock()
        try:
            return run()
        finally:
            self._leave(layer, frame, clock() - start)

    # -- sections ---------------------------------------------------------

    @contextlib.contextmanager
    def root(self):
        """The root span: whatever no layer claims is ``sim.engine``'s."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._leave(ENGINE, frame, duration)
            self.root_s += duration

    def share(self, layer: str) -> float:
        """``layer``'s self time as a fraction of the root span."""
        return self.self_s.get(layer, 0.0) / self.root_s if self.root_s else 0.0

    def events_by_source(self) -> typing.List[dict]:
        """Timeouts and processes made per source, busiest first."""
        names = set(self.timeouts) | set(self.processes)
        rows = [{"source": s, "timeouts": self.timeouts[s],
                 "processes": self.processes[s]} for s in names]
        rows.sort(key=lambda r: (-(r["timeouts"] + r["processes"]),
                                 r["source"]))
        return rows


"""Span-based tracing: nested timed scopes across abstraction layers.

A span is a named, timed scope with structured fields and a parent
link, forming the job → task → region/phase → device tree the paper's
Challenge 8(1) asks for.  Spans are emitted into the bounded
:class:`~repro.sim.trace.TraceLog` as *span-complete* events (one event
at close carrying ``begin`` and the span/parent ids), which maps 1:1
onto Chrome/Perfetto ``"X"`` duration events.

Two usage styles:

* scoped (single generator frame)::

      with obs.begin_span("placement", "decide", parent=task_span) as sp:
          ...
          if sp:
              sp.set(device=chosen, candidates=n)

* explicit begin/close (scope crosses simulation processes)::

      span = obs.begin_span("job", "run", job=name)
      ...
      span.set(ok=True)
      span.close()

When a span's category is disabled, :meth:`Observability.begin_span`
returns the shared :data:`NOOP_SPAN` — falsy, stateless, reentrant — so the
disabled path allocates nothing and call sites can guard field
construction with ``if sp:``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability


class _NoopSpan:
    """Shared do-nothing span for disabled categories."""

    __slots__ = ()

    id = 0
    closed = True

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **fields) -> None:
        pass

    def close(self, time: typing.Optional[float] = None) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One live timed scope; emits a span-complete event when closed."""

    __slots__ = ("obs", "category", "name", "fields", "begin", "id",
                 "parent_id", "closed")

    def __init__(
        self,
        obs: "Observability",
        category: str,
        name: str,
        fields: typing.Dict[str, object],
        parent: typing.Union["Span", int, None] = None,
    ):
        self.obs = obs
        self.category = category
        self.name = name
        self.fields = fields
        self.id = obs._next_span_id()
        if parent is None:
            stack = obs._stack
            self.parent_id = stack[-1].id if stack else 0
        elif isinstance(parent, int):
            self.parent_id = parent
        else:
            self.parent_id = parent.id
        self.begin = obs.now()
        self.closed = False

    def __bool__(self) -> bool:
        return True

    def set(self, **fields) -> None:
        """Attach/overwrite structured fields before the span closes."""
        self.fields.update(fields)

    def close(self, time: typing.Optional[float] = None) -> None:
        """Emit the span-complete event (idempotent).

        An explicit ``time`` earlier than ``begin`` is clamped to the
        begin time: a span can be empty, never negative (a negative
        duration renders as garbage in Chrome/Perfetto and corrupts
        per-bucket attribution downstream).
        """
        if self.closed:
            return
        self.closed = True
        end = self.obs.now() if time is None else time
        if end < self.begin:
            end = self.begin
        self.obs.trace.emit_span(
            end, self.category, self.name, self.fields,
            begin=self.begin, span_id=self.id, parent_id=self.parent_id,
        )

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        self.obs._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        # Remove *this* span (not a blind pop): interleaved simulation
        # processes may have pushed their own spans in the meantime.
        stack = self.obs._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        if exc is not None and "error" not in self.fields:
            self.fields["error"] = repr(exc)
        self.close()
        return False

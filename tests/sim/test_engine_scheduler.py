"""Ordering suite for the engine's event queue.

The engine keeps one binary heap of ``(time, priority, seq, event)``
entries (DESIGN.md §5.2).  Every test here checks the order it
processes events in against an independent oracle: a plain list of
everything scheduled so far, from which each step must take the entry
with the smallest ``(time, priority, seq)``.  When nothing is scheduled
while the queue drains, that is simply the schedule sorted by
``(time, priority, seq)``.  The scenarios cover the ordering rules the
rest of the simulator leans on: timestamp ties broken by priority and
then schedule order, URGENT before NORMAL, zero-delay self-reschedules,
same-instant bursts, far-future jumps, events at ``inf``, horizon
breaks in ``run(until=...)`` followed by later scheduling, and
``peek``/``queue_depth``.
"""

import random
from itertools import count

import pytest

from repro.sim import Engine
from repro.sim.engine import NORMAL, URGENT
from repro.sim.events import Event

INF = float("inf")


class Oracle:
    """Records every ``schedule`` call on ``engine`` in a plain list and
    checks that each ``step`` processes the smallest pending entry."""

    def __init__(self, engine):
        self.engine = engine
        self.pending = []
        #: ``(time, priority, seq)`` of each processed event, in order.
        self.processed = []
        self._seq = count()
        schedule, step = engine.schedule, engine.step

        def recording_schedule(event, delay=0.0, priority=NORMAL):
            schedule(event, delay, priority)
            self.pending.append(
                (engine.now + delay, priority, next(self._seq), event)
            )

        def checking_step():
            expected = min(self.pending, key=lambda e: e[:3])
            self.pending.remove(expected)
            assert not expected[3].processed
            step()
            assert expected[3].processed, "engine processed another event"
            assert engine.now == expected[0]
            self.processed.append(expected[:3])

        engine.schedule = recording_schedule
        engine.step = checking_step

    def scheduled_keys(self):
        return sorted(e[:3] for e in self.pending)


def _ready_event(engine):
    event = Event(engine)
    event._ok = True
    event._value = None
    return event


# -- a schedule made up front drains sorted -------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
def test_push_pop_total_order_matches_heap(seed):
    """Random (time, priority) entries, ties and ``inf`` included, all
    scheduled before the run: processed exactly in sorted order."""
    rng = random.Random(seed)
    engine = Engine()
    oracle = Oracle(engine)
    for _ in range(500):
        t = float(rng.choice([0, 1, 5, 10, 10, 1000, 10**6, 10**9, INF]))
        t += rng.random() * rng.choice([0.0, 1.0, 1e3])
        engine.schedule(_ready_event(engine), delay=t,
                        priority=rng.choice([URGENT, NORMAL, 3]))
    expected = oracle.scheduled_keys()
    engine.run()
    assert oracle.processed == expected
    assert engine.queue_depth == 0


@pytest.mark.parametrize("seed", [3, 17, 42])
def test_interleaved_push_pop_matches_heap(seed):
    """Steps interleaved with new schedules (never into the past): every
    step takes the oracle's minimum and ``peek`` always names it."""
    rng = random.Random(seed)
    engine = Engine()
    oracle = Oracle(engine)
    for _ in range(2000):
        if not oracle.pending or rng.random() < 0.55:
            engine.schedule(_ready_event(engine),
                            delay=float(rng.randrange(0, 10**6)),
                            priority=rng.choice([URGENT, NORMAL]))
        else:
            assert engine.peek() == min(oracle.pending,
                                        key=lambda e: e[:3])[0]
            engine.step()
    assert engine.queue_depth == len(oracle.pending)
    assert oracle.processed == sorted(oracle.processed)


def test_same_timestamp_burst_drains_in_seq_order():
    """20k events at one instant, scheduled in one burst: they drain in
    schedule order (checked by callback; the list oracle is quadratic)."""
    engine = Engine()
    order = []
    for i in range(20000):
        event = _ready_event(engine)
        event.callbacks.append(lambda ev, i=i: order.append(i))
        engine.schedule(event)
    engine.run()
    assert order == list(range(20000))
    assert engine.now == 0.0


def test_sparse_far_future_jump():
    """A 1e15-ns gap between two clusters of events loses nothing."""
    engine = Engine()
    oracle = Oracle(engine)
    for i in range(50):
        engine.schedule(_ready_event(engine), delay=float(i))
    for i in range(50):
        engine.schedule(_ready_event(engine), delay=1e15 + i)
    expected = oracle.scheduled_keys()
    engine.run()
    assert oracle.processed == expected
    assert engine.now == 1e15 + 49


# -- ties, priorities, zero delays, inf ------------------------------------


def test_tie_order_priority_then_sequence():
    """Same-instant events: URGENT first, then schedule order."""
    engine = Engine()
    trace = []
    for tag in "abc":
        event = _ready_event(engine)
        event.callbacks.append(
            lambda ev, tag=tag: trace.append((engine.now, tag))
        )
        engine.schedule(event, delay=50.0,
                        priority=URGENT if tag == "b" else NORMAL)
    engine.run()
    assert trace == [(50.0, "b"), (50.0, "a"), (50.0, "c")]


def test_zero_delay_self_reschedule_runs_same_instant():
    """yield timeout(0) re-enters the queue at now and runs before later
    events."""
    engine = Engine()
    Oracle(engine)
    trace = []

    def bouncer():
        for i in range(5):
            trace.append(("bounce", i, engine.now))
            yield engine.timeout(0.0)

    def later():
        yield engine.timeout(1.0)
        trace.append(("later", engine.now))

    engine.process(bouncer())
    engine.process(later())
    engine.run()
    assert trace[:5] == [("bounce", i, 0.0) for i in range(5)]
    assert trace[-1] == ("later", 1.0)


def test_urgent_scheduled_at_now_runs_next():
    """An URGENT event scheduled at ``now`` from inside a NORMAL event
    overtakes the NORMAL events already waiting at that instant."""
    engine = Engine()
    trace = []

    def note(tag):
        return lambda ev: trace.append(tag)

    first = _ready_event(engine)
    first.callbacks.append(note("first"))

    def ping(ev):
        urgent = _ready_event(engine)
        urgent.callbacks.append(note("urgent"))
        engine.schedule(urgent, priority=URGENT)

    first.callbacks.append(ping)
    second = _ready_event(engine)
    second.callbacks.append(note("second"))
    engine.schedule(first, delay=5.0)
    engine.schedule(second, delay=5.0)
    engine.run()
    assert trace == ["first", "urgent", "second"]


def test_infinity_entries_park_and_drain_last():
    """Events at ``inf`` wait behind every finite one, URGENT first."""
    engine = Engine()
    oracle = Oracle(engine)
    for delay, priority in ((INF, NORMAL), (5.0, NORMAL), (INF, URGENT)):
        engine.schedule(_ready_event(engine), delay=delay, priority=priority)
    assert engine.peek() == 5.0
    engine.run()
    assert oracle.processed == [(5.0, NORMAL, 1), (INF, URGENT, 2),
                                (INF, NORMAL, 0)]
    assert engine.now == INF


def test_infinity_push_refreshes_cached_min():
    """An URGENT inf entry scheduled after an inf entry was peeked runs
    first: a peek leaves nothing behind that the next push could stale."""
    engine = Engine()
    oracle = Oracle(engine)
    engine.schedule(_ready_event(engine), delay=INF)
    assert engine.peek() == INF
    engine.schedule(_ready_event(engine), delay=INF, priority=URGENT)
    assert engine.peek() == INF
    engine.run()
    assert [key[2] for key in oracle.processed] == [1, 0]


# -- seeded random interleavings -------------------------------------------


@pytest.mark.parametrize("seed", [11, 29, 61])
def test_random_interleaving_traces_identical(seed):
    """Seeded process soup: timer churn, ties, zero delays, URGENT pings
    from inside running events and far jumps, each step checked against
    the oracle."""
    rng = random.Random(seed)
    engine = Engine()
    oracle = Oracle(engine)
    trace = []

    def worker(wid):
        for r in range(rng.randrange(3, 12)):
            delay = float(rng.choice([0, 0, 1, 7, 100, 10**4, 10**7]))
            yield engine.timeout(delay)
            trace.append(engine.now)
            if rng.random() < 0.2:
                engine.schedule(_ready_event(engine), priority=URGENT)

    for wid in range(40):
        engine.process(worker(wid))
    engine.run()
    assert not oracle.pending
    assert trace == sorted(trace)
    assert engine.events_processed == len(oracle.processed)


def test_schedule_after_horizon_break_preserves_order():
    """run(until=...) breaks on a peek beyond the horizon without
    processing; work scheduled afterwards at earlier (legal, t >= now)
    times must still fire first, with a monotone clock."""
    engine = Engine()
    Oracle(engine)
    trace = []
    far = engine.timeout(1000.5)
    far.callbacks.append(lambda ev: trace.append(engine.now))
    engine.run(until=100.0)
    assert engine.now == 100.0
    for delay in (60.0, 61.0):  # fires at t=160, t=161
        tmo = engine.timeout(delay)
        tmo.callbacks.append(lambda ev: trace.append(engine.now))
    engine.run()
    assert trace == [160.0, 161.0, 1000.5]


@pytest.mark.parametrize("seed", [5, 13, 37])
def test_random_horizon_breaks_with_late_scheduling(seed):
    """Interleave run(until=horizon) breaks with scheduling work that
    lands before the queue's current next event: every step matches the
    oracle and the clock never goes backwards."""
    rng = random.Random(seed)
    engine = Engine()
    oracle = Oracle(engine)
    trace = []

    def note(ev):
        trace.append(engine.now)

    # A sparse far-future backbone so peeks overshoot horizons.
    for i in range(10):
        engine.timeout(float(10**4 * (i + 1)) + 0.5).callbacks.append(note)
    for _ in range(200):
        horizon = engine.now + float(rng.randrange(1, 5000))
        engine.run(until=horizon)
        assert engine.now == horizon
        for _ in range(rng.randrange(0, 4)):
            engine.timeout(float(rng.randrange(0, 3000))).callbacks.append(note)
    engine.run()
    assert trace == sorted(trace)
    assert not oracle.pending


# -- the engine surface ----------------------------------------------------


def test_peek_and_queue_depth_track_schedule():
    engine = Engine()
    assert engine.peek() == INF
    assert engine.queue_depth == 0
    engine.timeout(30.0)
    engine.timeout(10.0)
    engine.timeout(20.0)
    assert engine.queue_depth == 3
    assert engine.peek() == 10.0
    engine.step()
    assert engine.now == 10.0
    assert engine.peek() == 20.0
    assert engine.queue_depth == 2


def test_run_until_stops_at_horizon():
    engine = Engine()
    hits = []

    def proc():
        while True:
            yield engine.timeout(10.0)
            hits.append(engine.now)

    engine.process(proc())
    engine.run(until=55.0)
    assert hits == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert engine.now == 55.0


def test_rejects_past_schedules_and_horizons():
    engine = Engine(start=10.0)
    with pytest.raises(ValueError):
        engine.schedule(_ready_event(engine), delay=-1.0)
    with pytest.raises(ValueError):
        engine.run(until=5.0)


def test_engine_rejects_unknown_scheduler():
    """The engine has one queue: its only argument is the start time, so
    a queue name in the old second position is refused."""
    assert Engine(start=3.0).now == 3.0
    with pytest.raises(TypeError):
        Engine(0.0, "calendar")

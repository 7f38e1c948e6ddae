"""Tests: the bisecting ``WindowedSeries.sum_over`` equals a full scan.

Burn-rate alerts call ``sum_over`` on every sweep, so it finds the first
overlapping window by bisection instead of scanning every retained
window.  It must still add windows oldest first, so the sums stay
bit-identical to the scan below.
"""

import random

import pytest

from repro.obs.telemetry import WindowedSeries


def full_scan(series, since, until):
    """The reference: visit every retained window, oldest first."""
    total = 0.0
    count = 0
    for window in series.windows():
        start = window.index * series.width
        if start + series.width <= since or start > until:
            continue
        total += window.weighted if series.kind == "level" else window.total
        count += window.count
    return total, count


def bits(answer):
    total, count = answer
    return total.hex(), count


def random_series(rng, kind):
    width = rng.choice([1.0, 7.3, 0.1, 100.0, 1e5 / 3])
    series = WindowedSeries("s", width_ns=width, kind=kind,
                            max_windows=rng.choice([1, 3, 16, 256]))
    t = rng.uniform(0.0, 5 * width)
    for _ in range(rng.randrange(1, 400)):
        roll = rng.random()
        if roll < 0.05:
            t += width * rng.uniform(20, 600)  # gap, maybe past retention
        elif roll < 0.4:
            t += width * rng.uniform(0.5, 3.0)  # a few empty windows
        else:
            t += width * rng.uniform(0.0, 0.4)
        value = rng.uniform(-5.0, 50.0)
        if kind == "sample":
            series.observe(t, value)
        elif kind == "rate":
            series.add(t, value)
        else:
            series.record_level(t, value)
    return series


def queries(rng, series):
    windows = series.windows()
    oldest = windows[0].index * series.width
    newest = (windows[-1].index + 1) * series.width
    span = newest - oldest
    edges = [oldest, newest, oldest - series.width, newest + series.width]
    for _ in range(40):
        since = rng.choice([
            rng.uniform(oldest - span, newest + span),
            rng.choice(edges),
            oldest - 10 * span,  # before the oldest retained window
            newest + 10 * span,  # after the newest
        ])
        until = since + rng.choice([0.0, series.width, rng.uniform(0, 2 * span)])
        yield since, until
    yield newest, oldest  # an empty (inverted) interval


@pytest.mark.parametrize("kind", ["sample", "rate", "level"])
@pytest.mark.parametrize("seed", range(12))
def test_sum_over_equals_full_scan_bit_for_bit(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    series = random_series(rng, kind)
    for since, until in queries(rng, series):
        assert bits(series.sum_over(since, until)) == bits(
            full_scan(series, since, until)
        ), (since, until)


def test_dropped_windows_and_gaps_are_covered():
    series = WindowedSeries("s", width_ns=10.0, kind="rate", max_windows=4)
    series.add(0.0, 1.0)
    series.add(25.0, 2.0)  # one empty gap window
    series.add(10_000.0, 3.0)  # a jump that drops everything before
    assert series.dropped > 0
    assert [w.index for w in series.windows()] == list(range(996, 1001))
    for since, until in [(0.0, 20.0), (9_950.0, 10_000.0),
                         (10_005.0, 10_005.0), (20_000.0, 30_000.0)]:
        assert bits(series.sum_over(since, until)) == bits(
            full_scan(series, since, until))
    assert series.sum_over(0.0, 20.0) == (0.0, 0)
    assert series.sum_over(9_950.0, 10_001.0) == (3.0, 1)


def test_empty_series_sums_to_zero():
    series = WindowedSeries("s", width_ns=10.0, kind="rate")
    assert series.sum_over(0.0, 100.0) == (0.0, 0)

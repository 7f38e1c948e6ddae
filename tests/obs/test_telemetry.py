"""Continuous telemetry: windowed series, burn alerts, sampled hotness."""

import random

import pytest

from repro.obs import Observability
from repro.obs.metrics import LATENCY_BOUNDS_NS
from repro.obs.slo import SloPolicy
from repro.obs.telemetry import (
    BurnRateRule,
    SampledHotness,
    TelemetryHub,
    WindowedSeries,
)
from repro.sim.engine import Engine


class TestWindowedSeriesSample:
    def test_deterministic_window_boundaries(self):
        s = WindowedSeries("s", width_ns=100.0)
        assert s.window_index(0.0) == 0
        assert s.window_index(99.999) == 0
        assert s.window_index(100.0) == 1
        assert s.window_index(250.0) == 2

    def test_per_window_count_mean_min_max(self):
        s = WindowedSeries("s", width_ns=100.0)
        s.observe(10.0, 5.0)
        s.observe(20.0, 15.0)
        s.observe(150.0, 100.0)
        stats = [s.window_stats(w) for w in s.windows()]
        assert [st["index"] for st in stats] == [0, 1]
        assert stats[0]["count"] == 2
        assert stats[0]["mean"] == pytest.approx(10.0)
        assert stats[0]["min"] == 5.0 and stats[0]["max"] == 15.0
        assert stats[1]["count"] == 1 and stats[1]["mean"] == 100.0

    def test_in_window_p95_from_log_buckets(self):
        s = WindowedSeries("lat", width_ns=1e6, bounds=LATENCY_BOUNDS_NS)
        for _ in range(95):
            s.observe(0.0, 2_000.0)
        for _ in range(5):
            s.observe(0.0, 1_000_000.0)
        stats = s.window_stats(s.windows()[0])
        # p95 lands at the boundary between the bulk and the tail.
        assert 1_500.0 <= stats["p95"] <= 1_100_000.0
        assert stats["p95"] < stats["max"] * 1.01

    def test_time_backwards_across_windows_raises(self):
        s = WindowedSeries("s", width_ns=100.0)
        s.observe(500.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            s.observe(100.0, 1.0)

    def test_kind_mismatch_raises(self):
        s = WindowedSeries("s", width_ns=100.0, kind="sample")
        with pytest.raises(TypeError):
            s.add(0.0, 1.0)
        with pytest.raises(TypeError):
            s.record_level(0.0, 1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WindowedSeries("s", width_ns=0.0)
        with pytest.raises(ValueError):
            WindowedSeries("s", width_ns=10.0, kind="bogus")
        with pytest.raises(ValueError):
            WindowedSeries("s", width_ns=10.0, max_windows=0)


class TestWindowedSeriesLevel:
    def test_dwell_split_exactly_at_boundaries(self):
        s = WindowedSeries("q", width_ns=100.0, kind="level")
        s.record_level(0.0, 4.0)   # level 4 from t=0
        s.record_level(150.0, 0.0)  # drops at t=150
        s.record_level(200.0, 0.0)  # close window 1
        stats = [s.window_stats(w) for w in s.windows()]
        # Window 0: level 4 the whole 100ns -> mean 4.
        assert stats[0]["mean"] == pytest.approx(4.0)
        # Window 1: 4 for 50ns, 0 for 50ns -> mean 2.
        assert stats[1]["mean"] == pytest.approx(2.0)

    def test_gap_windows_carry_the_standing_level(self):
        s = WindowedSeries("q", width_ns=100.0, kind="level")
        s.record_level(0.0, 3.0)
        s.record_level(350.0, 3.0)  # no change, just advance time
        stats = [s.window_stats(w) for w in s.windows()]
        assert [st["mean"] for st in stats[:3]] == pytest.approx(
            [3.0, 3.0, 3.0]
        )

    def test_adjust_shifts_the_level(self):
        s = WindowedSeries("q", width_ns=100.0, kind="level")
        s.adjust(0.0, 2.0)
        s.adjust(50.0, -1.0)
        assert s.level == 1.0
        s.record_level(100.0, 1.0)
        first = s.window_stats(s.windows()[0])
        assert first["mean"] == pytest.approx(1.5)  # 2 for 50ns, 1 for 50ns


class TestWindowedSeriesRate:
    def test_rate_is_total_over_width(self):
        s = WindowedSeries("bytes", width_ns=100.0, kind="rate")
        s.add(10.0, 400.0)
        s.add(90.0, 600.0)
        stats = s.window_stats(s.windows()[0])
        assert stats["total"] == 1000.0
        assert stats["rate"] == pytest.approx(10.0)

    def test_gap_synthesizes_zero_windows(self):
        s = WindowedSeries("bytes", width_ns=100.0, kind="rate")
        s.add(10.0, 1.0)
        s.add(410.0, 1.0)
        stats = [s.window_stats(w) for w in s.windows()]
        assert [st["index"] for st in stats] == [0, 1, 2, 3, 4]
        assert [st["total"] for st in stats[1:4]] == [0.0, 0.0, 0.0]
        assert s.dropped == 0


class TestWindowedSeriesBounds:
    def test_retention_is_bounded_and_drops_counted(self):
        s = WindowedSeries("s", width_ns=10.0, max_windows=4)
        for i in range(10):
            s.observe(i * 10.0, 1.0)
        assert len(s.closed) == 4
        assert s.dropped == 5  # 9 closed windows, 4 retained
        assert len(s.windows()) == 5  # + the open one

    def test_huge_time_jump_materializes_bounded_gap(self):
        s = WindowedSeries("s", width_ns=1.0, max_windows=8, kind="rate")
        s.add(0.0, 1.0)
        s.add(1_000_000.0, 1.0)  # a million-window jump
        assert len(s.windows()) <= 9
        # Everything not materialized is accounted for.
        assert s.dropped >= 1_000_000 - 10

    def test_sum_over_is_window_aligned(self):
        s = WindowedSeries("s", width_ns=100.0, kind="rate")
        s.add(50.0, 1.0)
        s.add(150.0, 2.0)
        s.add(250.0, 4.0)
        total, count = s.sum_over(100.0, 299.0)
        assert total == 6.0 and count == 2
        # An interval ending inside window 0 still includes all of it.
        assert s.sum_over(0.0, 10.0)[0] == 1.0
        assert s.sum_over(1_000.0, 2_000.0) == (0.0, 0)

    def test_memory_estimate_grows_with_retention(self):
        s = WindowedSeries("s", width_ns=10.0, max_windows=16)
        empty = s.memory_bytes()
        for i in range(8):
            s.observe(i * 10.0, 1.0)
        assert s.memory_bytes() > empty

    def test_snapshot_limit(self):
        s = WindowedSeries("s", width_ns=10.0)
        for i in range(6):
            s.observe(i * 10.0, 1.0)
        snap = s.snapshot(limit=3)
        assert len(snap["windows"]) == 3
        assert snap["windows"][-1]["index"] == 5


class TestHubWatchers:
    def test_watch_counter_folds_deltas(self):
        obs = Observability()
        counter = obs.counter("jobs.done")
        obs.telemetry.watch("jobs.done", lambda: counter.value)
        counter.inc(3)
        obs.telemetry.poll(100_000.0)
        counter.inc(5)
        obs.telemetry.poll(200_000.0)
        series = obs.telemetry.get_series("jobs.done")
        stats = [series.window_stats(w) for w in series.windows()]
        # The baseline is the value when the watch began; each delta
        # lands in the window before the boundary that folded it.
        assert [st["index"] for st in stats] == [0, 1]
        assert [st["total"] for st in stats] == [3.0, 5.0]

    def test_rewatching_same_series_does_not_double_fold(self):
        obs = Observability()
        counter = obs.counter("jobs.done")
        obs.telemetry.watch("jobs.done", lambda: counter.value)
        # e.g. a rebuilt runtime
        obs.telemetry.watch("jobs.done", lambda: counter.value)
        counter.inc(4)
        obs.telemetry.poll(100_000.0)
        series = obs.telemetry.get_series("jobs.done")
        assert series.window_stats(series.windows()[-1])["total"] == 4.0
        assert obs.telemetry.samples == 1

    def test_watch_gauge_samples_level(self):
        obs = Observability()
        gauge = obs.gauge("depth")
        gauge.set(2.0)
        samples = []
        obs.telemetry.watch("depth", lambda: gauge.value, kind="level",
                            sink=lambda t, v: samples.append((t, v)))
        obs.telemetry.poll(100_000.0)
        gauge.set(6.0)
        obs.telemetry.poll(200_000.0)
        obs.telemetry.poll(300_000.0)
        series = obs.telemetry.get_series("depth")
        means = {st["index"]: st["mean"]
                 for st in map(series.window_stats, series.windows())}
        assert means[1] == pytest.approx(2.0)
        assert means[2] == pytest.approx(6.0)
        assert samples == [(100_000.0, 2.0), (200_000.0, 6.0),
                           (300_000.0, 6.0)]

    def test_watch_rejects_sample_kind(self):
        with pytest.raises(ValueError, match="rate or level"):
            TelemetryHub().watch("x", lambda: 1.0, kind="sample")

    def test_series_kind_conflict_raises(self):
        hub = TelemetryHub()
        hub.series("x", "rate")
        with pytest.raises(TypeError, match="already registered"):
            hub.series("x", "level")

    def test_self_metering_exposed_via_registry(self):
        obs = Observability()
        obs.telemetry.record("x", 0.0, 1.0)
        snap = obs.registry.snapshot()
        assert snap["obs.telemetry.series"]["value"] == 1.0
        assert snap["obs.telemetry.samples"]["value"] == 1.0
        assert snap["obs.telemetry.memory_bytes"]["value"] > 0.0

    def test_data_round_trip_shape(self):
        obs = Observability()
        obs.telemetry.record("lat", 0.0, 5.0)
        data = obs.telemetry.data()
        assert data["series"]["lat"]["kind"] == "sample"
        assert data["self"]["samples"] == 1
        assert "alerts" in data and "hotness" in data


class TestClockFold:
    """The hub folds on the engine clock: a watch, not an event."""

    W = 1_000.0

    def _engine_hub(self):
        engine = Engine()
        obs = Observability(engine=engine)
        hub = obs.telemetry.configure(window_ns=self.W)
        return engine, obs, hub

    def test_rate_delta_lands_in_the_window_its_events_ran_in(self):
        engine, obs, hub = self._engine_hub()
        counter = obs.counter("ops")
        hub.watch("ops", lambda: counter.value)

        def worker():
            yield engine.timeout(100.0)
            counter.inc(3)  # window 0
            yield engine.timeout(1_400.0)
            counter.inc(5)  # window 1
            yield engine.timeout(2_000.0)

        engine.process(worker())
        engine.run()
        series = hub.get_series("ops")
        totals = {st["index"]: st["total"]
                  for st in map(series.window_stats, series.windows())}
        assert totals[0] == 3.0 and totals[1] == 5.0
        assert sum(totals.values()) == 8.0

    def test_idle_stretch_folds_in_one_call(self):
        def worker(engine):
            yield engine.timeout(10.0)
            yield engine.timeout(50 * self.W)

        bare = Engine()
        bare.process(worker(bare))
        bare.run()
        engine, obs, hub = self._engine_hub()
        hub.watch("depth", lambda: 7.0, kind="level")
        engine.process(worker(engine))
        engine.run()
        # One fold for the whole stretch, nothing put on the queue, and
        # the clock ends on the last event, not on a telemetry tick.
        assert hub.polls == 1
        assert engine.events_processed == bare.events_processed
        assert engine.now == 10.0 + 50 * self.W
        # The one sample at the first crossed boundary holds for the
        # whole stretch.
        hub.finalize(engine.now)
        series = hub.get_series("depth")
        windows = [series.window_stats(w) for w in series.windows()]
        assert [w["index"] for w in windows] == list(range(51))
        assert all(w["mean"] == pytest.approx(7.0) for w in windows[1:-1])

    def test_alert_closes_at_its_boundary_with_no_event_there(self):
        engine, obs, hub = self._engine_hub()
        obs.enable("alert")
        obs.slo.set_policy("web", target_ns=10.0, objective=0.9)
        hub.alerts.add_rule(BurnRateRule(
            "web", fast_ns=2 * self.W, slow_ns=4 * self.W,
            open_above=2.0, close_below=1.0, min_samples=5,
        ))

        def worker():
            yield engine.timeout(100.0)
            for _ in range(6):
                obs.slo.record("web", 50.0)  # all misses: 10x burn
            yield engine.timeout(20 * self.W)

        engine.process(worker())
        engine.run()
        [alert] = hub.alerts.log
        assert alert.opened_at == 100.0
        # The misses sit in window 0; the slow window ages them out at
        # the boundary 5W, where no event runs.
        assert alert.closed_at == 5 * self.W
        close = [e for e in obs.trace.events
                 if e.category == "alert" and e.name == "close"]
        assert [e.time for e in close] == [5 * self.W]
        span = [e for e in obs.trace.events
                if e.category == "alert" and e.name == "burn"]
        assert span[0].time == 5 * self.W

    def test_configure_moves_an_armed_cadence(self):
        engine = Engine()
        obs = Observability(engine=engine)
        samples = []
        obs.telemetry.watch("x", lambda: engine.now, kind="level",
                            sink=lambda t, v: samples.append(t))
        # Armed at the default width; narrowing re-arms the watch.
        obs.telemetry.configure(window_ns=250.0)

        def worker():
            for _ in range(10):
                yield engine.timeout(100.0)

        engine.process(worker())
        engine.run()
        assert samples == [250.0, 500.0, 750.0, 1000.0]

    def test_no_engine_means_no_watch(self):
        obs = Observability()
        obs.telemetry.watch("x", lambda: 1.0)
        assert obs.telemetry._armed is False


class TestSloFeedGating:
    def test_ad_hoc_workloads_get_no_series(self):
        obs = Observability()
        obs.slo.record("one-shot-job", 5_000.0)
        assert obs.telemetry.names() == []

    def test_policy_workloads_get_three_series(self):
        obs = Observability()
        obs.slo.set_policy("web", target_ns=10_000.0)
        obs.slo.record("web", 5_000.0)
        assert set(obs.telemetry.names()) == {
            "slo.total/web", "slo.missed/web", "slo.latency/web"
        }

    def test_rule_only_workloads_also_tracked(self):
        obs = Observability()
        obs.telemetry.alerts.add_rule(
            BurnRateRule("batch", fast_ns=1e5, slow_ns=1e6)
        )
        obs.slo.record("batch", 5_000.0)
        assert "slo.total/batch" in obs.telemetry


class _Clock:
    """A settable stand-in for the engine clock."""

    def __init__(self):
        self.now = 0.0

    def watch_clock(self, at, fn):
        """The hub's clock watch; these tests fold by calling ``poll``."""


def _feed(obs, workload, now, latency, n):
    obs.engine.now = now
    for _ in range(n):
        obs.slo.record(workload, latency)


class TestAlertEngine:
    W = 100_000.0  # hub default window

    def _obs(self):
        obs = Observability(engine=_Clock())
        obs.slo.set_policy("web", target_ns=10_000.0, objective=0.9)
        obs.telemetry.alerts.add_rule(BurnRateRule(
            "web", fast_ns=2 * self.W, slow_ns=10 * self.W,
            open_above=2.0, close_below=1.0, min_samples=5,
        ))
        return obs

    def test_opens_on_sustained_fast_and_slow_burn(self):
        obs = self._obs()
        # budget = 0.1; all-miss traffic burns at 10x in every window.
        _feed(obs, "web", 0.0, 50_000.0, 6)
        assert "web" in obs.telemetry.alerts.active
        assert obs.telemetry.alerts.opened == 1
        alert = obs.telemetry.alerts.active["web"]
        assert alert.open_fast > 2.0 and alert.open_slow > 2.0

    def test_min_samples_suppresses_blips(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 50_000.0, 4)  # all misses, but < 5 samples
        assert obs.telemetry.alerts.active == {}

    def test_clean_traffic_never_alerts(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 1_000.0, 50)
        obs.telemetry.poll(5 * self.W)
        assert obs.telemetry.alerts.opened == 0

    def test_closes_with_hysteresis_after_recovery(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 50_000.0, 6)
        assert "web" in obs.telemetry.alerts.active
        # Healthy traffic; once the bad window leaves both trailing
        # windows, burn drops to 0 and the alert closes.
        for i in range(1, 12):
            _feed(obs, "web", i * self.W, 1_000.0, 6)
        assert obs.telemetry.alerts.active == {}
        assert obs.telemetry.alerts.closed == 1
        closed = obs.telemetry.alerts.log[-1]
        assert closed.closed_at > closed.opened_at
        assert closed.peak_burn > 2.0

    def test_sweep_closes_when_traffic_stops(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 50_000.0, 6)
        assert "web" in obs.telemetry.alerts.active
        # No further observations: a poll far in the future finds no
        # samples in either window -> burns are None -> close.
        obs.telemetry.poll(50 * self.W)
        assert obs.telemetry.alerts.active == {}

    def test_open_close_recorded_as_spans_and_counters(self):
        obs = self._obs()
        obs.enable("alert")
        _feed(obs, "web", 0.0, 50_000.0, 6)
        for i in range(1, 12):
            _feed(obs, "web", i * self.W, 1_000.0, 6)
        events = [e for e in obs.trace.events if e.category == "alert"]
        names = [e.name for e in events]
        assert "open" in names and "close" in names and "burn" in names
        snap = obs.registry.snapshot()
        assert snap["telemetry.alerts_opened"]["value"] == 1.0
        assert snap["telemetry.alerts_closed"]["value"] == 1.0

    def test_finalize_closes_spans_but_keeps_alert_open(self):
        obs = self._obs()
        obs.enable("alert")
        _feed(obs, "web", 0.0, 50_000.0, 6)
        obs.telemetry.finalize(2 * self.W)
        # Still an active (unresolved) alert in the data...
        assert len(obs.telemetry.alerts.active) == 1
        # ...but its span closed with the still_open marker.
        spans = [e for e in obs.trace.events
                 if e.category == "alert" and e.begin is not None]
        assert spans and spans[0].fields.get("still_open") is True

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=1e6, slow_ns=1e5)  # fast > slow
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=1e5, slow_ns=1e6,
                         open_above=1.0, close_below=2.0)
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=0.0, slow_ns=1e6)
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=1e5, slow_ns=1e6, min_samples=0)


class TestSampledHotness:
    def test_every_nth_access_sampled_deterministically(self):
        sketch = SampledHotness(rate=4, k=8)
        for i in range(16):
            sketch.record_access("r", "dev", 100.0, float(i))
        assert sketch.seen == 16
        assert sketch.sampled == 4

    def test_weight_is_unbiased_in_expectation(self):
        sketch = SampledHotness(rate=4, k=8)
        for i in range(400):
            sketch.record_access("r", None, 100.0, 0.0)
        # 100 samples x (100 * 4) = 40000 = the true bytes touched.
        assert sketch.hotness("r") == pytest.approx(400 * 100.0)

    def test_space_saving_keeps_memory_bounded(self):
        sketch = SampledHotness(rate=1, k=4)  # capacity 8
        for i in range(1000):
            sketch.record_access(f"r{i}", None, 10.0, 0.0)
        assert len(sketch._regions) <= sketch.capacity
        assert sketch.evictions > 0
        assert sketch.memory_bytes() <= sketch.capacity * 2 * 120

    def test_heavy_hitters_survive_eviction_pressure(self):
        sketch = SampledHotness(rate=1, k=4)
        for round_ in range(50):
            sketch.record_access("hot", None, 1000.0, 0.0)
            sketch.record_access(f"cold{round_}", None, 1.0, 0.0)
        top = [key for key, _ in sketch.top(1)]
        assert top == ["hot"]

    def test_rate_one_matches_exact_decayed_sum(self):
        """Rate 1 with room for every key is exact full counting: each
        score equals the decayed sum of its accesses, recomputed here
        from the raw access log."""
        rng = random.Random(7)
        half_life = 1e4
        keys = list(range(20))
        tracker = SampledHotness(rate=1, k=len(keys) // 2,
                                 half_life_ns=half_life)
        log = []
        t = 0.0
        for _ in range(2000):
            t += rng.expovariate(1 / 50.0)
            key, nbytes = rng.choice(keys), rng.uniform(0.0, 4096.0)
            tracker.record(key, nbytes, t)
            log.append((key, nbytes, t))

        def oracle(key, now):
            return sum(b * 0.5 ** ((now - at) / half_life)
                       for k, b, at in log if k == key)

        now = t + 3e3
        expected = {key: oracle(key, now) for key in keys}
        assert tracker.evictions == 0
        for key in keys:
            assert tracker.hotness(key, now) == pytest.approx(
                expected[key], rel=1e-9)
        ranked = tracker.ranked(now)
        assert [k for k, _ in ranked] == sorted(
            keys, key=lambda k: -expected[k])
        tracker.forget(keys[0])
        assert tracker.hotness(keys[0], now) == 0.0
        with pytest.raises(ValueError):
            tracker.record(keys[1], -1.0, now)

    def test_decay_halves_score_per_half_life(self):
        sketch = SampledHotness(rate=1, k=4, half_life_ns=100.0)
        sketch.record_access("r", None, 1000.0, 0.0)
        assert sketch.hotness("r", 100.0) == pytest.approx(500.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SampledHotness(rate=0)
        with pytest.raises(ValueError):
            SampledHotness(k=0)
        with pytest.raises(ValueError):
            SampledHotness(half_life_ns=-1.0)


class TestHubConfigure:
    def test_window_width_applies_to_new_series(self):
        hub = TelemetryHub()
        hub.configure(window_ns=50.0)
        s = hub.series("x")
        assert s.width == 50.0

    def test_hotness_resize_replaces_sketch(self):
        hub = TelemetryHub()
        hub.configure(hotness_rate=8, hotness_k=4)
        assert hub.hotness.rate == 8 and hub.hotness.k == 4

    def test_invalid_configure(self):
        hub = TelemetryHub()
        with pytest.raises(ValueError):
            hub.configure(window_ns=0.0)
        with pytest.raises(ValueError):
            hub.configure(max_windows=0)

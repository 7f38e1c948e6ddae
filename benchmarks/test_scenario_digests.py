"""The whole-scenario benchmark's simulated results, pinned.

``scenario_bench/`` runs three workloads (``llm_serve``, ``tenant_mix``,
``fault_storm``) and hashes every request's name, arrival, finish and
status into a digest.  A change that is meant to be pure performance
or pure refactoring must leave those digests, and the number of events
the engine processes, exactly as they were.  This test runs streams 16
and 1552 (the first streams of ``--seed 1`` and ``--seed 97``) of each
workload through the benchmark's own ``scenarios.py`` and ``digest``,
imported unmodified, and compares them with the pinned values.

A change that moves a simulated number is a behaviour change: it
updates these pins and says why.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenario_bench"

#: (workload, stream) -> (digest, engine events from setup to the end).
PINNED = {
    ("llm_serve", 16): ("45cbab4c779fa22d", 35025),
    ("llm_serve", 1552): ("82e475be6fd480b5", 35872),
    ("tenant_mix", 16): ("0ddb8e447df35401", 54323),
    ("tenant_mix", 1552): ("76c289418b1f0345", 53900),
    ("fault_storm", 16): ("9be607f5d84a28f1", 129106),
    ("fault_storm", 1552): ("00d9c790730719fe", 128769),
}


def _bench_modules():
    """``scenario_bench/scenarios.py`` and ``run.py``, as they are."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import scenarios

    spec = importlib.util.spec_from_file_location(
        "scenario_bench_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return scenarios, run


@pytest.mark.parametrize("workload,stream", sorted(PINNED))
def test_stream_digest_and_events_unchanged(workload, stream):
    scenarios, run = _bench_modules()
    spec = scenarios.WORKLOADS[workload]
    scenario = spec.setup(spec.generate(stream), stream)
    before = scenario.engine.events_processed
    requests = spec.run(scenario)
    spec.check(scenario, requests)
    events = scenario.engine.events_processed - before
    assert (run.digest(requests), events) == PINNED[(workload, stream)]

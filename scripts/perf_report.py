#!/usr/bin/env python3
"""Run the simulator hot-path microbenchmarks and emit BENCH_sim_hotpaths.json.

The artifact records the wall-clock perf trajectory of the harness
itself (flow rebalancing, HEFT scheduling, placement probing, soak
wall-clock — see ``benchmarks/perf/hotpaths.py``).  Usage::

    PYTHONPATH=src python scripts/perf_report.py            # regenerate
    PYTHONPATH=src python scripts/perf_report.py --check    # CI gate

``--check`` re-runs the benches and fails (exit 1) when any bench's
wall-clock regresses more than ``--threshold``x (default 2.0) against
the checked-in ``after`` numbers; it never rewrites the file.  Without
``--check`` the script rewrites the ``after`` section in place while
preserving the frozen ``before`` section (the pre-optimization
quadratic-era numbers this PR was measured against).

Wall-clock comparisons across different machines are noisy — the 2x
threshold is deliberately loose; the artifact's precise value is the
*trajectory on one machine* (CI), not an absolute claim.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

DEFAULT_OUT = ROOT / "BENCH_sim_hotpaths.json"


def run_benches(names=None, profile_dir=None) -> dict:
    """Run the registered microbenchmarks; returns {name: result dict}.

    With ``profile_dir`` set, each bench runs under :mod:`cProfile` and
    the top-20 cumulative-time entries land in
    ``<profile_dir>/profile_<bench>.txt`` — the evidence future perf
    PRs start from (profiled wall-clock is inflated by instrumentation;
    the recorded ``wall_s`` keeps its meaning as *relative* hotness
    only in this mode).
    """
    from benchmarks.perf.hotpaths import ALL_BENCHES

    results = {}
    for name, bench in ALL_BENCHES.items():
        if names and name not in names:
            continue
        print(f"running {name} ...", flush=True)
        if profile_dir is not None:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            results[name] = profiler.runcall(bench)
            stream = io.StringIO()
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(20)
            stats.sort_stats("tottime").print_stats(20)
            out = pathlib.Path(profile_dir) / f"profile_{name}.txt"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(stream.getvalue())
            print(f"  profile -> {out}", flush=True)
        else:
            results[name] = bench()
        print(
            "  {name}: {ops_per_s:.1f} ops/s, {events_per_s:.1f} events/s "
            "({wall_s:.4f}s wall)".format(**results[name]),
            flush=True,
        )
    return results


def check(current: dict, baseline: dict, threshold: float,
          causal_overhead: float = 1.10,
          telemetry_overhead: float = 1.10,
          soak_floor: float = 100_000.0,
          overhead_samples: dict = None) -> int:
    """Compare wall-clock against the checked-in baseline; 0 = pass."""
    failures = []

    def paired_ratio(inst_name: str):
        """Instrumented/plain wall ratio, noise-robust when possible.

        Wall-clock noise is one-sided — the machine can only be slower
        than its best, never faster — so every per-pass ratio and the
        min/min quotient are upper bounds on the true cost, each
        inflated by different noise.  The tightest (smallest) of them is
        the best estimate: a *real* overhead regression inflates every
        sample and survives the min, a scheduling hiccup inflates only
        some and is discarded.
        """
        inst, plain = current.get(inst_name), current.get("flows_2k")
        if not (inst and plain):
            return None, 0
        samples = overhead_samples or {}
        insts = samples.get(inst_name) or [inst["wall_s"]]
        plains = samples.get("flows_2k") or [plain["wall_s"]]
        ratios = [i / max(p, 1e-9) for i, p in zip(insts, plains)]
        ratios.append(min(insts) / max(min(plains), 1e-9))
        return min(ratios), len(ratios)

    for name, result in current.items():
        base = baseline.get(name)
        if base is None:
            print(f"  {name}: no baseline (new bench), skipping")
            continue
        ratio = result["wall_s"] / max(base["wall_s"], 1e-9)
        verdict = "OK" if ratio <= threshold else "REGRESSION"
        print(
            f"  {name}: {result['wall_s']:.4f}s vs baseline "
            f"{base['wall_s']:.4f}s ({ratio:.2f}x) "
            f"[{result['ops_per_s']:.0f} ops/s, "
            f"{result['events_per_s']:.0f} events/s] {verdict}"
        )
        if ratio > threshold:
            failures.append((name, ratio))

    # Causal tracing must stay cheap: gate the same-machine, same-run
    # wall ratio of the traced flow bench against the plain one.
    ratio, n = paired_ratio("flows_2k_causal")
    if ratio is not None:
        verdict = "OK" if ratio <= causal_overhead else "REGRESSION"
        print(
            f"  causal overhead: flows_2k_causal / flows_2k = {ratio:.3f}x "
            f"(max {causal_overhead:.2f}x, best of {n} estimates) "
            f"{verdict}"
        )
        if ratio > causal_overhead:
            failures.append(("causal_overhead", ratio))

    # Continuous telemetry prices itself the same way: watchers folded
    # on the engine clock + per-flow samples + sampled hotness on the
    # identical workload must stay within the overhead bar.
    ratio, n = paired_ratio("flows_2k_telemetry")
    if ratio is not None:
        verdict = "OK" if ratio <= telemetry_overhead else "REGRESSION"
        print(
            f"  telemetry overhead: flows_2k_telemetry / flows_2k = "
            f"{ratio:.3f}x (max {telemetry_overhead:.2f}x, best of {n} "
            f"estimates) {verdict}"
        )
        if ratio > telemetry_overhead:
            failures.append(("telemetry_overhead", ratio))

    # The million-event soak gates absolute engine throughput, not a
    # ratio: the scheduler must sustain >=100k events/s at ~20k queue
    # depth regardless of what the baseline machine recorded.
    soak = current.get("soak_1m_events")
    if soak:
        eps = soak["events_per_s"]
        verdict = "OK" if eps >= soak_floor else "REGRESSION"
        print(
            f"  soak throughput: {eps:.0f} events/s "
            f"(floor {soak_floor:.0f}) {verdict}"
        )
        if eps < soak_floor:
            failures.append(("soak_throughput", eps / max(soak_floor, 1.0)))

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed: "
              + ", ".join(f"{n} ({r:.2f}x)" for n, r in failures))
        return 1
    print("all benches within threshold")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or gate BENCH_sim_hotpaths.json."
    )
    parser.add_argument("bench", nargs="*",
                        help="bench names to run (default: all)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"artifact path (default {DEFAULT_OUT.name})")
    parser.add_argument("--check", action="store_true",
                        help="compare against the checked-in numbers "
                             "instead of rewriting them")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="max allowed wall-clock ratio in --check mode")
    parser.add_argument("--causal-overhead", type=float, default=1.10,
                        help="max allowed flows_2k_causal/flows_2k wall "
                             "ratio in --check mode (default 1.10)")
    parser.add_argument("--telemetry-overhead", type=float, default=1.10,
                        help="max allowed flows_2k_telemetry/flows_2k wall "
                             "ratio in --check mode (default 1.10)")
    parser.add_argument("--soak-floor", type=float, default=100_000.0,
                        help="min sustained events/s for soak_1m_events "
                             "in --check mode (default 100k)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the sweep N times and keep each bench's "
                             "fastest sample (baselines should reflect the "
                             "code, not one scheduler hiccup)")
    parser.add_argument("--profile", action="store_true",
                        help="run each bench under cProfile and dump the "
                             "top-20 cumulative/tottime entries to "
                             "benchmarks/results/profile_<bench>.txt "
                             "(mutually exclusive with --check: profiled "
                             "wall-clock would trip the gate)")
    args = parser.parse_args(argv)
    if args.profile and args.check:
        parser.error("--profile inflates wall-clock; run it without --check")

    existing = {}
    if args.out.exists():
        existing = json.loads(args.out.read_text())

    profile_dir = ROOT / "benchmarks" / "results" if args.profile else None
    current = run_benches(set(args.bench) or None, profile_dir=profile_dir)
    for _ in range(max(args.repeat, 1) - 1):
        rerun = run_benches(set(args.bench) or None)
        for name, result in rerun.items():
            if result["wall_s"] < current[name]["wall_s"]:
                current[name] = result

    if args.check:
        overhead_group = {"flows_2k", "flows_2k_causal", "flows_2k_telemetry"}
        present = overhead_group & set(current)
        samples = {name: [current[name]["wall_s"]] for name in present}
        if present > {"flows_2k"}:
            # The overhead gates compare ~300ms sections whose run-to-run
            # noise (CPU frequency, co-tenants) can exceed the 10% bar
            # itself.  Re-run the group twice more: the absolute-baseline
            # check keeps each bench's fastest sample, and the overhead
            # gates use the tightest of the per-pass ratios (see
            # ``check``), which cancels machine drift between passes.
            for _ in range(2):
                rerun = run_benches(present)
                for name, result in rerun.items():
                    samples[name].append(result["wall_s"])
                    if result["wall_s"] < current[name]["wall_s"]:
                        current[name] = result
        return check(current, existing.get("after", {}), args.threshold,
                     causal_overhead=args.causal_overhead,
                     telemetry_overhead=args.telemetry_overhead,
                     soak_floor=args.soak_floor,
                     overhead_samples=samples)

    if args.profile:
        # Profiled wall-clock is instrumentation-inflated; recording it
        # as the new 'after' would poison the regression baseline.
        print("profile mode: artifact left untouched")
        return 0

    after = dict(existing.get("after", {}))
    after.update(current)
    artifact = {
        "generated_by": "scripts/perf_report.py",
        "note": ("'before' is frozen at the pre-optimization simulator "
                 "(full O(flows x links) re-solve per event); 'after' is "
                 "regenerated by this script."),
        "before": existing.get("before", {}),
        "after": after,
    }
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The ``repro bench`` perf-tracking suite (writes ``BENCH_sweep.json``).

A fixed micro/meso benchmark ladder over the reproduction's hot paths:

* ``msa_observe_many``      — MSA profiling of the 26-workload suite's
  traces at K = 128 on the compiled stack walk (the analytic
  experiments' inner loop);
* ``msa_observe_reference`` — the per-access reference loop on the same
  traces, so the walk's entry carries its measured speedup;
* ``trace_generation``      — synthetic trace synthesis throughput;
* ``montecarlo_slice``      — a slice of the Fig. 7 sweep (profile reuse,
  partitioning algorithms, checkpoint-format serialisation);
* ``detailed_epoch``        — one detailed simulation through several
  repartitioning epochs (the reference object-model event loop);
* ``detailed_epoch_batched``— the identical simulation on the
  struct-of-arrays engine (``--sim-backend batched``), asserted
  bit-identical and recorded with its measured speedup;
* ``detailed_epoch_spans``  — the traced run again with the span
  profiler on, asserted bit-identical, recording the per-phase
  self-time profile (``span_self_s``) that ``repro bench --attribute``
  consumes plus the spans-on overhead percentage the CI gate checks;
* ``tracer_extend``         — parent-side merge of a worker event stream
  via the ``pre_validated`` fast path, with the re-validating merge
  measured alongside so the traced-overhead delta stays visible.

Every run writes a schema-stable JSON report (format/version/suite/git
rev, per-benchmark wall-clock seconds and throughput) so successive
changes leave a comparable perf trajectory.  Wall-clock reads live here
by design — this is the *measurement* harness, scoped accordingly in
``[tool.repro-lint]`` (``det002-allow``) rather than suppressed inline.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.config import scaled_config
from repro.obs.store import git_rev
from repro.telemetry.tracer import Tracer
from repro.util.atomic_write import atomic_write_text
from repro.profiling.msa import MSAProfiler
from repro.sim.runner import RunSettings, run_mix
from repro.workloads.mixes import TABLE_III_SETS
from repro.workloads.spec_like import ALL_NAMES, get
from repro.workloads.synthetic import generate_lines

FORMAT = "repro-bench"
VERSION = 1

#: workloads for the quick (CI smoke) profiling benchmarks — a reuse-heavy
#: to streaming spread, so the stack walk sees realistic reuse depths.
QUICK_WORKLOADS = ("bzip2", "swim", "mcf", "art", "crafty", "equake")


def _entry(
    name: str, wall_s: float, throughput: float, unit: str, **meta: object
) -> dict:
    return {
        "name": name,
        "wall_s": round(wall_s, 6),
        "throughput": round(throughput, 3),
        "unit": unit,
        "meta": meta,
    }


def _bench_profiling(quick: bool) -> list[dict]:
    cfg = scaled_config()
    num_sets, positions = cfg.l2.sets_per_bank, cfg.l2.total_ways
    names = QUICK_WORKLOADS if quick else ALL_NAMES
    accesses = 20_000 if quick else 80_000

    t0 = time.perf_counter()
    traces = [
        generate_lines(get(name), accesses, num_sets, seed=11)
        for name in names
    ]
    gen_wall = time.perf_counter() - t0
    total = sum(t.size for t in traces)

    t0 = time.perf_counter()
    for trace in traces:
        MSAProfiler(num_sets, positions).observe_many(trace)
    batch_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    for trace in traces:
        MSAProfiler(num_sets, positions).observe_many_reference(trace)
    ref_wall = time.perf_counter() - t0

    shared = {
        "workloads": len(names),
        "accesses_per_workload": accesses,
        "positions": positions,
    }
    return [
        _entry(
            "msa_observe_many", batch_wall, total / batch_wall, "accesses/s",
            speedup_vs_reference=round(ref_wall / batch_wall, 2), **shared,
        ),
        _entry(
            "msa_observe_reference", ref_wall, total / ref_wall,
            "accesses/s", **shared,
        ),
        _entry(
            "trace_generation", gen_wall, total / gen_wall, "accesses/s",
            **shared,
        ),
    ]


def _bench_montecarlo(
    quick: bool, jobs: int | None, report_dir: Path
) -> dict:
    cfg = scaled_config()
    mixes = 8 if quick else 50
    accesses = 20_000 if quick else 60_000
    curves = collect_profiles(config=cfg, accesses=accesses)
    t0 = time.perf_counter()
    result = run_monte_carlo(mixes, cfg, curves=curves, jobs=jobs)
    wall = time.perf_counter() - t0
    # persist the points beside the report and prove the exact round-trip
    points_path = report_dir / "BENCH_sweep.points.json"
    result.to_json(points_path)
    reread = type(result).from_json(points_path)
    if reread.points != result.points:
        raise AssertionError("MonteCarloResult JSON round-trip drifted")
    return _entry(
        "montecarlo_slice", wall, mixes / wall, "mixes/s",
        mixes=mixes,
        profile_accesses=accesses,
        mean_unrestricted_ratio=round(result.mean_unrestricted_ratio, 6),
        mean_bank_aware_ratio=round(result.mean_bank_aware_ratio, 6),
        points_file=points_path.name,
    )


def _timed_mixes(cfg, settings_list, reps: int):
    """Best-of-``reps`` wall clock for several detailed runs (identical
    runs — the simulation is deterministic — so min is the honest
    estimator under scheduler/host jitter).  The variants are interleaved
    round-robin across reps so host frequency drift during the suite
    biases every variant equally instead of skewing their ratios."""
    best = [float("inf")] * len(settings_list)
    results = [None] * len(settings_list)
    for _ in range(reps):
        for i, settings in enumerate(settings_list):
            t0 = time.perf_counter()
            results[i] = run_mix(TABLE_III_SETS[1], "bank-aware", cfg, settings)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, results


def _bench_detailed(quick: bool) -> list[dict]:
    scale = 32 if quick else 8
    duration = 300_000.0 if quick else 1_500_000.0
    epoch = 100_000 if quick else 500_000
    # the quick suite is the CI smoke: take best-of-3 there so host jitter
    # does not leak into the backend-speedup gate; full runs stay single
    reps = 3 if quick else 1
    cfg = scaled_config(scale, epoch_cycles=epoch)
    walls, runs = _timed_mixes(
        cfg,
        [
            RunSettings(duration_cycles=duration, seed=7),
            # same run with telemetry on: the overhead contract says tracing
            # must stay within a few percent of the untraced wall clock
            RunSettings(duration_cycles=duration, seed=7, trace=True),
            # the struct-of-arrays backend on the identical simulation; the
            # result must be bit-identical to the reference run measured above
            RunSettings(duration_cycles=duration, seed=7, sim_backend="batched"),
            # traced run with the span profiler on — still bit-identical
            # (spans are advisory events); its phase profile feeds
            # 'repro bench --attribute' and the spans-off overhead gate
            RunSettings(duration_cycles=duration, seed=7, trace=True,
                        spans=True),
        ],
        reps,
    )
    wall, traced_wall, batched_wall, spanned_wall = walls
    result, traced, batched, spanned = runs
    if batched.to_dict() != result.to_dict():
        raise AssertionError("batched backend diverged from reference")

    def _sim_payload(run):
        # the simulation outcome alone: traced runs also carry their event
        # stream, which legitimately differs (span events are advisory)
        return {
            k: v for k, v in run.to_dict().items()
            if k not in ("events", "telemetry")
        }

    if _sim_payload(spanned) != _sim_payload(result):
        raise AssertionError("span profiling perturbed the simulation")
    from repro.telemetry.spans import self_seconds_by_phase

    span_self = {
        path: round(seconds, 6)
        for path, seconds in self_seconds_by_phase(spanned.events).items()
    }
    shared = {
        "scale": scale,
        "duration_cycles": duration,
        "epochs": len(result.epochs),
        "l2_accesses": sum(c.l2_accesses for c in result.cores),
    }
    return [
        _entry(
            "detailed_epoch", wall, duration / wall, "cycles/s",
            traced_wall_s=round(traced_wall, 6),
            traced_events=len(traced.events),
            traced_overhead_pct=round(100.0 * (traced_wall - wall) / wall, 2),
            **shared,
        ),
        _entry(
            "detailed_epoch_batched", batched_wall,
            duration / batched_wall, "cycles/s",
            speedup_vs_reference=round(wall / batched_wall, 2),
            **shared,
        ),
        _entry(
            "detailed_epoch_spans", spanned_wall,
            duration / spanned_wall, "cycles/s",
            # overhead of span profiling relative to the plain traced run:
            # the quantity the CI spans-off gate bounds
            spanned_overhead_pct=round(
                100.0 * (spanned_wall - traced_wall) / traced_wall, 2
            ),
            span_self_s=span_self,
            **shared,
        ),
    ]


def _bench_tracer_merge(quick: bool) -> dict:
    """Parent-side merge throughput of a pre-validated worker stream.

    Measures ``Tracer.extend`` both ways over the same synthetic worker
    stream: the ``pre_validated`` fast path (what ``compare_schemes`` and
    ``run_sweep`` use, since workers validate on emit) and the
    re-validating merge it replaced, so the report carries the measured
    overhead delta of per-event schema validation.
    """
    events = 20_000 if quick else 100_000
    worker = Tracer()
    for i in range(events):
        worker.emit(
            "epoch_decision", time=float(i), epoch=i,
            algorithm="bank-aware", ways=[4, 4, 8, 8, 4, 4, 8, 8],
            projected_misses=[100.0 + i] * 8,
        )

    t0 = time.perf_counter()
    fast = Tracer()
    fast.extend(worker.events, scheme="bench", pre_validated=True)
    fast_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    revalidating = Tracer()
    revalidating.extend(worker.events, scheme="bench")
    revalidate_wall = time.perf_counter() - t0

    return _entry(
        "tracer_extend", fast_wall, events / fast_wall, "events/s",
        events=events,
        revalidate_wall_s=round(revalidate_wall, 6),
        speedup_vs_revalidate=round(revalidate_wall / fast_wall, 2),
    )


def run_bench_suite(
    *, quick: bool = False, jobs: int | None = None, output: str | Path
) -> dict:
    """Run the suite and atomically write the JSON report to ``output``."""
    target = Path(output)
    target.parent.mkdir(parents=True, exist_ok=True)
    benchmarks = _bench_profiling(quick)
    benchmarks.append(_bench_montecarlo(quick, jobs, target.parent))
    benchmarks.extend(_bench_detailed(quick))
    benchmarks.append(_bench_tracer_merge(quick))
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "suite": "quick" if quick else "full",
        "git_rev": git_rev(),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "jobs": jobs,
        "benchmarks": benchmarks,
    }
    atomic_write_text(target, json.dumps(payload, indent=2) + "\n")
    return payload

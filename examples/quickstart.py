#!/usr/bin/env python
"""Quickstart: profile a workload, project its miss curve, partition a CMP.

Walks the paper's pipeline end to end in under a minute:

1. generate a synthetic SPEC-like L2 reference trace;
2. feed it to the MSA stack-distance profiler (Fig. 2);
3. project the full miss-ratio curve from one profiling pass (Fig. 3);
4. run the Bank-aware partitioning algorithm on an 8-workload mix;
5. simulate the partitioned machine for a short slice and report per-core
   miss rates and CPI.

Run:  python examples/quickstart.py
"""

from repro.analysis import format_table
from repro.config import scaled_config
from repro.partitioning import bank_aware_partition, decision_to_partition_map
from repro.profiling import MissCurve, MSAProfiler
from repro.sim import RunSettings, run_mix
from repro.workloads import Mix, generate_lines, generate_trace, get


def main() -> None:
    cfg = scaled_config(8, epoch_cycles=2_500_000)  # 2 MB scaled machine
    nsets = cfg.l2.sets_per_bank

    # -- 1+2: profile one workload with the MSA algorithm -------------------
    spec = get("bzip2")
    trace = generate_trace(spec, 60_000, nsets, seed=1)
    profiler = MSAProfiler(nsets, cfg.l2.total_ways)
    profiler.observe_many(trace.lines)
    hist = profiler.histogram
    print(f"bzip2-like trace: {len(trace):,} L2 refs, "
          f"{trace.footprint_lines():,} distinct lines")
    print(f"MSA histogram: C1={hist[0]:.0f} C2={hist[1]:.0f} ... "
          f"C_miss={hist[-1]:.0f}\n")

    # -- 3: the projected miss-ratio curve (every cache size, one pass) -----
    curve = MissCurve.from_profiler(profiler, "bzip2")
    rows = [(w, curve.miss_ratio_at(w)) for w in (1, 4, 8, 16, 32, 45, 64)]
    print(format_table(["ways", "projected miss ratio"], rows,
                       title="One profiling pass -> every cache size:"))

    # -- 4: Bank-aware partitioning of an 8-workload mix --------------------
    mix = Mix(("crafty", "gap", "mcf", "art",
               "equake", "equake", "bzip2", "equake"))  # paper Set 2
    curves = []
    for core, name in enumerate(mix.names):
        p = MSAProfiler(nsets, cfg.l2.total_ways)
        p.observe_many(generate_lines(get(name), 40_000, nsets, seed=core))
        curves.append(MissCurve.from_profiler(p, name))
    decision = bank_aware_partition(
        curves,
        num_banks=cfg.l2.num_banks,
        bank_ways=cfg.l2.bank_ways,
        max_ways_per_core=cfg.max_ways_per_core,
    )
    print("\nBank-aware assignment (ways per core):")
    for name, ways, centers in zip(mix.names, decision.ways, decision.center_banks):
        print(f"  {name:<8} {ways:3d} ways  ({centers} Center banks)")
    if decision.pairs:
        print(f"  shared Local banks between adjacent cores: {decision.pairs}")
    pmap = decision_to_partition_map(decision, num_banks=cfg.l2.num_banks)
    pmap.validate(cfg.l2.num_banks, cfg.l2.bank_ways)

    # -- 5: simulate the dynamic scheme for a short slice -------------------
    settings = RunSettings(duration_cycles=9_000_000, seed=3)
    result = run_mix(mix, "bank-aware", cfg, settings)
    rows = [
        (c.workload, c.l2_accesses, f"{c.miss_rate:.3f}", f"{c.cpi:.2f}")
        for c in result.cores
    ]
    print()
    print(format_table(["core", "L2 refs", "miss rate", "CPI"], rows,
                       title="Dynamic Bank-aware run (measured slice):"))
    print(f"\nepochs executed: {len(result.epochs)}; "
          f"last allocation: {result.epochs[-1].ways if result.epochs else '-'}")
    print("(early epochs favour fast streamers until the deep-reuse curves"
          " converge — the reason the paper uses long 100M-cycle epochs)")


if __name__ == "__main__":
    main()

"""Per-table/figure experiment drivers.

One function per paper artefact (see DESIGN.md's experiment index); the
``benchmarks/`` tree calls these and prints the resulting rows, so each
paper table/figure can be regenerated with a single pytest invocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.aggregation import SCHEMES, make_aggregation
from repro.config import SystemConfig, scaled_config
from repro.partitioning.bank_aware import BankAwareDecision, bank_aware_partition
from repro.profiling.miss_curve import MissCurve
from repro.profiling.msa import MSAProfiler
from repro.profiling.overhead import profiler_overhead, system_overhead_fraction
from repro.profiling.sampled import SampledMSAProfiler, profile_error
from repro.sim.runner import RunSettings, SchemeComparison, run_sweep
from repro.util.stats import geometric_mean
from repro.workloads.mixes import TABLE_III_SETS, Mix
from repro.workloads.spec_like import get
from repro.workloads.synthetic import generate_lines

# ---------------------------------------------------------------------------
# Table I — baseline machine parameters
# ---------------------------------------------------------------------------


def table1_rows(config: SystemConfig | None = None) -> list[tuple[str, str]]:
    """The baseline DNUCA-CMP parameter list (paper Table I)."""
    cfg = config or SystemConfig()
    l2 = cfg.l2
    return [
        ("Cores", f"{cfg.num_cores} x {cfg.core.width}-wide OoO"),
        ("Clock Frequency", f"{cfg.core.frequency_ghz:g} GHz"),
        ("ROB / outstanding", f"{cfg.core.rob_entries} / {cfg.core.max_outstanding} per core"),
        (
            "L1 Data Cache",
            f"{cfg.l1.size_bytes // 1024} KB, {cfg.l1.ways}-way, "
            f"{cfg.l1.access_cycles} cycles, {cfg.l1.line_size} B lines",
        ),
        (
            "L2 Cache",
            f"{l2.total_size_bytes // (1024 * 1024)} MB "
            f"({l2.num_banks} x {l2.bank_size_bytes // (1024 * 1024)} MB banks), "
            f"{l2.bank_ways}-way banks ({l2.total_ways}-way equivalent), "
            f"{l2.min_latency}-{l2.max_latency} cycles bank access",
        ),
        ("Memory Latency", f"{cfg.memory.latency_cycles} cycles"),
        ("Memory Bandwidth", f"{cfg.memory.bandwidth_gbs:g} GB/s"),
        ("Memory Size", f"{cfg.memory.size_bytes // 1024**3} GB DRAM"),
        ("Partitioning epoch", f"{cfg.epoch_cycles:,} cycles"),
    ]


# ---------------------------------------------------------------------------
# Fig. 2 — MSA histogram example
# ---------------------------------------------------------------------------


def fig2_histogram(
    workload: str = "bzip2",
    config: SystemConfig | None = None,
    *,
    accesses: int = 40_000,
    positions: int = 16,
    seed: int = 2,
) -> np.ndarray:
    """An example LRU-stack histogram (the paper's Fig. 2 shape): hits
    concentrated toward the MRU positions plus a miss bin."""
    cfg = config or scaled_config()
    prof = MSAProfiler(cfg.l2.sets_per_bank, positions)
    prof.observe_many(
        generate_lines(get(workload), accesses, cfg.l2.sets_per_bank, seed=seed)
    )
    return prof.histogram


# ---------------------------------------------------------------------------
# Fig. 3 — cumulative miss-ratio curves
# ---------------------------------------------------------------------------

FIG3_WORKLOADS = ("sixtrack", "bzip2", "applu")


def fig3_curves(
    names: tuple[str, ...] = FIG3_WORKLOADS,
    config: SystemConfig | None = None,
    *,
    accesses: int = 80_000,
    seed: int = 3,
) -> dict[str, MissCurve]:
    """Stand-alone MSA projected miss-ratio curves (paper Fig. 3): sixtrack
    saturates by ~6 dedicated ways, applu by ~10 with a high streaming
    floor, bzip2 improves gradually out to ~45 ways."""
    from repro.analysis.montecarlo import collect_profiles

    return collect_profiles(names, config, accesses=accesses, seed=seed)


# ---------------------------------------------------------------------------
# Table II — profiler hardware overhead
# ---------------------------------------------------------------------------


def table2_rows(config: SystemConfig | None = None) -> list[tuple[str, float]]:
    cfg = config or SystemConfig()
    report = profiler_overhead(
        num_sets=cfg.l2.sets_per_bank,
        profiler=cfg.profiler,
        total_ways=cfg.l2.total_ways,
    )
    rows = report.as_rows()
    rows.append(("Total per profiler", report.total_kbits))
    rows.append(
        ("All profilers / L2 capacity", 100.0 * system_overhead_fraction(cfg))
    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — bank-aggregation schemes ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregationOutcome:
    scheme: str
    miss_rate: float
    migrations_per_access: float
    directory_probes_per_access: float


def fig4_aggregation(
    workload: str = "bzip2",
    *,
    num_banks: int = 4,
    bank_ways: int = 8,
    num_sets: int = 128,
    accesses: int = 60_000,
    seed: int = 4,
) -> list[AggregationOutcome]:
    """Compare Cascade / Address-Hash / Parallel / ideal-LRU aggregations of
    one core's multi-bank partition (paper Section III.B): Cascade matches
    the ideal LRU but with a prohibitive migration rate; Hash/Parallel trade
    a little fidelity for near-zero migrations."""
    lines = generate_lines(get(workload), accesses, num_sets, seed=seed).tolist()
    outcomes = []
    for name in SCHEMES:
        agg = make_aggregation(name, num_banks, bank_ways, num_sets)
        for line in lines:
            agg.access(line)
        st = agg.stats
        outcomes.append(
            AggregationOutcome(
                name,
                st.miss_rate,
                st.migrations_per_access,
                st.directory_probes / st.accesses if st.accesses else 0.0,
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# Table III — the eight detailed mixes and their Bank-aware assignments
# ---------------------------------------------------------------------------


def table3_assignments(
    config: SystemConfig | None = None,
    *,
    curves: dict[str, MissCurve] | None = None,
) -> list[tuple[Mix, BankAwareDecision]]:
    """Bank-aware way assignments for the paper's eight detailed sets."""
    from repro.analysis.montecarlo import collect_profiles

    cfg = config or scaled_config()
    if curves is None:
        curves = collect_profiles(config=cfg)
    out = []
    for mix in TABLE_III_SETS:
        decision = bank_aware_partition(
            [curves[n] for n in mix.names],
            num_banks=cfg.l2.num_banks,
            bank_ways=cfg.l2.bank_ways,
            max_ways_per_core=cfg.max_ways_per_core,
        )
        out.append((mix, decision))
    return out


# ---------------------------------------------------------------------------
# Figs. 8 & 9 — detailed simulation of the eight sets
# ---------------------------------------------------------------------------


@dataclass
class DetailedResults:
    """Relative miss rate and CPI of every set under every scheme."""

    comparisons: list[SchemeComparison]

    def relative_rows(self, metric: str) -> list[list[object]]:
        """Rows ``[set, no-partitions, equal, bank-aware]`` plus a final GM
        row, for ``metric`` in ('miss', 'cpi')."""
        fn = {
            "miss": SchemeComparison.relative_miss_rate,
            "cpi": SchemeComparison.relative_cpi,
        }[metric]
        rows: list[list[object]] = []
        per_scheme: dict[str, list[float]] = {}
        for i, comp in enumerate(self.comparisons):
            row: list[object] = [f"Set{i + 1}"]
            for scheme in ("no-partitions", "equal-partitions", "bank-aware"):
                val = fn(comp, scheme)
                row.append(val)
                per_scheme.setdefault(scheme, []).append(val)
            rows.append(row)
        gm_row: list[object] = ["GM"]
        for scheme in ("no-partitions", "equal-partitions", "bank-aware"):
            gm_row.append(geometric_mean(per_scheme[scheme]))
        rows.append(gm_row)
        return rows

    def summary(self) -> dict[str, float]:
        miss = self.relative_rows("miss")[-1]
        cpi = self.relative_rows("cpi")[-1]
        return {
            "equal_relative_miss": float(miss[2]),
            "bank_aware_relative_miss": float(miss[3]),
            "equal_relative_cpi": float(cpi[2]),
            "bank_aware_relative_cpi": float(cpi[3]),
        }


def detailed_sets(
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
    *,
    sets: tuple[Mix, ...] = TABLE_III_SETS,
    jobs: int | None = None,
) -> DetailedResults:
    """Run the paper's eight detailed mixes under all three schemes.

    ``jobs`` fans the independent (mix, scheme) simulations out over
    worker processes with bit-identical results (default serial).
    ``settings.sim_backend='batched'`` runs every simulation on the
    struct-of-arrays engine (:mod:`repro.sim.batched`) — bit-identical
    to the reference loop and several times faster, so full-length
    Fig. 8/9 sweeps become practical on one machine."""
    cfg = config or scaled_config(epoch_cycles=3_000_000)
    st = settings or RunSettings(duration_cycles=12_000_000)
    return DetailedResults(run_sweep(list(sets), cfg, st, jobs=jobs))


# ---------------------------------------------------------------------------
# Section III.A claim — sampled-profiler accuracy
# ---------------------------------------------------------------------------


def profiler_accuracy(
    workload: str = "bzip2",
    config: SystemConfig | None = None,
    *,
    accesses: int = 60_000,
    seed: int = 6,
    tag_bits: tuple[int, ...] = (8, 12, 16),
    samplings: tuple[int, ...] = (1, 4, 32),
) -> list[tuple[int, int, float]]:
    """Error of partial-tag + set-sampled profiles against the exact MSA
    profile, sweeping tag width and sampling ratio.  The paper claims 12-bit
    tags with 1-in-32 sampling stay within 5 %."""
    cfg = config or scaled_config()
    sets = cfg.l2.sets_per_bank
    lines = generate_lines(get(workload), accesses, sets, seed=seed)
    exact = MSAProfiler(sets, cfg.max_ways_per_core)
    exact.observe_many(lines)
    rows = []
    for bits in tag_bits:
        for sampling in samplings:
            if sampling > sets:
                continue
            prof = SampledMSAProfiler(
                sets,
                cfg.max_ways_per_core,
                set_sampling=sampling,
                partial_tag_bits=bits,
            )
            prof.observe_many(lines)
            rows.append((bits, sampling, profile_error(exact, prof)))
    return rows

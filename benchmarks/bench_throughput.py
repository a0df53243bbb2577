"""Simulator performance micro-benchmarks.

These are the only benches where pytest-benchmark's statistics matter —
they track the simulator's own speed (accesses/second through the NUCA,
observations/second through the profilers), guarding against performance
regressions in the hot paths.
"""

from repro.cache.nuca import NucaL2
from repro.cache.partition_map import equal_partition_map
from repro.config import scaled_config
from repro.profiling.msa import MSAProfiler
from repro.profiling.sampled import SampledMSAProfiler
from repro.workloads import generate_lines, get

CFG = scaled_config(8)
LINES = generate_lines(get("twolf"), 20_000, CFG.l2.sets_per_bank, seed=1).tolist()


def test_nuca_shared_dnuca_throughput(benchmark):
    def run():
        l2 = NucaL2(CFG.l2, 8, placement="dnuca")
        l2.share_all()
        for line in LINES:
            l2.access(0, line)
        return l2.stats.total_accesses()

    assert benchmark(run) == len(LINES)


def test_nuca_partitioned_throughput(benchmark):
    pmap = equal_partition_map(8, CFG.l2.num_banks, CFG.l2.bank_ways)

    def run():
        l2 = NucaL2(CFG.l2, 8, placement="dnuca")
        l2.apply_partition(pmap)
        for line in LINES:
            l2.access(0, line)
        return l2.stats.total_accesses()

    assert benchmark(run) == len(LINES)


def test_exact_profiler_throughput(benchmark):
    def run():
        prof = MSAProfiler(CFG.l2.sets_per_bank, 72)
        prof.observe_many(LINES)
        return prof.total_accesses

    assert benchmark(run) == len(LINES)


def test_sampled_profiler_throughput(benchmark):
    def run():
        prof = SampledMSAProfiler(
            CFG.l2.sets_per_bank, 72, set_sampling=4, partial_tag_bits=12
        )
        prof.observe_many(LINES)
        return prof.observed

    assert benchmark(run) > 0

"""Hardware-feasible MSA profiler: partial tags + set sampling + capacity cap.

A naive MSA profiler needs a full shadow copy of the cache directory, which
the paper calls "prohibitively high".  The paper's implementation (Section
III.A, Table II) cuts the cost three ways:

* **partial tags** (12 bits) — the stack stores a hash of the line address,
  so distinct lines can alias and corrupt individual depth observations;
* **set sampling** (1 in 32) — only sampled sets are profiled and counts are
  scaled up by the sampling ratio;
* **maximum assignable capacity** (9/16 of the cache, 72 of 128 ways) — the
  stack depth is truncated at the largest partition a core may receive.

The paper reports the combined error within 5 % of a full-tag profile; the
``bench_profiler_accuracy`` benchmark reproduces that claim against
:class:`repro.profiling.msa.MSAProfiler`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.profiling.msa import MSAProfiler, StackProfiler
from repro.util.bits import hash_fold, hash_fold_many, is_pow2

from repro.errors import ConfigError


class SampledMSAProfiler(StackProfiler):
    """MSA histogram from sampled sets and hashed (partial) tags."""

    def __init__(
        self,
        num_sets: int,
        positions: int,
        *,
        set_sampling: int = 32,
        partial_tag_bits: int = 12,
        sample_offset: int = 0,
        tag_mode: str = "truncate",
    ) -> None:
        if not is_pow2(num_sets):
            raise ConfigError("num_sets must be a power of two")
        if not is_pow2(set_sampling) or set_sampling > num_sets:
            raise ConfigError("set sampling must be a power of two <= num_sets")
        # stacks are dense by compressed sampled-set id
        self.sampled_sets = num_sets // set_sampling
        super().__init__(self.sampled_sets, positions)
        if partial_tag_bits < 1:
            raise ConfigError("partial tags need at least one bit")
        if not 0 <= sample_offset < set_sampling:
            raise ConfigError("sample offset out of range")
        if tag_mode not in ("truncate", "fold"):
            raise ConfigError("tag_mode must be 'truncate' or 'fold'")
        self.tag_mode = tag_mode
        self.num_sets = num_sets
        self.set_sampling = set_sampling
        self.partial_tag_bits = partial_tag_bits
        self.sample_offset = sample_offset
        self._set_mask = num_sets - 1
        self._sample_mask = set_sampling - 1
        self.observed = 0  #: raw (unscaled) sampled references

    def set_index(self, line: int) -> int:
        return line & self._set_mask

    def is_sampled(self, line: int) -> bool:
        return (self.set_index(line) & self._sample_mask) == self.sample_offset

    def partial_tag(self, line: int) -> int:
        """The stored partial tag (set index dropped, shortened to N bits).

        ``truncate`` keeps the low tag bits — the hardware-typical choice;
        sequential streams then cycle through all 2^N values before any
        alias, so streaming workloads do not fabricate deep stack hits.
        ``fold`` XOR-hashes the whole tag, which spreads aliases uniformly
        (worst case for streams) and is kept for the accuracy ablation.
        """
        set_bits = self.num_sets.bit_length() - 1
        tag = line >> set_bits
        if self.tag_mode == "truncate":
            return tag & ((1 << self.partial_tag_bits) - 1)
        return hash_fold(tag, self.partial_tag_bits)

    def observe(self, line: int) -> int | None:
        """Record one reference; returns the depth for sampled sets, else
        ``None`` (the access bypasses the profiler entirely)."""
        if not self.is_sampled(line):
            return None
        self.observed += 1
        # dense index over the sampled sets (index % sampling == offset)
        sampled_id = self.set_index(line) // self.set_sampling
        stacks = self._stacks if self._stacks is not None else self._lists()
        stack = stacks[sampled_id]
        tag = self.partial_tag(line)
        try:
            depth = stack.index(tag) + 1
        except ValueError:
            depth = self.positions + 1
        if depth <= self.positions:
            del stack[depth - 1]
        stack.insert(0, tag)
        if len(stack) > self.positions:
            stack.pop()
        self._counters[depth - 1] += 1
        self._mass += 1.0
        return depth

    def observe_many(self, lines: Iterable[int]) -> None:
        """Observe many line numbers; see
        :meth:`repro.profiling.msa.MSAProfiler.observe_many` for when the
        compiled walk runs (bit-identical to the per-access reference).
        Set sampling and partial tags are applied here; the walk is per
        sampled set, so equal tags of different sets never meet."""
        lines_in = self._walk_input(lines)
        if lines_in is not None:
            sub = lines_in[(lines_in & self._sample_mask) == self.sample_offset]
            groups = (sub & self._set_mask) // self.set_sampling
            tags = sub >> (self.num_sets.bit_length() - 1)
            if self.tag_mode == "truncate":
                tags &= (1 << self.partial_tag_bits) - 1
            else:
                tags = hash_fold_many(tags, self.partial_tag_bits)
            if self._walk(tags, groups):
                self.observed += int(sub.size)
                return
        self.observe_many_reference(lines)

    def stack_of_set(self, set_index: int) -> list[int]:
        """MRU->LRU partial tags tracked for one sampled set (for tests)."""
        if (set_index & self._sample_mask) != self.sample_offset:
            raise ConfigError(f"set {set_index} is not sampled")
        return self._stack(set_index // self.set_sampling)

    # -- scaled histogram queries -------------------------------------------

    @property
    def histogram(self) -> np.ndarray:
        """Counters scaled by the sampling ratio to estimate the full cache."""
        return self._counters * self.set_sampling

    @property
    def raw_histogram(self) -> np.ndarray:
        return self._counters.copy()

    @property
    def total_accesses(self) -> float:
        return float(self.histogram.sum())

    def miss_counts(self) -> np.ndarray:
        hits_cum = np.concatenate(([0.0], np.cumsum(self.histogram[:-1])))
        return self.total_accesses - hits_cum

    def misses_at(self, ways: int) -> float:
        if not 0 <= ways <= self.positions:
            raise ConfigError(f"ways must be in 0..{self.positions}")
        return float(self.miss_counts()[ways])

    def miss_ratio_curve(self) -> np.ndarray:
        total = self.total_accesses
        if total == 0:
            return np.ones(self.positions + 1)
        return self.miss_counts() / total


def profile_error(
    reference: MSAProfiler, sampled: SampledMSAProfiler
) -> float:
    """Mean absolute relative error of the sampled miss-ratio curve against
    the exact one (the paper's 'within 5 % of the profiling accuracy').

    Compared over sizes 1..min(K_ref, K_sampled); size 0 is excluded since
    both curves are identically 1 there.
    """
    k = min(reference.positions, sampled.positions)
    ref = reference.miss_ratio_curve()[1 : k + 1]
    est = sampled.miss_ratio_curve()[1 : k + 1]
    denom = np.maximum(ref, 1e-12)
    return float(np.mean(np.abs(est - ref) / denom))

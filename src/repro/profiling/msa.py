"""Mattson stack-distance (MSA) cache profiling (paper Section III.A).

MSA exploits the inclusion property of LRU: during any access sequence the
content of an N-way cache is a subset of any larger cache's content, so a
single pass with K+1 counters yields the miss count of *every* cache size up
to K ways.  Counter ``i`` (0-based) counts hits at LRU stack depth ``i+1``
(depth 1 = MRU); the final counter counts accesses beyond depth K or to
lines never seen — misses at every size.

The per-access :meth:`MSAProfiler.observe` is the checked oracle;
``observe_many`` runs the same stack walk compiled (:mod:`repro.kernel`).

:class:`MSAProfiler` is the exact (full-tag, all-sets) reference.  The
hardware-feasible version with partial tags and set sampling lives in
:mod:`repro.profiling.sampled`.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterable

import numpy as np

from repro.util.bits import is_pow2

from repro.errors import ConfigError


def _walk_library():
    """The compiled kernel library, or ``None`` (warned once) without one.
    Imported on first use so ``repro.cli`` does not load the kernel module
    at start-up."""
    from repro import kernel

    return kernel.load()


class StackProfiler:
    """Per-group LRU stacks, counters and mass ledger shared by the exact
    and the sampled profiler.

    Two paths update the stacks.  The per-access ``observe`` is the checked
    oracle and keeps them as Python lists; ``observe_many`` runs the
    compiled stack walk of :mod:`repro.kernel`, which keeps them as one
    int64 matrix (row = group, MRU first) plus per-row lengths.  The state
    lives in the form of whichever path ran last and is converted only when
    the other path runs next, so a run that sticks to one path never pays
    for conversions.
    """

    def __init__(self, groups: int, positions: int) -> None:
        if positions < 1:
            raise ConfigError("need at least one stack position")
        self.positions = positions
        #: the oracle's stacks, or ``None`` while ``_walk_state`` holds them
        self._stacks: list[list[int]] | None = [[] for _ in range(groups)]
        self._walk_state: tuple[np.ndarray, np.ndarray] | None = None
        self._counters = np.zeros(positions + 1, dtype=np.float64)
        #: mass ledger: observations recorded, aged exactly like the
        #: counters, so counter mass is checkable at any time (sanitizer).
        self._mass = 0.0

    def _lists(self) -> list[list[int]]:
        """The stacks as the oracle's lists, converted from the walk's form
        if that holds them."""
        if self._stacks is None:
            matrix, lens = self._walk_state
            self._stacks = [
                row[:n].tolist() for row, n in zip(matrix, lens.tolist())
            ]
            self._walk_state = None
        return self._stacks

    def _stack(self, group: int) -> list[int]:
        if self._stacks is not None:
            return list(self._stacks[group])
        matrix, lens = self._walk_state
        return matrix[group, : lens[group]].tolist()

    @staticmethod
    def _walk_input(lines: Iterable[int]) -> np.ndarray | None:
        """``lines`` as the contiguous int64 array the compiled walk takes,
        or ``None`` when only the reference loop reproduces ``int(line)``
        for them: iterators, non-integer or negative entries, and values
        past int64."""
        if not isinstance(lines, (np.ndarray, list, tuple, range)):
            return None
        a = np.asarray(lines)
        if a.ndim != 1 or a.dtype.kind not in "iu":
            return None
        if a.size and (int(a.min()) < 0 or (
            a.dtype == np.uint64 and int(a.max()) > np.iinfo(np.int64).max
        )):
            return None
        return np.ascontiguousarray(a, dtype=np.int64)

    def _walk(self, keys: np.ndarray, groups: np.ndarray) -> bool:
        """Observe ``keys`` (contiguous int64) in their ``groups`` on the
        compiled walk; ``False`` when no kernel can be loaded here."""
        lib = _walk_library()
        if lib is None:
            return False
        if self._walk_state is None:
            stacks = self._stacks
            matrix = np.zeros((len(stacks), self.positions), dtype=np.int64)
            for g, stack in enumerate(stacks):
                if stack:
                    matrix[g, : len(stack)] = stack
            lens = np.array([len(s) for s in stacks], dtype=np.int64)
            self._walk_state = (matrix, lens)
            self._stacks = None
        matrix, lens = self._walk_state
        mass = ctypes.c_double(self._mass)
        lib.msa_walk(
            keys.size, keys.ctypes.data, groups.ctypes.data, self.positions,
            matrix.ctypes.data, lens.ctypes.data, self._counters.ctypes.data,
            ctypes.byref(mass),
        )
        self._mass = mass.value
        return True

    def observe_many_reference(self, lines: Iterable[int]) -> None:
        """The checked per-access reference for ``observe_many``."""
        for line in lines:
            self.observe(int(line))

    @property
    def expected_mass(self) -> float:
        """What the (raw) counters *should* sum to, tracked independently
        of them (observations accumulate it, :meth:`decay`/:meth:`reset`
        age it)."""
        return self._mass

    def reset(self) -> None:
        """Clear counters (stack state is kept: the cache does not forget)."""
        self._counters[:] = 0.0
        self._mass = 0.0

    def decay(self, factor: float = 0.5) -> None:
        """Exponentially age the counters between epochs so the dynamic
        controller tracks phase changes without forgetting instantly."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigError("decay factor must be in [0, 1]")
        self._counters *= factor
        self._mass *= factor


class MSAProfiler(StackProfiler):
    """Exact per-set LRU stack-distance histogram over ``positions`` ways.

    Parameters
    ----------
    num_sets:
        Number of cache sets being modelled (stack distances are per set).
    positions:
        K — the deepest stack position tracked; the histogram has K+1 bins
        (K hit depths plus the miss bin).
    """

    def __init__(self, num_sets: int, positions: int) -> None:
        if not is_pow2(num_sets):
            raise ConfigError("num_sets must be a power of two")
        super().__init__(num_sets, positions)
        self.num_sets = num_sets
        self._set_mask = num_sets - 1

    # -- observation --------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line & self._set_mask

    def observe(self, line: int) -> int:
        """Record one reference.  Returns the observed stack depth
        (1-based; ``positions + 1`` denotes a miss at every tracked size)."""
        stacks = self._stacks if self._stacks is not None else self._lists()
        stack = stacks[self.set_index(line)]
        try:
            depth = stack.index(line) + 1
        except ValueError:
            depth = self.positions + 1
        if depth <= self.positions:
            del stack[depth - 1]
        stack.insert(0, line)
        if len(stack) > self.positions:
            stack.pop()
        self._counters[depth - 1] += 1
        self._mass += 1.0
        return depth

    def observe_many(self, lines: Iterable[int]) -> None:
        """Observe many line numbers (the bulk entry point for traces).

        Integer arrays, lists and ranges of non-negative values run the
        compiled stack walk, which repeats :meth:`observe`'s arithmetic
        access by access, so counters, mass and stacks are bit-identical to
        :meth:`observe_many_reference`; anything else, or a host without
        the kernel, runs that reference loop.
        """
        keys = self._walk_input(lines)
        if keys is None or not self._walk(keys, keys & self._set_mask):
            self.observe_many_reference(lines)

    # -- histogram queries ---------------------------------------------------

    @property
    def histogram(self) -> np.ndarray:
        """Counters C1..CK, C_miss (a copy)."""
        return self._counters.copy()

    @property
    def total_accesses(self) -> float:
        return float(self._counters.sum())

    def hit_counts(self) -> np.ndarray:
        """Hits at each stack depth 1..K (excludes the miss counter)."""
        return self._counters[:-1].copy()

    def miss_counts(self) -> np.ndarray:
        """``miss_counts()[w]`` = misses the workload would take in a
        ``w``-way LRU cache of this set count, for w = 0..K.  This is the
        inclusion-property projection the paper uses: shrinking the cache
        converts hits at depths > w into misses."""
        hits_cum = np.concatenate(([0.0], np.cumsum(self._counters[:-1])))
        return self.total_accesses - hits_cum

    def misses_at(self, ways: int) -> float:
        if not 0 <= ways <= self.positions:
            raise ConfigError(f"ways must be in 0..{self.positions}")
        return float(self.miss_counts()[ways])

    def miss_ratio_curve(self) -> np.ndarray:
        """Cumulative miss *ratio* for every size 0..K (paper Fig. 3 y-axis)."""
        total = self.total_accesses
        if total == 0:
            return np.ones(self.positions + 1)
        return self.miss_counts() / total

    def stack_of_set(self, set_index: int) -> list[int]:
        """MRU->LRU line numbers tracked for one set (for tests)."""
        return self._stack(set_index)

"""The *Unrestricted* partitioning baseline (paper Section III.B).

This is the prior-work algorithm the paper compares against — MSA-driven
greedy marginal-utility assignment of individual cache ways with no physical
restrictions, i.e. the lookahead algorithm of Qureshi & Patt's Utility-Based
Cache Partitioning (MICRO 2006), which the paper cites as [15]:

    repeat until all ways are assigned:
        for every core, scan all feasible allocation increments and find the
        one with the maximum marginal utility (miss reduction per way);
        grant the globally best increment to its core.

The lookahead over *blocks* of ways (not just one way at a time) is what
lets the algorithm climb past plateaus in a miss curve (a workload whose
curve only drops after +10 ways would never win single-way comparisons).
Each core's best block is an O(1) lookup in its curve's lookahead table
(:meth:`MissCurve.best_marginal_utility`), redone only when that core's
answer can have changed.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.profiling.miss_curve import MissCurve
from repro.errors import ConfigError, PartitionInvariantError


def unrestricted_partition(
    curves: Sequence[MissCurve],
    total_ways: int,
    *,
    min_ways: int = 1,
    max_ways_per_core: int | None = None,
) -> list[int]:
    """Way counts per core under the Unrestricted (UCP-lookahead) algorithm.

    Parameters
    ----------
    curves:
        One projected miss curve per core.
    total_ways:
        Capacity to distribute (128 on the paper machine).
    min_ways:
        Floor per core so every core can make progress.
    max_ways_per_core:
        Optional cap (the paper's Unrestricted scheme has none; pass the
        9/16 cap to study its effect).
    """
    n = len(curves)
    if n == 0:
        raise ConfigError("need at least one core")
    cap = total_ways if max_ways_per_core is None else max_ways_per_core
    if cap < min_ways:
        raise ConfigError("cap below the per-core minimum")
    if n * min_ways > total_ways:
        raise ConfigError("not enough ways for the per-core minimum")
    if n * cap < total_ways:
        raise ConfigError("caps make the capacity unassignable")

    alloc = [min_ways] * n
    remaining = total_ways - sum(alloc)
    # each core's last lookahead answer.  A core's room never grows, and
    # the first maximum over 1..room stays the first maximum over any
    # shorter prefix that still contains it, so an answer holds until its
    # core is granted ways or its room falls below the answer's extra.
    answers: list[tuple[float, int] | None] = [None] * n
    while remaining > 0:
        best_mu = -1.0
        best_core = -1
        best_extra = 0
        for core, curve in enumerate(curves):
            room = cap - alloc[core]
            if room > remaining:  # min() without the call: a hot loop
                room = remaining
            if room <= 0:
                continue
            answer = answers[core]
            if answer is None or answer[1] > room:
                answer = curve.best_marginal_utility(alloc[core], room)
                answers[core] = answer
            if answer[0] > best_mu:
                best_mu, best_extra = answer
                best_core = core
        if best_core < 0:
            raise PartitionInvariantError("no core can accept more ways")  # caps checked above
        if best_mu <= 0.0:
            # Every curve is flat: spread the leftovers round-robin, one
            # way at a time across cores with room, so the capacity is
            # fully assigned without any core hoarding it.
            while remaining > 0:
                granted = False
                for core in range(n):
                    if remaining == 0:
                        break
                    if alloc[core] < cap:
                        alloc[core] += 1
                        remaining -= 1
                        granted = True
                if not granted:
                    raise PartitionInvariantError(
                        "no core can accept more ways"
                    )  # unreachable: caps checked above
            break
        alloc[best_core] += best_extra
        remaining -= best_extra
        answers[best_core] = None
    if sum(alloc) != total_ways:
        raise PartitionInvariantError(
            f"lookahead allocation sums to {sum(alloc)} ways, machine has "
            f"{total_ways} (way conservation broken)"
        )
    return alloc


def predicted_misses(curves: Sequence[MissCurve], ways: Sequence[int]) -> float:
    """Total projected misses of an allocation (the Monte Carlo metric)."""
    if len(curves) != len(ways):
        raise ConfigError("one way count per curve required")
    return sum(curve.misses_at(w) for curve, w in zip(curves, ways))

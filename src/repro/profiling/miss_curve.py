"""Miss-ratio curves and marginal utility (paper Section III.C).

The MSA histogram projects the miss count of every cache size; the
allocation algorithms consume that projection through *marginal utility*,
the economics concept the paper borrows from von Wieser:

    ``MarginalUtility(n) = (MissRate(c) - MissRate(c + n)) / n``

i.e. the per-way miss reduction of growing an allocation from ``c`` to
``c + n`` ways.  :class:`MissCurve` wraps the projected miss counts with
vectorised marginal-utility queries, and answers the lookahead's "best
block of up to ``n`` extra ways" question from a table built once per
curve, so the partitioning loops stay cheap even inside the 1000-mix Monte
Carlo harness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class MissCurve:
    """Projected misses for allocations of 0..K ways of one workload."""

    name: str
    misses: np.ndarray  #: misses[w] = misses with w dedicated ways
    total_accesses: float

    def __post_init__(self) -> None:
        m = np.asarray(self.misses, dtype=np.float64)
        if m.ndim != 1 or len(m) < 2:
            raise ConfigError("need misses for at least sizes 0 and 1")
        if np.any(np.diff(m) > 1e-9):
            raise ConfigError("miss counts must be non-increasing in ways")
        if self.total_accesses < m[0] - 1e-9:
            raise ConfigError("size-0 misses cannot exceed total accesses")
        # read-only, so the cached views below can never go stale
        m = m.view()
        m.flags.writeable = False
        object.__setattr__(self, "misses", m)

    @property
    def max_ways(self) -> int:
        return len(self.misses) - 1

    @functools.cached_property
    def _values(self) -> list[float]:
        """``misses`` as Python floats: the partitioning loops read single
        sizes, and a list read is several times cheaper than a numpy
        scalar read (the values are the same doubles)."""
        return self.misses.tolist()

    def misses_at(self, ways: int) -> float:
        """Projected misses with ``ways`` dedicated ways (clamped at K —
        an LRU cache larger than the tracked depth cannot miss more)."""
        if ways < 0:
            raise ConfigError("ways must be non-negative")
        try:
            return self._values[ways]
        except IndexError:
            return self._values[-1]

    def miss_ratio_at(self, ways: int) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.misses_at(ways) / self.total_accesses

    def miss_ratio_curve(self) -> np.ndarray:
        if self.total_accesses == 0:
            return np.zeros_like(self.misses)
        return self.misses / self.total_accesses

    # -- marginal utility ----------------------------------------------------

    def marginal_utility(self, current: int, extra: int) -> float:
        """Miss reduction per way of growing from ``current`` by ``extra``."""
        if extra < 1:
            raise ConfigError("extra ways must be positive")
        return (self.misses_at(current) - self.misses_at(current + extra)) / extra

    def marginal_utilities(self, current: int, max_extra: int) -> np.ndarray:
        """``out[n-1]`` = marginal utility of ``n`` extra ways, vectorised
        for n = 1..max_extra (the lookahead scan of the UCP algorithm)."""
        if max_extra < 1:
            raise ConfigError("max_extra must be positive")
        base = self.misses_at(current)
        sizes = np.minimum(current + np.arange(1, max_extra + 1), self.max_ways)
        return (base - self.misses[sizes]) / np.arange(1.0, max_extra + 1)

    def best_marginal_utility(self, current: int, max_extra: int) -> tuple[float, int]:
        """The lookahead step: max marginal utility over 1..max_extra extra
        ways and the (smallest) allocation achieving it.

        Equal to ``np.argmax`` over :meth:`marginal_utilities`, looked up in
        :attr:`_lookahead` and recomputed with the scan's own arithmetic.
        """
        if max_extra < 1:
            raise ConfigError("max_extra must be positive")
        base = self.misses_at(current)
        values = self._values
        k = len(values) - 1
        c = min(current, k)
        table = self._lookahead_flat
        # past K extra ways every size is K, so only a curve that ends
        # above its row's start (within the non-increase tolerance) can
        # still gain there; those and NaN curves scan
        if table is None or (max_extra > k and base < values[k]):
            mu = self.marginal_utilities(current, max_extra)
            best = int(np.argmax(mu))
            return float(mu[best]), best + 1
        extra = table[c * k + min(max_extra, k) - 1]
        return (base - values[min(c + extra, k)]) / extra, extra

    @functools.cached_property
    def _lookahead(self) -> np.ndarray | None:
        """``_lookahead[c, n-1]``: the smallest extra way count reaching the
        maximum of ``marginal_utilities(c, n)``, for c = 0..K, n = 1..K.

        Built once per curve from one vectorised pass with the scan's
        arithmetic and a running (prefix) maximum along each row; stored as
        uint8/uint16, ~16 KB at K = 128.  ``None`` when some marginal
        utility is NaN (``np.argmax`` semantics then need the scan).
        """
        m = self.misses
        k = self.max_ways
        steps = np.arange(1, k + 1)
        sizes = np.minimum(np.arange(k + 1)[:, None] + steps, k)
        mu = (m[:, None] - m[sizes]) / steps.astype(np.float64)
        running = np.maximum.accumulate(mu, axis=1)
        if np.isnan(running[:, -1]).any():
            return None
        rises = np.ones(mu.shape, dtype=bool)
        rises[:, 1:] = mu[:, 1:] > running[:, :-1]
        first = np.maximum.accumulate(np.where(rises, steps, 0), axis=1)
        return first.astype(np.uint8 if k < 256 else np.uint16)

    @functools.cached_property
    def _lookahead_flat(self) -> memoryview | None:
        """:attr:`_lookahead` flattened row-major, ``[c * K + n - 1]``: a
        view of the same buffer whose reads are Python ints."""
        table = self._lookahead
        return None if table is None else memoryview(table.reshape(-1))

    @staticmethod
    def from_histogram(
        name: str, histogram: np.ndarray, *, total_accesses: float | None = None
    ) -> "MissCurve":
        """Build a curve from an MSA histogram (K hit counters + miss)."""
        h = np.asarray(histogram, dtype=np.float64)
        if h.ndim != 1 or len(h) < 2:
            raise ConfigError("histogram needs K hit counters plus a miss bin")
        total = float(h.sum()) if total_accesses is None else total_accesses
        hits_cum = np.concatenate(([0.0], np.cumsum(h[:-1])))
        return MissCurve(name, total - hits_cum, total)

    @staticmethod
    def from_profiler(profiler: object, name: str | None = None) -> "MissCurve":
        """Build a curve from any profiler exposing ``histogram``."""
        label = name if name is not None else getattr(profiler, "name", "curve")
        return MissCurve.from_histogram(label, profiler.histogram)


def save_curves(path: str | Path, curves: dict[str, MissCurve]) -> None:
    """Persist a set of miss curves to one ``.npz`` file.

    Profiling the whole suite is the slow step of the analytic experiments;
    cached curves make Monte Carlo sweeps and CLI calls instant.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, curve in curves.items():
        arrays[f"misses:{name}"] = curve.misses
        arrays[f"total:{name}"] = np.array([curve.total_accesses])
    np.savez_compressed(path, **arrays)


def load_curves(path: str | Path) -> dict[str, MissCurve]:
    """Load curves written by :func:`save_curves`."""
    out: dict[str, MissCurve] = {}
    with np.load(path) as data:
        names = [k.split(":", 1)[1] for k in data.files if k.startswith("misses:")]
        for name in names:
            out[name] = MissCurve(
                name, data[f"misses:{name}"], float(data[f"total:{name}"][0])
            )
    return out

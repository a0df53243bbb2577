"""Memory-access trace containers.

The simulator is trace-driven (the substitution for the paper's Simics/GEMS
full-system runs): each core replays a :class:`Trace`, a columnar record of
memory operations.  Traces are stored as NumPy arrays for compactness and so
the workload generators can build them vectorised.

Each access carries:

* ``address`` — byte address (``uint64``),
* ``is_write`` — store vs. load,
* ``gap`` — number of non-memory instructions retired since the previous
  memory access (drives the analytic core timing model).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.util.bits import LINE_SHIFT

from repro.errors import ConfigError


class MemoryAccess(NamedTuple):
    """A single trace record (scalar view of one :class:`Trace` row)."""

    address: int
    is_write: bool
    gap: int

    @property
    def line(self) -> int:
        return self.address >> LINE_SHIFT


@dataclass(frozen=True)
class Trace:
    """An immutable columnar memory trace for one core.

    Each column is held as a read-only view, so one trace can be shared
    by several simulated systems (the schemes of one comparison) without
    any of them being able to change what the others replay.
    """

    addresses: np.ndarray  #: uint64 byte addresses
    is_write: np.ndarray  #: bool
    gaps: np.ndarray  #: uint32 non-memory instructions before each access

    def __post_init__(self) -> None:
        n = len(self.addresses)
        if len(self.is_write) != n or len(self.gaps) != n:
            raise ConfigError("trace columns must have equal length")
        for name, dtype in (
            ("addresses", np.uint64), ("is_write", np.bool_), ("gaps", np.uint32)
        ):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for addr, w, g in zip(
            self.addresses.tolist(), self.is_write.tolist(), self.gaps.tolist()
        ):
            yield MemoryAccess(addr, w, g)

    def __getitem__(self, i: int) -> MemoryAccess:
        return MemoryAccess(
            int(self.addresses[i]), bool(self.is_write[i]), int(self.gaps[i])
        )

    @property
    def lines(self) -> np.ndarray:
        """Cache-line numbers of every access (vectorised)."""
        return self.addresses >> np.uint64(LINE_SHIFT)

    @property
    def instruction_count(self) -> int:
        """Total instructions represented: memory ops plus all gaps."""
        return int(self.gaps.sum()) + len(self)

    def slice(self, start: int, stop: int | None = None) -> "Trace":
        """A sub-trace by access index (e.g. to split warmup from measure)."""
        sl = slice(start, stop)
        return Trace(self.addresses[sl], self.is_write[sl], self.gaps[sl])

    def concat(self, other: "Trace") -> "Trace":
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.is_write, other.is_write]),
            np.concatenate([self.gaps, other.gaps]),
        )

    def with_offset(self, byte_offset: int) -> "Trace":
        """Shift the whole address space (used to isolate cores' footprints)."""
        if byte_offset < 0:
            raise ConfigError("offset must be non-negative")
        return Trace(
            self.addresses + np.uint64(byte_offset), self.is_write, self.gaps
        )

    def footprint_lines(self) -> int:
        """Number of distinct cache lines the trace touches."""
        return len(np.unique(self.lines))

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path, addresses=self.addresses, is_write=self.is_write, gaps=self.gaps
        )

    @staticmethod
    def load(path: str | Path) -> "Trace":
        with np.load(path) as data:
            return Trace(data["addresses"], data["is_write"], data["gaps"])

    def save_text(self, path: str | Path) -> None:
        """Write a dinero-style text trace: one ``R|W <hex addr> <gap>``
        record per line (interoperable with external tools and editors)."""
        with open(path, "w") as fh:
            fh.write("# repro trace v1: R|W address(hex) gap\n")
            for addr, w, g in zip(
                self.addresses.tolist(), self.is_write.tolist(), self.gaps.tolist()
            ):
                fh.write(f"{'W' if w else 'R'} {addr:x} {g}\n")

    @staticmethod
    def load_text(path: str | Path) -> "Trace":
        """Read the text format written by :meth:`save_text` (``#`` lines
        and blank lines are ignored; gap defaults to 0 when omitted)."""
        records: list[tuple[int, bool, int]] = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) not in (2, 3) or parts[0] not in ("R", "W"):
                    raise ConfigError(f"{path}:{lineno}: bad record {line!r}")
                gap = int(parts[2]) if len(parts) == 3 else 0
                records.append((int(parts[1], 16), parts[0] == "W", gap))
        return Trace.from_records(records)

    @staticmethod
    def from_records(records: list[tuple[int, bool, int]]) -> "Trace":
        """Build a trace from ``(address, is_write, gap)`` tuples (tests)."""
        if records:
            addrs, writes, gaps = zip(*records)
        else:
            addrs, writes, gaps = (), (), ()
        return Trace(
            np.asarray(addrs, dtype=np.uint64),
            np.asarray(writes, dtype=np.bool_),
            np.asarray(gaps, dtype=np.uint32),
        )

    @staticmethod
    def from_lines(
        lines: np.typing.ArrayLike,
        is_write: np.typing.ArrayLike | None = None,
        gap: int = 0,
    ) -> "Trace":
        """Build a trace from cache-line numbers with a constant gap."""
        lines = np.asarray(lines, dtype=np.uint64)
        addrs = lines << np.uint64(LINE_SHIFT)
        writes = (
            np.zeros(len(lines), dtype=np.bool_)
            if is_write is None
            else np.asarray(is_write, dtype=np.bool_)
        )
        gaps = np.full(len(lines), gap, dtype=np.uint32)
        return Trace(addrs, writes, gaps)


def interleave_round_robin(traces: list[Trace]) -> list[tuple[int, MemoryAccess]]:
    """Round-robin interleaving of several traces into ``(core, access)``
    pairs.  Useful for feeding multiprogrammed streams to non-timed models
    (the timed simulator interleaves by simulated time instead)."""
    iters = [iter(t) for t in traces]
    out: list[tuple[int, MemoryAccess]] = []
    live = set(range(len(traces)))
    while live:
        for core in sorted(live.copy()):
            try:
                out.append((core, next(iters[core])))
            except StopIteration:
                live.discard(core)
    return out

"""Build, cache and load the compiled kernel library (``kernel.c``).

One library serves two consumers: the batched simulation engine's event
loop (``sim_run``, driven by :mod:`repro.sim.batched`) and the MSA
profilers' exact LRU stack walk (``msa_walk``, driven by ``observe_many``
in :mod:`repro.profiling`).  This module is an import leaf so that both
can use it; the profilers import it on first use, keeping ``repro.cli``'s
start-up import set unchanged.

The kernel is compiled with the installed gcc on first use and loaded
through :mod:`ctypes`, so it adds no dependency.
The shared object is cached per host under ``~/.cache/repro/kernel``,
keyed by a hash of the C source, the compiler flags and ``gcc --version``,
and installed by atomic rename: concurrent builders (``--jobs N`` workers)
each compile to a private temporary file, and a loader only ever opens a
complete library.

:func:`load` returns ``None`` when the kernel cannot be built or loaded
(no gcc, a failed compile, an unwritable cache); it then warns once per
process, and both consumers run their reference loops instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.util.atomic_write import replace_and_sync

SOURCE = Path(__file__).with_name("kernel.c")

#: no fast-math and no FMA contraction: every double operation rounds
#: exactly as the reference loop's Python float arithmetic does
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

#: ``sim_run`` return codes (see kernel.c)
RC_BARRIER, RC_EXHAUSTED, RC_IDLE, RC_NO_WAYS, RC_NO_PARTITION = 0, 1, 2, -1, -2

#: the field order of ``struct sim`` in kernel.c, one line per run of
#: fields sharing a kind: ``i`` int64, ``d`` double, ``p`` pointer
_LAYOUT = """
i ncores nbanks nsets ways set_bits line_shift mode max_demotions promote_on_hit placement_hash
d bank_busy mem_busy mem_lat
p tags dirty owners stamps seq clocks
i seq_next
p dir_keys dir_vals
i dir_bits
p masks order order_pos chain chain_len chain_pos l1 l1_len l2bank rr
i shared_rr
p bhits bmiss bevict bwb
i migrations writebacks
p lat pnext pdelay
d mnext mdelay
i regulate
d window
p budgets used demand rwin
i throttled
d throttle_cycles
p arrival stall mlp pos end addrs writes comp
d barrier
i cur_core
d cur_time
i err_core err_bank
"""

_KINDS = {"i": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p}


class SimState(ctypes.Structure):
    """ctypes mirror of ``struct sim``."""

    _fields_ = [
        (name, _KINDS[kind])
        for kind, *names in (line.split() for line in _LAYOUT.strip().splitlines())
        for name in names
    ]


_POINTERS = frozenset(
    name for name, kind in SimState._fields_ if kind is ctypes.c_void_p
)


def make_state(arrays: dict[str, np.ndarray], **scalars: float) -> SimState:
    """A :class:`SimState` whose pointer fields point into ``arrays``.

    ctypes accepts unknown field names silently and a pointer left NULL
    would crash the kernel, so every pointer field must be bound to a
    C-contiguous array and every scalar must name a field.  The caller
    keeps ``arrays`` alive while the kernel runs.
    """
    bad = set(scalars) - {name for name, _ in SimState._fields_} | (
        set(scalars) & _POINTERS
    )
    if set(arrays) != _POINTERS or bad:
        raise ValueError(
            f"kernel state mismatch: pointers {sorted(set(arrays) ^ _POINTERS)}, "
            f"scalars {sorted(bad)}"
        )
    state = SimState(**scalars)
    for name, arr in arrays.items():
        if not arr.flags.c_contiguous:
            raise ValueError(f"kernel array {name} is not C-contiguous")
        setattr(state, name, arr.ctypes.data)
    return state


class KernelUnavailable(RuntimeError):
    """The kernel could not be compiled or loaded on this host."""


def default_cache_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "kernel"


def _compiler() -> str | None:
    return shutil.which("gcc")


def build(cache_dir: Path) -> Path:
    """Compile ``kernel.c`` into ``cache_dir`` unless a library built from
    the same source, flags and compiler is already there; returns its path."""
    gcc = _compiler()
    if gcc is None:
        raise KernelUnavailable("gcc not found on PATH")
    try:
        version = subprocess.run(
            [gcc, "--version"], capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise KernelUnavailable(f"gcc --version failed: {exc}") from exc
    digest = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(CFLAGS).encode(), version.encode()):
        digest.update(part)
        digest.update(b"\0")
    target = cache_dir / f"kernel-{digest.hexdigest()[:20]}.so"
    if target.is_file():
        return target
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".build-", suffix=".so")
        os.close(fd)
    except OSError as exc:
        raise KernelUnavailable(f"kernel cache {cache_dir}: {exc}") from exc
    try:
        proc = subprocess.run(
            [gcc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise KernelUnavailable(f"gcc failed: {proc.stderr.strip()[:500]}")
        replace_and_sync(tmp, target)
    except OSError as exc:
        raise KernelUnavailable(f"building the kernel: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def open_library(path: Path) -> ctypes.CDLL:
    """Load a built kernel and declare its entry points."""
    lib = ctypes.CDLL(str(path))
    lib.sim_state_size.argtypes = []
    lib.sim_state_size.restype = ctypes.c_int64
    if lib.sim_state_size() != ctypes.sizeof(SimState):
        raise KernelUnavailable("struct sim in kernel.c and SimState differ")
    state = ctypes.POINTER(SimState)
    lib.sim_run.argtypes = [state, ctypes.c_int]
    lib.sim_run.restype = ctypes.c_int
    lib.sim_dir_rebuild.argtypes = [state]
    lib.sim_dir_rebuild.restype = None
    lib.py_floordiv.argtypes = [ctypes.c_double, ctypes.c_double]
    lib.py_floordiv.restype = ctypes.c_double
    ptr = ctypes.c_void_p
    lib.msa_walk.argtypes = [
        ctypes.c_int64, ptr, ptr, ctypes.c_int64, ptr, ptr, ptr,
        ctypes.POINTER(ctypes.c_double),
    ]
    lib.msa_walk.restype = None
    return lib


@functools.lru_cache(maxsize=1)
def load() -> ctypes.CDLL | None:
    """The process's kernel library, or ``None`` (after one warning) when
    it cannot be built or loaded here."""
    try:
        return open_library(build(default_cache_dir()))
    except (OSError, RuntimeError) as exc:  # KernelUnavailable; no home dir
        warnings.warn(
            f"compiled kernel unavailable ({exc}); the batched simulation "
            "engine and the MSA profilers' observe_many run their reference "
            "loops",
            RuntimeWarning,
            stacklevel=2,
        )
        return None

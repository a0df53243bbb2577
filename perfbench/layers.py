"""Outside-in host-time attribution for the repro CLI.

The program is not edited: :func:`install` replaces each layer's public
functions with timing wrappers from here, so a traced run records, per
layer, a call count, a unit count (accesses generated, lines profiled) and
its *self* time -- its wrappers' time minus that of the wrapped calls
nested inside them.  What no layer covers is the ``unattributed``
remainder, so the table sums to the wall time it was taken over.

:func:`install_probes` is the light half used by untraced samples too: it
hooks the two per-system calls of ``CMPSystem`` (a handful per command) to
read simulated-time counts and the engine's inclusive host time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections.abc import Callable

#: (layer, module, attribute path, unit counter).  A dotted path names a
#: method; a plain name is a module function, rebound in every loaded
#: module that imported it by name.  Layer names follow the modules.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("workloads.trace", "repro.workloads.synthetic", "generate_trace",
     lambda args, kwargs, out: len(out)),
    ("sim.build", "repro.sim.runner", "build_system", None),
    ("sim.engine", "repro.sim.system", "CMPSystem._run_engine", None),
    ("sim.controller", "repro.sim.controller", "EpochController.tick", None),
    ("cache.nuca.access", "repro.cache.nuca", "NucaL2.access", None),
    ("cache.bank.access", "repro.cache.bank", "CacheBank.access", None),
    ("cache.bank.fill", "repro.cache.bank", "CacheBank.fill", None),
    ("noc.bank_delay", "repro.noc.contention",
     "ContentionModel.bank_delay", None),
    ("noc.memory_delay", "repro.noc.contention",
     "ContentionModel.memory_delay", None),
    ("cpu.timer", "repro.cpu.core", "CoreTimer.advance_compute", None),
    ("cpu.timer", "repro.cpu.core", "CoreTimer.complete_access", None),
    ("profiling.observe", "repro.profiling.msa", "MSAProfiler.observe", None),
    ("profiling.observe", "repro.profiling.sampled",
     "SampledMSAProfiler.observe", None),
    ("profiling.observe_many", "repro.profiling.msa",
     "MSAProfiler.observe_many", lambda args, kwargs, out: len(args[1])),
    ("profiling.observe_many", "repro.profiling.sampled",
     "SampledMSAProfiler.observe_many",
     lambda args, kwargs, out: len(args[1])),
    ("partitioning.bank_bw.charge", "repro.partitioning.bank_bw",
     "BankBudgetRegulator.charge", None),
    ("partitioning.unrestricted", "repro.partitioning.unrestricted",
     "unrestricted_partition", None),
    ("partitioning.bank_aware", "repro.partitioning.bank_aware",
     "bank_aware_partition", None),
    ("montecarlo.collect_profiles", "repro.analysis.montecarlo",
     "collect_profiles", None),
)

#: every registered policy's own ``decide`` is timed as this layer.
DECIDE_LAYER = "partitioning.decide"


class Recorder:
    """Call counts, unit counts and self times of wrapped layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer -> [calls, self seconds, units]
        self.cells: dict[str, list] = {}
        self._stack: list[float] = []

    def wrap(self, layer: str, fn: Callable,
             units: Callable | None = None) -> Callable:
        """``fn`` timed as ``layer``: nested wrapped time is subtracted
        from this call's self time and added to its caller's nested time."""
        cell = self.cells.setdefault(layer, [0, 0.0, 0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                nested = stack.pop()
                cell[0] += 1
                cell[1] += spent - nested
                if stack:
                    stack[-1] += spent
            if units is not None:
                cell[2] += units(args, kwargs, out)
            return out

        return timed

    def table(self, wall_s: float) -> dict[str, dict]:
        """Per-layer rows plus the ``unattributed`` remainder of ``wall_s``."""
        rows = {
            layer: {"calls": calls, "self_s": self_s, "units": units}
            for layer, (calls, self_s, units) in sorted(self.cells.items())
        }
        attributed = sum(row["self_s"] for row in rows.values())
        rows["unattributed"] = {
            "calls": 0, "self_s": wall_s - attributed, "units": 0,
        }
        return rows


def _rebind_function(name: str, wrapper: Callable, original: Callable,
                     undo: list) -> None:
    """Rebind ``name`` in every loaded repro module that imported
    ``original`` by name."""
    for module in list(sys.modules.values()):
        modname = getattr(module, "__name__", "")
        if not (modname == "repro" or modname.startswith("repro.")):
            continue
        if getattr(module, name, None) is original:
            undo.append((module, name, original))
            setattr(module, name, wrapper)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer of :data:`LAYERS` and every policy ``decide``;
    returns a function that restores the originals."""
    # the batched engine is imported lazily by the program; load it now so
    # its module-level bindings are rebound too
    importlib.import_module("repro.sim.batched")
    undo: list[tuple[object, str, object]] = []
    for layer, module_name, path, units in LAYERS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, recorder.wrap(layer, original, units))
        else:
            original = getattr(module, path)
            _rebind_function(path, recorder.wrap(layer, original, units),
                             original, undo)
    registry = importlib.import_module("repro.partitioning.registry")
    seen: set[type] = set()
    for name in registry.registered_policies():
        cls = type(registry.get_policy(name))
        if cls in seen or "decide" not in cls.__dict__:
            continue
        seen.add(cls)
        original = cls.__dict__["decide"]
        undo.append((cls, "decide", original))
        setattr(cls, "decide", recorder.wrap(DECIDE_LAYER, original))

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def install_probes(systems: list[dict]) -> None:
    """Append one record per finished ``CMPSystem.run`` to ``systems``:
    scheme, simulated counts and the engine's inclusive host time.  Costs
    two wrapped calls per simulated system."""
    system_mod = importlib.import_module("repro.sim.system")
    cls = system_mod.CMPSystem
    run, run_engine = cls.__dict__["run"], cls.__dict__["_run_engine"]

    engine_s: dict[int, float] = {}

    @functools.wraps(run_engine)
    def timed_engine(self):
        start = time.perf_counter()
        try:
            return run_engine(self)
        finally:
            engine_s[id(self)] = time.perf_counter() - start

    @functools.wraps(run)
    def probed_run(self):
        out = run(self)
        record = system_record(self)
        record["engine_s"] = engine_s.pop(id(self), 0.0)
        systems.append(record)
        return out

    cls._run_engine = timed_engine
    cls.run = probed_run


def system_record(system) -> dict:
    """Simulated-time health and counts of one finished system."""
    stats = system.l2.stats
    controller = system.controller
    guard = controller.guard if controller is not None else None
    ports = system.contention.ports
    memory = system.contention.memory_port
    return {
        "scheme": system.scheme,
        "accesses": stats.total_accesses(),
        "hits": stats.total_hits(),
        "migrations": stats.migrations,
        "stop_time": system.stop_time,
        "max_cycles": system.max_cycles,
        "epochs": len(controller.history) if controller is not None else 0,
        "guard_fallbacks": (
            sum(1 for e in guard.events if e.kind == "fault")
            if guard is not None else 0
        ),
        "bank_served": sum(p.served for p in ports),
        "bank_queue_cycles": sum(p.total_queue_delay for p in ports),
        "mem_served": memory.served,
        "mem_queue_cycles": memory.total_queue_delay,
    }

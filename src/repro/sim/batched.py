"""Batched execution backend for :class:`CMPSystem`: the compiled event loop.

The reference backend (``repro.sim.system``) pays Python object overhead on
every L2 access.  This backend checks the whole simulation state out of the
object model into flat numpy arrays, runs the per-access loop in the C
kernel of ``kernel.c`` (built and loaded by :mod:`repro.kernel`), and
defers profiler observations to ``observe_many`` batches.  See
DESIGN.md §15.

The kernel is entered once per *barrier*: the next controller tick, the
warm-up boundary while some core has not opened its measurement window,
or ``max_cycles``, whichever comes first.  It returns a reason code; on a
barrier this module replays the reference's per-event checks for the
boundary event in the reference's order (max_cycles, tick, warm-up mark)
and re-enters the kernel, which then processes that event first.

Bit-identity with the reference loop is a hard requirement, gated by
``repro diff`` in CI and by ``tests/test_sim_backends.py``:

* **Event order.** The reference heap pops ``(arrival, core)`` tuples; the
  kernel takes the lexicographic minimum over the per-core next arrivals
  (strict ``<`` in core order, so ties go to the lowest core).
* **Float arithmetic.** Every IEEE operation of the reference path is
  repeated with the same operands in the same association (queue delays,
  latency accumulation, the MLP-divided timer advance, the regulator's
  window arithmetic with CPython's float floor division); the kernel is
  compiled without fast-math and with ``-ffp-contract=off``.  Compute
  advances are precomputed as ``gaps * nonmem_cpi`` (elementwise float64,
  bit-equal to the scalar product).  Instruction and access counters are
  integers, so they are recovered from sums over the trace instead.
* **Profiler batches** are flushed before every due tick, excluding the
  boundary event itself, which the reference observes after the tick.
* **Directory order.** Every fill stamps its slot with a placement
  sequence number; ``check_in`` rebuilds ``l2._where`` ordered by it,
  which is the reference dict's insertion order (every reference insert
  is of an absent key).
* **Shared mutable state** (cache image, statistics, ports, round-robin
  cursors, regulator) lives in the arrays during the run and is written
  back before each tick that needs it and at run end, so the controller,
  sanitizer, tracer and ``results()`` always read coherent object state.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from repro.cpu.core import CoreSnapshot
from repro.errors import ConfigError
from repro import kernel
from repro.telemetry.spans import maybe_span
from repro.util.bits import LINE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import CMPSystem

_INF = float("inf")

# placement-mode codes, as the enum in kernel.c
_SH_DNUCA, _SH_HASH, _SH_PAR, _P_AGG, _P_DNUCA = range(5)


def run_batched(system: "CMPSystem", lib: ctypes.CDLL) -> None:  # noqa: C901
    """Execute ``system``'s event loop on the compiled kernel ``lib``.

    Leaves ``system`` (timers, caches, stats, controller, tracer,
    ``stop_time``, trace positions) in exactly the state the reference
    loop would have produced.
    """
    config = system.config
    ncores = config.num_cores
    l2 = system.l2
    banks = l2.banks
    nbanks = len(banks)
    ways = l2.config.bank_ways
    nsets = banks[0].num_sets
    bank_slots = nsets * ways
    nslots = nbanks * bank_slots
    if ways > 64:
        raise ConfigError("the compiled kernel supports at most 64 ways")
    if l2._mode == "shared":
        mode = {"dnuca": _SH_DNUCA, "hash": _SH_HASH, "parallel": _SH_PAR}[
            l2.placement
        ]
    else:
        mode = _P_DNUCA if l2.placement == "dnuca" else _P_AGG

    # -- check out the cache image -------------------------------------------
    sets = [cs for bank in banks for cs in bank.sets]
    a = {
        "tags": np.full(nslots, -1, np.int64),
        "dirty": np.zeros(nslots, np.uint8),
        "owners": np.full(nslots, -1, np.int64),
        "stamps": np.zeros(nslots, np.int64),
        "seq": np.zeros(nslots, np.int64),
        "clocks": np.array([cs._clock for cs in sets], np.int64),
    }
    # a set with no resident line holds the empty-way values the arrays
    # start with (CacheSet init and invalidate both restore them), so
    # only occupied sets are copied -- none, for a fresh system
    occupied = [i for i, cs in enumerate(sets) if cs._map]
    if occupied:
        slots = (np.array(occupied)[:, None] * ways + np.arange(ways)).ravel()
        full = [sets[i] for i in occupied]
        a["tags"][slots] = [
            -1 if t is None else t for cs in full for t in cs._tags
        ]
        for name, attr in (("dirty", "_dirty"), ("owners", "_owner"),
                           ("stamps", "_stamps")):
            a[name][slots] = [v for cs in full for v in getattr(cs, attr)]
    # placement sequence: seeded in l2._where's insertion order
    for i, (line, bank_id) in enumerate(l2._where.items(), start=1):
        si = line & (nsets - 1)
        way = banks[bank_id].sets[si]._map[line]
        a["seq"][(bank_id * nsets + si) * ways + way] = i
    dir_bits = max(4, (2 * nslots - 1).bit_length())
    a["dir_keys"] = np.empty(1 << dir_bits, np.int64)
    a["dir_vals"] = np.empty(1 << dir_bits, np.int64)

    # -- statistics, ports, latencies ----------------------------------------
    bhits = np.array(
        [[bank.stats.hits.get(c, 0) for c in range(ncores)] for bank in banks],
        np.int64,
    )
    bmiss = np.array(
        [[bank.stats.misses.get(c, 0) for c in range(ncores)] for bank in banks],
        np.int64,
    )
    a["bhits"], a["bmiss"] = bhits, bmiss
    a["bevict"] = np.array([b.stats.evictions for b in banks], np.int64)
    a["bwb"] = np.array([b.stats.writebacks for b in banks], np.int64)
    # NUCA and port totals are bases plus the (order-free) integer sums of
    # the per-(bank, core) matrices
    nhits = l2.stats._hits
    nmiss = l2.stats._misses
    nh_base = [nhits[c] - int(bhits[:, c].sum()) for c in range(ncores)]
    nm_base = [nmiss[c] - int(bmiss[:, c].sum()) for c in range(ncores)]
    contention = system.contention
    ports = contention.ports
    mport = contention.memory_port
    pbase = [
        ports[b].served - int(bhits[b].sum()) - int(bmiss[b].sum())
        for b in range(nbanks)
    ]
    mbase = mport.served - int(bmiss.sum())
    a["pnext"] = np.array([p.next_free for p in ports], np.float64)
    a["pdelay"] = np.array([p.total_queue_delay for p in ports], np.float64)
    a["lat"] = np.array(system._lat, np.float64)

    # -- partition mirrors (refreshed after every controller tick) -----------
    a["order"] = np.array(l2.bank_orders, np.int64)
    a["order_pos"] = np.array(
        [[l2._order_pos[c][b] for b in range(nbanks)] for c in range(ncores)],
        np.int64,
    )
    for name in ("chain", "chain_pos", "l1"):
        a[name] = np.full((ncores, nbanks), -1, np.int64)
    for name in ("chain_len", "l1_len", "l2bank", "rr"):
        a[name] = np.zeros(ncores, np.int64)
    a["masks"] = np.zeros((nbanks, ncores), np.uint64)

    def refresh_partition() -> None:
        for b, bank in enumerate(banks):
            for c in range(ncores):
                a["masks"][b, c] = sum(1 << w for w in bank.candidates_for(c))
        if l2._mode != "partitioned":
            return
        a["chain_pos"].fill(-1)
        a["chain_len"].fill(0)
        for c, chain in l2._chain.items():
            a["chain"][c, :len(chain)] = chain
            a["chain_len"][c] = len(chain)
            a["chain_pos"][c, chain] = np.arange(len(chain))
        for c, part in l2._pmap.partitions.items():
            a["l1"][c, :len(part.level1)] = [x.bank for x in part.level1]
            a["l1_len"][c] = len(part.level1)
            a["l2bank"][c] = part.level2.bank if part.level2 is not None else -1
            a["rr"][c] = l2._rr[c]

    refresh_partition()

    # -- bank-bw regulator ----------------------------------------------------
    regulator = system.regulator
    reg_fields = (("budgets", "budgets", np.int64), ("used", "_used", np.int64),
                  ("demand", "demand", np.int64), ("rwin", "_window", np.float64))
    for name, attr, dtype in reg_fields:
        a[name] = np.array(
            getattr(regulator, attr) if regulator is not None else [[0]], dtype
        )

    def regulator_in() -> None:
        for name, attr, _ in reg_fields:
            a[name][...] = getattr(regulator, attr)

    def regulator_out() -> None:
        for name, attr, _ in reg_fields:
            for row, values in zip(getattr(regulator, attr), a[name].tolist()):
                row[:] = values
        regulator.throttled = st.throttled
        regulator.total_throttle_cycles = st.throttle_cycles

    # -- cores and traces -----------------------------------------------------
    timers = system.timers
    ctime = [t.time for t in timers]
    cinstr = [t.instructions for t in timers]
    cacc = [t.accesses for t in timers]
    counts = system._len
    pos0 = list(system._pos)
    gaps = system._gaps
    addrs = [np.ascontiguousarray(x) for x in system._addrs]
    writes = [np.ascontiguousarray(x).view(np.uint8) for x in system._writes]
    # cast and product in one pass (no float64 copy of the gaps first);
    # each element is still float64(gap) * nonmem_cpi
    comp = [
        np.multiply(g, timers[c].nonmem_cpi, dtype=np.float64)
        for c, g in enumerate(gaps)
    ]
    a["arrival"] = np.full(ncores, _INF)
    a["stall"] = np.array([t.mem_stall for t in timers], np.float64)
    a["mlp"] = np.array([t.mlp for t in timers], np.float64)
    a["pos"] = np.array(pos0, np.int64)
    a["end"] = np.array(counts, np.int64)
    for name, cols in (("addrs", addrs), ("writes", writes), ("comp", comp)):
        a[name] = np.array([col.ctypes.data for col in cols], np.uint64)

    def instructions(c: int, stop: int) -> int:
        """Instruction count once accesses ``[pos0, stop)`` are scheduled."""
        return (
            cinstr[c] + int(gaps[c][pos0[c]:stop].sum(dtype=np.int64))
            + stop - pos0[c]
        )

    # -- the kernel's state struct --------------------------------------------
    st = kernel.make_state(
        a,
        ncores=ncores, nbanks=nbanks, nsets=nsets, ways=ways,
        set_bits=l2._set_bits, mode=mode, max_demotions=l2.max_demotions,
        promote_on_hit=int(l2.promote_on_hit),
        placement_hash=int(l2.placement == "hash"),
        bank_busy=float(ports[0].busy_cycles),
        mem_busy=float(mport.busy_cycles),
        mem_lat=float(config.memory.latency_cycles),
        seq_next=len(l2._where) + 1, dir_bits=dir_bits, line_shift=LINE_SHIFT,
        shared_rr=l2._shared_rr, migrations=l2.stats.migrations,
        writebacks=l2.stats.writebacks,
        mnext=mport.next_free, mdelay=mport.total_queue_delay,
        regulate=int(regulator is not None),
        window=regulator.window_cycles if regulator is not None else 1.0,
        throttled=regulator.throttled if regulator is not None else 0,
        throttle_cycles=(
            regulator.total_throttle_cycles if regulator is not None else 0.0
        ),
    )
    state = ctypes.byref(st)
    lib.sim_dir_rebuild(state)

    # -- synchronisation points ----------------------------------------------
    profilers = system.profilers
    pend = list(pos0)

    def flush_pending() -> None:
        """Hand deferred observations to the profilers' batch walk.  A
        boundary event is excluded (its core's position still points at
        it): the reference observes it only after the tick."""
        if profilers is None:
            return
        for c in range(ncores):
            end = int(a["pos"][c])
            start = pend[c]
            if end > start:
                # the int64 view is the walk's own input type, so the
                # shifted slice is the batch's only copy
                lines = system._addrs[c][start:end] >> np.uint64(LINE_SHIFT)
                profilers[c].observe_many(lines.view(np.int64))
                pend[c] = end

    def core_l2(c: int) -> tuple[int, int]:
        return (nh_base[c] + int(bhits[:, c].sum()),
                nm_base[c] + int(bmiss[:, c].sum()))

    def check_in() -> None:
        """Write the flat cache image and counters back into the objects."""
        # flat lists sliced per set: each new list replaces the set's old
        # one, so the collector sees no net growth of tracked objects
        tags = a["tags"].tolist()
        dirty = a["dirty"].astype(bool).tolist()
        owners = a["owners"].tolist()
        stamps = a["stamps"].tolist()
        for i, (cs, clock) in enumerate(zip(sets, a["clocks"].tolist())):
            lo, hi = i * ways, (i + 1) * ways
            tl = tags[lo:hi]
            if -1 in tl:
                tl = [None if t == -1 else t for t in tl]
            cs._tags = tl
            cs._dirty = dirty[lo:hi]
            cs._owner = owners[lo:hi]
            cs._stamps = stamps[lo:hi]
            cs._clock = clock
            cs._map = {t: w for w, t in enumerate(tl) if t is not None}
        for b, bank in enumerate(banks):
            stats = bank.stats
            stats.hits = {c: v for c, v in enumerate(bhits[b].tolist()) if v}
            stats.misses = {c: v for c, v in enumerate(bmiss[b].tolist()) if v}
            stats.evictions = int(a["bevict"][b])
            stats.writebacks = int(a["bwb"][b])
        if mode != _SH_HASH:
            occupied = np.flatnonzero(a["tags"] >= 0)
            occupied = occupied[np.argsort(a["seq"][occupied], kind="stable")]
            l2._where = dict(
                zip(a["tags"][occupied].tolist(),
                    (occupied // bank_slots).tolist())
            )
        for c in range(ncores):
            nhits[c], nmiss[c] = core_l2(c)
        l2.stats.migrations = st.migrations
        l2.stats.writebacks = st.writebacks
        l2._shared_rr = st.shared_rr
        for b, port in enumerate(ports):
            port.next_free = float(a["pnext"][b])
            port.served = pbase[b] + int(bhits[b].sum()) + int(bmiss[b].sum())
            port.total_queue_delay = float(a["pdelay"][b])
        mport.next_free = st.mnext
        mport.served = mbase + int(bmiss.sum())
        mport.total_queue_delay = st.mdelay

    def sync_out() -> None:
        """Hand the controller the state a tick reads and resets."""
        if l2._mode == "partitioned":
            for c in l2._rr:
                l2._rr[c] = int(a["rr"][c])
        if regulator is not None:
            regulator_out()

    def emit_snapshot(now: float, epoch: int) -> None:
        core_counts = [core_l2(c) for c in range(ncores)]
        system.tracer.emit(
            "bank_snapshot",
            time=now,
            epoch=epoch,
            hits=bhits.sum(axis=1).tolist(),
            misses=bmiss.sum(axis=1).tolist(),
            occupancy=(a["tags"].reshape(nbanks, -1) >= 0).sum(axis=1).tolist(),
            queue_served=[
                pbase[b] + int(bhits[b].sum()) + int(bmiss[b].sum())
                for b in range(nbanks)
            ],
            queue_delay=a["pdelay"].tolist(),
            migrations=st.migrations,
            writebacks=st.writebacks,
            core_hits=[h for h, _ in core_counts],
            core_misses=[m for _, m in core_counts],
        )

    def mark(c: int, now: float, pc: int) -> None:
        """Open core ``c``'s measurement window at its access ``pc``."""
        system._start_snaps[c] = CoreSnapshot(
            now, instructions(c, pc + 1), float(a["stall"][c]),
            cacc[c] + pc - pos0[c],
        )
        system._start_l2[c] = core_l2(c)
        marked[c] = True

    # -- initial scheduling (mirrors the reference pre-loop) -----------------
    controller = system.controller
    next_epoch = controller.next_epoch if controller is not None else _INF
    sanitizer = system.sanitizer
    spans = system.spans
    warmup = system.warmup_cycles
    max_cycles = system.max_cycles
    have_max = max_cycles is not None
    marked = [s is not None for s in system._start_snaps]
    for c in range(ncores):
        if warmup == 0 and not marked[c]:
            system._start_snaps[c] = CoreSnapshot(
                ctime[c], cinstr[c], float(a["stall"][c]), cacc[c]
            )
            system._start_l2[c] = (nhits[c], nmiss[c])
            marked[c] = True
        if pos0[c] < counts[c]:
            ctime[c] += comp[c][pos0[c]].item()
            a["arrival"][c] = ctime[c]
    nunmarked = sum(
        1 for c in range(ncores) if not marked[c] and pos0[c] < counts[c]
    )

    # -- the barrier loop -----------------------------------------------------
    stop: float | None = None
    force = 0
    while True:
        bar = next_epoch
        if have_max and max_cycles < bar:
            bar = max_cycles
        if nunmarked and warmup < bar:
            bar = warmup
        st.barrier = bar
        rc = lib.sim_run(state, force)
        if rc == kernel.RC_EXHAUSTED:
            # the first exhausted trace ends the run (the seam where
            # chunked traces would be refilled instead)
            stop = st.cur_time
            break
        if rc == kernel.RC_IDLE:
            break
        if rc == kernel.RC_NO_WAYS:
            raise PermissionError(
                f"core {st.err_core} owns no ways in bank {st.err_bank}"
            )
        if rc == kernel.RC_NO_PARTITION:
            raise KeyError(st.err_core)  # the reference's partition lookup
        t, c = st.cur_time, st.cur_core
        # reference per-event check order: max_cycles, tick, warmup
        if have_max and t >= max_cycles:
            stop = max_cycles
            break
        if t >= next_epoch:
            with maybe_span(spans, "profiler.flush"):
                flush_pending()
            if sanitizer is not None:
                with maybe_span(spans, "queue.drain"):
                    check_in()
            sync_out()
            installed = controller.tick(t)
            next_epoch = controller.next_epoch
            refresh_partition()
            if regulator is not None:
                regulator_in()
            if installed and system.tracer is not None:
                emit_snapshot(t, controller.epoch_index - 1)
        if nunmarked and t >= warmup and not marked[c]:
            mark(c, t, int(a["pos"][c]))
            nunmarked -= 1
        force = 1

    # -- final write-back -----------------------------------------------------
    with maybe_span(spans, "profiler.flush"):
        flush_pending()
    with maybe_span(spans, "queue.drain"):
        check_in()
    sync_out()
    poss = a["pos"].tolist()
    for c, timer in enumerate(timers):
        arrival = float(a["arrival"][c])
        timer.time = ctime[c] if arrival == _INF else arrival
        timer.instructions = instructions(c, min(poss[c] + 1, counts[c]))
        timer.mem_stall = float(a["stall"][c])
        timer.accesses = cacc[c] + poss[c] - pos0[c]
    system._pos = poss
    if stop is not None:
        system.stop_time = stop

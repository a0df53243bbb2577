"""Metric values from benchmark samples.

End-to-end metrics come from untraced samples; per-layer metrics from one
untraced and one traced sample of the same command.  README.md defines
each metric; BENCHMARK.json lists them with their units.
"""

from __future__ import annotations

import statistics

from workloads import SCHEMES, Workload, parse_table, work_done

#: layers reported as ``<layer>.calls`` and ``<layer>.self_s``
COUNTED_LAYERS = (
    "cache.nuca.access", "cache.bank.access", "cache.bank.fill",
    "noc.bank_delay", "noc.memory_delay", "cpu.timer",
    "profiling.observe", "profiling.observe_many",
    "partitioning.decide", "partitioning.bank_bw.charge",
    "partitioning.unrestricted", "partitioning.bank_aware",
    "workloads.trace",
)


def end_to_end(workload: Workload, sample: dict) -> dict[str, float]:
    """One untraced sample's end-to-end figures."""
    setup = sample["setup_s"]
    return {
        "setup_s": setup,
        "work_per_s": work_done(workload, sample) / (sample["wall_s"] - setup),
        "peak_rss_mb": sample["rss_mb"],
    }


def engine_ns_per_access(sample: dict) -> float:
    """Inclusive engine host time per simulated access (untraced)."""
    systems = sample["systems"]
    total = sum(s["accesses"] for s in systems)
    return 1e9 * sum(s["engine_s"] for s in systems) / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: dict, traced: dict, load_1m: float, nproc: int
              ) -> dict[str, float]:
    """Per-layer metrics of one (untraced, traced) pair of samples."""
    rows = traced["layers"]
    empty = {"calls": 0, "self_s": 0.0, "units": 0}

    def row(layer: str) -> dict:
        return rows.get(layer, empty)

    out: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = row(layer)["calls"]
        out[f"{layer}.self_s"] = row(layer)["self_s"]

    systems = traced["systems"]
    simulated = sum(s["accesses"] for s in systems)
    generated = row("workloads.trace")["units"]
    lines = row("profiling.observe_many")["units"]
    out["workloads.trace.accesses_generated"] = generated
    out["workloads.trace.ns_per_access"] = 1e9 * _ratio(
        row("workloads.trace")["self_s"], generated)
    # a detailed run uses what it simulates; the Monte Carlo profiles all
    out["workloads.trace.used_frac"] = _ratio(
        simulated if systems else lines, generated)

    out["sim.build.self_s"] = row("sim.build")["self_s"]
    out["sim.engine.self_s"] = row("sim.engine")["self_s"]
    out["sim.engine.ns_per_access"] = engine_ns_per_access(plain)
    out["sim.accesses"] = simulated
    windows = {}
    for s in systems:
        windows[s["scheme"]] = _ratio(s["stop_time"] or 0.0,
                                      s["max_cycles"] or 0.0)
    out["sim.window_frac.min"] = min(windows.values(), default=0.0)
    out["sim.window_frac.max"] = max(windows.values(), default=0.0)
    by_scheme = {s["scheme"]: s for s in systems}
    for scheme in SCHEMES:
        out[f"sim.accesses.{scheme}"] = by_scheme.get(
            scheme, {}).get("accesses", 0)
        out[f"sim.window_frac.{scheme}"] = windows.get(scheme, 0.0)

    def total(key: str) -> float:
        return sum(s[key] for s in systems)

    out["cache.nuca.hit_rate"] = _ratio(total("hits"), simulated)
    out["cache.nuca.migrations_per_access"] = _ratio(total("migrations"),
                                                     simulated)
    out["noc.bank_queue_cycles_mean"] = _ratio(total("bank_queue_cycles"),
                                               total("bank_served"))
    out["noc.mem_queue_cycles_mean"] = _ratio(total("mem_queue_cycles"),
                                              total("mem_served"))
    out["profiling.observe_many.lines"] = lines
    out["profiling.observe_many.ns_per_line"] = 1e9 * _ratio(
        row("profiling.observe_many")["self_s"], lines)

    out["sim.controller.tick_calls"] = row("sim.controller")["calls"]
    out["sim.controller.self_s"] = row("sim.controller")["self_s"]
    out["sim.controller.epochs"] = total("epochs")
    out["sim.controller.guard_fallbacks"] = total("guard_fallbacks")
    for layer in ("partitioning.unrestricted", "partitioning.bank_aware"):
        out[f"{layer}.us_per_call"] = 1e6 * _ratio(row(layer)["self_s"],
                                                   row(layer)["calls"])
    out["montecarlo.collect_profiles.self_s"] = row(
        "montecarlo.collect_profiles")["self_s"]

    out.update(model(traced["stdout"]))

    wall = traced["cli_wall_s"]
    out["cli.wall_s"] = wall
    out["trace.unattributed_s"] = rows["unattributed"]["self_s"]
    out["trace.unattributed_frac"] = _ratio(rows["unattributed"]["self_s"],
                                            wall)
    out["trace.overhead_pct"] = 100.0 * _ratio(
        wall - plain["cli_wall_s"], plain["cli_wall_s"])
    out["host.nproc"] = nproc
    out["host.load_1m"] = load_1m
    return out


def model(stdout: str) -> dict[str, float]:
    """The simulated results the CLI printed (0 where not applicable)."""
    rows = parse_table(stdout)
    out: dict[str, float] = {}
    for scheme in SCHEMES:
        cells = rows.get(scheme)
        if scheme != "no-partitions":
            out[f"model.rel_misses.{scheme}"] = float(cells[0]) if cells else 0.0
            out[f"model.rel_cpi.{scheme}"] = float(cells[1]) if cells else 0.0
        out[f"model.migrations.{scheme}"] = int(cells[2]) if cells else 0
    for key, label in (("unrestricted", "Unrestricted"),
                       ("bank_aware", "Bank-aware")):
        cells = rows.get(f"mean relative misses, {label}")
        out[f"model.{key}_ratio"] = float(cells[0]) if cells else 0.0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as `statistics.quantiles`
    cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

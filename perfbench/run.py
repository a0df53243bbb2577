"""The repository's benchmark: repro CLI workloads in fresh processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 20 --trace 0

``--trace 0`` runs the workload's command as many times as fit in
``--seconds`` (at least three), each a fresh ``python3`` process, and
reports every end-to-end metric of BENCHMARK.json as the median over the
samples, with quartiles and sample count printed above.  ``--trace 1``
runs pairs of one untraced and one traced sample and reports the
per-layer metrics.  Every sample's output is checked (see
``workloads.check``); the last stdout line is the JSON result.
``--workload all`` runs every workload in turn and adds the same-host
engine ratio.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: samples per run set, whatever ``--seconds`` says
MIN_SAMPLES = 3
#: a run set ends its samples within this many seconds, whatever happens
#: to them: a sample still running at the deadline is killed and failed
RUN_DEADLINE_S = 140.0
#: the untimed import that compiles the program's bytecode before sampling
WARM_TIMEOUT_S = 30.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_PROFILE_CACHE", None)
    return env


def run_sample(argv: list[str], mode: str = "plain",
               timeout_s: float = RUN_DEADLINE_S) -> dict:
    """One fresh-process run of ``repro <argv>`` under ``child.py``."""
    if timeout_s <= 0:
        return {"rc": None, "error": "the run set's deadline has passed"}
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--", *argv]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        text = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    end = time.monotonic()
    lines = text.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": proc.returncode or 1, "error": text[-2000:]}
    if proc.returncode != 0:
        record["rc"] = proc.returncode
    record["wall_s"] = end - spawn
    record["setup_s"] = record.get("enter", end) - spawn
    record["rss_mb"] = usage.ru_maxrss / 1024.0
    return record


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "load_1m": os.getloadavg()[0],
    }


class RunSet:
    """Samples of one workload at one seed, checked as they arrive."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.first: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def sample(self, argv: list[str], mode: str = "plain") -> dict:
        return run_sample(argv, mode, self.deadline - time.monotonic())

    def take(self, sample: dict, what: str = "sample") -> bool:
        """Check ``sample``; True when it is good."""
        self.attempted += 1
        problem = check(self.workload, sample, self.first)
        if problem is not None:
            self.failures.append(f"{what} {self.attempted}: {problem}")
            return False
        if self.first is None:
            self.first = sample
        return True

    def twin_check(self) -> None:
        """Once per run set: the batched engine must print the same table."""
        if self.workload.batched_twin and self.first is not None:
            self.take(self.sample(self.workload.twin_argv(self.seed)),
                      "batched twin")


def sample_until(seconds: float, take, min_samples: int = MIN_SAMPLES
                 ) -> None:
    """Call ``take()`` until the next call would overrun ``seconds``
    (at least ``min_samples`` times)."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        take()
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(durations) >= min_samples
                and elapsed + statistics.median(durations) > seconds):
            return


def run_untraced(runset: RunSet, seconds: float) -> tuple[dict, list[dict]]:
    good: list[dict] = []
    argv = runset.workload.argv(runset.seed)

    def take() -> None:
        sample = runset.sample(argv)
        if runset.take(sample):
            good.append(sample)

    sample_until(seconds, take)
    runset.twin_check()
    return columns([metrics.end_to_end(runset.workload, s)
                    for s in good]), good


def run_traced(runset: RunSet, seconds: float, host: dict
               ) -> tuple[dict, list[dict]]:
    good: list[dict] = []
    argv = runset.workload.argv(runset.seed)

    def take() -> None:
        plain = runset.sample(argv)
        traced = runset.sample(argv, "layers")
        plain_ok = runset.take(plain, "untraced")
        # the traced table must equal the untraced one: wrappers are
        # transparent
        if runset.take(traced, "traced") and plain_ok:
            good.append((plain, traced))

    sample_until(seconds, take, min_samples=1)
    runset.twin_check()
    return columns([metrics.per_layer(p, t, host["load_1m"], host["nproc"])
                    for p, t in good]), [t for _, t in good]


def columns(rows: list[dict[str, float]]) -> dict[str, list[float]]:
    """Per-sample metric dicts to one list of values per metric."""
    return {name: [row[name] for row in rows] for name in
            (rows[0] if rows else {})}


def print_table(title: str, values: dict[str, list[float]],
                units: dict[str, str], labels: dict[str, str]) -> None:
    print(title)
    print(f"  {'metric':42} {'unit':7} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}")
    for name in units:
        vals = values[name]
        q1, med, q3 = metrics.quartiles(vals)
        label = labels.get(name, name)
        print(f"  {label:42} {units[name]:7} {med:14.6g} "
              f"{q1:14.6g} {q3:14.6g} {len(vals):3d}")


def print_layers(sample: dict) -> None:
    rows = sample.get("layers") or {}
    wall = sample.get("cli_wall_s") or 0.0
    print(f"  layer host time (traced, wall {wall:.3f} s):")
    print(f"  {'layer':30} {'calls':>10} {'units':>10} {'self_s':>10} "
          f"{'share':>7}")
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        print(f"  {layer:30} {row['calls']:10d} {row['units']:10d} "
              f"{row['self_s']:10.4f} {share:7.1%}")


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 host: dict) -> tuple[RunSet, dict[str, list[float]],
                                      list[dict]]:
    workload = WORKLOADS[name]
    runset = RunSet(workload, seed)
    print(f"workload {name}: repro {' '.join(workload.argv(seed))}")
    if trace:
        values, good = run_traced(runset, seconds, host)
    else:
        values, good = run_untraced(runset, seconds)
    print(f"  samples attempted {runset.attempted}, "
          f"failed {len(runset.failures)}")
    for failure in runset.failures:
        print(f"  FAILED {failure}")
    return runset, values, good


def result(runsets: list[RunSet], values: dict[str, list[float]],
           units: dict[str, str]) -> dict:
    """The JSON result: medians of ``values`` for every metric in
    ``units`` (declaration order)."""
    failed = sum(len(r.failures) for r in runsets)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runsets),
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro program under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        warm = subprocess.run(
            [sys.executable, "-c", "import repro.cli, repro.sim.batched"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=WARM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: importing the program timed out", file=sys.stderr)
        return 2
    if warm.returncode != 0:
        print(f"error: the program does not import:\n{warm.stderr}",
              file=sys.stderr)
        return 2

    declared = load_declared()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    host = host_fingerprint()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runsets, all_values, engine_ns = [], {}, {}
    for name in names:
        runset, values, good = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), host)
        runsets.append(runset)
        if not good:
            print(f"error: no good sample of {name}", file=sys.stderr)
            return 1
        numpy_version = good[0]["numpy"]
        labels = {}
        if args.trace:
            engine_ns[name] = statistics.median(
                values["sim.engine.ns_per_access"])
            print_layers(good[-1])
        else:
            engine_ns[name] = statistics.median(
                metrics.engine_ns_per_access(s) for s in good)
            labels["work_per_s"] = f"work_per_s ({runset.workload.rate_name})"
        print_table(f"  {name} (seed {args.seed})", values, units, labels)
        all_values[name] = values
    print(f"host: cpu={host['cpu']!r} nproc={host['nproc']} "
          f"python={host['python']} numpy={numpy_version} "
          f"load_1m_at_start={host['load_1m']:.2f}")
    if engine_ns.get("compare-batched") and engine_ns.get("compare-reference"):
        print("same-host engine ratio, sim.engine.ns_per_access "
              "compare-reference / compare-batched: "
              f"{engine_ns['compare-reference'] / engine_ns['compare-batched']:.3f}")
    if len(names) == 1:
        out = result(runsets, all_values[names[0]], units)
    else:
        out = result(
            runsets,
            {f"{n}.{m}": v for n in names for m, v in all_values[n].items()},
            {f"{n}.{m}": u for n in names for m, u in units.items()},
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

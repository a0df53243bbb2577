"""The benchmark's workloads: repro CLI commands and their output checks.

Every workload is one ``repro`` command run single-process (``--jobs 1``).
The benchmark's ``--seed`` becomes the command's ``--seed`` (plus one, as
the CLI takes positive seeds), so a seed fixes the generated traces or the
random mixes and nothing else.  README.md says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the paper's detailed schemes plus the two related-work policies.
SCHEMES = ("no-partitions", "equal-partitions", "bank-aware", "bank-bw",
           "joint")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    #: what one unit of ``work_per_s`` is: simulated L2 accesses or mixes
    work: str
    #: schemes the result table must list (detailed workloads)
    schemes: tuple[str, ...] = ()
    #: re-run the exact command on the batched engine once per run set and
    #: require an identical table (the engine bit-identity gate)
    batched_twin: bool = False

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed + 1), "--jobs", "1"]

    def twin_argv(self, seed: int) -> list[str]:
        return [*self.argv(seed), "--sim-backend", "batched"]

    @property
    def rate_name(self) -> str:
        return f"{self.work}_per_s"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-batched",
            ("compare", "--set", "1", "--scale", "8", "--duration", "1e6",
             "--epoch", "250000", "--sim-backend", "batched"),
            work="sim_accesses",
            schemes=("no-partitions", "equal-partitions", "bank-aware"),
        ),
        Workload(
            "compare-reference",
            ("compare", "--set", "1", "--scale", "8", "--duration", "5e5",
             "--epoch", "125000"),
            work="sim_accesses",
            schemes=("no-partitions", "equal-partitions", "bank-aware"),
            batched_twin=True,
        ),
        Workload(
            "policy-lab",
            ("compare", "--set", "2", "--scale", "8", "--duration", "1e6",
             "--epoch", "50000", "--scheme", "bank-bw", "--scheme", "joint",
             "--sim-backend", "batched"),
            work="sim_accesses",
            schemes=("no-partitions", "bank-bw", "joint"),
        ),
        Workload(
            "montecarlo",
            ("montecarlo", "--scale", "8", "--mixes", "200"),
            work="mixes",
        ),
    )
}


def parse_table(stdout: str) -> dict[str, list[str]]:
    """Rows of the CLI's result table, keyed by their first cell."""
    rows = {}
    for line in stdout.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 1 and not set(line) <= set("-+ "):
            rows[cells[0]] = cells[1:]
    return rows


def work_done(workload: Workload, sample: dict) -> int:
    """Units of work one sample did: simulated L2 accesses over every
    scheme and core (warm-up included), or Monte Carlo mixes evaluated."""
    if workload.work == "mixes":
        rows = parse_table(sample["stdout"])
        return int(rows["mixes evaluated"][0])
    return sum(s["accesses"] for s in sample["systems"])


def check(workload: Workload, sample: dict, first: dict | None) -> str | None:
    """Why ``sample`` is wrong, or None.  ``first`` is the run set's first
    good sample: the simulator is deterministic, so every later sample must
    print the same table and simulate the same accesses."""
    if sample.get("rc") != 0:
        return f"exit code {sample.get('rc')}: {sample.get('error', '')}"
    rows = parse_table(sample["stdout"])
    missing = [s for s in workload.schemes if s not in rows]
    if missing:
        return f"result table lacks schemes {missing}"
    try:
        work = work_done(workload, sample)
    except (KeyError, ValueError, IndexError) as error:
        return f"cannot read the work done: {error!r}"
    if work <= 0:
        return "no work done"
    if workload.work == "mixes":
        expected = workload.args[workload.args.index("--mixes") + 1]
        if work != int(expected):
            return f"evaluated {work} mixes, asked for {expected}"
    if first is not None:
        if sample["stdout"] != first["stdout"]:
            return "result table differs from the run set's first sample"
        if accesses(sample) != accesses(first):
            return "simulated accesses differ from the run set's first sample"
    return None


def accesses(sample: dict) -> list[tuple[str, int]]:
    return [(s["scheme"], s["accesses"]) for s in sample["systems"]]

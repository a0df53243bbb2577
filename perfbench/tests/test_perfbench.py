"""Tests of the benchmark itself: layer accounting, wrapper transparency,
output checks and agreement with BENCHMARK.json."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import pytest

import layers
import metrics
import run
from workloads import WORKLOADS, Workload, check, parse_table

TINY_COMPARE = Workload(
    "tiny-compare",
    ("compare", "--set", "1", "--scale", "32", "--duration", "2e5",
     "--epoch", "50000"),
    work="sim_accesses",
    schemes=("no-partitions", "equal-partitions", "bank-aware"),
    batched_twin=True,
)
TINY_POLICIES = Workload(
    "tiny-policies",
    ("compare", "--set", "2", "--scale", "32", "--duration", "2e5",
     "--epoch", "20000", "--scheme", "bank-bw", "--scheme", "joint",
     "--sim-backend", "batched"),
    work="sim_accesses",
    schemes=("no-partitions", "bank-bw", "joint"),
)
TINY_MONTECARLO = Workload(
    "tiny-montecarlo",
    ("montecarlo", "--scale", "32", "--mixes", "20", "--accesses", "20000"),
    work="mixes",
)


def declared() -> dict:
    return run.load_declared()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_layers() -> None:
    clock = FakeClock()
    rec = layers.Recorder(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    wrapped_leaf = rec.wrap("leaf", leaf)
    wrapped_middle = rec.wrap("middle", middle)
    clock.now += 0.25  # outside every layer
    wrapped_middle()
    table = rec.table(wall_s=clock.now)
    assert table["leaf"] == {"calls": 2, "self_s": 4.0, "units": 0}
    assert table["middle"] == {"calls": 1, "self_s": 1.5, "units": 0}
    assert table["unattributed"]["self_s"] == pytest.approx(0.25)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(clock.now)


def test_wrapper_counts_units_and_propagates_errors() -> None:
    rec = layers.Recorder()
    gen = rec.wrap("gen", lambda n: list(range(n)),
                   units=lambda args, kwargs, out: len(out))
    assert gen(5) == [0, 1, 2, 3, 4]
    assert rec.cells["gen"][2] == 5

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.cells["boom"][0] == 1
    assert not rec._stack


def test_install_restores_every_original() -> None:
    import repro.sim.runner as runner
    from repro.cache.nuca import NucaL2

    before_fn = runner.build_system
    before_meth = NucaL2.__dict__["access"]
    restore = layers.install(layers.Recorder())
    try:
        assert runner.build_system is not before_fn
        assert NucaL2.__dict__["access"] is not before_meth
    finally:
        restore()
    assert runner.build_system is before_fn
    assert NucaL2.__dict__["access"] is before_meth


@pytest.mark.parametrize("workload", [TINY_COMPARE, TINY_POLICIES,
                                      TINY_MONTECARLO],
                         ids=lambda w: w.name)
def test_traced_run_is_transparent_and_sums_to_wall(workload) -> None:
    host = run.host_fingerprint()
    runset = run.RunSet(workload, seed=0)
    plain = run.run_sample(workload.argv(0))
    traced = run.run_sample(workload.argv(0), "layers")
    assert runset.take(plain) and runset.take(traced), runset.failures
    # wrappers are transparent: the traced model equals the untraced output
    assert traced["stdout"] == plain["stdout"]
    per_layer = metrics.per_layer(plain, traced, host["load_1m"],
                                  host["nproc"])
    for name, value in metrics.model(plain["stdout"]).items():
        assert per_layer[name] == value
    rows = traced["layers"]
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
        traced["cli_wall_s"])
    assert 0.0 <= per_layer["trace.unattributed_frac"] < 0.10
    if workload is TINY_COMPARE:
        for layer in ("cache.nuca.access", "cache.bank.fill",
                      "noc.bank_delay", "cpu.timer", "profiling.observe"):
            assert rows[layer]["calls"] > 0 and rows[layer]["self_s"] > 0
    if workload is TINY_POLICIES:
        assert per_layer["partitioning.bank_bw.charge.calls"] > 0
        assert per_layer["sim.controller.epochs"] > 0
    if workload is TINY_MONTECARLO:
        assert per_layer["partitioning.unrestricted.calls"] == 20
        assert per_layer["workloads.trace.used_frac"] == 1.0


def test_batched_twin_matches_reference() -> None:
    runset = run.RunSet(TINY_COMPARE, seed=0)
    assert runset.take(run.run_sample(TINY_COMPARE.argv(0)))
    runset.twin_check()
    assert runset.attempted == 2 and not runset.failures


def test_failing_sample_is_counted_as_failed() -> None:
    broken = Workload("broken", ("compare", "--set", "99", "--scale", "32"),
                      work="sim_accesses")
    runset = run.RunSet(broken, seed=0)
    assert not runset.take(run.run_sample(broken.argv(0)))
    assert runset.attempted == 1 and len(runset.failures) == 1


def test_sample_over_the_deadline_is_killed_and_failed() -> None:
    runset = run.RunSet(TINY_COMPARE, seed=0)
    killed = run.run_sample(TINY_COMPARE.argv(0), timeout_s=0.2)
    assert killed["rc"] != 0
    assert not runset.take(killed)
    runset.deadline = time.monotonic() - 1.0
    assert not runset.take(runset.sample(TINY_COMPARE.argv(0)))
    assert (runset.attempted, len(runset.failures)) == (2, 2)


def test_changed_table_is_counted_as_failed() -> None:
    runset = run.RunSet(TINY_MONTECARLO, seed=0)
    good = run.run_sample(TINY_MONTECARLO.argv(0))
    assert runset.take(good)
    tampered = dict(good, stdout=good["stdout"].replace("0.", "1.", 1))
    assert check(TINY_MONTECARLO, tampered, runset.first) is not None
    assert not runset.take(tampered)
    assert (runset.attempted, len(runset.failures)) == (2, 1)


def test_parse_table_reads_cli_rows() -> None:
    rows = parse_table("title\nscheme | a | b\n-------+---+--\n"
                       "bank-aware | 0.9 | 1.0\n")
    assert rows["bank-aware"] == ["0.9", "1.0"]


def test_metric_names_match_benchmark_json() -> None:
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    host = run.host_fingerprint()
    plain = run.run_sample(TINY_MONTECARLO.argv(0))
    traced = run.run_sample(TINY_MONTECARLO.argv(0), "layers")
    per_layer = metrics.per_layer(plain, traced, host["load_1m"],
                                  host["nproc"])
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    e2e = metrics.end_to_end(TINY_MONTECARLO, plain)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v > 0 for v in e2e.values())


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

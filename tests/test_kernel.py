"""The compiled kernel library: float helpers, build cache, fallback.

Bit-identity of whole runs lives in ``tests/test_sim_backends.py``; this
file covers the kernel's own surfaces -- CPython-exact float floor
division (the bank-bw regulator's window index), the per-host build cache
under concurrent builders, and the reference fallback when no kernel can
be built.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.config import scaled_config
from repro import kernel
from repro.sim import engine_in_use
from repro.sim.runner import RunSettings, build_system, run_mix
from repro.workloads import Mix

CFG = scaled_config(32, epoch_cycles=100_000)
MIX = Mix(("gzip", "eon", "mcf", "galgel", "perlbmk", "crafty", "gap", "swim"))
SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def lib():
    loaded = kernel.load()
    if loaded is None:
        pytest.skip("no compiled kernel on this host")
    return loaded


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestFloorDivision:
    # regulation windows the simulator derives as epoch_cycles / 64, plus
    # windows that are not exactly representable
    @pytest.mark.parametrize("window", [
        1562.5, 3906.25, 781.25, 3125.0, 15625.0, 0.1, 1e-3, 7.3,
    ])
    def test_matches_python_floor_division(self, lib, window):
        arrivals = [0.0, 2.0**53, 2.0**53 + 2.0, 2.0**60, 1e300]
        for k in (1, 2, 3, 7, 64, 1000, 12345, 2**20, 2**40):
            exact = k * window
            arrivals += [
                exact,
                math.nextafter(exact, 0.0),  # one ulp below the multiple
                math.nextafter(exact, math.inf),
            ]
        arrivals += [2.0**53 * window, math.nextafter(2.0**53 * window, 0.0)]
        for arrival in arrivals:
            got = lib.py_floordiv(arrival, window)
            assert _same_float(got, arrival // window), (arrival, window)

    def test_negative_operands_follow_python(self, lib):
        for vx, wx in ((-7.5, 2.0), (7.5, -2.0), (-0.0, 3.0), (0.0, -3.0),
                       (-6.0, 3.0)):
            assert _same_float(lib.py_floordiv(vx, wx), vx // wx), (vx, wx)


class TestBuildCache:
    def test_cache_hit_skips_the_compiler(self, tmp_path, monkeypatch):
        first = kernel.build(tmp_path)
        mtime = first.stat().st_mtime_ns
        calls = []
        real_run = subprocess.run

        def spy(cmd, *args, **kwargs):
            calls.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(kernel.subprocess, "run", spy)
        assert kernel.build(tmp_path) == first
        assert first.stat().st_mtime_ns == mtime
        assert all("--version" in cmd for cmd in calls)

    def test_racing_builders_both_load(self, tmp_path):
        """Three processes build into one empty cache at once; each must
        load a complete library (rename-into-place, never a partial
        file)."""
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro import kernel\n"
            "lib = kernel.open_library(kernel.build(Path(sys.argv[1])))\n"
            "assert lib.py_floordiv(7.0, 2.0) == 3.0\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(3)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        assert len(list(tmp_path.glob("kernel-*.so"))) == 1
        assert not list(tmp_path.glob(".build-*"))


def _store_engine(store: Path, backend: str) -> str:
    assert cli_main([
        "simulate", "--set", "1", "--scale", "32", "--duration", "120000",
        "--epoch", "60000", "--scheme", "bank-aware",
        "--sim-backend", backend, "--store", str(store),
    ]) == 0
    (run_dir,) = store.iterdir()
    return json.loads((run_dir / "manifest.json").read_text())["engine"]


class TestFallback:
    def test_manifest_records_the_kernel(self, lib, tmp_path, capsys):
        assert _store_engine(tmp_path / "k", "batched") == "kernel"
        assert _store_engine(tmp_path / "r", "reference") == "reference"

    def test_no_compiler_runs_the_reference(self, tmp_path, monkeypatch,
                                            capsys):
        settings = dict(duration_cycles=150_000.0, seed=9, trace=True)
        reference = run_mix(
            MIX, "bank-bw", CFG, RunSettings(sim_backend="reference",
                                             **settings),
        )
        monkeypatch.setattr(kernel, "_compiler", lambda: None)
        kernel.load.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="kernel unavailable"):
                fallback = run_mix(
                    MIX, "bank-bw", CFG, RunSettings(sim_backend="batched",
                                                     **settings),
                )
            assert engine_in_use("batched") == "reference-fallback"
            assert _store_engine(tmp_path, "batched") == "reference-fallback"
        finally:
            kernel.load.cache_clear()
        assert fallback.to_dict() == reference.to_dict()
        assert [dict(e) for e in fallback.events] == [
            dict(e) for e in reference.events
        ]


class TestErrorCodes:
    """A kernel error surfaces as the exception the reference raises."""

    def _raised(self, sabotage):
        out = []
        for backend in ("reference", "batched"):
            system = build_system(
                MIX, "equal-partitions", CFG,
                RunSettings(duration_cycles=150_000.0, seed=2,
                            sim_backend=backend),
            )
            sabotage(system.l2)
            with pytest.raises(Exception) as info:
                system.run()
            out.append((info.type, str(info.value)))
        assert out[0] == out[1]
        return out[0][0]

    def test_core_without_ways(self):
        def no_ways_for_core_0(l2):
            for bank in l2.banks:
                bank.set_way_owners([frozenset({1})] * bank.ways)

        assert self._raised(no_ways_for_core_0) is PermissionError

    def test_core_without_partition(self):
        def drop_partition_of_core_3(l2):
            del l2._pmap.partitions[3]
            del l2._chain[3]

        assert self._raised(drop_partition_of_core_3) is KeyError

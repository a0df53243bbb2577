"""One generated trace set per mix, shared by every scheme of a comparison.

``build_system`` takes its traces from :func:`repro.sim.runner.shared_mix`,
a one-entry memo keyed by the exact ``generate_trace`` arguments.  These
tests pin the saving (one generation per core per mix), the bit-identity
of shared traces with fresh per-scheme generation at every ``jobs``
value, and the key (any input that changes a trace regenerates it).
"""

import gc
import weakref

import pytest

from repro.analysis.fairness import standalone_cpi
from repro.config import scaled_config
from repro.sim import runner
from repro.sim.runner import (
    RunSettings,
    build_system,
    compare_schemes,
    estimate_access_rate,
    run_mix,
    shared_mix,
    trace_length,
)
from repro.workloads import Mix, get

CFG = scaled_config(32, epoch_cycles=100_000)
MIX = Mix(("gzip", "eon", "mcf", "galgel", "perlbmk", "crafty", "gap", "swim"))
SETTINGS = RunSettings(duration_cycles=300_000.0, seed=3, sim_backend="batched")


@pytest.fixture
def generations(monkeypatch):
    """Count ``generate_trace`` calls made through the memo, starting
    from an empty memo."""
    calls = []
    original = runner.generate_trace

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "generate_trace", counting)
    shared_mix.cache_clear()
    yield calls
    shared_mix.cache_clear()


def _fresh_results(schemes, settings=SETTINGS):
    """Each scheme simulated on traces generated just for it."""
    out = {}
    for scheme in schemes:
        shared_mix.cache_clear()
        out[scheme] = run_mix(MIX, scheme, CFG, settings).to_dict()
    shared_mix.cache_clear()
    return out


class TestOneGenerationPerMix:
    def test_compare_generates_each_core_once(self, generations):
        comp = compare_schemes(MIX, CFG, SETTINGS, jobs=1)
        assert len(comp.results) == 3
        assert len(generations) == CFG.num_cores
        seeds = sorted(kwargs["seed"] for _, kwargs in generations)
        assert seeds == [SETTINGS.seed + c for c in range(CFG.num_cores)]

    def test_schemes_share_the_same_trace_objects(self, generations):
        a = build_system(MIX, "no-partitions", CFG, SETTINGS)
        b = build_system(MIX, "bank-aware", CFG, SETTINGS)
        assert all(x is y for x, y in zip(a._addrs, b._addrs))
        assert not a._addrs[0].flags.writeable

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_shared_traces_equal_fresh_generation(self, jobs):
        schemes = ("no-partitions", "equal-partitions", "bank-aware")
        want = _fresh_results(schemes)
        comp = compare_schemes(MIX, CFG, SETTINGS, schemes, jobs=jobs)
        assert {s: r.to_dict() for s, r in comp.results.items()} == want

    def test_reference_engine_reads_shared_traces_identically(self):
        st = RunSettings(duration_cycles=150_000.0, seed=3)
        want = _fresh_results(("no-partitions", "bank-aware"), st)
        comp = compare_schemes(MIX, CFG, st, ("no-partitions", "bank-aware"))
        assert {s: r.to_dict() for s, r in comp.results.items()} == want


class TestMemoKey:
    @pytest.mark.parametrize("change", [
        {"seed": 4},
        {"duration_cycles": 310_000.0},
        {"trace_margin": 1.8},
    ])
    def test_changed_settings_regenerate(self, generations, change):
        build_system(MIX, "no-partitions", CFG, SETTINGS)
        assert len(generations) == CFG.num_cores
        changed = RunSettings(**{**SETTINGS.__dict__, **change})
        build_system(MIX, "no-partitions", CFG, changed)
        assert len(generations) == 2 * CFG.num_cores

    def test_changed_scale_regenerates(self, generations):
        build_system(MIX, "no-partitions", CFG, SETTINGS)
        build_system(MIX, "no-partitions", scaled_config(16), SETTINGS)
        assert len(generations) == 2 * CFG.num_cores
        assert generations[-1][0][2] == scaled_config(16).l2.sets_per_bank

    def test_changed_mix_regenerates(self, generations):
        build_system(MIX, "no-partitions", CFG, SETTINGS)
        other = Mix(MIX.names[1:] + MIX.names[:1])
        build_system(other, "no-partitions", CFG, SETTINGS)
        assert len(generations) == 2 * CFG.num_cores

    def test_settings_outside_the_key_reuse(self, generations):
        build_system(MIX, "no-partitions", CFG, SETTINGS)
        other = RunSettings(**{**SETTINGS.__dict__, "placement": "hash",
                               "sim_backend": "reference"})
        build_system(MIX, "bank-aware", CFG, other)
        assert len(generations) == CFG.num_cores


class TestMemoryNeutral:
    def test_a_new_mix_is_generated_after_the_old_one_is_released(
        self, monkeypatch
    ):
        """A sweep holds one mix's traces at a time: the previous mix is
        evicted before the next one's first trace is drawn."""
        shared_mix.cache_clear()
        system = build_system(MIX, "no-partitions", CFG, SETTINGS)
        old = weakref.ref(system._addrs[0].base)
        del system
        alive_at_generation = []
        original = runner.generate_trace

        def checking(*args, **kwargs):
            gc.collect()
            alive_at_generation.append(old() is not None)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "generate_trace", checking)
        other = Mix(MIX.names[1:] + MIX.names[:1])
        build_system(other, "no-partitions", CFG, SETTINGS)
        shared_mix.cache_clear()
        assert alive_at_generation == [False] * CFG.num_cores


class TestTraceLength:
    def test_formula(self):
        spec = get("mcf")
        want = int(
            SETTINGS.duration_cycles * estimate_access_rate(spec, CFG)
            * SETTINGS.trace_margin
        ) + 1
        assert trace_length(spec, CFG, SETTINGS) == want

    def test_build_system_sizes_each_core_by_it(self, generations):
        build_system(MIX, "no-partitions", CFG, SETTINGS)
        lengths = [args[1] for args, _ in generations]
        assert lengths == [trace_length(s, CFG, SETTINGS) for s in MIX.specs()]

    def test_standalone_cpi_sizes_its_trace_by_it(self, monkeypatch):
        import repro.analysis.fairness as fairness

        seen = []
        original = fairness.generate_trace

        def recording(spec, n, *args, **kwargs):
            seen.append((spec.name, n))
            return original(spec, n, *args, **kwargs)

        monkeypatch.setattr(fairness, "generate_trace", recording)
        st = RunSettings(duration_cycles=100_000.0)
        standalone_cpi("gzip", CFG, st)
        assert seen == [("gzip", trace_length(get("gzip"), CFG, st))]

"""Synthetic workload generators and the SPEC-like suite."""

import hashlib

import numpy as np
import pytest

from repro.profiling.miss_curve import MissCurve
from repro.profiling.msa import MSAProfiler
from repro.workloads import (
    ALL_NAMES,
    FP_NAMES,
    INTEGER_NAMES,
    TABLE_III_SETS,
    Mix,
    PhasedWorkload,
    ReusePool,
    WorkloadSpec,
    generate_lines,
    generate_trace,
    get,
    random_mixes,
    state_space_size,
    suite,
)

NSETS = 64


class TestReusePool:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReusePool(0, 1.0)
        with pytest.raises(ValueError):
            ReusePool(4, 0.0)
        with pytest.raises(ValueError):
            ReusePool(4, 1.0, zipf=-1.0)


class TestWorkloadSpec:
    def test_mean_gap_from_apki(self):
        spec = WorkloadSpec("x", (ReusePool(2, 1.0),), l2_apki=50)
        assert spec.mean_gap == pytest.approx(19.0)

    def test_component_weights_normalised(self):
        spec = WorkloadSpec(
            "x", (ReusePool(2, 3.0), ReusePool(4, 1.0)), stream_weight=1.0
        )
        w = spec.component_weights()
        assert w.sum() == pytest.approx(1.0)
        assert w[0] == pytest.approx(0.6)

    def test_single_pool_tuple_coercion(self):
        spec = WorkloadSpec("x", ReusePool(2, 1.0))  # forgiven missing comma
        assert isinstance(spec.pools, tuple)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", ())

    def test_rejects_bad_write_fraction(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", (ReusePool(2, 1.0),), write_fraction=1.5)


class TestGenerator:
    def test_deterministic(self):
        spec = get("gzip")
        a = generate_trace(spec, 1000, NSETS, seed=3)
        b = generate_trace(spec, 1000, NSETS, seed=3)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.gaps, b.gaps)

    def test_seed_changes_trace(self):
        spec = get("gzip")
        a = generate_trace(spec, 1000, NSETS, seed=3)
        b = generate_trace(spec, 1000, NSETS, seed=4)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_pool_footprint_scales_with_sets(self):
        spec = WorkloadSpec("x", (ReusePool(4, 1.0),), l2_apki=50)
        t = generate_trace(spec, 20_000, NSETS, seed=1)
        assert t.footprint_lines() <= 4 * NSETS
        assert t.footprint_lines() > 3 * NSETS  # nearly all lines touched

    def test_stream_never_reuses(self):
        spec = WorkloadSpec("s", (), stream_weight=1.0, l2_apki=50)
        t = generate_trace(spec, 5000, NSETS, seed=1)
        assert t.footprint_lines() == 5000

    def test_write_fraction_approx(self):
        spec = WorkloadSpec(
            "w", (ReusePool(4, 1.0),), write_fraction=0.5, l2_apki=50
        )
        t = generate_trace(spec, 20_000, NSETS, seed=1)
        assert 0.45 < t.is_write.mean() < 0.55

    def test_mean_gap_approx(self):
        spec = WorkloadSpec("g", (ReusePool(4, 1.0),), l2_apki=20)
        t = generate_trace(spec, 20_000, NSETS, seed=1)
        assert abs(float(t.gaps.mean()) - spec.mean_gap) < 2.0

    def test_base_address_offsets_whole_trace(self):
        spec = get("gzip")
        a = generate_trace(spec, 100, NSETS, seed=1)
        b = generate_trace(spec, 100, NSETS, seed=1, base_address=1 << 30)
        assert np.array_equal(b.addresses - a.addresses, np.full(100, 1 << 30, dtype=np.uint64))

    def test_sets_covered_uniformly(self):
        spec = WorkloadSpec("u", (ReusePool(8, 1.0),), l2_apki=50)
        t = generate_trace(spec, 40_000, NSETS, seed=1)
        sets = t.lines % NSETS
        counts = np.bincount(sets.astype(int), minlength=NSETS)
        assert counts.min() > 0.5 * counts.mean()

    def test_zero_accesses(self):
        assert len(generate_trace(get("gzip"), 0, NSETS, seed=1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(get("gzip"), -1, NSETS)


#: sha256 of each column (addresses, is_write, gaps) of generate_trace,
#: little-endian, keyed by (name, accesses, num_sets, seed, base_address);
#: recorded before the address draw was split out as generate_lines.
TRACE_DIGESTS = {
    ("gzip", 5000, 64, 1, 0): (
        "64fc10009283355d83fed81e4c9d0b0ac44f4bcdd976dd1f1aab5d49482181c8",
        "a8dc777e42d3210e13b087bbdc2a4d1276500702e481ad80e00ccd86a3a384eb",
        "aa68f8a14f23f281ab2edd12f13b3431b75030b1fe4e7fc25979cc9ce5d1b933",
    ),
    ("mcf", 5000, 256, 2, 0): (
        "5041814e01765cee714380896529bba3f3a04200d2749382f390c394ed131546",
        "a4347772e7bd4883d554614da9d759a5e78a5e53f0ed2c1180da35ecb2938f30",
        "b65f58642ab6dc65df98e892d91f4f9fb4940770520d2ca2b43ad256c9b30f3b",
    ),
    ("applu", 3000, 2048, 7, 0): (
        "34eeaacb3f84d44bb9386e052fcfd64460cd890aff0322c09244a9bfa3f3811b",
        "01e103e8190169b1286bae41d2900723472757825a5dda9e21e3690a9af94dfd",
        "6f660f92184e0ba50c786e8115d353eb90b1731852c06f1bf6508a617097bebd",
    ),
    ("bzip2", 4000, 64, 3, 0): (
        "c9fce291c7fe330f6e0494412a6e77a147bdb0a5a74dd4b59ba9711fe222f8a1",
        "f3b03ca67287bcbb8bf1d12d7603d08de8072f59794728f467f14e4ceacbfb12",
        "8ccd856d43261ef74daf60ee3b3969b8bd3ca03ad2fbcee3127a872f37aa63ac",
    ),
    ("art", 2000, 8, 11, 0): (
        "750702c260579e2da53f1d5da76cb8257e41d2c1434896ca1558fb2c8580192d",
        "eb991f1b123266492c75b654e8f5c880fa877a499db98f731abc52d16a422509",
        "070097cfcc000533592c557c7718aa7b88b36ab5ff0062bc0c741efc1e68023b",
    ),
    ("vpr", 2500, 64, 4, 3298534883328): (
        "1c73fb6972b22a99b2a797f63cdea6f69fb2c64a5f9b094bc86a0108bb1f8bfd",
        "0b94d6601122120bf0c7e8cbcc4c880c601484dcc1bb9305cf0da744b51d6bda",
        "e529f3dc70b67275cdea74170c4526f2bc57509a59b35d3a6c487355b2456ba7",
    ),
    ("twolf", 0, 64, 1, 0): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("sixtrack", 1, 256, 5, 0): (
        "c3d70c7b5aaae8145086cce9116be8f0072f91ddc855ef55825b561d46e2c4c7",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "fb31b4206368ca3d59e2f09dc245b7462e2fea4584b8de634fa9f1aaea20bfbc",
    ),
}


def _digest(column: np.ndarray) -> str:
    little = column.astype(column.dtype.newbyteorder("<"))
    return hashlib.sha256(little.tobytes()).hexdigest()


class TestGoldenTraces:
    """Generation is pinned bit for bit: every experiment's numbers (and
    every shared-trace memo) depend on it."""

    @pytest.mark.parametrize("key", list(TRACE_DIGESTS), ids=str)
    def test_columns_match_recorded_digests(self, key):
        name, accesses, num_sets, seed, base = key
        t = generate_trace(
            get(name), accesses, num_sets, seed=seed, base_address=base
        )
        got = tuple(_digest(c) for c in (t.addresses, t.is_write, t.gaps))
        assert got == TRACE_DIGESTS[key]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_generate_lines_equals_trace_lines(self, name):
        lines = generate_lines(get(name), 3000, NSETS, seed=7)
        trace = generate_trace(get(name), 3000, NSETS, seed=7)
        assert lines.dtype == np.uint64
        assert np.array_equal(lines, trace.lines)

    def test_offset_trace_lines_are_offset_lines(self):
        """``base_address`` is outside the RNG key, so lines of an offset
        trace are the offset lines."""
        t = generate_trace(get("gzip"), 500, NSETS, seed=3, base_address=1 << 40)
        lines = generate_lines(get("gzip"), 500, NSETS, seed=3)
        assert np.array_equal(t.lines - np.uint64(1 << 34), lines)

    def test_generate_lines_edge_cases(self):
        assert len(generate_lines(get("gzip"), 0, NSETS, seed=1)) == 0
        with pytest.raises(ValueError):
            generate_lines(get("gzip"), -1, NSETS)


class TestPhased:
    def test_phases_concatenate(self):
        w = PhasedWorkload([(get("gzip"), 100), (get("mcf"), 50)])
        t = w.generate(NSETS, seed=1)
        assert len(t) == 150

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhasedWorkload([]).generate(NSETS)


class TestSuite:
    def test_26_workloads(self):
        assert len(suite()) == 26
        assert len(INTEGER_NAMES) == 12
        assert len(FP_NAMES) == 14
        assert set(ALL_NAMES) == set(suite())

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("doom3")

    def test_specs_have_positive_parameters(self):
        for spec in suite().values():
            assert spec.l2_apki > 0
            assert spec.mlp >= 1
            assert spec.nonmem_cpi > 0
            assert 0 <= spec.stream_weight <= 1


def _curve(name: str, accesses=40_000, nsets=128) -> MissCurve:
    prof = MSAProfiler(nsets, 128)
    trace = generate_trace(get(name), accesses, nsets, seed=5)
    lines = trace.lines
    warm = len(lines) // 3
    prof.observe_many(lines[:warm])
    prof.reset()
    prof.observe_many(lines[warm:])
    return MissCurve.from_profiler(prof, name)


class TestFig3Shapes:
    """The paper's Fig. 3 qualitative behaviours must hold for the suite."""

    def test_sixtrack_saturates_by_8_ways(self):
        c = _curve("sixtrack")
        assert c.miss_ratio_at(8) < 0.15
        assert c.miss_ratio_at(2) > 0.4

    def test_applu_flat_after_knee_with_floor(self):
        c = _curve("applu")
        knee, flat = c.miss_ratio_at(16), c.miss_ratio_at(40)
        assert knee - flat < 0.05  # flat beyond the (inflated) knee
        assert flat > 0.3  # the streaming floor stays high
        assert c.miss_ratio_at(4) - knee > 0.25  # steep before it

    def test_bzip2_improves_gradually_to_45(self):
        c = _curve("bzip2", accesses=60_000)
        assert c.miss_ratio_at(16) - c.miss_ratio_at(32) > 0.1
        assert c.miss_ratio_at(32) - c.miss_ratio_at(48) > 0.05
        assert c.miss_ratio_at(48) < 0.25

    def test_small_footprint_workloads_satisfied_at_8(self):
        for name in ("gzip", "eon", "galgel", "gap"):
            c = _curve(name)
            assert c.miss_ratio_at(8) < 0.25, name

    def test_streamers_keep_high_floor(self):
        for name in ("swim", "mcf"):
            c = _curve(name)
            assert c.miss_ratio_at(72) > 0.4, name


class TestMixes:
    def test_state_space_matches_paper(self):
        # C(26 + 8 - 1, 8) — "approximately 14 million"
        assert state_space_size() == 13_884_156

    def test_table_iii_has_8_sets_of_8(self):
        assert len(TABLE_III_SETS) == 8
        assert all(len(m) == 8 for m in TABLE_III_SETS)

    def test_table_iii_set2_matches_paper(self):
        assert TABLE_III_SETS[1].names == (
            "crafty", "gap", "mcf", "art", "equake", "equake", "bzip2", "equake",
        )

    def test_random_mixes_deterministic(self):
        a = random_mixes(10, seed=1)
        b = random_mixes(10, seed=1)
        assert [m.names for m in a] == [m.names for m in b]

    def test_random_mixes_draw_with_repetition(self):
        mixes = random_mixes(200, seed=3)
        assert any(len(set(m.names)) < len(m.names) for m in mixes)

    def test_mix_validates_names(self):
        with pytest.raises(KeyError):
            Mix(("gzip", "nope"))

    def test_mix_specs(self):
        m = Mix(("gzip", "mcf"))
        assert [s.name for s in m.specs()] == ["gzip", "mcf"]
        assert str(m) == "gzip+mcf"

"""Miss curves and marginal utility (paper Section III.C)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.profiling.miss_curve import MissCurve


def linear_curve(total=100.0, max_ways=10, floor=20.0) -> MissCurve:
    """Misses fall linearly from total to floor over max_ways."""
    misses = np.linspace(total, floor, max_ways + 1)
    return MissCurve("lin", misses, total)


class TestConstruction:
    def test_basic(self):
        c = linear_curve()
        assert c.max_ways == 10
        assert c.misses_at(0) == 100.0
        assert c.misses_at(10) == 20.0

    def test_clamps_beyond_max(self):
        c = linear_curve()
        assert c.misses_at(999) == 20.0

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            MissCurve("bad", np.array([5.0, 6.0]), 10.0)

    def test_rejects_total_below_size0(self):
        with pytest.raises(ValueError):
            MissCurve("bad", np.array([10.0, 5.0]), 3.0)

    def test_rejects_negative_ways(self):
        with pytest.raises(ValueError):
            linear_curve().misses_at(-1)

    def test_from_histogram(self):
        hist = np.array([50.0, 30.0, 20.0])  # depth1, depth2, miss
        c = MissCurve.from_histogram("h", hist)
        assert c.total_accesses == 100.0
        assert c.misses_at(0) == 100.0
        assert c.misses_at(1) == 50.0
        assert c.misses_at(2) == 20.0


class TestMarginalUtility:
    def test_definition(self):
        """MU(n) = (Miss(c) - Miss(c+n)) / n (the paper's equation)."""
        c = linear_curve()  # 8 misses saved per way
        assert c.marginal_utility(0, 1) == pytest.approx(8.0)
        assert c.marginal_utility(2, 4) == pytest.approx(8.0)

    def test_zero_beyond_saturation(self):
        c = linear_curve()
        assert c.marginal_utility(10, 5) == 0.0

    def test_vectorised_matches_scalar(self):
        c = linear_curve()
        mus = c.marginal_utilities(3, 7)
        for n in range(1, 8):
            assert mus[n - 1] == pytest.approx(c.marginal_utility(3, n))

    def test_rejects_nonpositive_extra(self):
        with pytest.raises(ValueError):
            linear_curve().marginal_utility(0, 0)


class TestLookahead:
    def test_best_mu_sees_past_plateau(self):
        """A curve flat for 4 ways then cliff: single-way MU is 0 but the
        lookahead must find the cliff (the UCP insight)."""
        misses = np.array([100.0, 100, 100, 100, 100, 10, 10, 10])
        c = MissCurve("cliff", misses, 100.0)
        mu1 = c.marginal_utility(0, 1)
        assert mu1 == 0.0
        best_mu, best_n = c.best_marginal_utility(0, 7)
        assert best_n == 5
        assert best_mu == pytest.approx(90.0 / 5)

    def test_prefers_smallest_allocation_at_ties(self):
        misses = np.array([100.0, 50.0, 0.0])
        c = MissCurve("t", misses, 100.0)
        _, n = c.best_marginal_utility(0, 2)
        assert n == 1  # 50/way either way; smaller grant wins


def scan_best(curve, current, max_extra):
    """The lookahead step as a full scan: the oracle for the table."""
    mu = curve.marginal_utilities(current, max_extra)
    best = int(np.argmax(mu))
    return float(mu[best]), best + 1


def random_curve(rng, k, flat_frac=0.5, name="r"):
    """A non-increasing curve over 0..k ways with flat runs (drops of
    exactly 0) mixed with integer and fractional drops."""
    drops = rng.choice([0.0, 1.0, 3.0, 17.0], size=k) * rng.random(k)
    drops[rng.random(k) < flat_frac] = 0.0
    drops[rng.random(k) < 0.2] = rng.integers(1, 40, size=k)[0]
    misses = drops.sum() + 5.0 - np.concatenate(([0.0], np.cumsum(drops)))
    return MissCurve(name, misses, float(misses[0]) + 7.0)


class TestLookaheadTable:
    """``best_marginal_utility`` reads a per-curve prefix-max table; it
    must equal the scan in value and extra for every query."""

    def _check_all_queries(self, curve):
        k = curve.max_ways
        for current in range(k + 3):
            for max_extra in range(1, 2 * k + 1):
                got = curve.best_marginal_utility(current, max_extra)
                want = scan_best(curve, current, max_extra)
                same_mu = got[0] == want[0] or (
                    np.isnan(got[0]) and np.isnan(want[0])
                )
                assert same_mu and got[1] == want[1], (
                    current, max_extra, got, want,
                )
                assert type(got[0]) is float and type(got[1]) is int

    @pytest.mark.parametrize("k,seed", [
        (1, 0), (2, 1), (5, 2), (16, 3), (33, 4), (128, 5), (128, 6),
    ])
    def test_matches_the_scan(self, k, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        self._check_all_queries(random_curve(rng, k))

    @pytest.mark.parametrize("k", [1, 7, 128])
    def test_all_flat_curve(self, k):
        self._check_all_queries(MissCurve("flat", np.full(k + 1, 42.0), 50.0))

    def test_mostly_flat_with_late_cliff(self):
        misses = np.full(65, 300.0)
        misses[60:] = 0.5
        self._check_all_queries(MissCurve("cliff", misses, 300.0))

    def test_tail_rising_within_tolerance_scans(self):
        """Misses may rise by up to 1e-9 per step; past K extra ways such a
        row's marginal utility still grows, which the table cannot see."""
        misses = np.array([5.0, 5.0 + 4e-10, 5.0 + 8e-10, 5.0 + 9e-10])
        self._check_all_queries(MissCurve("rise", misses, 6.0))

    def test_nan_curve_scans(self):
        curve = MissCurve("nan", np.array([3.0, np.nan, 1.0]), 4.0)
        assert curve._lookahead is None
        self._check_all_queries(curve)

    def test_table_is_compact_and_cached(self):
        rng = np.random.Generator(np.random.PCG64(9))
        curve = random_curve(rng, 128)
        table = curve._lookahead
        assert table is curve._lookahead  # built once per curve
        assert table.shape == (129, 128) and table.dtype == np.uint8
        assert table.nbytes < 20_000

    def test_bad_queries_rejected_like_the_scan(self):
        curve = linear_curve()
        with pytest.raises(ValueError, match="max_extra"):
            curve.best_marginal_utility(0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            curve.best_marginal_utility(-1, 3)


class TestRatios:
    def test_miss_ratio(self):
        c = linear_curve()
        assert c.miss_ratio_at(0) == pytest.approx(1.0)
        assert c.miss_ratio_at(10) == pytest.approx(0.2)

    def test_zero_access_curve(self):
        c = MissCurve("z", np.zeros(4), 0.0)
        assert c.miss_ratio_at(2) == 0.0
        assert np.all(c.miss_ratio_curve() == 0.0)

    @given(st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=40))
    def test_histogram_round_trip_monotonic(self, hist):
        c = MissCurve.from_histogram("h", np.array(hist))
        curve = c.miss_ratio_curve()
        assert np.all(np.diff(curve) <= 1e-9)
        assert curve[0] == pytest.approx(1.0) or c.total_accesses == 0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        from repro.profiling.miss_curve import load_curves, save_curves

        a = linear_curve()
        b = MissCurve("b", np.array([10.0, 4.0, 1.0]), 12.0)
        path = tmp_path / "curves.npz"
        save_curves(path, {"lin": a, "b": b})
        loaded = load_curves(path)
        assert set(loaded) == {"lin", "b"}
        assert np.allclose(loaded["lin"].misses, a.misses)
        assert loaded["b"].total_accesses == 12.0
        assert loaded["b"].name == "b"

    def test_empty_set(self, tmp_path):
        from repro.profiling.miss_curve import load_curves, save_curves

        path = tmp_path / "none.npz"
        save_curves(path, {})
        assert load_curves(path) == {}

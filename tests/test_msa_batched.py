"""The compiled MSA stack walk == the per-access reference, bit for bit.

``observe_many`` runs the kernel's exact LRU stack walk (``msa_walk`` in
``repro/kernel.c``) for every batch size; it is only allowed to exist
because it is *checked* against the per-access oracle
(``observe_many_reference``): these tests assert exact equality of
counters (``np.array_equal``, never approx), mass, ``observed`` and every
stack, on random traces, across batch boundaries, interleaved with scalar
observes and epoch management, for the exact profiler and both sampled tag
modes -- and that a host without the kernel runs the reference loop.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.profiling.msa import MSAProfiler
from repro.profiling.sampled import SampledMSAProfiler
from repro.util.bits import hash_fold, hash_fold_many
from repro.workloads.spec_like import get
from repro.workloads.synthetic import generate_trace


@pytest.fixture(autouse=True)
def compiled_walk():
    if kernel.load() is None:
        pytest.skip("no compiled kernel on this host")


def stacks_of(p):
    if isinstance(p, SampledMSAProfiler):
        sets = range(p.sample_offset, p.num_sets, p.set_sampling)
    else:
        sets = range(p.num_sets)
    return [p.stack_of_set(s) for s in sets]


def assert_profiler_equal(vec, ref):
    """Counters, mass, observed count and per-set stacks must match
    exactly."""
    assert np.array_equal(vec._counters, ref._counters)
    assert vec.expected_mass == ref.expected_mass
    assert getattr(vec, "observed", None) == getattr(ref, "observed", None)
    assert stacks_of(vec) == stacks_of(ref)


def sampled(tag_mode, num_sets=64, positions=16, **kwargs):
    kwargs = dict(set_sampling=4, partial_tag_bits=8, **kwargs)
    return SampledMSAProfiler(num_sets, positions, tag_mode=tag_mode, **kwargs)


PROFILERS = {
    "exact": lambda: MSAProfiler(64, 16),
    "truncate": lambda: sampled("truncate"),
    "fold": lambda: sampled("fold"),
}


# ---------------------------------------------------------------------------
# hypothesis property: the walk == the reference on random traces
# ---------------------------------------------------------------------------

traces = st.lists(st.integers(min_value=0, max_value=255), max_size=400)


class TestPropertyEquivalence:
    @given(trace=traces, num_sets=st.sampled_from([1, 2, 8]),
           positions=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_exact_profiler_matches_reference(self, trace, num_sets, positions):
        lines = np.array(trace, dtype=np.int64)
        vec = MSAProfiler(num_sets, positions)
        ref = MSAProfiler(num_sets, positions)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    @given(trace=traces, split=st.integers(min_value=0, max_value=400))
    @settings(max_examples=100, deadline=None)
    def test_state_continuation_across_batches(self, trace, split):
        """Two consecutive batches == one batch == the reference: the
        walk's carried stacks compose exactly."""
        lines = np.array(trace, dtype=np.int64)
        split = min(split, lines.size)
        vec = MSAProfiler(4, 5)
        ref = MSAProfiler(4, 5)
        for part in (lines[:split], lines[split:]):
            vec.observe_many(part)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    @given(trace=traces, tag_mode=st.sampled_from(["truncate", "fold"]))
    @settings(max_examples=100, deadline=None)
    def test_sampled_profiler_matches_reference(self, trace, tag_mode):
        lines = np.array(trace, dtype=np.int64)
        kwargs = dict(set_sampling=2, partial_tag_bits=3, tag_mode=tag_mode)
        vec = SampledMSAProfiler(4, 5, **kwargs)
        ref = SampledMSAProfiler(4, 5, **kwargs)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    @given(values=st.lists(st.integers(min_value=0, max_value=2**40),
                           min_size=1, max_size=50),
           bits=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_hash_fold_many_matches_scalar(self, values, bits):
        arr = np.array(values, dtype=np.int64)
        expect = [hash_fold(int(v), bits) for v in values]
        assert hash_fold_many(arr, bits).tolist() == expect


class TestWalkEquivalence:
    """Random traces in batches of 1, 7, 1023, 1024 and 50k accesses, with
    epoch management and scalar observes between the batches."""

    SIZES = (1, 7, 1023, 1024, 50_000)

    def _lines(self, seed, n, span=3_000):
        rng = np.random.Generator(np.random.PCG64(seed))
        hot = rng.integers(0, span // 10, size=n)  # reuse-heavy region
        cold = rng.integers(0, span, size=n)
        return np.where(rng.random(n) < 0.6, hot, cold).astype(np.int64)

    @pytest.mark.parametrize("kind", sorted(PROFILERS))
    @pytest.mark.parametrize("size", SIZES)
    def test_batches_with_decay_reset_and_scalar_observes(self, kind, size):
        lines = self._lines(size, 3 * size + 11)
        vec, ref = PROFILERS[kind](), PROFILERS[kind]()
        at, step = 0, 0
        while at < lines.size:
            batch = lines[at:at + size]
            vec.observe_many(batch)
            ref.observe_many_reference(batch)
            at += size
            step += 1
            for p in (vec, ref):
                if step % 3 == 1:
                    p.decay(0.75)  # fractional counters: += 1.0 rounding
                elif step % 3 == 2:
                    p.reset()
                for line in lines[at:at + 5]:
                    p.observe(int(line))
            at += 5
            assert_profiler_equal(vec, ref)

    @pytest.mark.parametrize("kind", sorted(PROFILERS))
    def test_decayed_counters_round_like_the_reference(self, kind):
        """A steep decay leaves small counters with full mantissas; adding
        a batch's count to one at once then rounds differently from adding
        1.0 per access (the count spans several binades; on this trace a
        bincount-and-add batch differs from the oracle).  The walk adds per
        access, like the oracle."""
        lines = self._lines(3, 40_000, span=600)
        vec, ref = PROFILERS[kind](), PROFILERS[kind]()
        for chunk in np.array_split(lines, 40):
            vec.observe_many(chunk)
            ref.observe_many_reference(chunk)
            vec.decay(0.03)
            ref.decay(0.03)
        assert_profiler_equal(vec, ref)


# ---------------------------------------------------------------------------
# the real dispatch path on realistic traces
# ---------------------------------------------------------------------------


class TestDispatchEquivalence:
    def _trace(self, name="bzip2", accesses=6_000, num_sets=64, seed=5):
        return generate_trace(get(name), accesses, num_sets, seed=seed).lines

    def test_observe_many_uses_batch_and_matches(self):
        lines = self._trace()
        vec = MSAProfiler(64, 16)
        ref = MSAProfiler(64, 16)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert vec._walk_state is not None  # the walk holds the stacks
        assert_profiler_equal(vec, ref)

    def test_interleaved_scalar_and_batch(self):
        """Scalar observes, reset() and decay() between batches all see the
        same stack state the reference would carry."""
        lines = self._trace(accesses=4_000)
        vec = MSAProfiler(64, 16)
        ref = MSAProfiler(64, 16)
        vec.observe_many(lines[:2_000])
        ref.observe_many_reference(lines[:2_000])
        for p in (vec, ref):
            p.reset()
            for line in lines[2_000:2_010]:
                p.observe(int(line))
            p.decay(0.5)
        vec.observe_many(lines[2_010:])
        ref.observe_many_reference(lines[2_010:])
        assert_profiler_equal(vec, ref)

    @pytest.mark.parametrize("tag_mode", ["truncate", "fold"])
    def test_sampled_dispatch_matches(self, tag_mode):
        lines = self._trace(name="mcf", accesses=8_000)
        vec = sampled(tag_mode)
        ref = sampled(tag_mode)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    def test_histogram_mass_conserved(self):
        lines = self._trace(accesses=5_000)
        p = MSAProfiler(64, 16)
        p.observe_many(lines)
        assert p.total_accesses == p.expected_mass == 5_000


# ---------------------------------------------------------------------------
# which inputs the walk takes
# ---------------------------------------------------------------------------


def _walked(lines, profiler=None):
    """(took the walk, profiler) after observing ``lines``."""
    p = profiler or MSAProfiler(4, 8)
    p.observe_many(lines)
    return p._walk_state is not None, p


class TestBatchEligible:
    def test_small_arrays_take_the_walk(self):
        assert _walked(np.arange(1))[0]
        assert _walked(np.arange(7))[0]

    def test_non_arrays_fall_back(self):
        assert not _walked(iter(range(64)))[0]
        assert not _walked(np.arange(64, dtype=np.float64))[0]
        # lists, tuples and ranges of ints are converted and walked
        assert _walked(list(range(64)))[0]
        assert _walked(range(64))[0]

    def test_negative_values_fall_back(self):
        a = np.arange(64)
        a[7] = -1
        took, vec = _walked(a)
        assert not took
        ref = MSAProfiler(4, 8)
        ref.observe_many_reference(a)
        assert_profiler_equal(vec, ref)

    def test_uint64_beyond_int64_falls_back(self):
        a = np.arange(64, dtype=np.uint64)
        assert _walked(a)[0]
        a[0] = np.iinfo(np.uint64).max
        took, vec = _walked(a)
        assert not took
        ref = MSAProfiler(4, 8)
        ref.observe_many_reference(a)
        assert_profiler_equal(vec, ref)

    def test_fallback_path_still_correct(self):
        """A generator goes down the reference loop, a list and an array
        down the walk: same result."""
        lines = [int(x) for x in np.arange(1024) % 37]
        via_gen = MSAProfiler(4, 8)
        via_gen.observe_many(x for x in lines)
        for form in (lines, np.array(lines, dtype=np.int64)):
            assert_profiler_equal(_walked(form)[1], via_gen)

    def test_strided_input_is_walked_in_order(self):
        lines = np.arange(4_000, dtype=np.int64) % 97
        vec, ref = MSAProfiler(8, 6), MSAProfiler(8, 6)
        vec.observe_many(lines[::3])
        ref.observe_many_reference(lines[::3])
        assert_profiler_equal(vec, ref)


# ---------------------------------------------------------------------------
# walk-level edges
# ---------------------------------------------------------------------------


class TestKernelEdges:
    def test_empty_batch(self):
        p = MSAProfiler(2, 4)
        p.observe(1)
        p.observe_many(np.empty(0, dtype=np.int64))
        assert p.stack_of_set(1) == [1]
        assert p.stack_of_set(0) == []
        assert p.expected_mass == 1.0

    def test_prologue_bins_discarded(self):
        """Carried-in stack lines (from scalar observes) do not contribute
        histogram mass to the next batch."""
        p = MSAProfiler(2, 4)
        p.observe(1)
        p.observe(3)
        p.reset()
        p.observe_many(np.array([1], dtype=np.int64))  # hits at depth 2
        assert p.histogram.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert p.stack_of_set(1) == [1, 3]

    def test_stack_truncated_to_positions(self):
        p = MSAProfiler(1, 3)
        p.observe_many(np.arange(10, dtype=np.int64))
        assert p.histogram.tolist() == [0.0, 0.0, 0.0, 10.0]  # cold misses
        assert p.stack_of_set(0) == [9, 8, 7]

    def test_sampled_stack_of_unsampled_set_rejected(self):
        p = sampled("truncate")
        with pytest.raises(ValueError, match="not sampled"):
            p.stack_of_set(1)


class TestNoCompiler:
    def test_observe_many_runs_the_reference_and_warns_once(
        self, monkeypatch
    ):
        lines = generate_trace(get("mcf"), 3_000, 64, seed=2).lines
        monkeypatch.setattr(kernel, "_compiler", lambda: None)
        kernel.load.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for kind in sorted(PROFILERS):
                    vec, ref = PROFILERS[kind](), PROFILERS[kind]()
                    vec.observe_many(lines)
                    vec.observe_many(lines[:10])
                    ref.observe_many_reference(lines)
                    ref.observe_many_reference(lines[:10])
                    assert vec._walk_state is None
                    assert_profiler_equal(vec, ref)
        finally:
            kernel.load.cache_clear()
        unavailable = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "kernel unavailable" in str(w.message)
        ]
        assert len(unavailable) == 1
        assert "observe_many" in str(unavailable[0].message)

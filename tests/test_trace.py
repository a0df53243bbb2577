"""Memory trace container behaviour."""

import numpy as np
import pytest

from repro.mem.trace import MemoryAccess, Trace, interleave_round_robin


def make_trace(n=10):
    return Trace.from_records([(i * 64, i % 2 == 0, i) for i in range(n)])


class TestTrace:
    def test_round_trip_records(self):
        t = make_trace(5)
        assert len(t) == 5
        assert t[3] == MemoryAccess(3 * 64, False, 3)

    def test_iteration_matches_indexing(self):
        t = make_trace(7)
        assert list(t) == [t[i] for i in range(7)]

    def test_lines_vectorised(self):
        t = make_trace(5)
        assert np.array_equal(t.lines, np.arange(5, dtype=np.uint64))

    def test_line_property_of_access(self):
        assert MemoryAccess(130, False, 0).line == 2

    def test_instruction_count(self):
        t = make_trace(4)  # gaps 0+1+2+3 plus 4 memory ops
        assert t.instruction_count == 6 + 4

    @pytest.mark.parametrize("column", ["addresses", "is_write", "gaps"])
    def test_columns_are_read_only(self, column):
        """Traces are shared across the systems of one comparison, so no
        holder may write a column."""
        t = make_trace(4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(t, column)[0] = 1

    def test_read_only_view_leaves_the_source_writable(self):
        addrs = np.arange(3, dtype=np.uint64)
        t = Trace(addrs, np.zeros(3, np.bool_), np.zeros(3, np.uint32))
        addrs[0] = 64  # the caller's own array keeps its flags
        assert not t.addresses.flags.writeable
        assert t.slice(1).addresses.flags.writeable is False

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                np.zeros(3, dtype=np.uint64),
                np.zeros(2, dtype=np.bool_),
                np.zeros(3, dtype=np.uint32),
            )

    def test_dtype_coercion(self):
        t = Trace(
            np.arange(4, dtype=np.int64),
            np.zeros(4, dtype=np.int32),
            np.ones(4, dtype=np.int64),
        )
        assert t.addresses.dtype == np.uint64
        assert t.is_write.dtype == np.bool_
        assert t.gaps.dtype == np.uint32

    def test_slice(self):
        t = make_trace(10)
        s = t.slice(2, 5)
        assert len(s) == 3
        assert s[0] == t[2]

    def test_concat(self):
        a, b = make_trace(3), make_trace(2)
        c = a.concat(b)
        assert len(c) == 5
        assert c[3] == b[0]

    def test_with_offset(self):
        t = make_trace(3).with_offset(1 << 20)
        assert t[0].address == 1 << 20
        with pytest.raises(ValueError):
            t.with_offset(-1)

    def test_footprint_lines(self):
        t = Trace.from_lines([1, 2, 2, 3, 1])
        assert t.footprint_lines() == 3

    def test_from_lines_gap(self):
        t = Trace.from_lines([5, 6], gap=9)
        assert t[0].gap == 9
        assert t[0].address == 5 * 64

    def test_save_load(self, tmp_path):
        t = make_trace(20)
        path = tmp_path / "t.npz"
        t.save(path)
        loaded = Trace.load(path)
        assert np.array_equal(loaded.addresses, t.addresses)
        assert np.array_equal(loaded.is_write, t.is_write)
        assert np.array_equal(loaded.gaps, t.gaps)

    def test_empty_trace(self):
        t = Trace.from_records([])
        assert len(t) == 0
        assert t.instruction_count == 0

    def test_text_round_trip(self, tmp_path):
        t = make_trace(15)
        path = tmp_path / "t.trc"
        t.save_text(path)
        loaded = Trace.load_text(path)
        assert list(loaded) == list(t)

    def test_text_format_tolerates_comments_and_default_gap(self, tmp_path):
        path = tmp_path / "hand.trc"
        path.write_text("# comment\n\nR 40 3\nW ff\n")
        t = Trace.load_text(path)
        assert t[0] == MemoryAccess(0x40, False, 3)
        assert t[1] == MemoryAccess(0xFF, True, 0)

    def test_text_format_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("X 40 1\n")
        with pytest.raises(ValueError, match="bad record"):
            Trace.load_text(path)


class TestInterleave:
    def test_round_robin_order(self):
        a = Trace.from_lines([1, 2])
        b = Trace.from_lines([10])
        out = interleave_round_robin([a, b])
        assert [(c, acc.line) for c, acc in out] == [(0, 1), (1, 10), (0, 2)]

    def test_empty_inputs(self):
        assert interleave_round_robin([Trace.from_records([])]) == []

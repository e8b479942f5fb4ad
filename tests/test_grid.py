import pytest
from hypothesis import given
from hypothesis import strategies as st

from lprl.grid import depth, extend_laws_check, level, pair, unpair

from oracles import depth_by_scan, level_by_scan, pairing_by_scan

# the ten displayed cells of the diagonal table
TABLE = {
    (0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4,
    (0, 2): 5, (3, 0): 6, (2, 1): 7, (1, 2): 8, (0, 3): 9,
}


class TestPairing:
    def test_table_values(self):
        for (i, j), n in TABLE.items():
            assert pair(i, j) == n

    def test_unpair_table(self):
        assert unpair(0) == (0, 0)
        assert unpair(5) == (0, 2)
        for (i, j), n in TABLE.items():
            assert unpair(n) == (i, j)

    def test_matches_scan_oracle(self):
        cells = pairing_by_scan(5000)
        for n, (i, j) in enumerate(cells):
            assert unpair(n) == (i, j)
            assert pair(i, j) == n

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_roundtrip_from_cell(self, i, j):
        assert unpair(pair(i, j)) == (i, j)

    @given(st.integers(min_value=0, max_value=10 ** 18))
    def test_roundtrip_from_index(self, n):
        i, j = unpair(n)
        assert pair(i, j) == n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pair(-1, 0)
        with pytest.raises(ValueError):
            unpair(-1)


class TestDepthLevel:
    def test_figure_case(self):
        s = (0,) * 8
        assert depth(s) == 3
        assert level(s) == 2

    def test_single_bit(self):
        assert depth((1,)) == 0
        assert level((1,)) == 0

    def test_length_seven(self):
        s = (1,) * 7
        assert depth(s) == 3  # index 6 = cell (3, 0)
        assert level(s) == 3

    def test_empty(self):
        assert depth(()) == -1
        with pytest.raises(ValueError):
            level(())

    @pytest.mark.parametrize("length", range(1, 200))
    def test_matches_scan_oracle(self, length):
        s = (0,) * length
        assert depth(s) == depth_by_scan(length)
        assert level(s) == level_by_scan(length)


class TestExtendLaws:
    def test_level_zero_reset(self):
        # l((1)) = 0, so appending anything jumps to a fresh row
        rep = extend_laws_check((1,), 0)
        assert rep.ok
        assert level((1, 0)) == depth((1, 0)) == depth((1,)) + 1 == 1

    def test_level_descends(self):
        rep = extend_laws_check((1, 1), 1)
        assert rep.ok
        assert level((1, 1, 1)) == 0
        assert depth((1, 1, 1)) == 1

    def test_exhaustive_small(self):
        for length in range(1, 11):
            for bits in range(1 << length):
                s = tuple((bits >> t) & 1 for t in range(length))
                for b in (0, 1):
                    assert extend_laws_check(s, b).ok

    def test_empty_string_append(self):
        assert depth((0,)) == 0
        assert level((0,)) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            extend_laws_check((), 0)
        with pytest.raises(ValueError):
            extend_laws_check((1,), 2)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=1))
    def test_laws_hold_generally(self, s, bit):
        assert extend_laws_check(tuple(s), bit).ok

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=1))
    def test_depth_step_structure(self, s, bit):
        s = tuple(s)
        t = s + (bit,)
        assert depth(t) in (depth(s), depth(s) + 1)
        assert (depth(t) == depth(s) + 1) == (level(s) == 0)

import contextlib
import gc
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lprl import seqspace
from lprl.errors import ResourceLimitError
from lprl.seqspace import (
    DEFAULT_MARGIN,
    EMPTY,
    ExpLadder,
    Margin,
    PowerWindow,
    certified_less,
    concat,
    difference,
    finseq,
    frechet_metric,
    pnorm_pow,
    scale,
    sup_norm,
    window_seq,
    DIRECT_CUTOFF,
    FSUM_CUTOFF,
    FinSeq,
    Literal,
    _analytic_range_sum,
    _WINDOW_SUM_CACHE,
    _prefix_walk,
    _range_power_sum,
    _window_power_sum,
)

from oracles import power_sum_plain, power_sum_whole_array, power_sum_zeta

entries = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    max_size=12)
subunit = st.lists(st.floats(min_value=0.0, max_value=0.999), max_size=12)
exponents = st.floats(min_value=0.1, max_value=4.0)


class TestPnormPow:
    def test_square_sum(self):
        assert pnorm_pow((3, 4), 2) == 25

    def test_empty(self):
        assert pnorm_pow((), 0.5) == 0

    def test_witness_values(self):
        x = (0.25, 1 / 9, 0.0625)
        expected = power_sum_plain(x, 0.5)  # 0.5 + 1/3 + 0.25
        assert abs(expected - (0.5 + 1 / 3 + 0.25)) < 1e-15
        assert abs(pnorm_pow(x, 0.5) - expected) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pnorm_pow((1.0, float("inf")), 1.0)
        with pytest.raises(ValueError):
            pnorm_pow((float("nan"),), 1.0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            pnorm_pow((1.0,), 0.0)
        with pytest.raises(ValueError):
            pnorm_pow((1.0,), -2.0)

    @given(entries, entries, exponents)
    def test_additivity_over_concat(self, u, v, p):
        lhs = pnorm_pow(concat(finseq(u), finseq(v)), p)
        rhs = pnorm_pow(finseq(u), p) + pnorm_pow(finseq(v), p)
        assert abs(lhs - rhs) <= 1e-12 * (len(u) + len(v) + 1)

    @given(subunit, st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_monotone_in_exponent_on_subunit(self, xs, p, bump):
        # all |x| < 1: larger exponent gives a smaller power sum
        assert pnorm_pow(xs, p + bump) <= pnorm_pow(xs, p) + 1e-12


class TestConcat:
    def test_basic(self):
        assert concat(finseq((1, 2)), finseq((3,))).materialize() == (1.0, 2.0, 3.0)

    def test_left_identity(self):
        assert concat(EMPTY, finseq((5,))).materialize() == (5.0,)

    def test_tail_power_identity(self):
        # appending v adds exactly v's power sum
        u, v = finseq((1, 2)), finseq((3,))
        assert pnorm_pow(concat(u, v), 1) - pnorm_pow(u, 1) == pnorm_pow(v, 1)


class TestSupNorm:
    def test_basic(self):
        assert sup_norm(finseq((3, -4, 2))) == 4

    def test_empty(self):
        assert sup_norm(EMPTY) == 0

    def test_below_b_norm(self):
        x = finseq((0.5, 0.5))
        assert sup_norm(x) <= pnorm_pow(x, 1) ** 1.0  # 0.5 <= 1

    def test_window_never_materializes(self):
        w = window_seq(1.0, 10 ** 30, 10 ** 40)
        assert sup_norm(w) == (10 ** 30 + 1.0) ** -1.0

    @given(entries, st.floats(min_value=0.2, max_value=3.0))
    def test_sup_power_below_power_sum(self, xs, b):
        x = finseq(xs)
        assert sup_norm(x) ** b <= pnorm_pow(x, b) + 1e-9


class TestCertifiedLess:
    def test_clear_gap(self):
        assert certified_less(1.0, 2.0, Margin(0.1))

    def test_inside_margin(self):
        assert not certified_less(1.95, 2.0, Margin(0.1))

    def test_tiny_margin(self):
        assert certified_less(0.0, 2 ** -1, Margin(2 ** -20))


class TestFrechetMetric:
    def test_zero_distance(self):
        lad = ExpLadder(1.0, 3.0)
        value, tail = frechet_metric(finseq((1, 2)), finseq((1, 2)), lad, 4)
        assert value == 0
        assert tail == 2 ** -4

    def test_tail_bound_is_geometric(self):
        lad = ExpLadder(1.0, 3.0)
        _, tail = frechet_metric(EMPTY, finseq((1,)), lad, 10)
        assert tail == 2 ** -10

    def test_truncation_monotone_with_valid_tail(self):
        lad = ExpLadder(1.0, 3.0)
        x, y = finseq((0.3, 0.8, 0.1)), finseq((0.2,))
        v8, t8 = frechet_metric(x, y, lad, 8)
        v16, _ = frechet_metric(x, y, lad, 16)
        assert v8 <= v16 <= v8 + t8

    def test_sub_one_base_needs_sub_one_ladder(self):
        bad = ExpLadder(0.5, 2.0)  # p_0 = 1.25
        with pytest.raises(Exception):
            frechet_metric(finseq((1,)), EMPTY, bad, 4)
        ok = ExpLadder(0.5, 0.95)  # p_0 = 0.725 < 1
        value, _ = frechet_metric(finseq((0.5,)), EMPTY, ok, 4)
        assert value > 0


class TestScale:
    @given(entries, st.floats(min_value=0.0, max_value=3.0), exponents)
    def test_homogeneity(self, xs, c, p):
        x = finseq(xs)
        lhs = pnorm_pow(scale(x, c), p)
        rhs = c ** p * pnorm_pow(x, p)
        assert abs(lhs - rhs) <= 1e-9 * (1 + rhs)

    def test_window_scaling(self):
        w = window_seq(0.5, 1, 3)
        assert abs(pnorm_pow(scale(w, 0.5), 2.0) - 0.25 * pnorm_pow(w, 2.0)) < 1e-15


class TestWindowSums:
    def test_window_matches_direct_small(self):
        w = PowerWindow(0.5, 1, 3)
        direct = power_sum_plain([(n + 1) ** -2.0 for n in (1, 2, 3)], 0.5)
        assert abs(_window_power_sum(w, 0.5) - direct) < 1e-12

    def test_window_matches_direct_medium(self):
        w = PowerWindow(1.0, 100, 150000)
        direct = power_sum_plain([(n + 1.0) ** -1.0 for n in range(100, 150001)], 1.0)
        assert abs(_window_power_sum(w, 1.0) - direct) < 1e-9

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.5])
    def test_analytic_matches_direct(self, c):
        direct = power_sum_plain([m ** -c for m in range(500, 40001)], 1.0)
        analytic = _analytic_range_sum(c, 500, 40000)
        assert abs(analytic - direct) < 1e-9 * (1 + abs(direct))

    def test_materialize_guard(self):
        w = window_seq(1.0, 1, 10 ** 12)
        with pytest.raises(ResourceLimitError):
            w.materialize()

    @given(st.floats(min_value=0.2, max_value=3.0), st.integers(0, 10 ** 12),
           st.integers(1, 5000), st.floats(min_value=0.0, max_value=2.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_evaluator_for_window_entries(self, p, n_start, length, c, data):
        # entry, to_array, materialize and equality agree to the last bit
        w = window_seq(p, n_start, n_start + length - 1, c)
        arr = w.to_array()
        t = data.draw(st.integers(0, length - 1))
        for i in (0, t, length - 1):
            assert w.entry(i) == arr[i]
        assert finseq(arr) == w
        assert w.materialize() == tuple(arr.tolist())

    def test_entry_guard_beyond_exact_floats(self):
        w = PowerWindow(1.0, 2 ** 53, 2 ** 53 + 10)
        with pytest.raises(ResourceLimitError):
            w.entry(0)


class TestRangePowerSum:
    """The one summation kernel, on both sides of each regime cutoff."""

    @given(st.floats(min_value=0.3, max_value=3.0), st.integers(1, 10 ** 6),
           st.integers(-3, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_fsum_cutoff_matches_plain_loop(self, c, a, offset, harmonic):
        c = 1.0 if harmonic else c
        b = a + FSUM_CUTOFF - 1 + offset
        plain = power_sum_plain([m ** -c for m in range(a, b + 1)], 1.0)
        assert _range_power_sum(c, a, b) == pytest.approx(plain, rel=1e-13)

    @given(st.floats(min_value=0.3, max_value=3.0), st.integers(1, 10 ** 9),
           st.integers(-3, 3), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_direct_cutoff_matches_mpmath(self, c, a, offset, harmonic):
        c = 1.0 if harmonic else c
        b = a + DIRECT_CUTOFF - 1 + offset
        assert _range_power_sum(c, a, b) == pytest.approx(power_sum_zeta(c, a, b), rel=1e-12)

    @given(st.floats(min_value=0.3, max_value=3.0), st.integers(1, 10 ** 30),
           st.integers(0, 10 ** 20), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_window_matches_mpmath(self, c, a, length, harmonic):
        c = 1.0 if harmonic else c
        b = a + length
        assert _range_power_sum(c, a, b) == pytest.approx(power_sum_zeta(c, a, b), rel=1e-12)

    @given(st.floats(min_value=1.05, max_value=4.0), st.integers(1, 10 ** 12),
           st.integers(0, 2 * DIRECT_CUTOFF))
    @settings(max_examples=30, deadline=None)
    def test_tail_additivity(self, c, a, length):
        b = a + length
        whole = _range_power_sum(c, a)
        assert whole == pytest.approx(power_sum_zeta(c, a), rel=1e-13)
        split = _range_power_sum(c, a, b) + _range_power_sum(c, b + 1)
        assert split == pytest.approx(whole, rel=1e-12)

    def test_window_power_sum_uses_the_kernel(self):
        w = PowerWindow(0.5, 9, 9 + FSUM_CUTOFF)
        assert _window_power_sum(w, 1.5) == _range_power_sum(3.0, 10, 10 + FSUM_CUTOFF)


# numpy-regime lengths n = b - a + 1, in (FSUM_CUTOFF, DIRECT_CUTOFF]
numpy_lengths = st.one_of(
    st.integers(FSUM_CUTOFF + 1, FSUM_CUTOFF + 10),
    st.integers(DIRECT_CUTOFF - 9, DIRECT_CUTOFF),
    st.builds(lambda k, d: (k << 16) + d, st.integers(1, DIRECT_CUTOFF >> 16),
              st.sampled_from([d for d in range(-9, 10) if d])).filter(
        lambda n: FSUM_CUTOFF < n <= DIRECT_CUTOFF),
    st.integers(FSUM_CUTOFF + 1, DIRECT_CUTOFF).filter(lambda n: n % 8))


class TestNumpyLeaves:
    """The numpy regime sums in leaves, and the leaves are one ``np.sum``."""

    @given(st.one_of(st.sampled_from([1.0, 0.5, 2.0, 0.0625]),
                     st.floats(min_value=0.02, max_value=16.0)),
           st.integers(1, 2 ** 40), numpy_lengths)
    @settings(max_examples=100, deadline=None)
    @example(c=1.0, a=1, n=1 << 15)  # one full leaf
    @example(c=0.5, a=7, n=(1 << 15) + 1)  # two leaves, the last of one term
    @example(c=2.0, a=123_456, n=(1 << 16) + 8)
    @example(c=1.0, a=2 ** 52 - 2 ** 16, n=1 << 16)  # ends at 2**52 - 1
    @example(c=0.0625, a=2 ** 52 - 2 ** 16, n=(1 << 15) + 1)
    def test_leaves_equal_the_whole_array_sum(self, c, a, n):
        b = a + n - 1
        _WINDOW_SUM_CACHE.pop((c, a, b), None)
        assert _range_power_sum(c, a, b).hex() == power_sum_whole_array(c, a, b).hex()


# A small leaf and a small direct cutoff give the numpy walk several levels
# on a few thousand terms. A leaf stays above the 128 terms that np.sum adds
# without splitting, so the leaves still split as np.sum does.
SMALL_LEAF = 1 << 8
SMALL_DIRECT = 1 << 13


@contextlib.contextmanager
def small_kernel():
    """The kernel with small leaves, a small direct cutoff and empty memos."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqspace, "_LEAF_TERMS", SMALL_LEAF)
        patch.setattr(seqspace, "DIRECT_CUTOFF", SMALL_DIRECT)
        patch.setattr(seqspace, "_WINDOW_SUM_CACHE", {})
        patch.setattr(seqspace, "_HALF_SUM_CACHE", {})
        yield


def fresh_sum(c, a, b):
    """sum_{m=a}^{b} m**-c summed afresh as the kernel's regime for [a, b] sums it."""
    if b - a < FSUM_CUTOFF:
        return math.fsum((m + 0.0) ** -c for m in range(a, b + 1))
    if b - a < seqspace.DIRECT_CUTOFF:
        return power_sum_whole_array(c, a, b)
    return _analytic_range_sum(c, a, b)


def right_edge(n):
    """The lengths on the right edge of the numpy walk's split tree of n
    terms, from n down to its last leaf."""
    lengths = [n]
    while n > seqspace._LEAF_TERMS:
        half = n // 2
        n -= half - half % 8
        lengths.append(n)
    return lengths


# lengths n = b - a + 1 across FSUM_CUTOFF, SMALL_DIRECT and leaf multiples
small_lengths = st.one_of(
    st.integers(FSUM_CUTOFF - 1, FSUM_CUTOFF + 3),
    st.integers(SMALL_DIRECT - 2, SMALL_DIRECT + 1),
    st.builds(lambda k, d: k * SMALL_LEAF + d,
              st.integers(FSUM_CUTOFF // SMALL_LEAF + 1, SMALL_DIRECT // SMALL_LEAF - 1),
              st.integers(-9, 9)),
    st.integers(FSUM_CUTOFF + 1, SMALL_DIRECT))
kernel_exponents = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 0.0625]),
                             st.floats(min_value=0.02, max_value=16.0))


class TestPairwiseWalk:
    """The numpy regime's walk gives the fresh sum, and a window one term
    longer than one summed before sums its last leaf again."""

    @given(kernel_exponents, st.integers(1, 2 ** 40), small_lengths,
           st.one_of(st.none(), small_lengths))
    @settings(max_examples=60, deadline=None)
    def test_lengths_n_then_n_plus_one_equal_fresh_sums(self, c, a, n, probe):
        with small_kernel():
            if probe is not None:  # an earlier probe from the same start
                _range_power_sum(c, a, a + probe - 1)
            for b in (a + n - 1, a + n):  # lengths n, then n + 1
                assert _range_power_sum(c, a, b).hex() == fresh_sum(c, a, b).hex()

    @given(kernel_exponents, st.integers(1, 2 ** 40),
           st.integers(FSUM_CUTOFF + 1, SMALL_DIRECT - 1).filter(lambda n: n % 16 != 15))
    @settings(max_examples=40, deadline=None)
    @example(c=1.0, a=129, n=5000)  # right edge 5000, 2504, 1256, 632, 320, 160
    def test_a_window_one_longer_powers_one_leaf(self, c, a, n):
        # every split but the last leaf's stays put when no length on the
        # right edge is 15 mod 16, and the last leaf does not outgrow a leaf
        powered = []
        power = seqspace.np.power

        def counted(m, *args, **kwargs):
            powered.append(m.size)
            return power(m, *args, **kwargs)

        with small_kernel(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(seqspace.np, "power", counted)
            edge = right_edge(n)
            _range_power_sum(c, a, a + n - 1)
            assert sum(powered) == n and max(powered) <= SMALL_LEAF
            if any(length % 16 == 15 for length in edge[:-1]) or edge[-1] == SMALL_LEAF:
                return
            powered.clear()
            halves = dict(seqspace._HALF_SUM_CACHE)
            _range_power_sum(c, a, a + n)
            assert powered == [edge[-1] + 1]
            assert seqspace._HALF_SUM_CACHE == halves

    @given(kernel_exponents, st.integers(1, 2 ** 40),
           st.integers(FSUM_CUTOFF + 1, SMALL_DIRECT - 1))
    @settings(max_examples=40, deadline=None)
    def test_the_half_memo_grows_by_one_entry_per_level(self, c, a, n):
        with small_kernel():
            edge = right_edge(n)
            _range_power_sum(c, a, a + n - 1)
            # the left half of each split on the right edge, from a to a + n - 1
            starts = [a + n - whole for whole in edge]
            assert seqspace._HALF_SUM_CACHE.keys() == {
                (c, start, whole - rest)
                for start, whole, rest in zip(starts, edge, edge[1:])}
            for (_, start, half), s in seqspace._HALF_SUM_CACHE.items():
                assert s.hex() == power_sum_whole_array(c, start, start + half - 1).hex()


class TestKernelMemo:
    """One memo, keyed by the kernel's own arguments (c, a, b)."""

    def test_ladders_a_power_of_two_apart_share_an_entry(self):
        n0, n1 = 7_654_321, 7_654_321 + 5000
        _WINDOW_SUM_CACHE.pop((0.5, n0 + 1, n1 + 1), None)
        before = len(_WINDOW_SUM_CACHE)
        first = _window_power_sum(PowerWindow(2.0, n0, n1), 1.0)
        second = _window_power_sum(PowerWindow(0.5, n0, n1), 0.25)
        assert len(_WINDOW_SUM_CACHE) == before + 1
        assert first == second == _WINDOW_SUM_CACHE[(0.5, n0 + 1, n1 + 1)]

    def test_a_call_that_raises_stores_nothing(self):
        before = len(_WINDOW_SUM_CACHE)
        for _ in range(2):
            with pytest.raises(ValueError):
                _range_power_sum(1.0, 5)
        assert len(_WINDOW_SUM_CACHE) == before
        assert (1.0, 5, None) not in _WINDOW_SUM_CACHE


@st.composite
def analytic_calls(draw):
    """(c, a, b) as the kernel meets them: long windows, high windows, tails."""
    c = draw(st.one_of(st.floats(min_value=0.02, max_value=20.0),
                       st.floats(min_value=1 - 1e-4, max_value=1 + 1e-4),
                       st.just(1.0)))
    a = draw(st.integers(1, 10 ** 40))
    shape = draw(st.sampled_from(("long", "high", "tail") if c > 1 else ("long", "high")))
    if shape == "tail":
        return c, a, None
    if shape == "long":
        return c, a, a + draw(st.integers(2 ** 22, 10 ** 45))
    low = max(a, 2 ** 52)
    return c, a, draw(st.integers(low, low + 2 ** 22))


class TestAnalyticKernel:
    """Euler-Maclaurin against the Hurwitz-zeta formula it replaced."""

    @given(analytic_calls())
    @settings(max_examples=80, deadline=None)
    def test_equals_zeta_formula(self, call):
        assert _analytic_range_sum(*call) == power_sum_zeta(*call)

    def test_tail_far_below_one(self):
        # the 200-place value, rounded; the zeta formula at the kernel's
        # precision rule alone gives 1.3878472225594888e-46
        assert _analytic_range_sum(12.453535629756685, 8154) == 1.387847222559478e-46

    @pytest.mark.parametrize("c, a, b, expected", [
        (300, 2, 10 ** 30, 4.909093465297727e-91),
        (8000, 6, 10 ** 8, 0.0),
        (8000, 5, None, 0.0),
        # a head summed past a = 30, then the series; the series alone
        (20, 30, None, 6.1203509830114665e-30),
        (40, 10 ** 3, None, 2.6144358878696616e-119),
    ])
    def test_large_exponents_return_promptly(self, c, a, b, expected):
        start = time.perf_counter()
        assert _analytic_range_sum(c, a, b) == expected
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("c", [0.5, 0.9, 1.0])
    def test_divergent_tail_raises(self, c):
        with pytest.raises(ValueError, match=re.escape(f"c={c!r}")):
            _range_power_sum(c, 7)


class TestFinSeqStructure:
    def test_repr_of_a_window_past_exact_floats_names_its_size(self):
        # eight entries or fewer are printed, unless they exist only as a
        # descriptor
        assert repr(window_seq(1.0, 0, 1)) == f"FinSeq({(1.0, 0.5)!r})"
        x = window_seq(1.0, 2 ** 60, 2 ** 60 + 3)
        with pytest.raises(ResourceLimitError):
            x.materialize()
        assert repr(x) == "FinSeq(<4 entries, 1 segments>)"

    def test_prefix_across_segments(self):
        u = concat(finseq((0.0,)), window_seq(1.0, 5, 100))
        v = concat(u, finseq((0.25,)))
        assert u.is_prefix_of(v, proper=True)
        assert not v.is_prefix_of(u)

    def test_window_split_prefix(self):
        whole = window_seq(1.0, 5, 100)
        head = window_seq(1.0, 5, 50)
        assert head.is_prefix_of(whole, proper=True)
        shifted = window_seq(1.0, 6, 50)
        assert not shifted.is_prefix_of(whole)

    def test_equality_mixed_representation(self):
        w = window_seq(2.0, 3, 6)
        lit = finseq(w.materialize())
        assert w == lit

    @pytest.mark.parametrize("length", [4096, 4097, 5000, (1 << 16) + 3])
    def test_equality_mixed_representation_long(self, length):
        # entries are compared past FSUM_CUTOFF and across numpy chunks
        w = window_seq(1.0, 0, length - 1)
        lit = finseq(w.materialize())
        assert w == lit
        assert lit == w
        assert w.is_prefix_of(concat(lit, finseq((0.0,))), proper=True)
        assert lit.is_prefix_of(concat(w, finseq((0.0,))), proper=True)

    @pytest.mark.parametrize("length", [4096, 4097])
    def test_inequality_mixed_representation_last_entry(self, length):
        w = window_seq(0.5, 2, length + 1)
        vals = list(w.materialize())
        vals[-1] = math.nextafter(vals[-1], 1.0)
        lit = finseq(vals)
        assert w != lit
        assert lit != w

    def test_mixed_comparison_beyond_limit_raises(self, monkeypatch):
        w = window_seq(1.0, 0, 99)
        lit = finseq(w.materialize())
        monkeypatch.setattr("lprl.seqspace.MATERIALIZE_LIMIT", 64)
        with pytest.raises(ResourceLimitError):
            w == lit
        with pytest.raises(ResourceLimitError):
            lit == w

    @pytest.mark.parametrize("length", [1, 4, 5000])
    def test_zero_scale_windows_equal(self, length):
        u = window_seq(1.0, 0, length - 1, 0.0)
        v = window_seq(2.0, 7, length + 6, 0.0)
        assert u == v
        assert u.is_prefix_of(concat(v, window_seq(3.0, 0, 2, 0.0)), proper=True)

    def test_windows_of_equal_entries_equal(self):
        # both entries are 1.0: (0+1)**-1 and (0+1)**-(1/3)
        assert window_seq(1.0, 0, 0) == window_seq(3.0, 0, 0)
        assert window_seq(1.0, 0, 0).is_prefix_of(window_seq(3.0, 0, 5), proper=True)

    def test_windows_differing_past_first_entry(self):
        u, v = window_seq(1.0, 0, 2), window_seq(3.0, 0, 2)
        assert u != v
        assert not u.is_prefix_of(window_seq(3.0, 0, 5))

    def test_differing_first_entries_decide_without_materializing(self, monkeypatch):
        monkeypatch.setattr("lprl.seqspace.MATERIALIZE_LIMIT", 64)
        assert window_seq(1.0, 0, 99) != window_seq(2.0, 1, 100)
        assert window_seq(1.0, 0, 99) != finseq([0.5] * 100)
        # equal first entries (1.0) leave 100 entries to compare
        with pytest.raises(ResourceLimitError):
            window_seq(1.0, 0, 99) == window_seq(3.0, 0, 99)

    def test_entry_indexing(self):
        x = concat(finseq((7.0, 8.0)), window_seq(1.0, 0, 2))
        assert x.entry(0) == 7.0
        assert x.entry(2) == 1.0
        assert x.entry(4) == pytest.approx(1 / 3)
        with pytest.raises(IndexError):
            x.entry(5)


# entries and window scales from 1e-300 to 1e300, so that parts overflow,
# and windows' parts reach inf, in some draws
magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)
literal_segments = st.lists(
    st.one_of(magnitudes, magnitudes.map(lambda v: -v), st.just(0.0)),
    min_size=1, max_size=4).map(lambda vs: Literal(tuple(vs)))
window_segments = st.builds(
    lambda pb, n0, count, sc: PowerWindow(pb, n0, n0 + count - 1, sc),
    st.floats(min_value=0.5, max_value=3.0), st.integers(0, 50), st.integers(1, 40),
    magnitudes)
# each inner list is one concat step; an empty step repeats its base's entries
concat_steps = st.lists(
    st.lists(st.one_of(literal_segments, window_segments), max_size=3),
    min_size=1, max_size=6)


# exact zeros: runs of 0.0 and -0.0, and windows of scale 0.0; 1e-200 ** 2
# underflows to 0.0 while 1e-200 ** 1 does not
zero_segments = st.one_of(
    st.lists(st.sampled_from((0.0, -0.0)), min_size=1, max_size=3).map(
        lambda vs: Literal(tuple(vs))),
    window_segments.map(lambda w: PowerWindow(w.p_bottom, w.n_start, w.n_end, 0.0)),
    st.just(Literal((1e-200,))))
zero_rule_steps = st.lists(
    st.lists(st.one_of(zero_segments, literal_segments, window_segments), max_size=3),
    min_size=1, max_size=6)


def _concat_chain(steps):
    chain = [FinSeq(steps[0])]
    for segs in steps[1:]:
        chain.append(concat(chain[-1], FinSeq(segs)))
    return chain


def _parts(x, p):
    """Every segment's power-sum part, in segment order."""
    return [math.fsum(abs(v) ** p for v in seg.values) if isinstance(seg, Literal)
            else _window_power_sum(seg, p)
            for seg in x.segments]


def _fsum_of_parts(x, p):
    """The reference: one math.fsum over every segment's part."""
    return math.fsum(_parts(x, p))


class TestIncrementalPowerSums:
    @given(concat_steps, st.floats(min_value=0.25, max_value=2.0), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit_fsum_of_parts(self, steps, p, rnd):
        chain = _concat_chain(steps)
        rnd.shuffle(chain)  # some sums walk up the chain, others reuse stored ones
        for x in chain:
            try:
                expected = _fsum_of_parts(x, p)
            except OverflowError:
                with pytest.raises(OverflowError):
                    pnorm_pow(x, p)
            else:
                assert pnorm_pow(x, p).hex() == expected.hex()

    def test_overflow_and_infinite_parts(self):
        big = finseq((1e308,))
        huge = window_seq(1.0, 0, 40, 1e308)  # its part is inf
        inf = math.inf
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])
        with pytest.raises(OverflowError):
            pnorm_pow(concat(big, big), 1.0)
        assert _window_power_sum(huge.segments[0], 1.0) == inf
        assert math.fsum([1e308, inf]) == inf
        assert pnorm_pow(concat(big, huge), 1.0) == inf
        # an inf part restarts fsum's partials: what overflows is what follows it
        assert math.fsum([1e308, inf, 1e308]) == inf
        assert pnorm_pow(concat(concat(big, huge), big), 1.0) == inf
        with pytest.raises(OverflowError):
            math.fsum([1e308, inf, 1e308, 1e308])
        with pytest.raises(OverflowError):
            pnorm_pow(concat(concat(concat(big, huge), big), big), 1.0)

    @given(concat_steps, st.floats(min_value=0.25, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_only_unlinked_sequences_store_parts(self, steps, p):
        x = _concat_chain(steps)[-1]
        try:
            pnorm_pow(x, p)
            overflowed = False
        except OverflowError:
            overflowed = True  # the pieces summed before it still store their parts
        y = x  # the summed sequence itself, then each base
        while y is not None:
            if y.base is not None:  # linked: its parts are read, never kept
                assert y._sums is None
            # the start of the links, and each block, keep theirs
            for z in (y, y.block):
                if z is not None and z.base is None:
                    assert p in z._sums or overflowed
                    if p in z._sums:
                        assert [v.hex() for v in z._sums[p]] == [
                            v.hex() for v in _parts(z, p) if v]
            y = y.base

    @given(zero_rule_steps, st.sampled_from((1.0, 2.0)), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_exact_zero_parts_are_left_out(self, steps, p, rnd):
        chain = _concat_chain(steps)
        rnd.shuffle(chain)
        for x in chain:
            try:
                expected = _fsum_of_parts(x, p)  # zeros and all
            except OverflowError:
                with pytest.raises(OverflowError):
                    pnorm_pow(x, p)
            else:
                assert pnorm_pow(x, p).hex() == expected.hex()
        for x in chain:
            # only the unlinked pieces keep parts; none where a piece overflowed
            assert x.base is None or x._sums is None
            for y in x._pieces():
                assert 0.0 not in y._sums.get(p, ())

    @given(concat_steps, st.data())
    @settings(max_examples=100, deadline=None)
    def test_structural_prefix_agrees_with_walk(self, steps, data):
        chain = _concat_chain(steps)
        # the same entries, every window stored as a literal run
        chain.append(FinSeq(tuple(
            Literal(tuple(seg.values().tolist())) if isinstance(seg, PowerWindow) else seg
            for seg in data.draw(st.sampled_from(chain)).segments)))
        # the same leading segments, then a drawn last one
        other = data.draw(st.sampled_from(chain)).segments[:-1]
        chain.append(FinSeq(other + (data.draw(st.one_of(literal_segments, window_segments)),)))
        for x in chain:
            for y in chain:
                walk = x.length <= y.length and _prefix_walk(x.segments, y.segments, x.length)
                assert x.is_prefix_of(y) == walk


# a block: a run of literal, window and zero-scale window segments (none
# for an empty block), or a block that is itself linked
block_segments = st.lists(
    st.one_of(literal_segments, window_segments, zero_segments), max_size=3)
link_blocks = st.one_of(
    block_segments.map(FinSeq),
    st.tuples(block_segments, block_segments).map(
        lambda runs: concat(FinSeq(runs[0]), FinSeq(runs[1]))))


class TestLinks:
    @given(st.lists(link_blocks, min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_links_give_segments_length_and_prefix_order(self, blocks, data):
        chain = blocks[:1]
        for block in blocks[1:]:
            chain.append(concat(chain[-1], block))
        for x in chain[1:]:
            expected = x.base.segments + x.block.segments
            assert len(x.segments) == len(expected)
            assert all(mine is theirs for mine, theirs in zip(x.segments, expected))
            assert x.length == x.base.length + x.block.length
        drawn = data.draw(st.sampled_from(chain))
        # the same entries stored differently, every window as a literal run
        as_literals = FinSeq(tuple(
            Literal(tuple(seg.values().tolist())) if isinstance(seg, PowerWindow) else seg
            for seg in drawn.segments))
        # on no chain: a drawn sequence's leading segments, then a drawn last one
        off_chain = FinSeq(drawn.segments[:-1] + (
            data.draw(st.one_of(literal_segments, window_segments)),))
        seqs = chain + [as_literals, off_chain]
        arrays = [x.to_array() for x in seqs]
        for x, ax in zip(seqs, arrays):
            for y, ay in zip(seqs, arrays):
                prefix = len(ax) <= len(ay) and np.array_equal(ax, ay[:len(ax)])
                assert x.is_prefix_of(y) == prefix
                assert x.is_prefix_of(y, proper=True) == (prefix and len(ax) < len(ay))
                assert (x == y) == (prefix and len(ax) == len(ay))

    def test_a_linked_sequence_holds_no_segment_tuple(self):
        x = concat(concat(finseq((1.0, 2.0)), window_seq(2.0, 0, 9)), finseq((0.0,)))
        assert x.base is not None and x.block is not None
        assert not any(isinstance(ref, tuple) for ref in gc.get_referents(x))
        assert len(x.segments) == 3 and x.entry(2) == 1.0 and x.entry(12) == 0.0
        assert repr(x) == "FinSeq(<13 entries, 3 segments>)"


class TestExpLadder:
    def test_default_rule(self):
        lad = ExpLadder(0.0, 2.0)
        assert lad.exponents(3) == (1.0, 0.5, 0.25)

    @given(st.floats(min_value=0, max_value=2), st.floats(min_value=0.1, max_value=4))
    @settings(max_examples=50)
    def test_strictly_decreasing_toward_a(self, a, gap):
        lad = ExpLadder(a, a + gap)
        ps = lad.exponents(30)
        assert all(x > y for x, y in zip(ps, ps[1:]))
        assert all(p > a for p in ps)
        assert ps[0] < lad.q
        assert ps[-1] - a < gap * 2 ** -29

    @pytest.mark.parametrize("a,q,p0", [(0.0, 5e-324, 0.0), (0.9999999999999999, 1.0, 1.0)])
    def test_a_first_exponent_that_rounds_to_a_or_q_is_refused(self, a, q, p0):
        with pytest.raises(ValueError, match=re.escape(
                f"stops decreasing at p_0 = {p0!r}: not strictly between q = {q!r} and a")):
            ExpLadder(a, q)

    def test_exponents_past_the_last_strict_step_are_refused(self):
        lad = ExpLadder(1.0, 3.0)
        assert lad.exponents(53)[-1] == 1.0000000000000002
        with pytest.raises(ValueError, match=re.escape(
                "stops decreasing at p_53 = 1.0: not strictly between "
                "p_52 = 1.0000000000000002 and a")):
            lad.exponents(54)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ExpLadder(2.0, 1.0)
        # the ladder is (a, q) alone
        with pytest.raises(TypeError):
            ExpLadder(0.0, 2.0, (1.5, 1.0))


class TestDifference:
    def test_padded(self):
        d = difference(finseq((1.0, 2.0)), finseq((0.5,)))
        assert d.materialize() == (0.5, 2.0)

    # the power-sum distance sum_n |x_n - y_n|**p, here at p = 1/2
    def test_power_sum_of_equal_is_zero(self):
        assert pnorm_pow(difference(finseq((1,)), finseq((1,))), 0.5) == 0

    def test_power_sum_zero_padding(self):
        assert pnorm_pow(difference(finseq((0.25,)), EMPTY), 0.5) == 0.5

    def test_power_sum_direct_values(self):
        d = difference(finseq((0.04, 0.09)), finseq((0, 0)))
        assert abs(pnorm_pow(d, 0.5) - 0.5) < 1e-12

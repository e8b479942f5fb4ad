import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprl import reduction
from lprl.construction import (
    ConstructionCache,
    Node,
    build_node,
    build_tree,
    export_cache,
    import_cache,
    walk_path,
)
from lprl.errors import PreconditionError
from lprl.grid import pair
from lprl.reduction import (
    AlphaSpec,
    EventuallyOne,
    FiniteOnes,
    PeriodicOnes,
    alpha_bit,
    bad_row,
    continuity_check,
    diagonal_bits,
    divergence_witness,
    f_blocks,
    in_p3,
    path_bits,
    path_rows,
    stabilization_check,
    standard_corpus,
    unit_ball_check,
)
from lprl.seqspace import (
    EMPTY,
    ExpLadder,
    FinSeq,
    Margin,
    PowerWindow,
    concat,
    finseq,
    pnorm_pow,
    scale,
)

from lprl.cli import _seeded_continuity_pairs
from oracles import distance_plain, power_sum_plain

ZERO = AlphaSpec.from_rows({})
ROW0_ALWAYS = AlphaSpec.from_rows({0: EventuallyOne(0)})


def rows_at(cache, spec, i, k):
    """spec's path to u_k with its sums at p_i, as stabilization reads it."""
    return path_rows(cache, spec, k, (cache.ladder.exponent(i),))


class TestAlphaBit:
    def test_all_zero(self):
        assert all(alpha_bit(ZERO, n) == 0 for n in range(50))

    def test_eventually_one_row(self):
        spec = AlphaSpec.from_rows({0: EventuallyOne(0)})
        assert alpha_bit(spec, 2) == 1  # cell (0, 1)

    def test_finite_row(self):
        spec = AlphaSpec.from_rows({1: FiniteOnes(frozenset({0}))})
        assert alpha_bit(spec, 1) == 1  # cell (1, 0)
        assert alpha_bit(spec, 4) == 0  # cell (1, 1)

    def test_periodic_row(self):
        spec = AlphaSpec.from_rows({0: PeriodicOnes(1, 2, 0)})
        # ones at columns 1, 3, 5, ... of row 0
        assert alpha_bit(spec, pair(0, 1)) == 1
        assert alpha_bit(spec, pair(0, 2)) == 0
        assert alpha_bit(spec, pair(0, 3)) == 1


_ROW_SPECS = st.dictionaries(
    st.integers(0, 4),
    st.one_of(
        st.builds(FiniteOnes, st.frozensets(st.integers(0, 12), max_size=4)),
        st.builds(EventuallyOne, st.integers(0, 12)),
        st.integers(1, 5).flatmap(lambda m: st.builds(
            PeriodicOnes, st.integers(0, m - 1), st.just(m), st.integers(0, 8)))),
    max_size=5).map(AlphaSpec.from_rows)


class TestDiagonalBits:
    @given(_ROW_SPECS, st.integers(0, 60), st.data())
    @settings(max_examples=100)
    def test_each_bit_is_alpha_bit(self, spec, k, data):
        start = data.draw(st.integers(0, k), label="start")
        expected = [alpha_bit(spec, n) for n in range(k + 1)]
        assert list(path_bits(spec, k)) == expected
        later = diagonal_bits(spec, start)
        assert [next(later) for _ in range(start, k + 1)] == expected[start:]

    def test_a_start_past_any_walk(self):
        # the start is unpaired, and no position before it is read
        bits = diagonal_bits(ROW0_ALWAYS, 10 ** 30)
        assert [next(bits) for _ in range(3)] == [alpha_bit(ROW0_ALWAYS, 10 ** 30 + n)
                                                 for n in range(3)]


class TestMembership:
    def test_all_zero_is_member(self):
        assert in_p3(ZERO)

    def test_periodic_row_breaks_membership(self):
        assert not in_p3(AlphaSpec.from_rows({2: PeriodicOnes(0, 3, 0)}))

    def test_finite_rows_are_member(self):
        spec = AlphaSpec.from_rows({0: FiniteOnes(frozenset({5, 7})),
                                    3: FiniteOnes(frozenset())})
        assert in_p3(spec)

    def test_corpus_split(self):
        corpus = standard_corpus()
        assert [in_p3(s) for s in corpus] == [True] * 4 + [False] * 4


class TestBlocks:
    def test_all_zero_path(self, cache02):
        blocks = f_blocks(cache02, ZERO, 5)
        assert len(blocks) == 6
        for u in blocks:
            assert u.materialize() == (0.0,)
        assert build_node(cache02, path_bits(ZERO, 5)).phi.materialize() == (0.0,) * 6

    @pytest.mark.parametrize("imported", [False, True])
    def test_phi_is_the_joined_blocks(self, cache02, tmp_path, imported):
        build_tree(cache02, 6)
        cache = cache02
        if imported:
            cache = import_cache(export_cache(cache02, tmp_path / "c.txt"))
        for spec in standard_corpus():
            joined = sum((u.segments for u in f_blocks(cache, spec, 5)), ())
            assert build_node(cache, path_bits(spec, 5)).phi.segments == joined

    def test_single_block_is_phi(self, cache02):
        blocks = f_blocks(cache02, ROW0_ALWAYS, 0)
        node = build_node(cache02, (1,))
        assert blocks[0] == node.phi

    def test_block_bound_small_depth(self, cache02):
        for t, u in enumerate(f_blocks(cache02, ROW0_ALWAYS, 2)):
            assert pnorm_pow(u, 2.0) < 2.0 ** -(t + 1)

    def test_path_consistency(self, cache02):
        blocks5 = f_blocks(cache02, ROW0_ALWAYS, 5)
        blocks8 = f_blocks(cache02, ROW0_ALWAYS, 8)
        assert blocks8[:6] == blocks5


_SPECS = st.dictionaries(
    st.integers(0, 4),
    st.one_of(
        st.builds(FiniteOnes, st.frozensets(st.integers(0, 4), max_size=3)),
        st.builds(EventuallyOne, st.integers(0, 4)),
        st.integers(1, 3).flatmap(lambda m: st.builds(
            PeriodicOnes, st.integers(0, m - 1), st.just(m), st.integers(0, 2)))),
    max_size=3).map(AlphaSpec.from_rows)


class TestPathRows:
    def test_a_zero_node_shares_its_parents_sums(self, cache02):
        spec = AlphaSpec.from_rows({0: FiniteOnes(frozenset({0, 1}))})  # ones at 0 and 2
        exps = cache02.ladder.exponents(3)
        path = path_rows(cache02, spec, 4, exps)
        bits = (1, 0, 1, 0, 0)
        assert path[-1][0] is build_node(cache02, bits)
        for t, (node, sums) in enumerate(path):
            assert sums == {p: pnorm_pow(node.phi, p) for p in exps}
            assert list(sums) == list(exps)
            if t:  # the same dict object after a 0, a dict of its own after a 1
                assert (sums is path[t - 1][1]) == (bits[t] == 0)

    @pytest.mark.parametrize("block", [finseq((0.0, -0.0)), FinSeq((PowerWindow(1.0, 3, 9, 0.0),))])
    def test_exact_zeros_share_the_parents_sums(self, block):
        # a hand-made node after u_0 = (1,), whose phi adds exact zeros
        # alone, below a root of the cache's own
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        cache.root = Node(EMPTY, (), EMPTY)
        parent = build_node(cache, (1,))
        parent.kid0 = Node(concat(parent.phi, block), parent.M, block)
        spec = AlphaSpec.from_rows({0: FiniteOnes(frozenset({0}))})
        (_, first), (node, second) = path_rows(cache, spec, 1, (1.0,))
        assert node.block is block
        assert second is first and first[1.0] > 1.0

    def test_a_block_whose_cost_underflows_is_summed(self):
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        block = finseq((1e-200,))
        assert pnorm_pow(block, cache.ladder.q) == 0.0  # (1e-200)**2 underflows
        cache.root = Node(EMPTY, (), EMPTY)  # a root of its own, for the hand-made node
        parent = build_node(cache, (0,))
        parent.kid0 = Node(concat(parent.phi, block), parent.M, block)
        assert cache.ladder.exponents(1) == (1.0,)
        (_, first), (_, second) = path_rows(cache, ZERO, 1, (1.0,))
        assert first == {1.0: 0.0} and second == {1.0: 1e-200}

    @given(_SPECS, st.integers(0, 12), st.sampled_from([(0.0, 2.0), (0.0, 0.5), (1.0, 3.0)]))
    @settings(max_examples=40, deadline=None)
    def test_every_sum_is_a_fresh_resummation(self, spec, k, config):
        # each sum against its phi's segments summed anew, with no stored parts
        ladder = ExpLadder(*config)
        exps = (ladder.q, *ladder.exponents(4))
        for node, sums in path_rows(ConstructionCache(ladder), spec, k, exps):
            fresh = FinSeq(node.phi.segments)
            assert [sums[p].hex() for p in exps] == [pnorm_pow(fresh, p).hex() for p in exps]


class TestUnitBall:
    def test_zero_path(self, cache02):
        rep = unit_ball_check(cache02, path_rows(cache02, ZERO, 8, ()))
        assert rep.ok

    def test_cumulative_under_geometric(self, cache02):
        rep = unit_ball_check(cache02, path_rows(cache02, ROW0_ALWAYS, 10, ()))
        assert rep.ok
        total = math.fsum(pnorm_pow(u, 2.0) for u in f_blocks(cache02, ROW0_ALWAYS, 10))
        assert total <= 1 - 2.0 ** -11

    def test_scaled_blocks_scale_quadratically(self, cache02):
        blocks = f_blocks(cache02, ROW0_ALWAYS, 6)
        total = math.fsum(pnorm_pow(u, 2.0) for u in blocks)
        scaled = math.fsum(pnorm_pow(scale(u, 0.5), 2.0) for u in blocks)
        assert abs(scaled - total / 4) < 1e-12
        assert scaled <= 0.25


class TestCacheMargin:
    """Every check certifies with the margin of the cache it is given."""

    @pytest.fixture
    def wide(self):
        # an all-zero path needs no witness search, so eta = 1 still builds
        return ConstructionCache(ExpLadder(0.0, 2.0), Margin(1.0))

    def test_unit_ball(self, wide):
        rep = unit_ball_check(wide, path_rows(wide, ZERO, 5, ()))
        assert not rep.ok
        assert list(rep.counts.items()) == [
            ("block-q-bound", 6), ("cumulative-under-geometric", 1), ("cumulative-under-one", 1)]
        assert [(c.label, c.note) for c in rep.violations] == [
            *(("block-q-bound", f"t={t}") for t in range(6)),
            ("cumulative-under-geometric", ""), ("cumulative-under-one", "")]

    def test_continuity(self, wide):
        rep = continuity_check(wide, ZERO, ZERO, 4, 2)
        assert not rep.ok
        assert [c.label for c in rep.violations] == ["tail-distance"]


class TestContinuity:
    def test_identical_specs(self, cache02):
        rep = continuity_check(cache02, ROW0_ALWAYS, ROW0_ALWAYS, 4, 2)
        assert rep.ok
        dist_check = [c for c in rep.checks if c.label == "tail-distance"][0]
        assert dist_check.lhs == 0

    def test_late_disagreement_within_bound(self, cache02):
        a = ZERO
        b = AlphaSpec.from_rows({0: FiniteOnes(frozenset({3}))})  # first one at cell index 9
        rep = continuity_check(cache02, a, b, 6, 2)
        assert rep.ok

    def test_shared_blocks_identical(self, cache02):
        a = AlphaSpec.from_rows({0: FiniteOnes(frozenset({0}))})
        b = AlphaSpec.from_rows({0: FiniteOnes(frozenset({0, 3}))})
        rep = continuity_check(cache02, a, b, 5, 2)
        assert rep.ok
        assert any(c.label == "shared-blocks-identical" and c.ok for c in rep.checks)

    def test_remainder_past_k_total_counted(self, cache02):
        # the one of row 0 sits at position pair(0, 5) = 20, past k_total = 8,
        # so u_0..u_8 agree and each tail is the remainder budget 2**-9 alone
        b = AlphaSpec.from_rows({0: FiniteOnes(frozenset({5}))})
        rep = continuity_check(cache02, ZERO, b, 6, 2)
        assert rep.ok
        dist_check = [c for c in rep.checks if c.label == "tail-distance"][0]
        assert dist_check.lhs == 2 * (2.0 ** -9) ** 0.5
        assert dist_check.lhs == pytest.approx(0.0883883476)

    @pytest.mark.parametrize("q", [2.0, 0.5])
    def test_bound_dominates_materialized_distance(self, q):
        cache = ConstructionCache(ExpLadder(0.0, q))
        pairs = _seeded_continuity_pairs(random.Random(0), 20)
        small = dict.fromkeys((a, b, n) for a, b, n in pairs if n <= 4)
        assert len(small) >= 3
        for spec_a, spec_b, agree_to in small:
            rep = continuity_check(cache, spec_a, spec_b, agree_to, 2)
            bound = [c for c in rep.checks if c.label == "tail-distance"][0].lhs
            xs, ys = (build_node(cache, path_bits(s, agree_to + 2)).phi.materialize()
                      for s in (spec_a, spec_b))
            assert bound >= distance_plain(xs, ys, q)

    def test_early_disagreement_rejected(self, cache02):
        b = AlphaSpec.from_rows({0: FiniteOnes(frozenset({0}))})
        with pytest.raises(ValueError):
            continuity_check(cache02, ZERO, b, 4, 2)


class TestDivergence:
    def test_walks_past_target(self, cache02):
        w = divergence_witness(cache02, ROW0_ALWAYS, 0, 3.0, path_rows(cache02, ROW0_ALWAYS, 0, ()))
        assert w.norm_value > 3.0
        # independent re-summation of the winning prefix
        bits = None
        for k in (0, 2, 5, 9):
            node = build_node(cache02, path_bits(ROW0_ALWAYS, k))
            if node.phi.length == w.prefix_len:
                bits = path_bits(ROW0_ALWAYS, k)
        assert bits is not None
        prefix = build_node(cache02, bits).phi.materialize()
        assert abs(power_sum_plain(prefix, 1.0) - w.norm_value) < 1e-9

    def test_target_zero_stops_first(self, cache02):
        w = divergence_witness(cache02, ROW0_ALWAYS, 0, 0.0, path_rows(cache02, ROW0_ALWAYS, 0, ()))
        first = build_node(cache02, (1,))
        assert w.prefix_len == first.phi.length
        assert w.norm_value > 1.0

    def test_monotone_in_target(self, cache02):
        lengths = [divergence_witness(cache02, ROW0_ALWAYS, 0, t,
                                      path_rows(cache02, ROW0_ALWAYS, 0, ())).prefix_len
                   for t in (0.0, 1.5, 3.0)]
        assert lengths == sorted(lengths)

    def test_finite_row_rejected(self, cache02):
        spec = AlphaSpec.from_rows({0: FiniteOnes(frozenset({1}))})
        with pytest.raises(ValueError):
            divergence_witness(cache02, spec, 0, 1.0, path_rows(cache02, spec, 0, ()))

    def test_a_first_one_whose_budget_underflows_is_refused_unwalked(self, counted):
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        spec = AlphaSpec.from_rows({46: EventuallyOne(0)})
        assert pair(46, 0) == 1081  # its budget 2**-1082 is 0.0
        path = path_rows(cache, spec, 0, ())
        with pytest.raises(PreconditionError, match="row 46's first one is at position 1081"):
            divergence_witness(cache, spec, 46, 3.0, path)
        assert [key for _, key in counted] == [0b10]  # u_0 = (0,) alone, the path given

    def test_a_later_one_whose_budget_underflows_is_refused_unwalked(self, monkeypatch,
                                                                     counted):
        # a walk past the last positive budget (position 1073) fails the test, not hangs it
        monkeypatch.setattr(reduction, "walk_path",
                            lambda *args: itertools.islice(walk_path(*args), 1100))
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        spec = AlphaSpec.from_rows({0: PeriodicOnes(0, 10 ** 12, 0)})
        second = pair(0, 10 ** 12)  # about 5e23, past every positive budget
        with pytest.raises(PreconditionError) as err:
            divergence_witness(cache, spec, 0, 3.0, path_rows(cache, spec, 0, ()))
        assert [key for _, key in counted] == [0b11]  # the first one's node (1,) alone
        reached = pnorm_pow(cache.root.kid1.phi, cache.ladder.exponent(0))
        assert 1.0 < reached < 3.0
        assert str(err.value) == (
            f"row 0's next one is at position {second}, where the block budget "
            f"2**-{second + 1} underflows to 0.0; the power sum so far is {reached!r}")


class TestStabilization:
    def test_all_zero_keeps_unit_cap(self, cache02):
        rep = stabilization_check(cache02, ZERO, 0, rows_at(cache02, ZERO, 0, 12))
        assert rep.ok
        for k in range(13):
            node = build_node(cache02, path_bits(ZERO, k))
            assert node.M[0] == 1

    def test_late_row_does_not_move_early_cap(self, cache02):
        spec = AlphaSpec.from_rows({3: FiniteOnes(frozenset({0, 1}))})
        rep = stabilization_check(cache02, spec, 0, rows_at(cache02, spec, 0, 12))
        assert rep.ok

    def test_requires_membership(self, cache02):
        with pytest.raises(ValueError):
            stabilization_check(cache02, ROW0_ALWAYS, 0, rows_at(cache02, ROW0_ALWAYS, 0, 8))

    def test_a_hand_made_path_reports_as_before(self, cache02):
        # from n_stable = pair(1, 1) = 4 on: the cap moves at k=6 and the
        # sum reaches it at k=7; the literal is the report of a check that
        # passes every claim through CheckReport.add
        spec = AlphaSpec.from_rows({1: FiniteOnes(frozenset({0}))})
        p1 = cache02.ladder.exponent(1)
        caps = [(9, 3)] * 6 + [(9, 4), (9, 3), (9, 3)]
        sums = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 2.75]
        path = [(SimpleNamespace(M=m), {p1: s}) for m, s in zip(caps, sums)]
        report = stabilization_check(cache02, spec, 1, path).to_dict()
        assert report == {
            "title": "stabilization i=1 j0=1", "ok": False,
            "instances": {"cap-stable": 5, "prefix-bounded": 5},
            "violations": [
                {"label": "cap-stable", "lhs": "4", "rhs": "3", "note": "k=6"},
                {"label": "prefix-bounded", "lhs": "3.0", "rhs": "3", "note": "k=7"}]}
        assert list(report["instances"]) == ["cap-stable", "prefix-bounded"]

    def test_beyond_max_k_reports_nothing_to_check(self, cache02):
        spec = AlphaSpec.from_rows({2: FiniteOnes(frozenset({4}))})
        rep = stabilization_check(cache02, spec, 2, rows_at(cache02, spec, 2, 5))
        assert rep.ok
        assert rep.counts["cap-stable"] == 0


class TestScalePrefix:
    def test_divergence_survives_scaling(self, cache02):
        # scaling by delta rescales every p-power sum by delta**p, so the
        # witness argument goes through at the scaled target
        w = divergence_witness(cache02, ROW0_ALWAYS, 0, 3.0, path_rows(cache02, ROW0_ALWAYS, 0, ()))
        delta = 0.5
        node = None
        for k in (0, 2, 5, 9, 14):
            cand = build_node(cache02, path_bits(ROW0_ALWAYS, k))
            if cand.phi.length == w.prefix_len:
                node = cand
        scaled_value = pnorm_pow(scale(node.phi, delta), 1.0)
        assert scaled_value > 3.0 * delta ** 1.0


class TestCorpus:
    def test_bad_rows(self):
        corpus = standard_corpus()
        assert [bad_row(s) for s in corpus] == [None] * 4 + [0, 1, 2, 3]

    def test_stabilization_positions_within_depth_twelve(self):
        # every declared row <= 2 keeps its ones in columns <= 1
        for spec in standard_corpus()[:4]:
            for i in range(3):
                j0 = 0
                for r in range(i + 1):
                    pat = spec.row_pattern(r)
                    if pat is not None:
                        j0 = max(j0, pat.zero_from())
                assert pair(i, j0) <= 12

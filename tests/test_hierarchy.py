import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprl.construction import ConstructionCache
from lprl.grid import pair
from lprl.hierarchy import (
    build_pi4_certificate,
    embedding_inequality_check,
    extract_row,
    interleave,
)
from lprl.reduction import AlphaSpec, EventuallyOne, in_p3, standard_corpus
from lprl.seqspace import ExpLadder, difference, finseq, pnorm_pow, sup_norm

rows_strategy = st.lists(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), max_size=6),
    max_size=4)


class TestExtractRow:
    def test_three_entry_flat(self):
        d = finseq((7.0, 8.0, 9.0))  # indices 0=(0,0), 1=(1,0), 2=(0,1)
        assert extract_row(d, 0).materialize() == (7.0, 9.0)
        assert extract_row(d, 1).materialize() == (8.0,)

    def test_row_beyond_data(self):
        d = finseq((1.0, 2.0))
        assert extract_row(d, 5).materialize() == ()


class TestInterleave:
    def test_single_row_roundtrip(self):
        r = (1.0, 2.0, 3.0)
        d = interleave([finseq(r)], upto=pair(0, 2) + 1)
        got = extract_row(d, 0).materialize()
        assert got[:3] == r
        assert all(v == 0 for v in got[3:])

    def test_no_rows_gives_zeros(self):
        d = interleave([], upto=10)
        assert d.materialize() == (0.0,) * 10

    def test_two_rows_follow_table_order(self):
        d = interleave([finseq((1.0, 3.0)), finseq((2.0,))], upto=5)
        # positions: (0,0)->0, (1,0)->1, (0,1)->2
        assert d.materialize() == (1.0, 2.0, 3.0, 0.0, 0.0)

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_roundtrip(self, rows):
        seqs = [finseq(r) for r in rows]
        upto = max((pair(m, len(r) - 1) + 1 for m, r in enumerate(rows) if r), default=1)
        d = interleave(seqs, upto)
        for m, r in enumerate(rows):
            got = extract_row(d, m).materialize()
            assert got[:len(r)] == tuple(r)
            assert all(v == 0 for v in got[len(r):])


class TestRowExtractionLipschitz:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_power_sums(self, p):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 15)
            x = finseq([rng.uniform(-1, 1) for _ in range(n)])
            y = finseq([rng.uniform(-1, 1) for _ in range(n)])
            m = rng.randrange(0, 4)
            row_dist = pnorm_pow(difference(extract_row(x, m), extract_row(y, m)), p)
            full_dist = pnorm_pow(difference(x, y), p)
            assert row_dist <= full_dist + 1e-12

    def test_sup_norm(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 15)
            x = finseq([rng.uniform(-1, 1) for _ in range(n)])
            y = finseq([rng.uniform(-1, 1) for _ in range(n)])
            m = rng.randrange(0, 4)
            row_dist = sup_norm(difference(extract_row(x, m), extract_row(y, m)))
            assert row_dist <= sup_norm(difference(x, y)) + 1e-12


class TestEmbeddingInequalities:
    def test_equal_points(self):
        lad = ExpLadder(1.0, 3.0)
        rep = embedding_inequality_check(finseq((1.0, 2.0)), finseq((1.0, 2.0)), lad, 6)
        assert rep.ok

    def test_half_half_example(self):
        lad = ExpLadder(1.0, 3.0)
        rep = embedding_inequality_check(finseq((0.5, 0.5)), finseq(()), lad, 6)
        assert rep.ok
        sup_check = [c for c in rep.checks if c.label == "sup<=b-norm"][0]
        assert sup_check.lhs == 0.5
        assert abs(sup_check.rhs - 1.0) < 1e-12

    def test_random_subunit_pairs_both_regimes(self):
        rng = random.Random(9)
        lad1 = ExpLadder(1.0, 3.0)
        lad_half = ExpLadder(0.5, 0.95)
        for _ in range(60):
            n = rng.randrange(0, 8)
            x = finseq([rng.uniform(0, 0.7) for _ in range(n)])
            y = finseq([rng.uniform(0, 0.7) for _ in range(n)])
            assert embedding_inequality_check(x, y, lad1, 8).ok
            assert embedding_inequality_check(x, y, lad_half, 8).ok

    def test_conditional_branch_skips_large_distance(self):
        lad = ExpLadder(0.5, 0.95)
        x = finseq((0.9, 0.9, 0.9, 0.9))
        rep = embedding_inequality_check(x, finseq(()), lad, 6)
        assert rep.ok
        note = [c for c in rep.checks if c.label == "metric<=b-power+tail"][0]
        assert "skipped" in note.note or note.lhs is not None


    def test_large_single_entry(self):
        # sup == b-norm here; a fixed 1e-12 slack is below one ulp of it
        rep = embedding_inequality_check(
            finseq((5012.670769233343,)), finseq(()), ExpLadder(1.5, 2.5), 6)
        assert rep.ok

    @given(st.floats(min_value=1e-3, max_value=1e7), st.floats(min_value=1.0, max_value=4.0))
    def test_single_entry_differences(self, v, b):
        assert embedding_inequality_check(finseq((v,)), finseq(()), ExpLadder(b, b + 1.0), 6).ok


class TestPi4Certificate:
    def test_component_bounds_and_flags(self, cache02):
        specs = list(standard_corpus())[:7]
        cert = build_pi4_certificate(cache02, specs, k=4)
        for m, comp in enumerate(cert.components):
            assert pnorm_pow(comp, 2.0) <= 2.0 ** -m
        assert cert.in_target_class == tuple(in_p3(s) for s in specs)
        assert all(0 < d <= 1 for d in cert.scalings)

    def test_one_bad_component_flagged(self, cache02):
        specs = [AlphaSpec.from_rows({}), AlphaSpec.from_rows({0: EventuallyOne(0)})]
        cert = build_pi4_certificate(cache02, specs, k=3)
        assert cert.in_target_class == (True, False)

    def test_interleave_holds_component_rows(self, cache02):
        # the materialized point at small k: row m of the interleave is
        # component m, so the descriptors carry every claim
        specs = list(standard_corpus())[:3] + [AlphaSpec.from_rows({0: EventuallyOne(0)})]
        cert = build_pi4_certificate(cache02, specs, k=3)
        upto = max(pair(m, c.length - 1) + 1 for m, c in enumerate(cert.components))
        flat = interleave(cert.components, upto)
        for m, comp in enumerate(cert.components):
            row = extract_row(flat, m).materialize()
            assert row[:comp.length] == comp.materialize()
            assert not any(row[comp.length:])  # zero past the shorter rows' ends

    @pytest.mark.parametrize("a,q", [(0.0, 2.0), (0.0, 0.5), (1.0, 3.0)],
                             ids=["(0,2)", "(0,0.5)", "(1,3)"])
    def test_corpus_depth(self, a, q):
        # the verify corpus depth: component prefixes here are far too long
        # to interleave entry by entry
        specs = standard_corpus()
        cert = build_pi4_certificate(ConstructionCache(ExpLadder(a, q)), specs, 12)
        assert len(cert.components) == len(specs)
        for m, comp in enumerate(cert.components):
            assert pnorm_pow(comp, q) <= 2.0 ** -m
        assert cert.in_target_class == tuple(in_p3(s) for s in specs)

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lprl import construction, reduction, seqspace, witness
from lprl.cli import main, parse_alpha_spec
from lprl.construction import (
    ConstructionCache,
    Node,
    build_node,
    build_tree,
    cache_stats,
    check_properties,
    export_cache,
    _ROOT_RECORD,
    import_cache,
    least_natural_above,
    walk_path,
)
from lprl.errors import PreconditionError, ResourceLimitError
from lprl.grid import depth, level
from lprl.reduction import (
    AlphaSpec,
    EventuallyOne,
    FiniteOnes,
    PeriodicOnes,
    divergence_witness,
    in_p3,
    path_rows,
)
from lprl.seqspace import (
    EMPTY,
    ExpLadder,
    FinSeq,
    Literal,
    Margin,
    PowerWindow,
    _power_sum_parts,
    certified_less,
    concat,
    finseq,
    pnorm_pow,
)
from lprl.witness import ClaimRequest, cap_room, extend

from oracles import built_nodes, check_properties_per_node, key_of, nodes_of, power_sum_plain


@pytest.fixture
def small_cache(fresh_nodes):
    """A (0, 2) cache whose root is made after ``fresh_nodes`` has run."""
    return ConstructionCache(ExpLadder(0.0, 2.0))


class TestLeastNaturalAbove:
    def test_plain(self):
        assert least_natural_above(2.3) == 3
        assert least_natural_above(0.0) == 1

    def test_integer_input_bumps(self):
        # exactly 3.0 must map above 3, and the margin pushes it to 4
        assert least_natural_above(3.0) == 4

    def test_near_boundary_takes_larger(self):
        assert least_natural_above(2.9999999) == 4
        assert least_natural_above(2.5, Margin(0.1)) == 3

    @pytest.mark.parametrize("x", [2.0 ** 53, 3.865398938197407e16, 1e300])
    def test_cap_leaves_room_as_a_float_past_2_53(self, x):
        # x + 1 rounds back to x here, so the caps step by floats; the cap is
        # exact as a float, leaves room above x, and the float below it does not
        for margin in (Margin(0.0), Margin(2.0 ** -20)):
            n = least_natural_above(x, margin)
            assert float(n) == n
            assert certified_less(x, float(n), margin)
            assert certified_less(0.0, witness.cap_room(x, float(n)), margin)
            below = math.nextafter(float(n), 0.0)
            assert not certified_less(0.0, witness.cap_room(x, below), margin)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            least_natural_above(-0.5)

    @pytest.mark.parametrize("x", [math.inf, sys.float_info.max])
    def test_no_float_cap_above_is_a_resource_limit(self, x):
        # inf has no natural above it; the largest float has one, but the
        # float after it is inf
        with pytest.raises(ResourceLimitError, match=re.escape(
                f"no float cap lies above the power sum {x!r}")):
            least_natural_above(x)


class TestBaseCases:
    def test_root(self, small_cache):
        node = build_node(small_cache, ())
        assert node.phi.length == 0
        assert node.M == ()

    def test_zero_child(self, small_cache):
        node = build_node(small_cache, (0,))
        assert node.phi.materialize() == (0.0,)
        assert node.M == (1,)

    def test_one_child(self, small_cache):
        node = build_node(small_cache, (1,))
        v = node.phi.materialize()
        assert power_sum_plain(v, 2.0) < 0.5          # q-cost budget 2**-1
        assert power_sum_plain(v, 1.0) > 1.0          # forced growth at p_0
        assert node.M == (least_natural_above(pnorm_pow(node.phi, 1.0), small_cache.margin),)

    @pytest.mark.parametrize("eta", [0.0, 2.0 ** -20, 0.75, 1.0, 3.0])
    def test_zero_child_cap_is_certified(self, eta):
        margin = Margin(eta)
        node = build_node(ConstructionCache(ExpLadder(0.0, 2.0), margin), (0,))
        assert node.M == (least_natural_above(0.0, margin),)
        assert certified_less(0.0, node.M[0], margin)

    def test_zero_extension_appends_zero(self, small_cache):
        parent = build_node(small_cache, (1,))
        node = build_node(small_cache, (1, 0))
        assert node.phi.length == parent.phi.length + 1
        assert node.phi.entry(node.phi.length - 1) == 0.0


class TestBuildSteps:
    def test_build_node_extends_from_the_nearest_built_prefix(self, small_cache, counted):
        root = small_cache.root
        build_node(small_cache, (1, 0))
        assert counted == [(root, 0b11), (root.kid1, 0b110)]
        node = build_node(small_cache, (1, 0, 1, 1))
        assert counted[2:] == [(root.kid1.kid0, 0b1101), (root.kid1.kid0.kid1, 0b11011)]
        assert root.kid1.kid0.kid1.kid1 is node
        # a path walk builds what it reaches, and the cache holds none of it
        assert len(counted) == 4 and nodes_of(small_cache) == {(): root}

    def test_build_tree_extends_only_missing_nodes(self, small_cache, counted):
        build_node(small_cache, (0, 1, 1))
        build_tree(small_cache, 4)
        assert len(counted) == len(nodes_of(small_cache)) - 1 == 2 ** 5 - 2
        assert len({key for _, key in counted}) == len(counted)

    @pytest.mark.parametrize("sigma", [
        "012", (0, 2),
        # int() would read each of these as bits: 1.5 as 1, and any Unicode digit
        pytest.param((1.5,), id="float"),
        pytest.param("\uff10\uff11", id="fullwidth"),
        pytest.param("\u0661", id="arabic-indic"),
    ])
    def test_build_node_still_validates_bits(self, small_cache, counted, sigma):
        with pytest.raises(ValueError, match="bit string entries must be 0 or 1"):
            build_node(small_cache, sigma)
        assert counted == [] and small_cache.root.kid0 is small_cache.root.kid1 is None


    def test_a_sum_past_float_range_is_a_resource_limit_at_its_node(self, small_cache):
        # the new cap at row 0 of the string 0, above parts that reach inf
        p0 = small_cache.shape(1)[0][0]
        with pytest.raises(ResourceLimitError) as err:
            construction._extend_node(small_cache, small_cache.root, key_of((0,)),
                                      {p0: (math.inf,)})
        assert err.value.sigma == (0,)
        assert small_cache.root.kid0 is None


class TestWalkPath:
    BITS = (1, 0, 1, 1, 0)

    @pytest.fixture(params=["fresh", "imported"])
    def cache(self, request, tmp_path, fresh_nodes):
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        if request.param == "fresh":
            return cache
        return import_cache(export_cache(build_tree(cache, 3), tmp_path / "cache.txt"))

    def test_yields_the_nodes_build_node_gives(self, cache):
        walked = [node for node, _ in walk_path(cache, self.BITS)]
        # each node is its parent's child by its bit
        assert all(node is (parent.kid1 if bit else parent.kid0)
                   for parent, node, bit in zip([cache.root, *walked], walked, self.BITS))
        assert all(build_node(cache, self.BITS[:t + 1]) is node for t, node in enumerate(walked))

    def test_an_endless_path_is_walked_lazily(self, small_cache, counted):
        walked = [node for node, _ in itertools.islice(
            walk_path(small_cache, itertools.repeat(0)), 6)]
        # the strings 0, 00, ..., 0**6, and no more
        assert [key for _, key in counted] == [key_of((0,) * t) for t in range(1, 7)]
        assert [node for node, _ in counted[1:]] == walked[:-1]

    def test_a_zero_node_carries_its_parents_parts(self, cache):
        # a zero adds no part at any exponent: the walk hands a 0-node its
        # parent's own dict, and any other node a dict of its own
        exps = cache.ladder.exponents(3)
        before = dict.fromkeys(exps, ())
        for bit, (node, sums) in zip(self.BITS, walk_path(cache, self.BITS, None, before)):
            assert (node.block is construction._ZERO_BLOCK) == (bit == 0)
            assert (sums is before) == (bit == 0) and set(exps) <= sums.keys()
            before = sums

    def test_walking_past_an_import_adds_nothing_to_the_memo(self, tmp_path, counted):
        ladder = ExpLadder(0.0, 2.0)
        path = export_cache(build_tree(ConstructionCache(ladder), 3), tmp_path / "cache.txt")
        before = built_nodes(ladder)
        loaded = import_cache(path)
        counted.clear()
        assert len(list(walk_path(loaded, self.BITS + (1, 1)))) == 7
        # the nodes past the file's depth are built below its nodes, and
        # are no part of what the cache holds
        assert [key for _, key in counted] == [key_of((self.BITS + (1, 1))[:t])
                                               for t in range(4, 8)]
        assert counted[0][0] is loaded.root.kid1.kid0.kid1
        assert len(nodes_of(loaded)) == 15
        after = built_nodes(ladder)
        assert after.keys() == before.keys() and all(after[s] is n for s, n in before.items())

    def test_divergence_reads_each_position_once(self, small_cache, monkeypatch, counted):
        spec = AlphaSpec.from_rows({1: PeriodicOnes(0, 2, 0)})  # ones at 1, 8, 19, ...
        calls = []
        diagonal_bits = reduction.diagonal_bits

        def recorded(spec, start=0):
            # the position of each bit the walks read
            for n, bit in enumerate(diagonal_bits(spec, start), start):
                calls.append(n)
                yield bit

        monkeypatch.setattr(reduction, "diagonal_bits", recorded)
        found = divergence_witness(small_cache, spec, 1, 3.0, path_rows(small_cache, spec, 0, ()))
        assert calls == list(range(9))  # the one at 8 clears the target
        last = build_node(small_cache, (0, 1, 0, 0, 0, 0, 0, 0, 1))
        assert found.prefix_len == last.phi.length and len(counted) == 9


class TestProperties:
    def test_zero_violations_small_tree(self, small_cache):
        rep = check_properties(small_cache, 6)
        assert rep.ok, rep.summary()
        # one forced-growth instance per 1-extension
        assert rep.counts["p6-forced-growth"] == 2 ** 6 - 1

    def test_zero_extension_copies_caps(self, small_cache):
        parent = build_node(small_cache, (1, 0, 1))
        child = build_node(small_cache, (1, 0, 1, 0))
        assert child.M[:len(parent.M)] == parent.M

    def test_block_cost_bound_per_level(self, small_cache):
        build_tree(small_cache, 5)
        for sigma, node in nodes_of(small_cache).items():
            if sigma:
                assert pnorm_pow(node.block, 2.0) < 2.0 ** -len(sigma)

    def test_each_block_is_costed_once(self, monkeypatch):
        cache = import_cache(STORED_DEPTH10 / "cache_a0.0_q2.0_len10.txt")
        q = cache.ladder.q
        costed = []
        segment_power_sum = seqspace._segment_power_sum

        def recorded(seg, p):
            if p == q:
                costed.append(id(seg))
            return segment_power_sum(seg, p)

        monkeypatch.setattr(seqspace, "_segment_power_sum", recorded)
        # the zero block is the process-wide one, which may hold its cost already
        monkeypatch.setattr(construction._ZERO_BLOCK, "_sums", {})
        rep = check_properties(cache, 10)
        assert rep.ok, rep.summary()
        # import_cache shares one block per distinct block text
        nodes = nodes_of(cache)
        blocks = {id(node.block): node.block for sigma, node in nodes.items() if sigma}
        assert len(blocks) < 20
        assert sorted(costed) == sorted(id(seg) for block in blocks.values()
                                        for seg in block.segments)
        assert rep.counts["p2-block-cost"] == len(nodes) - 1

    def test_sub_one_q_configuration(self):
        cache = ConstructionCache(ExpLadder(0.0, 0.5))
        rep = check_properties(cache, 5)
        assert rep.ok, rep.summary()


class TestDeterminism:
    def test_rebuild_bit_identical(self):
        c1 = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 5)
        construction._root.cache_clear()  # two independent builds
        c2 = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 5)
        nodes1, nodes2 = nodes_of(c1), nodes_of(c2)
        assert nodes1.keys() == nodes2.keys()
        for sigma, n1 in nodes1.items():
            n2 = nodes2[sigma]
            assert n1.M == n2.M
            assert n1.phi == n2.phi


def _built(counted):
    """The strings ``counted`` saw built, from their keys."""
    return [tuple(map(int, bin(key)[3:])) for _, key in counted]


class TestNodeMemo:
    def test_a_second_cache_gets_the_same_nodes(self, counted):
        first = nodes_of(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 5))
        assert len(counted) == len(first) - 1
        counted.clear()
        second = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 5)
        checked = ConstructionCache(ExpLadder(0.0, 2.0))
        assert check_properties(checked, 5).ok  # builds what it checks
        third = ConstructionCache(ExpLadder(0.0, 2.0))
        bits = (1, 0, 1, 1, 0)
        node = build_node(third, bits)
        assert counted == []
        for cache in (second, checked):
            held = nodes_of(cache)
            assert held.keys() == first.keys()
            assert all(held[sigma] is node for sigma, node in first.items())
        assert node is first[bits] and nodes_of(third) == {(): first[()]}
        assert all(node is first[bits[:t + 1]] for t, (node, _) in enumerate(walk_path(third, bits)))

    @pytest.mark.parametrize("other", [
        dict(margin=Margin(2.0 ** -21)),
        dict(ladder=ExpLadder(0.0, 3.0)),
    ], ids=["eta", "ladder"])
    def test_another_configuration_builds_its_nodes_anew(self, counted, other):
        config = dict(ladder=ExpLadder(0.0, 2.0), margin=Margin())
        first = build_tree(ConstructionCache(**config), 3)
        counted.clear()
        second = nodes_of(build_tree(ConstructionCache(**{**config, **other}), 3))
        first = nodes_of(first)
        assert sorted(_built(counted)) == sorted(sigma for sigma in second if sigma)
        assert not any(second[sigma] is first[sigma] for sigma in first if sigma)

    def test_imported_nodes_never_meet_the_memo(self, tmp_path, counted):
        ladder = ExpLadder(0.0, 2.0)
        cache = build_tree(ConstructionCache(ladder), 3)
        path = export_cache(cache, tmp_path / "cache.txt")
        stored = path.read_bytes()
        lines = path.read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines) if line.startswith("011|"))
        assert lines[lineno].endswith(";W:1.0,1.0,8,170")
        lines[lineno] = lines[lineno].replace(";W:1.0,1.0,8,170", ";L:0.0")  # 011's block
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")

        build_tree(cache, 5)  # the memo now holds 011 and the nodes below it
        memo = built_nodes(ladder)
        loaded = import_cache(bad)
        counted.clear()
        build_tree(loaded, 5)
        # every node below the file's depth is built from the file's nodes
        held = nodes_of(loaded)
        assert sorted(_built(counted)) == sorted(s for s in held if len(s) > 3)
        after = built_nodes(ladder)
        assert after.keys() == memo.keys() and all(after[s] is node for s, node in memo.items())
        edited = held[(0, 1, 1)]
        assert edited is not memo[(0, 1, 1)]
        child = held[(0, 1, 1, 0)]
        assert child.phi.base is edited.phi and child.phi != memo[(0, 1, 1, 0)].phi

        rep = check_properties(loaded, 3)
        assert [(c.label, c.note) for c in rep.violations] == [("p6-forced-growth", "011")]
        fresh = build_tree(ConstructionCache(ladder), 3)
        assert export_cache(fresh, tmp_path / "fresh.txt").read_bytes() == stored

    def test_the_memo_is_the_roots_tree(self, tmp_path, fresh_nodes):
        ladder = ExpLadder(0.0, 2.0)
        cache = build_tree(ConstructionCache(ladder), 8)
        # a node holds no string, and a cache no node dict: a cache is a
        # root and a depth, and each node is where it sits below the root
        assert [f.name for f in dataclasses.fields(Node)] == ["phi", "M", "block", "kid0", "kid1"]
        assert (cache.root, cache.depth) == (construction._root(ladder, cache.margin), 8)
        held = nodes_of(cache)
        for sigma, node in held.items():
            if sigma:
                parent = held[sigma[:-1]]
                assert node is (parent.kid1 if sigma[-1] else parent.kid0), sigma
        memo = built_nodes(ladder)
        assert memo.keys() == held.keys()
        assert all(memo[sigma] is node for sigma, node in held.items())

        loaded = import_cache(export_cache(cache, tmp_path / "cache.txt"))
        build_tree(loaded, 10)
        assert loaded.root is not cache.root and len(nodes_of(loaded)) == 2 ** 11 - 1
        # the configuration's root reaches no imported node, nor one built from it
        reached = {id(node) for node in built_nodes(ladder).values()}
        assert len(reached) == len(memo)
        assert not any(id(node) in reached for node in nodes_of(loaded).values())

    def test_a_shallow_build_after_a_deep_one_exports_its_own_depth(self, tmp_path, fresh_nodes):
        ladder = ExpLadder(0.0, 2.0)
        alone = export_cache(build_tree(ConstructionCache(ladder), 4), tmp_path / "alone.txt")
        construction._root.cache_clear()
        build_tree(ConstructionCache(ladder), 6)
        shallow = build_tree(ConstructionCache(ladder), 4)
        assert len(nodes_of(shallow)) == 31
        assert export_cache(shallow, tmp_path / "after.txt").read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("config,sigma,error", [
        (dict(margin=Margin(0.3)), (0, 1), PreconditionError),  # its budget 2**-2 is below eta
    ], ids=["precondition"])
    def test_a_build_that_raises_stores_nothing(self, counted, config, sigma, error):
        cache = ConstructionCache(ExpLadder(0.0, 2.0), **config)
        for _ in range(2):
            with pytest.raises(error) as err:
                build_node(cache, sigma)
            assert err.value.sigma == sigma
            memo = built_nodes(cache.ladder, cache.margin)
            assert memo.keys() == {sigma[:t] for t in range(len(sigma))}  # its prefixes alone
        assert _built(counted).count(sigma) == 2  # the retry built it again

    @pytest.mark.parametrize("spec,member", [("row=0:finite{1,3};row=2:finite{0,2}", True),
                                             ("row=1:eventually(2)", False)],
                             ids=["member", "non-member"])
    @pytest.mark.parametrize("a,q", [(0.0, 2.0), (0.0, 0.5), (1.0, 3.0)],
                             ids=["a0-q2", "a0-q0.5", "a1-q3"])
    def test_a_trace_after_others_equals_a_fresh_process(self, tmp_path, capsys, counted,
                                                         spec, member, a, q):
        assert in_p3(parse_alpha_spec(spec)) == member
        request = ["trace", "--a", str(a), "--q", str(q), "--spec", spec, "--k", "9",
                   "--out", str(tmp_path)]
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from lprl.cli import main; sys.exit(main(sys.argv[1:]))",
             *request], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        fresh_csv = (tmp_path / "trace.csv").read_bytes()
        for other in ("row=0:finite{1}", "row=0:eventually(4)", spec):
            assert main(["trace", "--a", str(a), "--q", str(q), "--spec", other, "--k", "6",
                         "--out", str(tmp_path / "other")]) == 0
        capsys.readouterr()
        counted.clear()
        assert main(request) == 0
        assert len(counted) < 10  # its path has 10 nodes, and the memo held some
        assert capsys.readouterr().out == fresh.stdout
        assert (tmp_path / "trace.csv").read_bytes() == fresh_csv


@st.composite
def small_ladders(draw):
    """Ladders with a in [0, 1.5] and q - a in [0.5, 3]."""
    a = draw(st.floats(min_value=0.0, max_value=1.5))
    q = a + draw(st.floats(min_value=0.5, max_value=3.0))
    return ExpLadder(a, q)


class TestExportImport:
    @given(small_ladders(), st.floats(min_value=0.0, max_value=2.0 ** -20), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_ladders(self, tmp_path_factory, ladder, eta, depth):
        cache = build_tree(ConstructionCache(ladder, Margin(eta)), depth)
        path = export_cache(cache, tmp_path_factory.mktemp("roundtrip") / "cache.txt")
        loaded = import_cache(path)
        assert (loaded.ladder, loaded.margin) == (ladder, cache.margin)
        nodes, imported = nodes_of(cache), nodes_of(loaded)
        assert imported.keys() == nodes.keys()
        exps = ladder.exponents(max(len(node.M) for node in nodes.values())) + (ladder.q,)
        for sigma, node in nodes.items():
            other = imported[sigma]
            assert (other.phi, other.M, other.block) == (node.phi, node.M, node.block)
            for p in exps:
                assert pnorm_pow(other.phi, p).hex() == pnorm_pow(node.phi, p).hex()
        again = export_cache(loaded, path.with_name("again.txt"))
        assert again.read_bytes() == path.read_bytes()
        built, imported = check_properties(cache, depth), check_properties(loaded, depth)
        assert (imported.ok, imported.instances) == (built.ok, built.instances)

    def test_roundtrip(self, tmp_path, small_cache):
        build_tree(small_cache, 4)
        path = export_cache(small_cache, tmp_path / "cache.txt")
        loaded = import_cache(path)
        nodes, imported = nodes_of(small_cache), nodes_of(loaded)
        assert imported.keys() == nodes.keys() and len(nodes) == 31
        for sigma, node in nodes.items():
            other = imported[sigma]
            assert other.M == node.M
            assert other.phi == node.phi
            assert other.block == node.block
        # re-export is byte-identical
        path2 = export_cache(loaded, tmp_path / "cache2.txt")
        assert path.read_bytes() == path2.read_bytes()

    def test_equal_block_texts_share_one_block(self, tmp_path, small_cache):
        build_tree(small_cache, 3)
        loaded = import_cache(export_cache(small_cache, tmp_path / "cache.txt"))
        imported = nodes_of(loaded)
        zero_nodes = [node for sigma, node in imported.items() if sigma[-1:] == (0,)]
        assert len(zero_nodes) == 7
        assert all(node.block is zero_nodes[0].block for node in zero_nodes)
        assert all(node.phi.base is imported[sigma[:-1]].phi
                   for sigma, node in imported.items() if sigma)

    def test_a_window_index_past_the_int_text_limit_round_trips(self, tmp_path):
        # str() refuses an int of more than 4300 digits: such an index is
        # written in hex, and an index that fits stays decimal
        huge = 10 ** 5000
        block = FinSeq((PowerWindow(1.0, 7, huge),))
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        cache.root = Node(EMPTY, (), EMPTY)  # a root of its own, for the hand-made node
        cache.root.kid1 = Node(concat(cache.root.phi, block), (1,), block)
        cache.depth = 1
        path = export_cache(cache, tmp_path / "cache.txt")
        assert path.read_text().splitlines()[-1] == f"1|M=1|phi=W:1.0,1.0,7,{hex(huge)}"
        loaded = import_cache(path)
        assert loaded.root.kid1.block.segments == block.segments
        assert loaded.root.kid1.phi.length == huge - 6
        assert export_cache(loaded, tmp_path / "again.txt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("index,error", [
        # hex is read only where int_text writes it, past the decimal limit
        # (test_a_window_index_past_the_int_text_limit_round_trips)
        (lambda n: hex(int(n)), "an int must read as int_text writes it, got {text!r}"),
        (lambda n: "0xZZ", "invalid literal for int() with base 16: '0xZZ'"),
        (lambda n: "0x", "invalid literal for int() with base 16: '0x'"),
    ], ids=["hex", "bad-digits", "no-digits"])
    def test_a_hex_window_index_is_read_back(self, tmp_path, small_cache, index, error):
        build_tree(small_cache, 2)
        path = export_cache(small_cache, tmp_path / "cache.txt")
        lines = path.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("01|"))
        head, n_end = lines[lineno - 1].rsplit(",", 1)  # a leaf's last window end
        lines[lineno - 1] = f"{head},{index(n_end)}"
        edited = tmp_path / "edited.txt"
        edited.write_text("\n".join(lines) + "\n")
        error = error.format(text=index(n_end))
        with pytest.raises(ValueError, match=re.escape(
                f"edited.txt: line {lineno}: bad record {lines[lineno - 1]!r}: {error}")):
            import_cache(edited)

    # what export writes -> another spelling of the same number, in a leaf's block
    @pytest.mark.parametrize("record,was,now,error", [
        ("0001", "W:0.25,", "W:+0.25,", "a float must read as its repr, got '+0.25'"),
        ("0001", "W:0.25,", "W:0.25 ,", "a float must read as its repr, got '0.25 '"),
        ("0001", ",16,", ",1_6,", "an int must read as int_text writes it, got '1_6'"),
        ("0001", ",16,", ",016,", "an int must read as int_text writes it, got '016'"),
        ("0001", ",1.0,16", ",1.e0,16", "a float must read as its repr, got '1.e0'"),
        ("0001", ",1.0,16", ",1.00,16", "a float must read as its repr, got '1.00'"),
        ("0000", ";L:0.0\n", ";L:170\n", "a float must read as its repr, got '170'"),
        ("0000", ";L:0.0\n", ";L:0.00\n", "a float must read as its repr, got '0.00'"),
        ("0000", ";L:0.0\n", ";L:+.0\n", "a float must read as its repr, got '+.0'"),
    ], ids=["W:+0.25", "W:0.25-space", "1_6", "016", "1.e0", "1.00", "170", "L:0.00", "L:+.0"])
    def test_rejects_a_block_number_export_would_write_differently(self, tmp_path, record,
                                                                   was, now, error):
        text = export_cache(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 4),
                            tmp_path / "cache.txt").read_text()
        lines = text.splitlines(keepends=True)
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith(record + "|"))
        assert lines[lineno - 1].count(was) == 1
        lines[lineno - 1] = lines[lineno - 1].replace(was, now)
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {lineno}: bad record {lines[lineno - 1].rstrip()!r}: {error}")):
            import_cache(bad)

    @pytest.mark.parametrize("edit,message", [
        # two records of one length, or of two lengths, swapped
        (lambda lines: lines[:4] + [lines[5], lines[4]] + lines[6:],
         "line 6: record for 0 is out of (length, bits) order"),
        (lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],
         "line 7: record for 1 is out of (length, bits) order"),
        # no root record, or one that is not first
        (lambda lines: lines[:3] + lines[4:], "line 4: record for 0 appears before its parent"),
        (lambda lines: lines[:3] + lines[4:6] + [lines[3]] + lines[6:],
         "line 4: record for 0 appears before its parent"),
        (lambda lines: lines[:3], "line 4: no records; the first must read '-|M=|phi='"),
        # what export never writes between or around its lines
        (lambda lines: lines[:5] + [""] + lines[5:],
         "line 6: a record needs exactly three '|' fields, got ''"),
        (lambda lines: [line + "\r" for line in lines], "line 1: not a cache file"),
        (lambda lines: lines[:1] + [lines[1].replace(" ", "  ")] + lines[2:],
         "bad header 'a=0.0 q=2.0 explicit=- eta=9.5367431640625e-07 step_budget=100000000' "
         "on lines 2-3: its lines must read"),
    ], ids=["same-length", "across-lengths", "no-root", "root-not-first", "no-records",
            "empty-line", "crlf", "header-spacing"])
    def test_rejects_what_export_would_lay_out_differently(self, tmp_path, edit, message):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 2)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        assert lines[3:6] == ["-|M=|phi=", "0|M=1|phi=L:0.0", "1|M=2|phi=W:1.0,1.0,2,6"]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(("\n".join(edit(lines)) + "\n").encode())
        with pytest.raises(ValueError, match=re.escape(f"bad.txt: {message}")):
            import_cache(bad)

    @pytest.fixture(scope="class")
    def small_export(self, tmp_path_factory):
        """A folder, and the text of a depth-3 (0, 2) export in it."""
        folder = tmp_path_factory.mktemp("fuzz")
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        return folder, export_cache(cache, folder / "cache.txt").read_text()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_mutated_file_is_refused_or_re_exports_to_itself(self, small_export, data):
        # one change to a small export: a character changed, inserted or
        # deleted, or a record swapped with another, duplicated or dropped
        folder, text = small_export
        lines = text.splitlines(keepends=True)
        char = st.one_of(st.sampled_from(sorted(set(text)) + list("\r +_x.e-\u0661\u2028")),
                         st.characters(codec="utf-8"))
        at = data.draw(st.integers(0, len(text) - 1))
        record = st.integers(3, len(lines) - 1)
        mutation = data.draw(st.sampled_from(
            ["change", "insert", "delete", "swap", "duplicate", "drop"]))
        if mutation == "change":
            text = text[:at] + data.draw(char) + text[at + 1:]
        elif mutation == "insert":
            text = text[:at] + data.draw(char) + text[at:]
        elif mutation == "delete":
            text = text[:at] + text[at + 1:]
        else:
            i, j = data.draw(record), data.draw(record)
            if mutation == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif mutation == "duplicate":
                lines.insert(j, lines[i])
            else:
                del lines[i]
            text = "".join(lines)
        path = folder / "mutated.txt"
        path.write_bytes(text.encode())
        try:
            loaded = import_cache(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}: ") and re.search(r"\blines? \d+", str(err)), err
        else:
            again = export_cache(loaded, folder / "again.txt")
            assert again.read_bytes() == path.read_bytes()

    def test_rejects_a_last_line_with_no_newline(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 2)
        text = export_cache(cache, tmp_path / "cache.txt").read_text()
        bad = tmp_path / "bad.txt"
        bad.write_text(text[:-1])
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {text.count(chr(10))}: the last line does not end in a newline")):
            import_cache(bad)

    def test_rejects_bytes_that_are_not_utf_8(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 2)
        data = export_cache(cache, tmp_path / "cache.txt").read_bytes()
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data.replace(b"\n1|M=2|", b"\n1|M=\xff|"))
        lineno = data.split(b"\n").index(b"1|M=2|phi=W:1.0,1.0,2,6") + 1
        with pytest.raises(ValueError, match=re.escape(f"bad.txt: line {lineno}: not UTF-8 text")):
            import_cache(bad)

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a cache\n")
        with pytest.raises(ValueError):
            import_cache(bad)

    @pytest.mark.parametrize("lineno,line,message", [
        # appended after the records, where it would re-set the run's margin
        # or ladder; the check would pass, or report thousands of violations
        (None, "# eta=0.0", "a header line after the first record"),
        (None, "# eta=0.5 q=7.0", "a header line after the first record"),
        # a key given twice, on one header line or on two
        (2, "# a=1.0 a=0.0", "header key 'a' given twice"),
        (4, "# eta=0.0", "header key 'eta' given twice"),
        (2, "# seed=3", "unknown header key 'seed'"),
    ], ids=["eta-after-records", "ladder-after-records", "twice-on-one-line",
            "twice-on-two-lines", "unknown-key"])
    def test_rejects_a_header_that_is_not_one_block_of_known_keys(self, tmp_path, lineno,
                                                                   line, message):
        lines = (STORED_DEPTH10 / "cache_a0.0_q2.0_len10.txt").read_text().splitlines()
        if lineno is None:
            lineno = len(lines) + 1
        lines.insert(lineno - 1, line)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"bad.txt: line {lineno}: {message}")):
            import_cache(bad)

    @pytest.mark.parametrize("key", ["a", "q", "explicit", "eta", "step_budget"])
    def test_missing_header_key(self, tmp_path, small_cache, key):
        build_tree(small_cache, 2)
        path = export_cache(small_cache, tmp_path / "cache.txt")
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:3], 1):
            lines[i] = " ".join(tok for tok in line.split(" ") if not tok.startswith(key + "="))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"bad.txt.*'{key}'"):
            import_cache(bad)

    @pytest.mark.parametrize("key,value", [
        ("a", "x"), ("q", "0.0"), ("eta", "-1"), ("explicit", "1.0,x"), ("step_budget", "1.5"),
        ("step_budget", "0"), ("step_budget", "-3"),
        # a well-formed value other than the one every export writes
        ("explicit", "1.5"), ("step_budget", "10"),
        # a float that reads as the exported one, but is not its repr
        ("a", "0"), ("a", "0_0"), ("a", "+0.0"), ("a", "0e0"), ("a", "\u0660"),
        ("q", "2"), ("q", "2.00"), ("eta", "9.5367431640625E-07"), ("eta", "9.5367431640625e-7"),
    ])
    def test_bad_header_value_names_file(self, tmp_path, small_cache, key, value):
        build_tree(small_cache, 2)
        path = export_cache(small_cache, tmp_path / "cache.txt")
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:3], 1):
            lines[i] = " ".join(f"{key}={value}" if tok.startswith(key + "=") else tok
                                for tok in line.split(" "))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        token = re.escape(f"{key}={value}")
        with pytest.raises(ValueError, match=f"bad.txt: bad header .*{token}"):
            import_cache(bad)

    @pytest.mark.parametrize("record", [
        "1|M=1", "1|M=1|phi=L:0.0|x", "1",
        # well split, but a field is malformed
        "1|M=x|phi=L:0.0", "1|M=1|phi=L:abc", "1|M=1|phi=W:1.0,1.0,3",
        "1|M=1|phi=Z:0.0", "1|N=1|phi=L:0.0", "2|M=1|phi=L:0.0",
        # non-finite entries, a literal or a window's scale or exponent
        "1|M=2|phi=L:nan", "1|M=2|phi=W:1.0,inf,2,6", "1|M=2|phi=W:inf,1.0,2,6",
    ])
    def test_record_needs_three_fields(self, tmp_path, small_cache, record):
        build_tree(small_cache, 1)
        path = export_cache(small_cache, tmp_path / "cache.txt")
        lines = path.read_text().splitlines()
        lines[-1] = record  # the last record, for the string "1"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        where = re.escape(f"bad.txt: line {len(lines)}: ")
        with pytest.raises(ValueError, match=f"{where}.*{re.escape(repr(record))}"):
            import_cache(bad)


    def test_rejects_record_merging_the_parents_last_run(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("100|"))
        parent_phi = "W:1.0,1.0,2,6;L:0.0"
        assert lines[lineno - 1].startswith(f"100|M=2,3|phi={parent_phi};")

        def imported(phi):
            lines[lineno - 1] = f"100|M=2,3|phi={phi}"
            bad = tmp_path / "bad.txt"
            bad.write_text("\n".join(lines) + "\n")
            return import_cache(bad)

        # as its own run, the block L:0.4 costs 0.16 > 2**-3
        rep = check_properties(imported(parent_phi + ";L:0.4"), 3)
        assert not rep.ok
        assert "p2-block-cost: VIOLATION" in rep.summary()
        # merged into the parent's last run, the same entries have no block
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {lineno}: phi at 100 does not extend its parent")):
            imported("W:1.0,1.0,2,6;L:0.0,0.4")

    def test_a_record_with_too_few_caps_is_a_bookkeeping_violation(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines) if line.startswith("100|"))
        assert lines[lineno].startswith("100|M=2,3|")
        lines[lineno] = lines[lineno].replace("|M=2,3|", "|M=2|")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        rep = _same_report(import_cache(bad), 3)
        assert [(c.label, c.lhs, c.rhs, c.note) for c in rep.violations] == [
            ("bookkeeping", 1, 2, "100"),
            ("p4-zero-stable", (2,), (2, 3), "100"),
        ]
        # p3 compares 100's row against its one cap only
        assert rep.counts["p3-caps"] == check_properties(cache, 3).counts["p3-caps"] - 1

    def test_rejects_a_root_record_with_caps(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        lineno = lines.index("-|M=|phi=") + 1
        lines[lineno - 1] = "-|M=7,8|phi=L:9.0"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {lineno}: the root record must read '-|M=|phi='")):
            import_cache(bad)

    def test_rejects_an_empty_bits_field(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 2)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        lineno = lines.index(_ROOT_RECORD) + 2  # right after the root record
        lines.insert(lineno - 1, "|M=1|phi=L:0.0")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {lineno}: bad record '|M=1|phi=L:0.0': "
                "the bits field is empty; the root's reads '-'")):
            import_cache(bad)

    @pytest.mark.parametrize("caps", [
        " 1", "1 ", "+1", "1_0", "01", "00", "-1", "-0", "\u0661", "1,,2", "1,", ",1", "0x1",
        "1.0", "1e3", "\uff11",
    ])
    def test_rejects_caps_that_export_would_write_differently(self, tmp_path, caps):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 2)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("1|"))
        assert lines[lineno - 1].startswith("1|M=2|")
        lines[lineno - 1] = lines[lineno - 1].replace("|M=2|", f"|M={caps}|")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {lineno}: bad record {lines[lineno - 1]!r}: "
                f"caps must read as export_cache writes them, got {'M=' + caps!r}")):
            import_cache(bad)

    def test_a_zero_cap_reads_back(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 2)
        path = export_cache(cache, tmp_path / "cache.txt")
        text = path.read_text().replace("\n1|M=2|", "\n1|M=0|")
        path.write_text(text)
        loaded = import_cache(path)
        assert loaded.root.kid1.M == (0,)
        assert export_cache(loaded, tmp_path / "again.txt").read_text() == text

    def test_caps_are_read_once_per_distinct_field(self, tmp_path, monkeypatch):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 8)
        path = export_cache(cache, tmp_path / "cache.txt")
        fields = [line.split("|")[1] for line in path.read_text().splitlines()[3:]]
        checked = []
        pattern = construction._CAPS_FIELD

        class Counted:
            def fullmatch(self, text):
                checked.append(text)
                return pattern.fullmatch(text)

        monkeypatch.setattr(construction, "_CAPS_FIELD", Counted())
        loaded = import_cache(path)
        assert len(fields) == 511 and sorted(checked) == sorted(set(fields))
        imported = nodes_of(loaded)
        assert all(imported[sigma].M == node.M for sigma, node in nodes_of(cache).items())

    def test_no_linked_phi_holds_a_segment_tuple(self, tmp_path):
        built = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 8)
        loaded = import_cache(export_cache(built, tmp_path / "cache.txt"))
        for cache in (built, loaded):
            nodes = nodes_of(cache)
            assert len(nodes) == 511
            for sigma, node in nodes.items():
                if sigma:
                    assert node.phi.base is nodes[sigma[:-1]].phi, sigma
                    refs = gc.get_referents(node.phi)
                    assert not any(isinstance(ref, tuple) for ref in refs), sigma

    def test_an_imported_zero_is_the_zero_block(self):
        cache = import_cache(STORED_DEPTH10 / "cache_a0.0_q2.0_len10.txt")
        zeros = [node.block for sigma, node in nodes_of(cache).items() if sigma[-1:] == (0,)]
        assert len(zeros) == 2 ** 10 - 1
        assert all(block is construction._ZERO_BLOCK for block in zeros)

    @pytest.mark.parametrize("bits,edit,error", [
        ("1", lambda record: record, None),
        ("1", lambda record: re.sub(r"\|M=[^|]*\|", "|M=99|", record), None),
        ("-", lambda record: record, None),
        # ARABIC-INDIC DIGIT ONE is no bit, so 0\u0661 names no string, 01 included
        ("01", lambda record: "0\u0661" + record[2:],
         "bit string entries must be 0 or 1, got '\u0661'"),
    ], ids=["identical", "altered-caps", "root", "other-digits"])
    def test_rejects_a_second_record_for_a_string(self, tmp_path, bits, edit, error):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        record = next(line for line in lines if line.startswith(bits + "|"))
        lines.append(edit(record))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        what = (f"a second record for {lines[-1].split('|')[0]}" if error is None
                else f"bad record {lines[-1]!r}: {error}")
        with pytest.raises(ValueError, match=re.escape(f"bad.txt: line {len(lines)}: {what}")):
            import_cache(bad)

    @pytest.mark.parametrize("bits,other", [
        ("0", "\u0660"),  # the first record after the root's
        ("1", "\u0661"),
        ("01", "\uff10\uff11"),
    ], ids=["first", "arabic-indic", "fullwidth"])
    def test_rejects_non_ascii_bits(self, tmp_path, bits, other):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith(bits + "|"))
        lines[lineno - 1] = other + lines[lineno - 1][len(bits):]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"bad.txt: line {lineno}: bad record {lines[lineno - 1]!r}: "
                f"bit string entries must be 0 or 1, got {other[0]!r}")):
            import_cache(bad)


class TestPowerRow:
    def test_a_build_carries_its_parents_dict_past_a_zero_alone(self, monkeypatch,
                                                                  fresh_nodes):
        # the parts a build carries down the tree: after the zero block, the
        # parent's own dict object; after any other block, a new dict
        max_len = 5
        carried = []
        carry = construction._carry

        def recorded(sums, block):
            child = carry(sums, block)
            assert child.keys() == sums.keys()
            carried.append((sums, block, child))
            return child

        monkeypatch.setattr(construction, "_carry", recorded)
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), max_len)
        assert check_properties(cache, max_len).ok
        # every node below the root and above the last level
        assert len(carried) == 2 ** max_len - 2
        zero = construction._ZERO_BLOCK
        for sums, block, child in carried:
            assert (child is sums) == (block is zero)
        assert sum(block is zero for _, block, _ in carried) == 2 ** (max_len - 1) - 1
    def test_each_window_is_summed_once_per_exponent(self, monkeypatch):
        # built with one window object per 1-node (1-nodes of one window
        # share it otherwise); with no parts stored, on phis or on blocks, a
        # check that kept none would sum a parent's window again for each child
        depth = 6
        monkeypatch.setattr(construction, "_root", functools.cache(construction._root.__wrapped__))
        monkeypatch.setattr(witness, "_block", seqspace.window_seq)
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), depth)
        for node in nodes_of(cache).values():
            for seq in (node.phi, node.block):
                if seq.base is None:  # a linked phi keeps no parts to clear
                    seq._sums.clear()
        summed = []
        segment_power_sum = seqspace._segment_power_sum

        def recorded(seg, p):
            if isinstance(seg, PowerWindow):
                summed.append((id(seg), p))
            return segment_power_sum(seg, p)

        monkeypatch.setattr(seqspace, "_segment_power_sum", recorded)
        assert check_properties(cache, depth).ok
        assert summed and len(summed) == len(set(summed))

    def test_a_zero_node_cap_below_its_sum_is_a_violation(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
        node = build_node(cache, (1, 0, 0))
        s = pnorm_pow(node.phi, 1.0)
        assert 1.0 < s < node.M[0]
        lineno = next(n for n, line in enumerate(lines) if line.startswith("100|"))
        caps = ",".join(map(str, (1,) + node.M[1:]))
        lines[lineno] = re.sub(r"\|M=[^|]*\|", f"|M={caps}|", lines[lineno])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        rep = _same_report(import_cache(bad), 3)
        assert [(c.label, c.lhs, c.rhs, c.note) for c in rep.violations if c.label == "p3-caps"] \
            == [("p3-caps", s, 1, "100 i=0")]


def _level_rows_used(monkeypatch, cache, max_len):
    """check_properties' report, and each level's rows as ``_level_rows``
    returned them."""
    levels = []
    level_rows = construction._level_rows

    def recorded(*args):
        levels.append(level_rows(*args))
        return levels[-1]

    monkeypatch.setattr(construction, "_level_rows", recorded)
    return check_properties(cache, max_len), levels


def _within_the_bound(row, exact, length):
    """|R - S| <= (length+1) * 2**-52 * R + length * 2**-1074, in exact rationals."""
    r, s = Fraction(row), Fraction(exact)
    return abs(r - s) <= (length + 1) * Fraction(2) ** -52 * r + length * Fraction(2) ** -1074


def _own_tree(tmp_path, max_len):
    """A (0, 2) tree to max_len with a root of its own, an import's, so
    that a test may put hand-made nodes in it."""
    built = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), max_len)
    return import_cache(export_cache(built, tmp_path / "own.txt"))


def _replace_phi(cache, sigma, phi):
    """Put a node with phi in the place of the one at sigma, which keeps its
    caps, block and children, below cache's own root."""
    assert cache.root is not construction._root(cache.ladder, cache.margin)
    parent, node = build_node(cache, sigma[:-1]), build_node(cache, sigma)
    new = Node(phi, node.M, node.block, node.kid0, node.kid1)
    if sigma[-1]:
        parent.kid1 = new
    else:
        parent.kid0 = new


def _same_report(cache, max_len):
    """check_properties' report, after asserting that it is the per-node
    reference's in every byte of its dict, key order included."""
    rep = check_properties(cache, max_len)
    reference = check_properties_per_node(cache, max_len)
    assert json.dumps(rep.to_dict()) == json.dumps(reference.to_dict())
    return rep


def _ulps(x, n):
    """The float n steps above x (below it for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


# non-negative parts, exact zeros, subnormals and parts near 1e308 (two of
# which overflow) included
_PARTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=2.0 ** -1022),
    st.floats(min_value=1e300, max_value=1e308),
    st.floats(min_value=0.0, max_value=1e308),
)


@st.composite
def _blocks(draw):
    """Up to 24 parts, cut into blocks of any size, empty ones included."""
    parts = draw(st.lists(_PARTS, max_size=24))
    cuts = sorted(draw(st.lists(st.integers(0, len(parts)), max_size=8)))
    bounds = [0, *cuts, len(parts)]
    return [parts[i:j] for i, j in zip(bounds, bounds[1:])]


@st.composite
def _drifting_blocks(draw):
    """A part, then up to 23 blocks of one part each that is a quarter-ulp
    multiple of it: each addition to the row rounds by up to half an ulp,
    often the same way, so the row drifts from S by several ulps."""
    first = draw(st.floats(min_value=2.0 ** -1000, max_value=1e300))
    tick = math.ulp(first) / 4
    return [[first]] + [[tick * draw(st.integers(1, 7))]
                        for _ in range(draw(st.integers(1, 23)))]


class TestLevelRows:
    """Each level is one batch: a node's row is its parent's plus its
    block's sums, claims are decided on it under a certified bound, and
    the report is the per-node check's."""

    @given(small_ladders(), st.floats(min_value=0.0, max_value=2.0 ** -20), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_rows_lie_within_the_bound_of_a_fresh_sum(self, tmp_path_factory, ladder, eta,
                                                      max_len):
        cache = build_tree(ConstructionCache(ladder, Margin(eta)), max_len)
        loaded = import_cache(export_cache(cache, tmp_path_factory.mktemp("rows") / "cache.txt"))
        exps = ladder.exponents(depth((0,) * max_len) + 1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for c in (cache, loaded):
                nodes = nodes_of(c)
                # the second check sums the blocks the first one summed
                for _ in range(2):
                    rep, levels = _level_rows_used(monkeypatch, c, max_len)
                    assert rep.ok, rep.summary()
                    assert len(levels) == max_len
                    for length, rows in enumerate(levels, 1):
                        assert rows.shape == (2 ** length, len(exps))
                        # a level's nodes in parent order, 0-child first
                        for k, row in enumerate(rows.tolist()):
                            sigma = tuple(map(int, format(k, f"0{length}b")))
                            # summed from scratch: no stored parts, no links
                            fresh = FinSeq(nodes[sigma].phi.segments)
                            for p, r in zip(exps, row):
                                assert _within_the_bound(r, pnorm_pow(fresh, p), length), (
                                    sigma, p)
                assert _same_report(c, max_len).ok

    def test_the_check_stores_parts_on_blocks_only(self, tmp_path, monkeypatch, fresh_nodes):
        max_len = 5
        built = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), max_len)
        cache = import_cache(export_cache(built, tmp_path / "cache.txt"))
        # the imported zero is the process-wide one: what it holds, the check stored
        monkeypatch.setattr(construction._ZERO_BLOCK, "_sums", {})
        assert check_properties(cache, max_len).ok
        ladder = cache.ladder
        exps = set(ladder.exponents(depth((0,) * max_len) + 1))
        zeros = 0
        for sigma, node in nodes_of(cache).items():
            if not sigma:  # the root's phi is the process-wide EMPTY
                continue
            assert node.phi._sums is None, sigma
            block = node.block
            # its q-cost, and its sums at every exponent of the deepest level
            assert block._sums.keys() == {ladder.q} | exps, sigma
            fresh = FinSeq(block.segments)
            for p, parts in block._sums.items():
                assert [x.hex() for x in parts] == [x.hex() for x in _power_sum_parts(fresh, p)]
            zeros += sigma[-1] == 0 and all(parts == () for parts in block._sums.values())
        assert zeros == 2 ** max_len - 1

    @pytest.mark.parametrize("a,q", [(0.0, 2.0), (0.0, 0.5), (1.0, 3.0)],
                             ids=["a0-q2", "a0-q0.5", "a1-q3"])
    def test_reports_equal_the_per_node_check(self, tmp_path, a, q):
        cache = build_tree(ConstructionCache(ExpLadder(a, q)), 8)
        loaded = import_cache(export_cache(cache, tmp_path / "cache.txt"))
        for max_len in range(0, 9):
            for c in (cache, loaded):
                assert _same_report(c, max_len).ok

    def test_p1_on_phis_that_do_not_link_their_parents(self, tmp_path):
        # p1 is decided by identity only where phi links its parent's to a
        # nonempty block; every other phi is compared entry by entry
        cache = _own_tree(tmp_path, 3)
        nodes = nodes_of(cache)

        def replace(sigma, phi):
            _replace_phi(cache, sigma, phi)

        # the same entries, unlinked: p1 holds
        replace((1, 0), FinSeq(nodes[(1, 0)].phi.segments))
        # linked to its parent's by an empty block: no proper extension
        replace((1, 1), concat(nodes[(1,)].phi, FinSeq(())))
        # linked to a sequence of its parent's length with another entry, so
        # its children, which link to the phi it replaced, fail p1 too
        replace((0, 1), concat(finseq((5.0,)), nodes[(0, 1)].block))
        rep = _same_report(cache, 3)
        assert [c.note for c in rep.violations if c.label == "p1-prefix"] == [
            "01", "11", "010", "011"]

    @pytest.mark.parametrize("extra", [(), (0.5,)], ids=["same-entries", "one-more-entry"])
    def test_a_phi_that_does_not_link_to_its_parents_is_summed_whole(self, tmp_path, extra):
        # a row grows from the parent's only along phi's link to it; a node
        # whose phi is a sequence of its own gets the exact sums of that phi
        cache = _own_tree(tmp_path, 4)
        node = build_node(cache, (1, 0, 1))
        phi = FinSeq(node.phi.segments + ((Literal(extra),) if extra else ()))
        _replace_phi(cache, (1, 0, 1), phi)
        rep = _same_report(cache, 4)
        assert rep.ok == (extra == ())
        assert any(c.note.startswith("101") for c in rep.violations) == (extra != ())

    @given(st.one_of(_blocks(), _drifting_blocks()),
           st.sampled_from([0.0, 2.0 ** -1074, 2.0 ** -20, 0.75, 3.0]),
           st.integers(-3, 3), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300)
    @example([[1.0]] + [[2.0 ** -53]] * 23, 0.0, -3, 0)  # the row stays 1.0, 12 ulps low
    @example([[1.0]] + [[2.0 ** -53]] * 23, 2.0 ** -20, 0, 1)
    @example([[1.0]] + [[0.75 * 2.0 ** -52]] * 23, 0.0, 3, 0)  # 6 ulps high
    @example([[1.0 - 2.0 ** -53]] + [[2.0 ** -54 + 2.0 ** -106]] * 20, 0.0, 3, 0)
    @example([[1e308], [1e308]], 0.0, 0, 0)  # the row overflows to inf, S raises
    @example([[2.0 ** -1074] * 3, [], [2.0 ** -1074]], 2.0 ** -1074, 1, -1)
    def test_the_filter_decides_only_as_the_exact_sum(self, blocks, eta, ulps, side):
        # R as a level makes it: the root's 0.0 plus each block's fsum in turn
        try:
            sums = [math.fsum(block) for block in blocks]
        except OverflowError:  # a block's own sum raises, here as in the per-node check
            return
        margin, length, r = Margin(eta), len(blocks), 0.0
        for s in sums:
            r += s
        try:
            exact = math.fsum(x for block in blocks for x in block)
        except OverflowError:  # S raises, so the filter must decide nothing
            exact = None
        rows = np.array([r])
        base = exact if exact is not None else 1.0
        for value in (_ulps(base + side * eta, ulps), _ulps(base, ulps)):
            caps = np.array([value])
            if construction._surely_below(rows, length, caps, margin)[0]:
                assert exact is not None and certified_less(exact, value, margin)
            if construction._surely_above(value, rows, length, margin)[0]:
                assert exact is not None and certified_less(value, exact, margin)
        if exact is not None and exact < 1e300:
            # far from S, the filter decides: it is not a check that always defers
            far = exact * (1 + 2.0 ** -30) + 2 * eta + 2.0 ** -1000
            assert construction._surely_below(rows, length, np.array([far]), margin)[0]
            near = exact * (1 - 2.0 ** -30) - 2 * eta - 2.0 ** -1000
            assert construction._surely_above(near, rows, length, margin)[0]


# SHA-256 of the depth-10 exports; any change to a witness window shows here
GOLDEN_DEPTH10 = [
    (0.0, 2.0, "c20991a70d2adecd37df82cd62a853806c7275e5b2998ac6082cda55a66547e1"),
    (0.0, 0.5, "e4448685c9a769a8d68fd6aa55202988bfe4fc9bdf8831fa80a4fa48642cdfb0"),
    (1.0, 3.0, "31871ac52fc93b92f462546392ba9b3a0b245c8f1bb56d140e5a4c48f737e3c0"),
]


@pytest.mark.parametrize("a,q,digest", GOLDEN_DEPTH10, ids=["a0-q2", "a0-q0.5", "a1-q3"])
def test_depth10_export_is_golden(tmp_path, a, q, digest):
    cache = build_tree(ConstructionCache(ExpLadder(a, q)), 10)
    path = export_cache(cache, tmp_path / "cache.txt")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


STORED_DEPTH10 = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.mark.parametrize("a,q", [(a, q) for a, q, _ in GOLDEN_DEPTH10],
                         ids=["a0-q2", "a0-q0.5", "a1-q3"])
def test_stored_depth10_export_survives_a_roundtrip(tmp_path, a, q):
    path = STORED_DEPTH10 / f"cache_a{a}_q{q}_len10.txt"
    again = export_cache(import_cache(path), tmp_path / path.name)
    assert again.read_bytes() == path.read_bytes()


# check_properties' whole report, as recorded when every instance was
# counted node by node: a label enters ``instances`` where it is first met
_DEPTH10_INSTANCES = [
    ("bookkeeping", 2047), ("phi-nonempty", 2046), ("p1-prefix", 2046),
    ("p2-block-cost", 2046), ("p3-caps", 8042), ("p6-forced-growth", 1023),
    ("p4-zero-stable", 1022), ("p5-one-stable", 474),
]


@pytest.mark.parametrize("a,q", [(a, q) for a, q, _ in GOLDEN_DEPTH10],
                         ids=["a0-q2", "a0-q0.5", "a1-q3"])
def test_stored_depth10_report_is_pinned(a, q):
    report = check_properties(import_cache(STORED_DEPTH10 / f"cache_a{a}_q{q}_len10.txt"), 10)
    assert report.to_dict() == {"title": "construction-properties max_len=10", "ok": True,
                                "instances": dict(_DEPTH10_INSTANCES), "violations": []}
    assert list(report.to_dict()["instances"].items()) == _DEPTH10_INSTANCES


# records replaced in the (0, 2) depth-4 export, and the report that follows
CORRUPTED_DEPTH4 = {
    "five-families": (
        {
            # bookkeeping and p4: a 0-node drops a cap (and p5 at its 1-child)
            "100": "100|M=2|phi=W:1.0,1.0,2,6;L:0.0;L:0.0",
            # p6: a 1-node's block is a zero
            "0001": "0001|M=1,1,5|phi=L:0.0;L:0.0;L:0.0;L:0.0",
            # p4: a 0-node changes a cap it inherits
            "0100": "0100|M=1,4,8|phi=L:0.0;W:0.5,1.0,4,32;L:0.0;L:0.0",
            # p2 and p3: a block costs 0.16 > 2**-4
            "0111": "0111|M=4,23,68|phi=L:0.0;W:0.5,1.0,4,32;W:1.0,1.0,8,170;"
                    "W:0.25,1.0,16,900;L:0.4",
            # p3: a cap below its sum
            "1011": "1011|M=5,23,1|phi=W:1.0,1.0,2,6;L:0.0;W:1.0,1.0,8,170;W:0.25,1.0,16,900",
        },
        [("bookkeeping", 31), ("phi-nonempty", 30), ("p1-prefix", 30), ("p2-block-cost", 30),
         ("p3-caps", 73), ("p6-forced-growth", 15), ("p4-zero-stable", 14),
         ("p5-one-stable", 10)],
        [("bookkeeping", "1", "2", "100"),
         ("p4-zero-stable", "(2,)", "(2, 3)", "100"),
         ("p6-forced-growth", "0.0", "4", "0001"),
         ("p4-zero-stable", "(1, 4, 8)", "(1, 3)", "0100"),
         ("p2-block-cost", "0.16000000042541415", "0.0625", "0111"),
         ("p3-caps", "23.057218370286563", "23", "0111 i=1"),
         ("p3-caps", "68.67709771293309", "68", "0111 i=2"),
         ("p5-one-stable", "(2, 3)", "(2,)", "1001"),
         ("p3-caps", "63.94010823371998", "1", "1011 i=2")],
    ),
    # the first node with caps is 01, so p3 is first met after p6 and p4
    "p3-first-met-at-01": (
        {"0": "0|M=|phi=L:0.0", "1": "1|M=|phi=W:1.0,1.0,2,6", "00": "00|M=|phi=L:0.0;L:0.0"},
        [("bookkeeping", 31), ("phi-nonempty", 30), ("p1-prefix", 30), ("p2-block-cost", 30),
         ("p6-forced-growth", 15), ("p4-zero-stable", 14), ("p3-caps", 70),
         ("p5-one-stable", 10)],
        [("bookkeeping", "0", "1", "0"),
         ("bookkeeping", "0", "1", "1"),
         ("bookkeeping", "0", "2", "00"),
         ("p5-one-stable", "(1,)", "()", "01"),
         ("p5-one-stable", "(2,)", "()", "11")],
    ),
}


@pytest.mark.parametrize("name", list(CORRUPTED_DEPTH4))
def test_corrupted_depth4_report_is_pinned(tmp_path, name):
    records, instances, violations = CORRUPTED_DEPTH4[name]
    cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 4)
    lines = export_cache(cache, tmp_path / "cache.txt").read_text().splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(records.get(line.split("|")[0], line) for line in lines) + "\n")
    report = _same_report(import_cache(bad), 4).to_dict()
    assert (report["title"], report["ok"]) == ("construction-properties max_len=4", False)
    assert list(report["instances"].items()) == instances
    assert [(v["label"], v["lhs"], v["rhs"], v["note"]) for v in report["violations"]] \
        == violations


# SHA-256 of verify_report.json from `lprl verify --max-len 10`
GOLDEN_VERIFY10 = [
    (0.0, 2.0, "7b3801d6fe44a85c90617b8e6b3b21002a75f78dc5a4a8cb114d0fc8372a2eed"),
    (0.0, 0.5, "b7dc9c73f2fb694b1939a0e767a54ea72ca91fd6a661b198a58d6254fc9adc94"),
    (1.0, 3.0, "dc254df8c14ff8f62c24b9c6f60f61791f8cc3b47529db7bb2eecc5ad0b6a065"),
]


@pytest.mark.parametrize("a,q,digest", GOLDEN_VERIFY10, ids=["a0-q2", "a0-q0.5", "a1-q3"])
def test_depth10_verify_report_is_golden(tmp_path, capsys, a, q, digest):
    assert main(["verify", "--a", str(a), "--q", str(q), "--max-len", "10",
                 "--out", str(tmp_path)]) == 0
    report = tmp_path / "verify_report.json"
    assert json.loads(report.read_text())["ok"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestOneRowPerNode:
    """A node's power sums are summed once: each distinct block once per
    exponent, and a 1-node's row where ``extend``'s re-check sums u~v."""

    def test_each_block_reaches_the_kernel_once_per_exponent(self, monkeypatch):
        monkeypatch.setattr(construction, "_root", functools.cache(construction._root.__wrapped__))
        # new 1-node blocks, with no parts kept, shared as ``_block`` shares them
        monkeypatch.setattr(witness, "_block", functools.cache(seqspace.window_seq))
        summed = []
        segment_power_sum = seqspace._segment_power_sum

        def recorded(seg, p):
            summed.append((seg, p))
            return segment_power_sum(seg, p)

        monkeypatch.setattr(seqspace, "_segment_power_sum", recorded)
        nodes = nodes_of(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 10))
        block_of = {id(seg): node.block for node in nodes.values()
                    for seg in node.block.segments}
        pairs = [(id(block_of[id(seg)]), p) for seg, p in summed]
        assert len(pairs) > 10 and len(pairs) == len(set(pairs))
        # the 1-nodes share one window block per length, each summed here
        ones = {id(node.block) for sigma, node in nodes.items() if sigma[-1:] == (1,)}
        assert len(ones) == 10 and ones <= {block for block, _ in pairs}

    def test_a_warm_rebuild_sends_no_kernel_request_from_extend(self, monkeypatch,
                                                                 fresh_nodes):
        # the 1-nodes of one length share one block, which holds its parts
        # at every exponent asked once the first build has summed it, and
        # the searches answer from their memos
        build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 12)
        construction._root.cache_clear()
        requests = []
        for module, name in ((seqspace, "_window_power_sum"), (witness, "_range_power_sum")):
            inner = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, inner=inner:
                                requests.append(name) or inner(*args))
        assert len(nodes_of(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 12))) == 2 ** 13 - 1
        assert requests == []

    def test_a_one_node_request_carries_its_parents_parts(self, monkeypatch, fresh_nodes):
        requests = []
        extend_ = construction.extend

        def recorded(req, margin):
            requests.append(req)
            return extend_(req, margin)

        monkeypatch.setattr(construction, "extend", recorded)
        nodes = nodes_of(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 5))
        ones = [(sigma, node) for sigma, node in nodes.items() if sigma[-1:] == (1,)]
        assert len(ones) == len(requests) == 2 ** 5 - 1
        for (sigma, node), req in zip(ones, requests):
            parent = nodes[sigma[:-1]]
            assert req.u is parent.phi
            fresh = FinSeq(parent.phi.segments)  # no links, no stored parts
            for p in req.exps:
                assert [x.hex() for x in req.parts[p]] == [
                    x.hex() for x in _power_sum_parts(fresh, p)]
            assert node.phi.base is parent.phi and node.phi.block is node.block
            assert node.phi._sums is None

    def test_new_caps_lie_above_a_fresh_sum_of_phi(self, fresh_nodes):
        # one rule for both children: a node keeps its parent's caps below
        # ``keep`` and takes a new cap above its phi's power sum at each row
        # from there to its depth
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 0.5)), 6)
        new_caps = 0
        nodes = nodes_of(cache)
        for sigma, node in nodes.items():
            if not sigma:
                continue
            parent = nodes[sigma[:-1]]
            keep = level(sigma) if sigma[-1] else len(parent.M)
            exps = cache.ladder.exponents(depth(sigma) + 1)
            assert node.M[:keep] == parent.M[:keep] and len(node.M) == len(exps)
            fresh = FinSeq(node.phi.segments)  # no links, no stored parts
            for p, cap in zip(exps[keep:], node.M[keep:]):
                assert cap == least_natural_above(pnorm_pow(fresh, p), cache.margin)
                new_caps += 1
        assert new_caps > 2 ** 6

    @pytest.mark.parametrize("imported", [False, True], ids=["built", "imported"])
    def test_rows_and_block_parts_equal_a_full_resummation(self, tmp_path, fresh_nodes,
                                                           imported):
        depth = 6
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 0.5)), depth)
        if imported:
            cache = import_cache(export_cache(cache, tmp_path / "cache.txt"))
        assert check_properties(cache, depth).ok
        exps = cache.ladder.exponents(4) + (cache.ladder.q,)
        kept = 0
        for sigma, node in nodes_of(cache).items():
            # a phi's parts are its blocks' along its links; only blocks keep any
            assert (node.phi._sums is None) == bool(sigma)
            fresh = FinSeq(node.phi.segments)
            for p in exps:
                assert pnorm_pow(node.phi, p).hex() == pnorm_pow(fresh, p).hex()
            block = FinSeq(node.block.segments)
            for p, parts in node.block._sums.items():
                kept += 1
                assert [x.hex() for x in parts] == [
                    x.hex() for x in _power_sum_parts(block, p)]
        assert kept


def _linked_phis_with_parts(nodes):
    """The strings of the nodes, ``(sigma, node)``, whose phi is linked yet
    holds a parts dict."""
    return [sigma for sigma, node in nodes
            if node.phi.base is not None and node.phi._sums is not None]


_CONFIGS = [(0.0, 2.0), (0.0, 0.5), (1.0, 3.0)]

_PATH_SPECS = st.dictionaries(
    st.integers(0, 4),
    st.one_of(
        st.builds(FiniteOnes, st.frozensets(st.integers(0, 4), max_size=3)),
        st.builds(EventuallyOne, st.integers(0, 4)),
        st.integers(1, 3).flatmap(lambda m: st.builds(
            PeriodicOnes, st.integers(0, m - 1), st.just(m), st.integers(0, 2)))),
    max_size=3).map(AlphaSpec.from_rows)


class TestCarriedParts:
    """Only unlinked sequences keep power-sum parts: a walk carries each
    node's, its parent's followed by its block's."""

    @pytest.mark.parametrize("run", ["build", "verify", "import-check", "trace"])
    def test_no_linked_phi_holds_parts(self, tmp_path, capsys, fresh_nodes, run):
        ladder = ExpLadder(0.0, 2.0)
        cache = ConstructionCache(ladder)
        if run == "build":
            build_tree(cache, 8)
        elif run == "verify":
            assert main(["verify", "--max-len", "6", "--out", str(tmp_path)]) == 0
        elif run == "import-check":
            cache = import_cache(STORED_DEPTH10 / "cache_a0.0_q2.0_len10.txt")
            assert check_properties(cache, 10).ok
        else:
            assert main(["trace", "--spec", "row=1:finite{0,2}", "--k", "12",
                         "--out", str(tmp_path)]) == 0
        nodes = [*nodes_of(cache).items(),
                 *built_nodes(ladder, cache.margin).items()]
        assert len(nodes) > 12
        assert _linked_phis_with_parts(nodes) == []

    @given(st.sampled_from(_CONFIGS), st.integers(1, 6), _PATH_SPECS, st.integers(0, 14))
    @settings(max_examples=25, deadline=None)
    def test_carried_sums_equal_a_fresh_sum(self, config, max_len, spec, k):
        # the parts each step is given, after the walk: those it was carried
        # and those it read along its parent's links
        ladder = ExpLadder(*config)
        cache = ConstructionCache(ladder)
        given_parts = []
        child = construction._child

        def recorded(cache_, parent, key, sums):
            given_parts.append((parent, key, sums))
            return child(cache_, parent, key, sums)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(construction, "_child", recorded)
            build_tree(cache, max_len)
            path = path_rows(cache, spec, k, (ladder.q,) + ladder.exponents(4))
        assert len(given_parts) == 2 ** (max_len + 1) - 2 + k + 1

        def fresh(node, p):  # no links, no stored parts
            return pnorm_pow(FinSeq(node.phi.segments), p).hex()

        for parent, key, sums in given_parts:
            for p, parts in sums.items():
                assert math.fsum(parts).hex() == fresh(parent, p), (bin(key), p)
        for t, (node, sums) in enumerate(path):
            for p, s in sums.items():
                assert s.hex() == fresh(node, p), (t, p)

    def test_a_build_from_a_warm_memo_equals_a_cold_one(self, tmp_path, fresh_nodes):
        # the walk through the depth-4 memo carries empty dicts; the first
        # steps past it read their parents' parts along the links
        build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 4)
        path = export_cache(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 8),
                            tmp_path / "cache.txt")
        stored = (STORED_DEPTH10 / "cache_a0.0_q2.0_len10.txt").read_text()
        cut = [line for line in stored.splitlines(keepends=True)
               if line.startswith("# ") or len(line.split("|")[0].strip("-")) <= 8]
        assert len(cut) == 3 + 2 ** 9 - 1
        assert path.read_text() == "".join(cut)


def _request_of(cache, sigma):
    """The ClaimRequest the construction makes for the 1-extension ``sigma``."""
    ladder = cache.ladder
    parent = build_node(cache, sigma[:-1])
    l_sigma = level(sigma)
    return ClaimRequest(
        u=parent.phi,
        q=ladder.q,
        exps=ladder.exponents(l_sigma + 1),
        caps=tuple(float(c) for c in parent.M[:l_sigma]),
        M=float(len(sigma)),
        eps=2.0 ** -len(sigma),
    )


SEARCHES = (witness._least_start, witness._least_end)


class TestSearchMemo:
    @pytest.fixture
    def cleared(self, fresh_nodes):
        for search in SEARCHES:
            search.cache_clear()

    def test_one_end_search_per_distinct_key(self, small_cache, cleared):
        build_tree(small_cache, 6)
        info = witness._least_end.cache_info()
        assert info.misses == info.currsize == 6

    def test_every_block_is_still_rechecked(self, small_cache, monkeypatch, fresh_nodes):
        checked = []
        verify_witness = witness.verify_witness

        def counted(req, w, margin):
            checked.append(w)
            return verify_witness(req, w, margin)

        monkeypatch.setattr(witness, "verify_witness", counted)
        build_tree(small_cache, 6)
        assert len(checked) == 2 ** 6 - 1

    def test_blocks_equal_unmemoised_extend(self, small_cache):
        build_tree(small_cache, 6)
        nodes = nodes_of(small_cache)
        ones = [s for s in nodes if s and s[-1] == 1]
        assert len(ones) == 2 ** 6 - 1
        for sigma in ones:
            for search in SEARCHES:
                search.cache_clear()
            w = extend(_request_of(small_cache, sigma), small_cache.margin)
            assert nodes[sigma].block == w.v

    def test_second_cache_reuses_searches(self, cleared):
        c1 = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 4)
        misses = [search.cache_info().misses for search in SEARCHES]
        assert all(misses)
        construction._root.cache_clear()  # c2 searches again, with no misses
        c2 = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 4)
        assert [search.cache_info().misses for search in SEARCHES] == misses
        nodes1, nodes2 = nodes_of(c1), nodes_of(c2)
        assert nodes1.keys() == nodes2.keys()
        for sigma, node in nodes1.items():
            assert nodes2[sigma].block == node.block

    def test_memo_keeps_margin_and_budget_apart(self, cleared):
        def stored():
            return sum(search.cache_info().currsize for search in SEARCHES)

        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        req = _request_of(cache, (1,))
        extend(req, Margin(2.0 ** -20))
        extend(req, Margin(2.0 ** -21))
        assert stored() == 4
        budget = ClaimRequest(u=req.u, q=req.q, exps=req.exps, caps=req.caps,
                              M=req.M, eps=req.eps / 2)
        extend(budget, Margin(2.0 ** -20))
        assert stored() == 6  # a half q-cost budget: new start key, new end key

    def test_failed_search_stores_nothing(self, cleared):
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        req = _request_of(cache, (1,))
        # the q-cost budget 2**-1 is not above the margin
        with pytest.raises(PreconditionError, match="not above the margin 0.5"):
            extend(req, Margin(0.5))
        assert witness._least_start.cache_info().currsize == 0
        assert witness._least_end.cache_info().currsize == 0


class TestTemplates:
    def test_a_build_and_its_check_derive_each_length_once(self, monkeypatch, fresh_nodes):
        # a length fixes depth, level, exponents, M and eps: the build and
        # then the check of a tree read one derivation per length, made
        # and validated once, not once per node or per walk
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        construction._derivations.cache_clear()  # derive this ladder afresh
        for name in ("depth", "level", "claim_of"):
            monkeypatch.setattr(construction, name, counted(name, getattr(construction, name)))
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 8)
        assert len(nodes_of(cache)) == 2 ** 9 - 1
        assert calls == {"depth": 8, "level": 8, "claim_of": 8}
        assert check_properties(cache, 8).ok
        assert calls == {"depth": 8, "level": 8, "claim_of": 8}

    def test_a_cap_slack_below_eps_gets_its_own_search(self, small_cache, fresh_nodes):
        # the prefix's p_0 sum 0.9 leaves a slack of about 0.1 under its cap
        # 1, below the budget eps = 1/4 of the 1-node 01: the tree step must
        # search with that slack, exactly as extend on an explicit request
        ladder, margin = small_cache.ladder, small_cache.margin
        block = finseq((0.9,))
        small_cache.root = Node(EMPTY, (), EMPTY)  # a root of its own, for the hand-made node
        parent = small_cache.root.kid0 = Node(concat(small_cache.root.phi, block), (1,), block)
        node = build_node(small_cache, (0, 1))
        exps = ladder.exponents(2)
        req = ClaimRequest(u=parent.phi, q=ladder.q, exps=exps, caps=(1.0,), M=2.0, eps=0.25)
        w = extend(req, margin)
        slack = cap_room(0.9, 1.0)
        assert margin.eta < slack < req.eps
        assert w.n0 == witness._least_start(exps[0] / exps[1], slack, margin)
        assert w.n0 != witness._least_start(exps[0] / exps[1], req.eps, margin)
        window, = node.block.segments
        assert (window.n_start, window.n_end) == (w.n0, w.n1)
        assert node.block is w.v and node.phi.base is parent.phi
        assert node.M == (1, least_natural_above(pnorm_pow(node.phi, exps[1]), margin))

    def test_every_one_node_is_extended_and_rechecked_once(self, monkeypatch, fresh_nodes):
        requests, reports = [], []
        extend_ = construction.extend
        verify_witness = witness.verify_witness

        def extended(req, margin):
            requests.append(req)
            return extend_(req, margin)

        def rechecked(req, w, margin):
            reports.append(verify_witness(req, w, margin))
            return reports[-1]

        monkeypatch.setattr(construction, "extend", extended)
        monkeypatch.setattr(witness, "verify_witness", rechecked)
        nodes = nodes_of(build_tree(ConstructionCache(ExpLadder(0.0, 0.5)), 6))
        ones = [sigma for sigma in nodes if sigma[-1:] == (1,)]
        assert len(ones) == len(requests) == len(reports) == 2 ** 6 - 1
        by_prefix = {id(req.u): (req, rep) for req, rep in zip(requests, reports)}
        for sigma in ones:
            req, rep = by_prefix[id(nodes[sigma[:-1]].phi)]
            caps = [f"cap-p{i}" for i in range(level(sigma))]
            assert list(rep.counts.items()) == [
                (label, 1) for label in ("non-empty", "q-cost", *caps, "divergence")]
            assert isinstance(rep.counts, Counter) and rep.ok
            assert nodes[sigma].phi.base is req.u

    def test_an_all_zero_path_passes_the_length_where_eps_underflows(self, small_cache):
        # a 0-node makes no claim, so its budget 2**-length may underflow;
        # a 1-node there refuses its request as before
        assert 2.0 ** -1075 == 0.0
        zeros = (0,) * 1100
        node = build_node(small_cache, zeros)
        assert len(node.M) == depth(zeros) + 1
        with pytest.raises(ValueError, match="eps must be positive, got 0.0"):
            build_node(small_cache, zeros + (1,))


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_before(request):
    """The GC state a walk starts from; the test's own state comes back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestWalksHoldTheGC:
    """Each whole-tree walk runs with the cyclic GC off and leaves it as it
    found it, on return and on raise."""

    @pytest.fixture
    def stored(self, tmp_path):
        cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3)
        return export_cache(cache, tmp_path / "cache.txt")

    def walks(self, stored):
        return {
            "build_tree": lambda: build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 3),
            "check_properties": lambda: check_properties(
                ConstructionCache(ExpLadder(0.0, 2.0)), 3),
            "import_cache": lambda: import_cache(stored),
        }

    @pytest.mark.parametrize("walk", ["build_tree", "check_properties", "import_cache"])
    def test_the_gc_is_off_during_the_walk_and_restored_after(self, monkeypatch, stored,
                                                              fresh_nodes, gc_before, walk):
        seen = []
        child, parse = construction._child, construction._parse_segments
        monkeypatch.setattr(construction, "_child",
                            lambda *args: seen.append(gc.isenabled()) or child(*args))
        monkeypatch.setattr(construction, "_parse_segments",
                            lambda text: seen.append(gc.isenabled()) or parse(text))
        self.walks(stored)[walk]()
        assert seen and not any(seen)
        assert gc.isenabled() is gc_before

    @pytest.mark.parametrize("walk", ["build_tree", "check_properties"])
    def test_a_child_that_raises_restores_the_gc(self, monkeypatch, stored, gc_before, walk):
        def refused(*args):
            raise PreconditionError("refused")

        monkeypatch.setattr(construction, "_child", refused)
        with pytest.raises(PreconditionError, match="refused"):
            self.walks(stored)[walk]()
        assert gc.isenabled() is gc_before

    def test_a_malformed_cache_file_restores_the_gc(self, stored, gc_before):
        stored.write_text(stored.read_text() + "00000|M=1|phi=L:0.0\n")
        with pytest.raises(ValueError, match="appears before its parent"):
            import_cache(stored)
        assert gc.isenabled() is gc_before

    @pytest.mark.parametrize("walk", ["build_tree", "check_properties", "import_cache"])
    def test_no_collection_scans_what_the_walk_made(self, tmp_path, fresh_nodes, walk):
        # a depth-8 walk makes thousands of containers with the GC held off;
        # they go to the oldest generation, so the first allocations after
        # it set off no young collection that would scan them all
        stored = export_cache(build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 8),
                              tmp_path / "deep.txt")
        construction._root.cache_clear()
        walks = {
            "build_tree": lambda: build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 8),
            "check_properties": lambda: check_properties(
                ConstructionCache(ExpLadder(0.0, 2.0)), 8),
            "import_cache": lambda: import_cache(stored),
        }
        collections = []

        def seen(phase, info):
            collections.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        try:
            walks[walk]()
            assert gc.isenabled() and gc.get_count()[0] < 100
            gc.callbacks.append(seen)
            try:
                made = [[] for _ in range(200)]
            finally:
                gc.callbacks.remove(seen)
        finally:
            (gc.enable if was else gc.disable)()
        assert len(made) == 200 and collections == []

    @pytest.mark.parametrize("walk", ["build_tree", "check_properties", "import_cache"])
    def test_a_callers_frozen_objects_stay_frozen(self, stored, gc_before, walk):
        marker = []
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            self.walks(stored)[walk]()
            # none unfrozen (a few may have been freed), none frozen anew
            assert 0 < gc.get_freeze_count() <= frozen
            assert all(obj is not marker for obj in gc.get_objects())
            assert gc.isenabled() is gc_before
        finally:
            gc.unfreeze()
        assert any(obj is marker for obj in gc.get_objects())

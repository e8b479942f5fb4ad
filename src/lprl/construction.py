"""The recursive tree construction over binary strings.

Every binary string sigma gets a non-negative finite sequence phi(sigma)
and a vector of natural caps M_0..M_{d(sigma)}, one per grid row reached:

  * extending by 0 appends a literal zero and keeps every cap, adding
    one for a newly reached row;
  * extending by 1 appends a witness block that pushes the power sum at
    the new level's exponent past lh(sigma)+1 while respecting the caps
    below that level and a q-cost budget of 2**-(lh(sigma)+1).

``check_properties`` re-verifies the whole bundle of invariants over the
populated tree, one level at a time, by re-summation from the blocks:
prefix coherence, per-block q-cost, cap discipline, cap stability under
both extensions, forced growth, and the cap-vector length bookkeeping.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .grid import _BIT_OF, bitstring, depth, level
from .reports import Check, CheckReport
from .seqspace import (
    DEFAULT_MARGIN,
    EMPTY,
    ExpLadder,
    FinSeq,
    Literal,
    Margin,
    PowerWindow,
    certified_less,
    finite_literal,
    finseq,
    pnorm_pow,
    _power_sum_parts,
)
from .witness import ClaimRequest, cap_room, claim_of, extend


def least_natural_above(x, margin=DEFAULT_MARGIN):
    """Smallest natural n, exact as a float, with ``cap_room(x, n)`` certified
    above zero: an extension under the cap has room, and strict domination
    survives re-summation. Past 2**53 the candidates step by floats; an x
    with no such float above it, inf included, is a ResourceLimitError."""
    if x < 0:
        raise ValueError(f"expected a non-negative value, got {x!r}")
    try:
        n = math.floor(x + margin.eta) + 1
        while not certified_less(0.0, cap_room(x, float(n)), margin):
            n = max(n + 1, int(math.nextafter(float(n), math.inf)))
    except OverflowError:
        raise ResourceLimitError(f"no float cap lies above the power sum {x!r}") from None
    return n


def _gc_held(walk):
    """walk, run with the cyclic garbage collector held off, and the caller's
    GC state restored on return and on raise.

    A whole-tree walk allocates millions of long-lived containers and frees
    almost none, and none of them in cycles, so each collection it would
    set off scans the tree built so far and frees nothing. Reference
    counting still frees what the walk drops. Where nothing is frozen, the
    hold ends with ``gc.freeze()`` and ``gc.unfreeze()``, which move every
    tracked object to the oldest generation and reset the young count, so
    the first collection after the walk does not scan all that it made;
    the caller's own young objects are promoted with them. A caller's
    frozen objects are left frozen: with any, the hold ends with
    ``gc.enable()`` alone.
    """
    @functools.wraps(walk)
    def held(*args, **kwargs):
        if not gc.isenabled():
            return walk(*args, **kwargs)
        gc.disable()
        try:
            return walk(*args, **kwargs)
        finally:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    return held


@dataclass(slots=True)
class Node:
    """State at one string: phi value, cap vector, and the appended block.

    It holds no string: its string is where it sits below a root, which
    each walk knows (a key, ``_child``). Immutable by convention: a node is
    shared by every cache that reached it, and nothing sets its fields again
    but ``kid0`` and ``kid1``, which ``_child`` sets once each."""

    phi: FinSeq
    M: tuple
    block: FinSeq
    kid0: Node | None = field(default=None, compare=False, repr=False)
    kid1: Node | None = field(default=None, compare=False, repr=False)


@functools.cache
def _root(ladder, margin):
    """The root of every built cache of the configuration (ladder, margin),
    shared process-wide: its descendants, by child links, are the
    configuration's built nodes, since a node is a pure function of it and
    sigma."""
    return Node(EMPTY, (), EMPTY)


class ConstructionCache:
    """A root and a depth: the nodes a run asked for are the root's tree to
    that depth (``held``).

    The root is the configuration's shared one (``_root``), or an import's
    own. The depth is the deepest level ``build_tree`` or
    ``check_properties`` completed, or an import's longest record; above it
    every level is full, or private to an import, so what a cache holds
    never depends on other caches. ``shape`` and ``claim`` are the ladder's
    ``_derivations``, bound once. Completed nodes are immutable and safe to
    read concurrently.
    """

    def __init__(self, ladder, margin=DEFAULT_MARGIN):
        if not isinstance(ladder, ExpLadder):
            raise TypeError("ladder must be an ExpLadder")
        self.ladder = ladder
        self.margin = margin
        self.root = _root(ladder, margin)
        self.depth = 0
        self.shape, self.claim = _derivations(ladder)


def held(cache):
    """``(key, node)`` (``_child``) for each node the cache holds, in
    (length, bits) order: a level at a time, in parent order."""
    level = [(1, cache.root)]
    for _ in range(cache.depth):
        yield from level
        level = [(2 * key + bit, kid) for key, node in level
                 for bit, kid in ((0, node.kid0), (1, node.kid1)) if kid is not None]
    yield from level


def build_node(cache, sigma):
    """Return the node at sigma, building its missing prefixes first."""
    node = cache.root
    for node, _ in walk_path(cache, bitstring(sigma)):
        pass
    return node


def walk_path(cache, bits, start=None, sums=None, key=1):
    """Yield ``(node, sums)`` at each prefix of bits, from length 1 on, below
    start at key (the root at 1 by default), sums being the node's power-sum
    parts ``{p: parts}`` (``_carry``), from start's (an empty dict by default).

    Each step is one ``_child``, so bits may be any iterable, an endless
    one included: a node is built only when the walk reaches it.
    """
    node = cache.root if start is None else start
    sums = {} if sums is None else sums
    for bit in bits:
        key = 2 * key + bit
        node = _child(cache, node, key, sums)
        sums = _carry(sums, node.block)
        yield node, sums


def _child(cache, parent, key, sums):
    """The child of parent at key: the binary digits of 1 and the child's
    string, so the root's key is 1 and a child's is its parent's doubled
    plus its bit.

    A missing child is built from the parent's power-sum parts ``sums`` and
    set on parent. An imported node hangs below its cache's own root, so it
    and the nodes built from it stay private to their cache. A build that
    raises sets nothing.
    """
    node = parent.kid1 if key & 1 else parent.kid0
    if node is None:
        node = _extend_node(cache, parent, key, sums)
        if key & 1:
            parent.kid1 = node
        else:
            parent.kid0 = node
    return node


# one block object shared by every 0-extension, half the nodes of a tree
_ZERO_BLOCK = finseq((0.0,))


def _carry(sums, block):
    """A child's power-sum parts ``{p: parts}``: its parent's own dict after
    ``_ZERO_BLOCK``, which adds no part at any exponent, and otherwise a new
    one, so that a step may add an exponent to the dict it is given."""
    if block is _ZERO_BLOCK:
        return sums
    return {p: parts + _power_sum_parts(block, p) for p, parts in sums.items()}


@functools.cache
def _derivations(ladder):
    """``(shape, claim)``: what a string's length fixes under ladder, each
    a function of the length, memoised process-wide, that a cache binds so
    that a lookup keys on an int. ``shape(length)`` is ``(exps, level)``:
    p_0..p_d for the strings' depth d, and the row of their last cell,
    below which a 1-node keeps its parent's caps. ``claim(length)`` is a
    1-node's Claim, on p_0..p_level with target M = length and q-cost
    budget eps = 2**-length; only a 1-node asks for it, so an all-zero path
    never makes a budget that underflows to 0."""

    @functools.cache
    def shape(length):
        bits = range(length)  # depth and level read the length alone
        return ladder.exponents(depth(bits) + 1), level(bits)

    @functools.cache
    def claim(length):
        exps, l = shape(length)
        return claim_of(ladder.q, exps[:l + 1], float(length), 2.0 ** -length)

    return shape, claim


def _extend_node(cache, parent, key, sums):
    """The child at ``key``: its parent's first ``keep`` caps, then one new
    cap per row from ``keep`` to its depth, above its power sum there.

    What the child's length fixes comes from the cache's ``shape`` and
    ``claim`` (``_derivations``), so a node pays only for its own sums,
    claims and caps. ``sums`` is the parent's parts ``{p: parts}``; an
    exponent it lacks is read once along the parent's links into it. A
    0-node's block is a zero; a 1-node's is the witness of its request on
    the length's Claim, with the parent's phi, caps and parts. The child's
    phi links the parent's to its block and is summed at the rows from
    ``keep`` on as the parent's parts followed by the block's. A
    PreconditionError, and a ResourceLimitError (a sum with no finite cap
    above it), is tagged with the child's string."""
    length, bit = key.bit_length() - 1, key & 1
    exps, l = cache.shape(length)
    margin = cache.margin
    keep = l if bit else len(parent.M)
    for p in exps if bit else exps[keep:]:
        if p not in sums:
            sums[p] = _power_sum_parts(parent.phi, p)
    try:
        if bit == 0:
            block = _ZERO_BLOCK
        else:
            claim = cache.claim(length)
            req = ClaimRequest.on(claim, parent.phi, tuple(map(float, parent.M[:keep])), sums)
            block = extend(req, margin).v
        new = tuple(least_natural_above(math.fsum(sums[p] + _power_sum_parts(block, p)), margin)
                    for p in exps[keep:])
    except (PreconditionError, ResourceLimitError) as err:
        err.sigma = tuple(map(int, bin(key)[3:]))
        raise
    return Node(FinSeq(block, parent.phi), parent.M[:keep] + new, block)


@_gc_held
def build_tree(cache, max_len):
    """Populate every node with lh(sigma) <= max_len (2**(max_len+1)-1 nodes),
    level by level, carrying each node's power-sum parts to its children."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    frontier = [(1, cache.root, {})]
    for length in range(1, max_len + 1):
        children = []
        for key, parent, sums in frontier:
            for key in (2 * key, 2 * key + 1):
                node = _child(cache, parent, key, sums)
                if length < max_len:  # a leaf's parts are never read
                    children.append((key, node, _carry(sums, node.block)))
        frontier = children
    cache.depth = max(cache.depth, max_len)
    return cache


def _level_rows(parent_rows, blocks, which, exps, exact):
    """A level's rows at exps, one per node in parent order, 0-child first.

    A node's row is its parent's plus the ``math.fsum`` of its block's
    parts, ``blocks[which[k]]``, each distinct block summed once; a node
    whose phi does not link to its parent's (``which[k] == -1``) gets the
    exact row of its phi, ``exact[k]``.
    """
    sums = np.zeros((len(blocks) + 1, len(exps)))  # the last row adds nothing
    for b, block in enumerate(blocks):
        sums[b] = [math.fsum(_power_sum_parts(block, p)) for p in exps]
    rows = parent_rows.repeat(2, axis=0)
    rows += sums[which]
    for k, phi in exact.items():
        rows[k] = [pnorm_pow(phi, p) for p in exps]
    return rows


def _slack(rows, length):
    """The bound on how far each of a level's rows lies from the ``fsum``
    of its phi's parts (see ``check_properties``), as a new array."""
    out = rows * ((length + 1) * 2.0 ** -52)
    out += length * 2.0 ** -1074
    return out


def _surely_below(rows, length, caps, margin):
    """Where ``certified_less(S, cap, margin)`` holds for every S within
    the bound of rows: at the float above the bound, as ``lhs + eta``
    rounds monotonically in lhs. A row of inf passes nowhere."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi = _slack(rows, length)
        hi += rows
        np.nextafter(hi, np.inf, out=hi)
        hi += margin.eta
        return hi < caps


def _surely_above(target, rows, length, margin):
    """Where ``certified_less(target, S, margin)`` holds for every S within
    the bound of rows: at the float below the bound. A row of inf, whose
    bound is inf - inf, passes nowhere."""
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.subtract(rows, _slack(rows, length))
        np.nextafter(lo, -np.inf, out=lo)
        return target + margin.eta < lo


@_gc_held
def check_properties(cache, max_len):
    """Re-verify all construction properties over the tree up to max_len.

    Each level is checked as one batch, in parent order, 0-child first, so
    node k of level L is at the L-bit binary of k. Per node, in Python: a
    child link (``_child``, which builds a missing node with no parts, in a
    partial tree), bookkeeping, phi-nonempty, p1-prefix (at once where phi
    links its parent's to a nonempty block) and the p4/p5 cap tuples; p2 is
    decided once per distinct block. p3 (every row entry under
    its cap) and p6 (forced growth) are decided on float64 arrays, and only a
    claim they cannot decide, or a violation, is summed exactly.

    Each node's row R holds, at every exponent p_0..p_dmax of the deepest
    level, its parent's row plus the ``math.fsum`` of its block's parts at
    that exponent (``_level_rows``); each distinct block is summed once per
    level with ``_power_sum_parts``. So the check reads parts stored on
    blocks only, and a phi, being linked, keeps none. R differs from the
    exact value the claims are about,
    S = ``math.fsum`` of all of its phi's parts, by

        |R - S| <= (length+1) * 2**-52 * R + length * 2**-1074.

    Proof. Let E be the exact sum of phi's parts and u = 2**-53. Every
    part is >= 0, so every exact partial sum on the way is at most E, and
    each rounding errs by at most u times its exact result: the exact row
    the walk starts from (the root's, or that of a phi that does not link
    to its parent's), the fsum of each block added since, each of at most
    ``length`` additions to the running row, and S itself. The start and
    the blocks' exact sums add up to E, so their roundings cost at most
    u*E together, the additions at most length*u*E and S at most u*E, each
    to first order in u. So |R - S| <= (length+2) * u * E * (1 + O(length*u))
    with E <= R * (1 + O(length*u)), which 2 * (length+1) * u * R exceeds
    at every length from 1 to 2**40. A sum of floats below the normal
    range is itself a float, so no rounding there errs; the term
    ``length * 2**-1074`` charges each block one subnormal step all the
    same, so that the bound never rests on that fact alone.

    A claim ``S + eta < cap`` (p3) therefore holds where it holds at the
    float above the rounded ``R + bound`` (``_surely_below``), since a
    rounded sum is monotone in its operands; p6, ``length + eta < S``,
    holds where it holds at the float below ``R - bound``
    (``_surely_above``). Any other claim, and a row that overflowed to
    inf, is decided by the exact per-node rule: S by ``pnorm_pow``, which
    reads phi's parts along its links, compared with ``certified_less``.
    Violations, each noting its string, are then merged in node order,
    and within a node as bookkeeping, phi-nonempty, p1, p2, p3 by row
    entry, p4/p5, p6; instances are counted once per level. p3 compares a
    row only against the caps a node has, so a short cap vector is a
    bookkeeping violation.
    """
    margin = cache.margin
    q = cache.ladder.q
    rep = CheckReport(f"construction-properties max_len={max_len}")
    root = cache.root
    # the root reaches no row, so it has no cap
    rep.add("bookkeeping", len(root.M) == 0, len(root.M), 0, note="sigma=()")
    if max_len < 1:
        return rep
    exps = cache.shape(max_len)[0]
    found = []  # a level's violations: (node index, order within the node, Check)

    def fail(k, order, label, lhs, rhs, i=None):
        tag = format(k, f"0{length}b")  # node k of the level has that string
        found.append((k, order, Check(label, False, lhs, rhs,
                                      tag if i is None else f"{tag} i={i}")))

    # the previous level's nodes and their rows
    nodes, rows = [root], np.array([[pnorm_pow(root.phi, p) for p in exps]])
    for length in range(1, max_len + 1):
        reach, l = cache.shape(length)  # p_0..p_d, and the level
        d = len(reach) - 1
        bound = 2.0 ** -length
        parents, nodes = nodes, []
        seen = {}  # by distinct block: [q-cost, p2 verdict, index in blocks or None]
        blocks, which, exact = [], [], {}
        caps, short = [], 0  # each node's caps padded to d+1 entries; caps it lacks
        for parent in parents:
            pphi = parent.phi
            for bit in (0, 1):
                k = len(nodes)
                node = _child(cache, parent, 1 << length | k, {})
                nodes.append(node)
                M, phi, block = node.M, node.phi, node.block
                if len(M) == d + 1:
                    caps.append(M)
                else:
                    fail(k, 0, "bookkeeping", len(M), d + 1)
                    short += max(d + 1 - len(M), 0)
                    caps.append(M[:d + 1] + (math.inf,) * (d + 1 - len(M)))
                if phi.length < 1:
                    fail(k, 0, "phi-nonempty", phi.length, 1)
                linked = phi.base is pphi and phi.block is block
                if not (linked and block.length or pphi.is_prefix_of(phi, proper=True)):
                    fail(k, 0, "p1-prefix", None, None)

                cost = seen.get(id(block))
                if cost is None:
                    s = math.fsum(_power_sum_parts(block, q))
                    cost = seen[id(block)] = [s, certified_less(s, bound, margin), None]
                if not cost[1]:
                    fail(k, 0, "p2-block-cost", cost[0], bound)
                if linked:
                    if cost[2] is None:
                        cost[2] = len(blocks)
                        blocks.append(block)
                    which.append(cost[2])
                else:
                    which.append(-1)
                    exact[k] = phi

                if bit == 0:
                    if length >= 2 and M[:len(parent.M)] != parent.M:
                        fail(k, 2, "p4-zero-stable", M, parent.M)
                elif l > 0 and M[:l] != parent.M[:l]:
                    fail(k, 2, "p5-one-stable", M[:l], parent.M[:l])
        rows = _level_rows(rows, blocks, which, exps, exact)

        n = len(nodes)
        caps = np.fromiter(itertools.chain.from_iterable(caps), np.float64, n * (d + 1))
        open_p3 = ~_surely_below(rows[:, :d + 1], length, caps.reshape(n, d + 1), margin)
        open_p6 = ~_surely_above(float(length), rows[1::2, l], length, margin)
        for k, i in np.argwhere(open_p3).tolist():
            node = nodes[k]
            if i < len(node.M):  # a padded entry is no claim
                s = pnorm_pow(node.phi, exps[i])
                if not certified_less(s, float(node.M[i]), margin):
                    fail(k, 1, "p3-caps", s, node.M[i], i)
        for k in (2 * np.flatnonzero(open_p6) + 1).tolist():
            node = nodes[k]
            s = pnorm_pow(node.phi, exps[l])
            if not certified_less(float(length), s, margin):
                fail(k, 3, "p6-forced-growth", s, length)
        found.sort(key=lambda f: f[:2])
        rep.checks += [check for _, _, check in found]
        found.clear()

        # A new label enters the report where a node-by-node count would
        # first meet it: the 0-node first (p4), then the 1-node (p5, p6),
        # with p3 at the first node that has caps.
        half = len(parents)
        first_caps = next((k for k, node in enumerate(nodes) if node.M), 0)
        tallies = [
            (0, "bookkeeping", n), (0, "phi-nonempty", n), (0, "p1-prefix", n),
            (0, "p2-block-cost", n),
            (first_caps, "p3-caps", n * (d + 1) - short),
            (0, "p4-zero-stable", half if length >= 2 else 0),
            (1, "p5-one-stable", half if l > 0 else 0),
            (1, "p6-forced-growth", half),
        ]
        for _, label, count in sorted(tallies, key=lambda t: t[0]):
            rep.count(label, count)
    cache.depth = max(cache.depth, max_len)
    return rep


def cache_stats(cache):
    """Node count plus size measures (window lengths are exact ints)."""
    nodes = [node for _, node in held(cache)]
    segs = [seg for node in nodes for seg in node.block.segments]
    windows = [seg.length for seg in segs if not isinstance(seg, Literal)]
    return {
        "nodes": len(nodes),
        "max_phi_length": max(node.phi.length for node in nodes),
        "literal_entries": sum(seg.length for seg in segs if isinstance(seg, Literal)),
        "window_segments": len(windows),
        "window_entries": sum(windows),
    }


# ---------------------------------------------------------------------------
# Cache export / import
# ---------------------------------------------------------------------------

def int_text(n):
    """n in decimal, or in hex (``0x...``) where decimal would pass Python's
    limit on int-to-string conversion, which hex is exempt from."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


def _parse_int(text):
    """An int as ``int_text`` writes it, and read no other way."""
    n = int(text, 16) if text.startswith("0x") else int(text)
    if int_text(n) != text:
        raise ValueError(f"an int must read as int_text writes it, got {text!r}")
    return n


def _parse_float(text):
    """A float as its ``repr``, and read no other way."""
    x = float(text)
    if repr(x) != text:
        raise ValueError(f"a float must read as its repr, got {text!r}")
    return x


def _format_segments(fs):
    parts = []
    for seg in fs.segments:
        if isinstance(seg, Literal):
            parts.append("L:" + ",".join(repr(v) for v in seg.values))
        else:
            parts.append(f"W:{seg.p_bottom!r},{seg.scale!r},"
                         f"{int_text(seg.n_start)},{int_text(seg.n_end)}")
    return ";".join(parts)


def _parse_segments(text):
    """The segments ``_format_segments`` writes as text, each number read
    only as it writes it."""
    segs = []
    if text:
        for part in text.split(";"):
            kind, _, body = part.partition(":")
            if kind == "L":
                segs.append(finite_literal(map(_parse_float, body.split(","))))
            elif kind == "W":
                pb, sc, n0, n1 = body.split(",")
                segs.append(PowerWindow(_parse_float(pb), _parse_int(n0), _parse_int(n1),
                                        _parse_float(sc)))
            else:
                raise ValueError(f"unknown segment kind {kind!r}")
    return tuple(segs)


# Two v1 header keys name settings the construction no longer has. Each is
# written with, and read only at, the value every build used: no explicit
# ladder prefix, and a search step budget of 10**8, which never bound.
_FIXED_HEADER = {"explicit": "-", "step_budget": "100000000"}


def _header(cache):
    """The lines of an export's header."""
    return ["# lprl-cache v1",
            f"# a={cache.ladder.a!r} q={cache.ladder.q!r} explicit={_FIXED_HEADER['explicit']}",
            f"# eta={cache.margin.eta!r} step_budget={_FIXED_HEADER['step_budget']}"]


def export_cache(cache, path):
    """Write every node the cache holds (``held``) as structured text,
    deterministically.

    One record per string: bits, cap vector, and the phi segments at full
    (round-trip exact) precision. Records are in (length, bits) order, so
    identical configurations export byte-identical files. A node's phi is
    its parent's followed by its block, so its text is the parent's text,
    ``;`` and the block's segments: only the block is formatted.
    """
    lines, texts = _header(cache), {1: ""}  # texts by key (``_child``)
    for key, node in held(cache):
        if key > 1:
            head, block = texts[key >> 1], _format_segments(node.block)
            texts[key] = f"{head};{block}" if head else block
        mvec = ",".join(str(m) for m in node.M)
        lines.append(f"{bin(key)[3:] or '-'}|M={mvec}|phi={texts[key]}")
    return write_output(path, "\n".join(lines) + "\n")


# the flags of open(path, "wb"), as os.open takes them, with its mode 0o666
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def write_output(path, text):
    """Write ``text`` to ``path`` as a new file, untranslated; return the path.

    An old file is unlinked, not truncated, which costs far less on ext4.
    So a link at ``path`` is replaced and its target kept, and a crash can
    leave a partial file but never an earlier, longer file's tail. The
    parent directory is made only when the write finds it missing. The
    bytes go through ``os.write``, called again after a short write until
    all have landed.
    """
    path, data = Path(path), memoryview(text.encode())
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    try:
        fd = os.open(path, _NEW_FILE, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _NEW_FILE, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    return path


_HEADER_KEYS = ("a", "q", "explicit", "eta", "step_budget")
_ROOT_RECORD = "-|M=|phi="
# an M= field as export_cache writes it: ASCII naturals, no sign or leading 0
_CAPS_FIELD = re.compile(r"M=(?:(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*)?")


@_gc_held
def import_cache(path):
    """Rebuild a ConstructionCache from an exported file, in one pass.

    Only text that ``export_cache`` writes is read, so every accepted file,
    with no exemption, re-exports to itself byte for byte: the header's
    lines as export writes them (each value its float's ``repr``, or
    ``_FIXED_HEADER``'s), then one ``\\n``-ended record per line, the root's
    ``-|M=|phi=`` first and the rest in strict (length, bits) order. Each
    record's node is its parent's child, below a root of the cache's own,
    and the depth is the last record's length.

    Each node's phi links its parent's phi to its block, as in a built tree.
    A record's phi field must be its parent's followed by ``;`` and the
    block, as ``export_cache`` writes it, and is compared with the parent's
    in place. Any other record is refused, among them one that merges the
    parent's last run with new entries: its entries extend the parent's, but
    no block of whole segments does. Only the block is parsed, once per
    distinct block text, each number as ``_format_segments`` writes it, and
    records with equal block texts share one block object; ``L:0.0`` is
    ``_ZERO_BLOCK``, as in a built tree. Each distinct ``M=`` field is
    parsed once, and must read as ``export_cache`` writes its caps
    (``_CAPS_FIELD``). Every refusal names the file, and its line.
    """
    data = Path(path).read_bytes()
    try:
        lines = data.decode().split("\n")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None
    if lines[0] != "# lprl-cache v1":
        raise ValueError(f"{path}: line 1: not a cache file")
    if lines.pop():
        raise ValueError(f"{path}: line {len(lines) + 1}: the last line does not end in a newline")
    meta, first = {}, len(lines) + 1  # first: the first record's line number
    for lineno, line in enumerate(lines[1:], 2):
        if not line.startswith("# "):
            first = lineno
            break
        for tok in line[2:].split():
            key, _, val = tok.partition("=")
            if key not in _HEADER_KEYS:
                raise ValueError(f"{path}: line {lineno}: unknown header key {key!r}")
            if key in meta:
                raise ValueError(f"{path}: line {lineno}: header key {key!r} given twice")
            meta[key] = val
    for key in _HEADER_KEYS:
        if key not in meta:
            raise ValueError(f"{path}: line {first}: header is missing the key {key!r}")
    try:
        a, q, eta = (float(meta[key]) for key in ("a", "q", "eta"))
        cache = ConstructionCache(ExpLadder(a, q), Margin(eta))
        header = _header(cache)
        if lines[:first - 1] != header:
            raise ValueError(f"its lines must read {header[1:]!r}")
    except ValueError as err:
        given = " ".join(f"{key}={meta[key]}" for key in _HEADER_KEYS)
        raise ValueError(f"{path}: bad header {given!r} on lines 2-{first - 1}: {err}") from None
    cache.root = Node(EMPTY, (), EMPTY)
    # By each record's bits text (the root's is ""): its node, its key
    # (``_child``), and the start of its children's phi fields (its own, and ";")
    records = {}
    caps_of = {}  # one caps tuple per distinct M= field
    blocks = {"L:0.0": _ZERO_BLOCK}  # one block per distinct block text
    key = 0  # the last record's
    for lineno, line in enumerate(lines[first - 1:], first):
        try:
            bits_text, m_text, phi_text = line.split("|")
        except ValueError:
            what = ("a header line after the first record" if line.startswith("# ")
                    else f"a record needs exactly three '|' fields, got {line!r}")
            raise ValueError(f"{path}: line {lineno}: {what}") from None
        try:
            if not phi_text.startswith("phi="):  # M= is checked by _CAPS_FIELD
                raise ValueError("fields must read bits|M=...|phi=...")
            if not bits_text:
                raise ValueError("the bits field is empty; the root's reads '-'")
            # most records are a record's bits and one bit more; any other
            # bits field gets ``bitstring``'s verdict
            parent, bit = records.get(bits_text[:-1]), _BIT_OF.get(bits_text[-1])
            if (parent is None or bit is None) and bits_text != "-":
                bitstring(bits_text)
            caps = caps_of.get(m_text)
            if caps is None:
                if _CAPS_FIELD.fullmatch(m_text) is None:
                    raise ValueError(f"caps must read as export_cache writes them, got {m_text!r}")
                text = m_text[2:]
                caps = caps_of[m_text] = tuple(map(int, text.split(","))) if text else ()
            start = "phi=" if parent is None else parent[2]
            block = None
            if phi_text.startswith(start):
                block_text = phi_text[len(start):]
                block = blocks.get(block_text)
                if block is None:
                    block = blocks[block_text] = FinSeq(_parse_segments(block_text))
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: bad record {line!r}: {err}") from None
        if bits_text in records or bits_text == "-" and records:
            raise ValueError(f"{path}: line {lineno}: a second record for {bits_text}")
        if bits_text == "-":
            if line != _ROOT_RECORD:
                raise ValueError(
                    f"{path}: line {lineno}: the root record must read "
                    f"{_ROOT_RECORD!r}, got {line!r}")
            records[""], key = (cache.root, 1, "phi="), 1
            continue
        if parent is None:
            raise ValueError(
                f"{path}: line {lineno}: record for {bits_text} appears before its parent")
        if 2 * parent[1] + bit < key:
            raise ValueError(
                f"{path}: line {lineno}: record for {bits_text} is out of (length, bits) order")
        if block is None:
            raise ValueError(
                f"{path}: line {lineno}: phi at {bits_text} does not extend its parent")
        key = 2 * parent[1] + bit
        # FinSeq(block, base=...) by position, which calls faster than by keyword
        node = Node(FinSeq(block, parent[0].phi), caps, block)
        if bit:
            parent[0].kid1 = node
        else:
            parent[0].kid0 = node
        records[bits_text] = (node, key, phi_text + ";" if phi_text != "phi=" else phi_text)
    if not records:
        raise ValueError(f"{path}: line {first}: no records; the first must read {_ROOT_RECORD!r}")
    cache.depth = key.bit_length() - 1
    return cache

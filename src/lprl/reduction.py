"""Path reductions: blocks along a point's path and the membership dichotomy.

A point of the binary sequence space is described finitely by an
AlphaSpec: per-row one-patterns under the diagonal grid, all-zero by
default. The pattern classes keep membership in the target class
decidable: a point is "eventually zero in every row" exactly when every
declared row has finitely many ones.

Following a point's bits through the tree construction yields blocks
u_0, u_1, ... whose q-costs are geometrically summable; the checks here
certify, at finite scale and with the margin of the cache they are given,
the block bound, unit-ball containment, continuity modulus, cap
stabilization along good rows, and forced divergence along bad ones.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .construction import walk_path
from .errors import PreconditionError
from .grid import pair, unpair
from .reports import Check, CheckReport
from .seqspace import certified_less, pnorm_pow


# ---------------------------------------------------------------------------
# Row patterns and point specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteOnes:
    """Ones exactly at the given (finite) set of columns."""

    cols: frozenset

    def __post_init__(self):
        object.__setattr__(self, "cols", frozenset(int(c) for c in self.cols))
        if any(c < 0 for c in self.cols):
            raise ValueError("columns must be naturals")

    infinite = False

    def bit(self, j):
        return 1 if j in self.cols else 0

    def ones(self):
        yield from sorted(self.cols)

    def zero_from(self):
        return max(self.cols) + 1 if self.cols else 0


@dataclass(frozen=True)
class EventuallyOne:
    """Ones at every column from j_start on."""

    j_start: int = 0

    def __post_init__(self):
        if self.j_start < 0:
            raise ValueError("j_start must be a natural")

    infinite = True

    def bit(self, j):
        return 1 if j >= self.j_start else 0

    def ones(self):
        j = self.j_start
        while True:
            yield j
            j += 1


@dataclass(frozen=True)
class PeriodicOnes:
    """Ones at columns j >= j_min with j = residue (mod modulus)."""

    residue: int
    modulus: int
    j_min: int = 0

    def __post_init__(self):
        if self.modulus < 1 or not (0 <= self.residue < self.modulus) or self.j_min < 0:
            raise ValueError(
                f"need modulus >= 1, 0 <= residue < modulus, j_min >= 0: {self}")

    infinite = True

    def bit(self, j):
        return 1 if j >= self.j_min and j % self.modulus == self.residue else 0

    def ones(self):
        j = self.j_min + (self.residue - self.j_min) % self.modulus
        while True:
            yield j
            j += self.modulus


@dataclass(frozen=True)
class AlphaSpec:
    """Finite description of a full binary point: row index -> pattern."""

    rows: tuple  # sorted ((index, pattern), ...)

    @classmethod
    def from_rows(cls, mapping):
        items = []
        for i, pat in dict(mapping).items():
            i = int(i)
            if i < 0:
                raise ValueError("row indices must be naturals")
            if not isinstance(pat, (FiniteOnes, EventuallyOne, PeriodicOnes)):
                raise TypeError(f"unknown row pattern {pat!r}")
            items.append((i, pat))
        return cls(tuple(sorted(items)))

    def row_pattern(self, i):
        for idx, pat in self.rows:
            if idx == i:
                return pat
        return None


def alpha_bit(spec, n):
    """The point's bit at position n: unpair and evaluate the row pattern."""
    i, j = unpair(n)
    pat = spec.row_pattern(i)
    return pat.bit(j) if pat is not None else 0


def in_p3(spec):
    """True iff every declared row has finitely many ones."""
    return all(not pat.infinite for _, pat in spec.rows)


def diagonal_bits(spec, start=0):
    """The point's bits from position ``start`` on, lazily and without end.

    The n-th bit yielded is ``alpha_bit(spec, start + n)``. The grid is read
    one diagonal d = i + j at a time, from row d down to row 0 as ``pair``
    orders it, so only ``start`` is unpaired, and each position costs one
    dict lookup of its row's pattern.
    """
    bit_of = {i: pat.bit for i, pat in spec.rows}
    i, j = unpair(start)
    d = i + j
    while True:
        for j in range(j, d + 1):
            bit = bit_of.get(d - j)
            yield 0 if bit is None else bit(j)
        d, j = d + 1, 0


def _bits_to(spec, k):
    """Positions 0..k of the point's bits, lazily; none for k < 0. The
    count is clamped at ``sys.maxsize``, which no walk reaches."""
    return itertools.islice(diagonal_bits(spec), max(0, min(k + 1, sys.maxsize)))


def path_bits(spec, k):
    """The first k+1 bits of the point described by spec, as a tuple; the
    walks below read the same bits lazily, as they build each node."""
    return tuple(_bits_to(spec, k))


def path_rows(cache, spec, k, exps):
    """The nodes u_0..u_k of spec's path, each with its power sums at exps.

    One walk, as a list of ``(node, {p: sum})`` in exps' order. The bits
    are read lazily (``diagonal_bits``), so a walk refused at some node has
    read no bit past it. Each sum is ``math.fsum`` of the parts the walk
    carries, so it is ``pnorm_pow(node.phi, p)`` bit for bit. A node whose
    parts equal the previous node's shares its dict: a 0-node's zeros add
    no part, so it shares its parent's sums, and a reader may format such
    a row once. The checks below take such a list, so that ``lprl trace``
    and ``lprl verify`` walk each path once.
    """
    rows, last, sums = [], None, None
    # from the root's parts: its phi is empty
    for node, carried in walk_path(cache, _bits_to(spec, k), None, dict.fromkeys(exps, ())):
        parts = [carried[p] for p in exps]
        if parts != last:
            last, sums = parts, dict(zip(exps, map(math.fsum, parts)))
        rows.append((node, sums))
    return rows


# ---------------------------------------------------------------------------
# Blocks and the checks along a path
# ---------------------------------------------------------------------------

def f_blocks(cache, spec, k):
    """Blocks u_0..u_k of the reduced point; they concatenate to the path's phi."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return tuple(node.block for node, _ in walk_path(cache, _bits_to(spec, k)))


def unit_ball_check(cache, path):
    """Certify the per-block q-cost bound and unit-ball containment.

    ``path`` is u_0..u_k as ``path_rows`` gives it; only its nodes are read.
    Each block u_t must cost strictly less than 2**-(t+1) in q power, so
    the cumulative cost stays under the geometric partial sum, hence
    under 1. Only a violated block bound makes a ``Check``; the bound is
    counted once, before the two cumulative claims.
    """
    k = len(path) - 1
    rep = CheckReport(f"unit-ball k={k}", keep_passing=False)
    costs = [pnorm_pow(node.block, cache.ladder.q) for node, _ in path]
    for t, c in enumerate(costs):
        bound = 2.0 ** -(t + 1)
        if not certified_less(c, bound, cache.margin):
            rep.checks.append(Check("block-q-bound", False, c, bound, f"t={t}"))
    rep.count("block-q-bound", len(costs))
    cumulative = math.fsum(costs)
    geometric = 1.0 - 2.0 ** -(k + 1)
    rep.add("cumulative-under-geometric", certified_less(cumulative, geometric, cache.margin),
            cumulative, geometric)
    rep.add("cumulative-under-one", certified_less(cumulative, 1.0, cache.margin),
            cumulative, 1.0)
    return rep


def continuity_check(cache, spec_a, spec_b, agree_to, k_extra):
    """Certify the continuity modulus on two points agreeing to position agree_to.

    Their blocks must agree past agree_to: the first differing one, u_d, has
    d > agree_to. With k = agree_to + k_extra, each tail from d costs at most
    C = the q-costs of u_d..u_k plus 2**-(k+1) for the blocks past k, so the
    full distance is at most C_a**(1/q) + C_b**(1/q) (Minkowski, q >= 1), or
    C_a + C_b in the power-sum metric (q < 1); equal specs are at distance 0.
    It must sit under 2 * 2**-(agree_to+1)/q, or 2 * 2**-(agree_to+1) for
    q < 1. Only block descriptors are summed; nothing is materialized.
    """
    for n in range(agree_to + 1):
        if alpha_bit(spec_a, n) != alpha_bit(spec_b, n):
            raise ValueError(f"specs disagree at position {n} <= agree_to={agree_to}")
    k_total = agree_to + k_extra
    blocks_a = f_blocks(cache, spec_a, k_total)
    blocks_b = f_blocks(cache, spec_b, k_total)
    rep = CheckReport(f"continuity agree_to={agree_to} k_extra={k_extra}", keep_passing=True)
    d = next((t for t in range(k_total + 1) if blocks_a[t] != blocks_b[t]), k_total + 1)
    rep.add("shared-blocks-identical", d > agree_to, note=f"t<={agree_to}")
    q = cache.ladder.q
    c_a, c_b = (0.0, 0.0) if spec_a == spec_b else (
        math.fsum([pnorm_pow(u, q) for u in blocks[d:]] + [2.0 ** -(k_total + 1)])
        for blocks in (blocks_a, blocks_b))
    if q >= 1:
        dist = c_a ** (1.0 / q) + c_b ** (1.0 / q)
        bound = 2.0 * 2.0 ** (-(agree_to + 1) / q)
    else:
        dist = c_a + c_b
        bound = 2.0 * 2.0 ** -(agree_to + 1)
    rep.add("tail-distance", certified_less(dist, bound, cache.margin), dist, bound)
    return rep


class DivergenceWitness(NamedTuple):
    prefix_len: int
    norm_value: float


def check_divergence_target(target):
    """Refuse a divergence target that is not finite, or negative: every
    prefix clears a negative target, so it certifies nothing."""
    if not (math.isfinite(target) and target >= 0.0):
        raise ValueError(f"divergence target must be finite and >= 0, got {target!r}")


def divergence_witness(cache, spec, row, target, path):
    """Walk the ones of a bad row until the row-exponent power sum beats target.

    Each one-bit at grid cell (row, j) forces the power sum at that row's
    exponent past the cell index plus one, so the walk certifiably clears
    any finite target; the returned value is an independent re-summation
    of the winning prefix. The path is walked once, lazily, from one of
    the row to the next, and a one whose q-cost budget 2**-(position+1)
    underflows to 0.0 is refused before the walk reaches it. Targets are
    checked by ``check_divergence_target``.

    ``path`` is u_0..u_k, the path walked so far, as ``path_rows`` gives
    it: its nodes are read as they are, and its sums where they include
    the row's exponent. The walk goes on from u_k.
    """
    check_divergence_target(target)
    pat = spec.row_pattern(row)
    if pat is None or not pat.infinite:
        raise ValueError(f"row {row} does not carry infinitely many ones")
    p = cache.ladder.exponent(row)
    key, end = 1, cache.root  # u_k's key (``construction._child``), by the path's links
    for node, _ in path:
        key, end = 2 * key + (node is end.kid1), node
    later = walk_path(cache, diagonal_bits(spec, len(path)), end, None, key)
    steps = enumerate(itertools.chain(path, ((node, ()) for node, _ in later)))
    value = None
    for j in pat.ones():
        pos = pair(row, j)
        if math.ldexp(1.0, -(pos + 1)) == 0.0:  # 2.0 ** -(pos + 1), for any int pos
            if value is None:
                raise PreconditionError(
                    f"row {row}'s first one is at position {pos}, where the block "
                    f"budget 2**-{pos + 1} underflows to 0.0")
            raise PreconditionError(
                f"row {row}'s next one is at position {pos}, where the block "
                f"budget 2**-{pos + 1} underflows to 0.0; the power sum so far "
                f"is {value!r}")
        node, sums = next(step for n, step in steps if n == pos)
        value = sums[p] if p in sums else pnorm_pow(node.phi, p)
        if certified_less(target, value, cache.margin):
            return DivergenceWitness(node.phi.length, value)


def stabilization_check(cache, spec, i, path):
    """Certify that the cap at row i freezes along a good point's path.

    ``path`` is u_0..u_k as ``path_rows`` gives it, with sums at p_i, so a
    caller that checks several rows, or prints the path too, walks it
    once. From the first position where rows 0..i have gone permanently
    zero, every longer prefix to k must keep the identical cap M_i, and
    every prefix power sum at p_i must stay certifiably below it. Each
    claim is tested at every node, but only a violation makes a
    ``Check``, noting its node's k; each family is counted once,
    cap-stable first.
    """
    if not in_p3(spec):
        raise ValueError("stabilization applies only to eventually-zero-row specs")
    j0 = 0
    for r in range(i + 1):
        pat = spec.row_pattern(r)
        if pat is not None:
            j0 = max(j0, pat.zero_from())
    n_stable = pair(i, j0)
    rep = CheckReport(f"stabilization i={i} j0={j0}", keep_passing=False)
    max_k = len(path) - 1
    if n_stable > max_k:
        rep.add("in-range", True, n_stable, max_k,
                note="stabilization index beyond max_k; nothing to check")
        return rep
    p_i = cache.ladder.exponent(i)
    m_ref = path[n_stable][0].M[i]
    for k, (node, sums) in enumerate(path[n_stable:], n_stable):
        if node.M[i] != m_ref:
            rep.checks.append(Check("cap-stable", False, node.M[i], m_ref, f"k={k}"))
        if not certified_less(sums[p_i], float(m_ref), cache.margin):
            rep.checks.append(Check("prefix-bounded", False, sums[p_i], m_ref, f"k={k}"))
    for label in ("cap-stable", "prefix-bounded"):
        rep.count(label, len(path) - n_stable)
    return rep


# ---------------------------------------------------------------------------
# Fixed verification corpus
# ---------------------------------------------------------------------------

def standard_corpus():
    """Eight fixed specs: four with every row eventually zero, four without.

    Rows at index <= 2 keep their ones in columns <= 1, which pins the
    stabilization positions for i <= 2 inside a depth-12 path.
    """
    return (
        AlphaSpec.from_rows({}),
        AlphaSpec.from_rows({0: FiniteOnes(frozenset({0}))}),
        AlphaSpec.from_rows({1: FiniteOnes(frozenset({0, 1})), 3: FiniteOnes(frozenset({0}))}),
        AlphaSpec.from_rows({0: FiniteOnes(frozenset({1})), 2: FiniteOnes(frozenset({0}))}),
        AlphaSpec.from_rows({0: EventuallyOne(0)}),
        AlphaSpec.from_rows({1: PeriodicOnes(0, 2, 0)}),
        AlphaSpec.from_rows({2: PeriodicOnes(1, 3, 0)}),
        AlphaSpec.from_rows({0: FiniteOnes(frozenset({0, 1})), 3: EventuallyOne(1)}),
    )


def bad_row(spec):
    """The least row with infinitely many ones, or None."""
    for i, pat in spec.rows:
        if pat.infinite:
            return i
    return None

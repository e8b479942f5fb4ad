"""Finite-sequence numerics: power sums, metrics, and certified comparison.

Sequences are finite lists of reals, identified with their zero-padded
infinite extensions whenever two sequences of different length meet in a
binary operation. A sequence is a tuple of segments: explicit
float runs, or descriptor windows of the canonical generator
``x_n = scale * (n+1)**(-1/p_bottom)``. Window descriptors let the tree
construction carry blocks whose entry counts are far beyond anything that
can be materialized; their power sums are evaluated analytically once the
window is too long for direct summation: harmonic-number differences for
exponent 1, otherwise Euler-Maclaurin summation in mpmath, stopped at the
first correction below 2**-(prec+8) of the sum (every even derivative of
x**-c is positive, so that correction bounds the remainder), at a working
precision that grows with the endpoints' digits. All of this is one
kernel, ``_range_power_sum(c, a, b)``, one exponent per request,
memoized process-wide by those arguments. Its numpy regime sums in leaves
split as ``np.sum`` splits, so millions of terms give ``np.sum``'s value in
one 0.25 MB leaf, and it keeps the sums of the halves on the right edge of
its splits, so a window one term longer than one summed before sums little
more than its last leaf.

A sequence made by ``concat`` links to the sequence it extends and to the
block it appends, with no segment tuple and no power-sum parts: its
per-segment parts are those of the unlinked start of its links, then each
block's, read along the links. Only an unlinked sequence keeps its parts,
per exponent, so a block that many sequences append is summed once; a
tree walk carries each node's (``construction.walk_path``). A part that is
exactly 0.0 is left out, so a block of zeros adds none. A power sum is
``math.fsum`` of the parts, which ignores +0.0, so it is the ``math.fsum``
over all of the sequence's segments' parts.

Every strict inequality that matters downstream goes through
``certified_less`` with an explicit margin, so a float rounding step can
never silently flip a strictness claim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import PreconditionError, ResourceLimitError

# Windows at most this long are summed directly (fsum below FSUM_CUTOFF,
# vectorized beyond); longer windows go through the analytic path.
FSUM_CUTOFF = 4096
DIRECT_CUTOFF = 1 << 22
# Largest index whose float64 image is still exact; windows beyond this
# can never be materialized entry by entry.
MAX_EXACT_INDEX = 1 << 52
# Cap on explicit materialization and entrywise comparison (entries).
MATERIALIZE_LIMIT = 1 << 26

DEFAULT_ETA = 2.0 ** -20


@dataclass(frozen=True)
class Margin:
    """Slack for strict inequalities under floating-point evaluation."""

    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"margin eta must be finite and >= 0, got {self.eta!r}")


DEFAULT_MARGIN = Margin()


def certified_less(lhs, rhs, margin):
    """True iff ``lhs + eta < rhs``: strictness that survives rounding noise."""
    return lhs + margin.eta < rhs


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """An explicit run of float entries."""

    values: tuple

    @property
    def length(self):
        return len(self.values)


@dataclass(frozen=True)
class PowerWindow:
    """Entries ``scale * (n+1)**(-1/p_bottom)`` for n in [n_start, n_end]."""

    p_bottom: float
    n_start: int
    n_end: int
    scale: float = 1.0

    def __post_init__(self):
        if self.n_end < self.n_start or self.n_start < 0:
            raise ValueError(f"bad window range [{self.n_start}, {self.n_end}]")
        if not (0 < self.p_bottom < math.inf and 0 <= self.scale < math.inf):
            raise ValueError(
                f"window needs finite p_bottom > 0 and scale >= 0, "
                f"got p_bottom={self.p_bottom!r}, scale={self.scale!r}")

    @property
    def length(self):
        return self.n_end - self.n_start + 1

    def values(self, t=0, count=None):
        """Entries t..t+count-1 (default: to the window's end) as a float64 array.

        The one evaluator of window entries: ``entry``, ``FinSeq.to_array``,
        ``materialize`` and equality all read through it. Its vectorized
        numpy power can differ from Python's scalar ``**`` in the last bit,
        so no entry is computed any other way.
        """
        if count is None:
            count = self.length - t
        m_start = self.n_start + t + 1
        if m_start + count - 1 > MAX_EXACT_INDEX:
            raise ResourceLimitError(
                f"window index {m_start + count - 2} exceeds exact float range; "
                "entries of this window exist only as a descriptor")
        return self._in_place(np.arange(m_start, m_start + count, dtype=np.float64))

    def _in_place(self, m):
        # in place: windows can hold tens of millions of entries
        m **= -1.0 / self.p_bottom
        m *= self.scale
        return m

    def entry(self, t):
        return float(self.values(t, 1)[0])

    def max_entry(self):
        # entries are positive and decreasing in n; the sup needs no exact index
        return float(self._in_place(np.array([self.n_start + 1.0]))[0])


# --- power sums -------------------------------------------------------------

# The kernel memoizes its results by its own arguments (c, a, b): a window
# power sum, a search probe and the re-check of a block meet the same keys,
# and windows of ladders that differ by a power of two share their ratios
# c. The memo is process-wide: its hits come from across caches (a fresh
# one per trace request or import), and clearing it per cache made trace
# passes 2.7x, rechecks 2x slower.
_WINDOW_SUM_CACHE = {}


def _window_power_sum(win, p):
    factor = win.scale ** p
    if factor == 0.0:
        return 0.0
    return factor * _range_power_sum(p / win.p_bottom, win.n_start + 1, win.n_end + 1)


def _range_power_sum(c, a, b=None):
    """sum_{m=a}^{b} m**(-c); ``b=None`` means the tail sum_{m>=a} (c > 1).

    The one summation kernel: window power sums, the witness searches and
    their re-check all go through it, and it memoizes its results by
    ``(c, a, b)`` (a call that raises stores nothing). Windows of at most
    ``DIRECT_CUTOFF`` terms are summed directly (fsum up to ``FSUM_CUTOFF``
    terms, ``_pairwise_sum`` above); longer windows and tails are
    evaluated analytically.
    """
    out = _WINDOW_SUM_CACHE.get((c, a, b))
    if out is None:
        if b is None or b - a >= DIRECT_CUTOFF or b >= MAX_EXACT_INDEX:
            out = _analytic_range_sum(c, a, b)
        elif b - a < FSUM_CUTOFF:
            out = math.fsum((m + 0.0) ** (-c) for m in range(a, b + 1))
        else:
            fresh = {}
            out = _pairwise_sum(c, a, b - a + 1, fresh)
            _HALF_SUM_CACHE.update(fresh)
        _WINDOW_SUM_CACHE[(c, a, b)] = out
    return out


# Terms per leaf in ``_pairwise_sum``, and its leaves' offsets 0..2**15-1:
# a leaf is ``_IOTA[:n] + a``, exact below 2**52, in 0.25 MB.
_LEAF_TERMS = 1 << 15
_IOTA = np.arange(_LEAF_TERMS, dtype=np.float64)

# The left halves' sums along the right edge of ``_pairwise_sum``'s
# splits, by (c, a, n): at most one per level for each window, and the
# sums the next longer window of the same start reuses.
_HALF_SUM_CACHE = {}


def _pairwise_sum(c, a, n, fresh=None):
    """sum_{m=a}^{a+n-1} m**(-c) as ``np.sum`` over all n terms gives it.

    ``np.sum`` adds pairwise: a block of more than 128 terms is split
    after ``half = n // 2`` rounded down to a multiple of 8, and the
    halves' sums are added. Splitting the same way down to leaves of at
    most ``_LEAF_TERMS`` terms, each summed by ``np.sum``, is therefore the
    same sum bit for bit, in one leaf of memory.

    Where ``fresh`` is given (on the right edge of the split tree), each
    left half is looked up in ``_HALF_SUM_CACHE``, and a missing one is put
    in ``fresh``, which the kernel stores once the whole sum has succeeded:
    the memo grows by at most one entry per level (O(log n)) for each
    window. A window one term longer splits the same way unless a length on
    that edge is 15 mod 16, and then sums only its last leaf (two, where
    that leaf was full).
    """
    if n <= _LEAF_TERMS:
        m = _IOTA[:n] + a
        return float(np.sum(np.power(m, -c, out=m)))
    half = n // 2
    half -= half % 8
    if fresh is None:
        left = _pairwise_sum(c, a, half)
    else:
        left = _HALF_SUM_CACHE.get((c, a, half))
        if left is None:
            left = fresh[(c, a, half)] = _pairwise_sum(c, a, half)
    return left + _pairwise_sum(c, a + half, n - half, fresh)


def _analytic_range_sum(c, a, b=None):
    """sum_{m=a}^{b} m**(-c) by Euler-Maclaurin (harmonic numbers for c = 1).

    ``b=None`` gives the tail sum_{m>=a}, which needs c > 1; a divergent
    tail raises ValueError. The working precision is ``40 + 2*digits``
    decimal places, ``digits`` being the length of the larger endpoint,
    plus ``10 - log10|c - 1|`` more for c within 1e-3 of 1, so that no
    cancellation between the sum's parts reaches the returned float.

    Terms below ``A = max(a, c + 0.4*dps + 8)`` are added one by one; the
    head stops early once a term times m/(c-1), a bound on everything
    after it, is negligible. From A to B the sum is

        integral_A^B x**-c dx + (A**-c + B**-c)/2
            + sum_k B_2k/(2k)! * (c)_{2k-1} * (A**(1-c-2k) - B**(1-c-2k)),

    with the integral taken as ``A**(1-c) * expm1((1-c)*log1p((B-A)/A))
    / (1-c)`` (``A**(1-c)/(c-1)`` for a tail), stable for B near A and c
    near 1. Every even derivative of x**-c is positive, so the first
    omitted correction bounds the remainder; the series stops at the first
    correction below ``2**-(prec+8)`` of the running sum. The start past
    ``c + 0.4*dps`` makes the corrections fall that far before they grow
    again; were they to grow first, ArithmeticError is raised rather than
    a wrong sum returned.
    """
    if b is None and not c > 1.0:
        raise ValueError(f"the tail sum_(m>=a) m**-c diverges for c={c!r} <= 1")
    digits = int(math.log10((a if b is None else b) + 2)) + 1
    dps = 40 + 2 * digits
    if c != 1.0 and abs(c - 1.0) < 1e-3:
        dps += int(-math.log10(abs(c - 1.0))) + 10
    with mp.workdps(dps):
        if c == 1.0:
            return float(mp.harmonic(mpf(b)) - mp.harmonic(mpf(a - 1)))
        return float(_euler_maclaurin(c, a, b))


def _euler_maclaurin(c, a, b):
    """``_analytic_range_sum``'s series for c != 1, in the current mpmath precision."""
    tol = mpf(2) ** -(mp.prec + 8)
    start = max(a, math.ceil(c + 0.4 * mp.dps + 8))
    c = mpf(c)
    s = mpf(0)
    for m in range(a, start if b is None else min(start, b + 1)):
        t = mpf(m) ** -c
        s += t
        if c > 1 and t * m < tol * (c - 1) * s:
            return s
    if b is not None and b < start:
        return s
    A = mpf(start)
    B = mp.inf if b is None else mpf(b)
    fa, fb = A ** -c, B ** -c
    if b is None:
        integral = A * fa / (c - 1)
    else:
        integral = A * fa * mp.expm1((1 - c) * mp.log1p((b - start) / A)) / (1 - c)
    s += integral + (fa + fb) / 2
    # correction k from its factors: (c)_{2k-1}, (2k)! and A**(1-c-2k),
    # B**(1-c-2k) by repeated division
    rising, fact = c, mpf(2)
    fa, fb = fa / A, fb / B
    inv_a2, inv_b2 = 1 / (A * A), 1 / (B * B)
    last = mp.inf
    for k in itertools.count(1):
        term = mp.bernoulli(2 * k) / fact * rising * (fa - fb)
        size = abs(term)
        if size < tol * s:
            return s
        if size >= last:
            raise ArithmeticError(
                f"Euler-Maclaurin corrections for c={c}, a={a}, b={b} grew "
                f"before reaching 2**-{mp.prec + 8} of the sum")
        s += term
        last = size
        rising *= (c + 2 * k - 1) * (c + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        fa *= inv_a2
        fb *= inv_b2


# ---------------------------------------------------------------------------
# FinSeq
# ---------------------------------------------------------------------------

class FinSeq:
    """A finite sequence of reals: a tuple of segments, or a link.

    ``FinSeq(v, base=u)`` is u followed by the FinSeq v: it keeps the links
    to u and to v, its ``block``, and no segment tuple, so its ``segments``,
    u's then v's, are derived where they are read, and no power-sum parts
    (``_sums`` is None): an unlinked sequence keeps its own per exponent.

    Immutable by convention: nothing sets an attribute after ``__init__``,
    which sets each slot once. ``length`` is an exact int and may exceed
    anything materializable; entry access and materialization guard against
    that explicitly instead of overflowing.
    """

    __slots__ = ("_segs", "length", "base", "block", "_sums")

    def __init__(self, segments=(), base=None):
        if base is not None:
            self._segs = self._sums = None
            self.length = base.length + segments.length
            self.block = segments
        else:
            segs = tuple(segments)
            lengths = [s.length for s in segs]
            if 0 in lengths:
                segs = tuple(s for s, n in zip(segs, lengths) if n)
            self._segs, self.length, self.block = segs, sum(lengths), None
            self._sums = {}
        self.base = base

    @property
    def segments(self):
        """Its own tuple, or a linked sequence's built anew from its pieces."""
        if self.base is None:
            return self._segs
        return tuple(itertools.chain.from_iterable(x.segments for x in self._pieces()))

    def _pieces(self):
        """The unlinked sequence the links start from, then each block since."""
        blocks, x = [], self
        while x.base is not None:
            blocks.append(x.block)
            x = x.base
        return [x, *reversed(blocks)]

    # -- basic access --------------------------------------------------------

    def entry(self, i):
        if not (0 <= i < self.length):
            raise IndexError(f"index {i} out of range for length {self.length}")
        for seg in self.segments:
            n = seg.length
            if i < n:
                if isinstance(seg, Literal):
                    return seg.values[i]
                return seg.entry(i)
            i -= n
        raise AssertionError("unreachable")

    def materialize(self):
        return tuple(self.to_array().tolist())

    def to_array(self):
        if self.length > MATERIALIZE_LIMIT:
            raise ResourceLimitError(
                f"refusing to materialize {self.length} entries (limit {MATERIALIZE_LIMIT})")
        parts = [np.asarray(seg.values, dtype=np.float64) if isinstance(seg, Literal)
                 else seg.values() for seg in self.segments]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.float64)

    # -- structural comparison -----------------------------------------------

    def is_prefix_of(self, other, proper=False):
        """Entrywise initial-segment test, done on links and segments.

        If self is the first of other's chain of bases no longer than it,
        it is a prefix, so a tree node is decided against its parent by
        identity, with no segment tuple built. Otherwise ``_prefix_walk``
        compares the two segment tuples, piece by piece.
        """
        if self.length > other.length:
            return False
        if proper and self.length == other.length:
            return False
        y = other
        while y.base is not None and y.length > self.length:
            y = y.base
        return y is self or _prefix_walk(self.segments, other.segments, self.length)

    def __eq__(self, other):
        if not isinstance(other, FinSeq):
            return NotImplemented
        return self.length == other.length and self.is_prefix_of(other)

    # equality is entrywise (a window can equal a literal run), so there is
    # no cheap hash consistent with it
    __hash__ = None

    def __repr__(self):
        if self.length <= 8:
            try:
                return f"FinSeq({self.materialize()!r})"
            except ResourceLimitError:  # a window past 2**52 exists only as a descriptor
                pass
        count = sum(len(x.segments) for x in self._pieces())
        return f"FinSeq(<{self.length} entries, {count} segments>)"


def _prefix_walk(mine, theirs, need):
    """Whether the first ``need`` entries of two segment tuples are equal.

    Runs are split at boundaries. Aligned window pieces of one descriptor
    are equal, and so are two zero-scale window pieces; any other pair of
    pieces is equal only if their entries are (compared exactly: a
    differing first entry decides at once, otherwise up to
    ``MATERIALIZE_LIMIT`` entries; longer pieces raise ResourceLimitError).
    Both tuples must hold at least ``need`` entries.
    """
    i = j = 0
    off_i = off_j = 0  # consumed entries inside current run
    while need > 0:
        a, b = mine[i], theirs[j]
        take = min(a.length - off_i, b.length - off_j, need)
        if not _pieces_equal(a, off_i, b, off_j, take):
            return False
        need -= take
        off_i += take
        off_j += take
        if off_i == a.length:
            i += 1
            off_i = 0
        if off_j == b.length:
            j += 1
            off_j = 0
    return True


def _piece_entries(seg, off, count):
    """Entries off..off+count-1 of a segment, exactly as ``entry`` gives them."""
    if isinstance(seg, Literal):
        return np.asarray(seg.values[off:off + count], dtype=np.float64)
    return seg.values(off, count)


# Entries per numpy chunk when two differently stored runs are compared.
_COMPARE_CHUNK = 1 << 16


def _pieces_equal(a, off_a, b, off_b, count):
    if isinstance(a, Literal) and isinstance(b, Literal):
        return a.values[off_a:off_a + count] == b.values[off_b:off_b + count]
    if isinstance(a, PowerWindow) and isinstance(b, PowerWindow):
        if (a.p_bottom == b.p_bottom and a.scale == b.scale
                and a.n_start + off_a == b.n_start + off_b) or a.scale == 0.0 == b.scale:
            return True
    # different representations: compare the entries exactly, the first one
    # alone, then chunk by chunk
    if _piece_entries(a, off_a, 1)[0] != _piece_entries(b, off_b, 1)[0]:
        return False
    if count > MATERIALIZE_LIMIT:
        raise ResourceLimitError(
            f"refusing to compare {count} entries of two differently stored runs "
            f"(limit {MATERIALIZE_LIMIT})")
    for t in range(0, count, _COMPARE_CHUNK):
        size = min(_COMPARE_CHUNK, count - t)
        if not np.array_equal(_piece_entries(a, off_a + t, size),
                              _piece_entries(b, off_b + t, size)):
            return False
    return True


EMPTY = FinSeq(())


def finite_literal(values):
    """A Literal run of the given reals, refusing non-finite entries."""
    vals = tuple(map(float, values))
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"non-finite entry {v!r} in sequence")
    return Literal(vals)


def finseq(values):
    """Build an explicit FinSeq from an iterable of reals, validating finiteness."""
    lit = finite_literal(values)
    return FinSeq((lit,)) if lit.values else EMPTY


def as_finseq(x):
    if isinstance(x, FinSeq):
        return x
    return finseq(x)


def window_seq(p_bottom, n_start, n_end, scale=1.0):
    """A FinSeq consisting of one generator window."""
    return FinSeq((PowerWindow(p_bottom, n_start, n_end, scale),))


# ---------------------------------------------------------------------------
# Exponent ladders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpLadder:
    """The strictly decreasing exponents ``p_i = a + (q - a) * 2**-(i+1)``,
    from p_0 = (a+q)/2 down to the limit a."""

    a: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.q)):
            raise ValueError("a and q must be finite")
        if not (0.0 <= self.a < self.q):
            raise ValueError(f"need 0 <= a < q, got a={self.a}, q={self.q}")
        self.exponents(1)  # p_0 must round strictly between a and q

    def exponent(self, i):
        if i < 0:
            raise ValueError("ladder index must be >= 0")
        return self.a + (self.q - self.a) * 2.0 ** -(i + 1)

    def exponents(self, count):
        """p_0..p_{count-1}, each strictly between the one before it (q for
        p_0) and a; ValueError names the first that is not."""
        exps, above, name = [], self.q, "q"
        for i in range(count):
            p = self.exponent(i)
            if not self.a < p < above:
                raise ValueError(
                    f"the ladder of a={self.a!r}, q={self.q!r} stops decreasing at "
                    f"p_{i} = {p!r}: not strictly between {name} = {above!r} and a")
            exps.append(p)
            above, name = p, f"p_{i}"
        return tuple(exps)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def pnorm_pow(x, p):
    """sum_n |x(n)|**p, the p-th power sum of the zero-padded sequence.

    This is the workhorse quantity: for p >= 1 it is the p-th power of the
    p-norm, for 0 < p < 1 it is the translation-invariant metric distance
    to zero.

    The value is ``math.fsum`` of the per-segment parts (each run's own
    fsum, each window's ``_window_power_sum``) in segment order, and raises
    OverflowError where that does. The parts are those kept by the
    unlinked sequences along x's links.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0):
        raise ValueError(f"exponent must be a finite positive real, got {p!r}")
    return math.fsum(_power_sum_parts(as_finseq(x), p))


def _segment_power_sum(seg, p):
    if isinstance(seg, Literal):
        return math.fsum(abs(v) ** p for v in seg.values)
    return _window_power_sum(seg, p)


def _power_sum_parts(x, p):
    """x's per-segment power-sum parts at p, in segment order, less every
    part that is exactly 0.0.

    An unlinked x keeps them in ``_sums``, so each distinct block is summed
    once per exponent; a stored tuple may be empty. A linked x's are its
    pieces' (``_pieces``), read in one loop along its links, kept nowhere.
    """
    if x.base is not None:
        return tuple(itertools.chain.from_iterable(_power_sum_parts(y, p) for y in x._pieces()))
    parts = x._sums.get(p)
    if parts is None:
        parts = x._sums[p] = tuple(s for seg in x._segs if (s := _segment_power_sum(seg, p)))
    return parts


def concat(u, v):
    """u followed by v, as ``FinSeq(v, base=u)``.

    The result links to u and v and stores no segment tuple and no
    power-sum parts, so it costs the same at any length, and its prefix
    test against u finds u among its bases.
    """
    u = as_finseq(u)
    return FinSeq(as_finseq(v), base=u)


def scale(x, c):
    """Entrywise scaling by c >= 0."""
    c = float(c)
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"scale factor must be finite and >= 0, got {c!r}")
    x = as_finseq(x)
    segs = []
    for seg in x.segments:
        if isinstance(seg, Literal):
            segs.append(Literal(tuple(c * v for v in seg.values)))
        else:
            segs.append(PowerWindow(seg.p_bottom, seg.n_start, seg.n_end, seg.scale * c))
    return FinSeq(tuple(segs))


def difference(x, y):
    """The explicit zero-padded difference x - y as a FinSeq."""
    ax = as_finseq(x).to_array()
    ay = as_finseq(y).to_array()
    n = max(len(ax), len(ay))
    return finseq(np.pad(ax, (0, n - len(ax))) - np.pad(ay, (0, n - len(ay))))


def sup_norm(x):
    """max_n |x(n)|, 0 for the empty sequence. Never materializes windows."""
    x = as_finseq(x)
    best = 0.0
    for seg in x.segments:
        if isinstance(seg, Literal):
            m = max((abs(v) for v in seg.values), default=0.0)
        else:
            m = seg.max_entry()
        if m > best:
            best = m
    return best


def frechet_metric(x, y, ladder, terms):
    """Truncated product-style metric for the exponent family of ``ladder``.

    Returns ``(value, tail_bound)`` where value is
    ``sum_{i<terms} 2**-(i+1) * t_i / (1 + t_i)`` with t_i the p_i-norm of
    the difference when the base exponent is >= 1, and the p_i power-sum
    distance when it is < 1. Each summand is below 2**-(i+1), so the
    remaining tail is certified below 2**-terms.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    b = ladder.a
    if b < 1 and not ladder.exponent(0) < 1:
        raise PreconditionError(
            f"base {b} < 1 requires a ladder with p_0 < 1, got p_0={ladder.exponent(0)}")
    diff = difference(x, y)
    vals = []
    for i in range(terms):
        p = ladder.exponent(i)
        t = pnorm_pow(diff, p)
        if b >= 1:
            t = t ** (1.0 / p)
        vals.append(2.0 ** -(i + 1) * t / (1.0 + t))
    return math.fsum(vals), 2.0 ** -terms

"""Diagonal pairing of N^2 and the depth/level combinatorics of bit strings.

The pairing walks anti-diagonals upward: along the diagonal d = i + j the
cells are visited from row d down to row 0, so

    pair(i, j) = (i+j)(i+j+1)/2 + j.

Arranged on that grid, a finite binary string occupies the first lh(s)
cells. Its depth is the largest row it touches and its level is the row
holding its final cell; both follow from the triangular root of the last
index, and both drive the cap bookkeeping of the tree construction.
"""

from __future__ import annotations

from math import isqrt

from .reports import CheckReport


# a bit in each form it may take: an entry equal to 0 or 1, or its text
_BIT_OF = {0: 0, 1: 1, "0": 0, "1": 1}


def bitstring(bits):
    """Coerce to a canonical bit tuple. Each entry must equal 0 or 1, or be
    the text "0" or "1": 1.5, and a full-width or Arabic-Indic digit, which
    ``int`` would read, are refused."""
    bits = tuple(bits)
    out = tuple(map(_BIT_OF.get, bits))
    if None in out:
        raise ValueError(f"bit string entries must be 0 or 1, got {bits[out.index(None)]!r}")
    return out


def pair(i, j):
    """Index of cell (row i, column j) in the diagonal enumeration."""
    if i < 0 or j < 0:
        raise ValueError(f"pair needs naturals, got ({i}, {j})")
    d = i + j
    return (d * (d + 1) >> 1) + j


def unpair(n):
    """The unique (row, column) with pair(row, column) == n."""
    if n < 0:
        raise ValueError(f"unpair needs a natural, got {n}")
    d = (isqrt(8 * n + 1) - 1) >> 1
    j = n - (d * (d + 1) >> 1)
    return d - j, j


def depth(s):
    """Largest row touched by the string; -1 for the empty string."""
    n = len(s)
    if n == 0:
        return -1
    # rows are maximized at column 0 of each diagonal, so the answer is the
    # diagonal of the last occupied index
    return (isqrt(8 * (n - 1) + 1) - 1) >> 1


def level(s):
    """Row of the string's final cell; defined only for non-empty strings."""
    n = len(s)
    if n == 0:
        raise ValueError("level is undefined for the empty string")
    return unpair(n - 1)[0]


def extend_laws_check(s, bit):
    """Check the five depth/level transition laws on (s, s + (bit,)).

    Expected to return a report with zero violations for every non-empty
    binary string; the laws are what the cap bookkeeping of the tree
    construction relies on.
    """
    s = bitstring(s)
    if len(s) < 1:
        raise ValueError("extend_laws_check needs a non-empty string")
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    t = s + (bit,)
    ds, ls = depth(s), level(s)
    dt, lt = depth(t), level(t)
    rep = CheckReport(f"grid-laws lh={len(s)} bit={bit}")
    rep.add("level<=depth", ls <= ds, ls, ds)
    rep.add("depth-monotone", ds <= dt, ds, dt)
    rep.add("depth-step<=1", dt <= ds + 1, dt, ds + 1)
    if ls == 0:
        rep.add("level0-resets", lt == dt == ds + 1, (lt, dt), ds + 1)
    else:
        rep.add("level-descends", lt == ls - 1 and dt == ds, (lt, dt), (ls - 1, ds))
    return rep

"""Independent oracles: brute-force versions of the quantities under test.

Everything here is deliberately naive (enumeration walks, plain
accumulation loops) and shares no code with the implementation paths it
checks.
"""

import math


def pairing_by_scan(count):
    """The first ``count`` grid cells in diagonal-walk order.

    Walks each anti-diagonal from its highest row down to row zero, which
    is the enumeration the whole grid module must reproduce.
    """
    cells = []
    d = 0
    while len(cells) < count:
        for j in range(d + 1):
            cells.append((d - j, j))
            if len(cells) == count:
                break
        d += 1
    return cells


def depth_by_scan(length):
    if length == 0:
        return -1
    return max(i for i, _ in pairing_by_scan(length))


def level_by_scan(length):
    return pairing_by_scan(length)[-1][0]


def power_sum_plain(entries, p):
    """Left-to-right plain accumulation of |x|**p."""
    total = 0.0
    for x in entries:
        total += abs(x) ** p
    return total


def distance_plain(xs, ys, q):
    """Distance of two finite sequences, the shorter padded with zeros, by plain loop.

    The q-norm of the difference for q >= 1; its q power sum (the metric of
    the quasi-normed space) for q < 1.
    """
    total = 0.0
    for i in range(max(len(xs), len(ys))):
        x = xs[i] if i < len(xs) else 0.0
        y = ys[i] if i < len(ys) else 0.0
        total += abs(x - y) ** q
    return total ** (1.0 / q) if q >= 1 else total


def harmonic_first_crossing(n0, target):
    """Least n1 >= n0 with sum_{n=n0}^{n1} 1/(n+1) > target, by plain loop."""
    total = 0.0
    n = n0
    while True:
        total += 1.0 / (n + 1)
        if total > target:
            return n, total
        n += 1


def generator_tail_bracket(s, n0, terms=200000):
    """(lower, upper) bracket for sum_{n>=n0} (n+1)**-s via partial sum + integral."""
    head = sum((n + 1.0) ** -s for n in range(n0, n0 + terms))
    hi_start = n0 + terms
    upper_tail = hi_start ** (1.0 - s) / (s - 1.0)
    return head, head + upper_tail


def power_sum_mp(c, a, b=None, dps=80):
    """sum_{m=a}^{b} m**-c (the tail m >= a when b is None) in mpmath at fixed precision."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        if b is None:
            return float(mp.zeta(mpf(c), a))
        if c == 1.0:
            return float(mp.harmonic(b) - mp.harmonic(a - 1))
        return float(mp.zeta(mpf(c), a) - mp.zeta(mpf(c), b + 1))

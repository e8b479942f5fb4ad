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


def power_sum_zeta(c, a, b=None):
    """sum_{m=a}^{b} m**-c (the tail m >= a when b is None) by Hurwitz zeta differences.

    The analytic formula the summation kernel used before Euler-Maclaurin:
    harmonic numbers for c = 1, zeta(c, a) - zeta(c, b + 1) otherwise, at its
    working precision of 40 + 2*digits places (digits of the larger
    endpoint), plus 10 - log10|c - 1| near c = 1. On top of that rule it
    adds one place per decade the sum may lie below 1 (the sum is at least
    a**-c): mpmath's Hurwitz zeta stops its series on an absolute 2**-prec
    tolerance, so at the plain rule a sum far below 1 loses relative
    accuracy (the tail c = 12.453535629756685, a = 8154 came out 8e-14
    relative off its 200-place value).
    """
    from mpmath import mp, mpf

    digits = int(math.log10((a if b is None else b) + 2)) + 1
    dps = 40 + 2 * digits + math.ceil(c * math.log10(a))
    if c != 1.0 and abs(c - 1.0) < 1e-3:
        dps += int(-math.log10(abs(c - 1.0))) + 10
    with mp.workdps(dps):
        if b is None:
            return float(mp.zeta(mpf(c), a))
        if c == 1.0:
            return float(mp.harmonic(mpf(b)) - mp.harmonic(mpf(a - 1)))
        return float(mp.zeta(mpf(c), a) - mp.zeta(mpf(c), b + 1))


def power_sum_whole_array(c, a, b):
    """sum_{m=a}^{b} m**-c as one numpy array and one ``np.sum``.

    The numpy regime of the summation kernel before it summed in leaves,
    kept verbatim: the leaves must give this value bit for bit.
    """
    import numpy as np

    m = np.arange(a, b + 1, dtype=np.float64)
    m **= -c  # in place: up to DIRECT_CUTOFF terms
    return float(np.sum(m))


def check_properties_per_node(cache, max_len):
    """``construction.check_properties`` as it was before it checked a level
    as one batch: every claim of every node decided by its exact sums.

    The reference for the batched check, whose report must equal this one
    in every byte. It walks, sums and compares node by node, as the library
    did: each row the ``math.fsum`` of the node's power-sum parts at each
    exponent, each claim through ``certified_less``, and each violation
    appended where it is met. It keeps the library's walk (``_child``), its parts
    and its comparison, so it shares them with the code it checks; what it
    does not share is the float filter and the merge of violations, nor the
    links: p1 is decided from the two phis' segment tuples, by length and
    ``_prefix_walk``, and never by ``is_prefix_of``, whose walk along a
    phi's bases is the shortcut under test.
    """
    from lprl.construction import _child
    from lprl.grid import depth, level
    from lprl.reports import Check, CheckReport
    from lprl.seqspace import _power_sum_parts, _prefix_walk, certified_less

    ladder = cache.ladder
    margin = cache.margin
    q = ladder.q
    rep = CheckReport(f"construction-properties max_len={max_len}")
    root = cache.root
    rep.add("bookkeeping", len(root.M) == depth(()) + 1, len(root.M), 0, note="sigma=()")

    def fail(label, lhs, rhs, sigma, i=None):
        tag = "".join(map(str, sigma))
        rep.checks.append(Check(label, False, lhs, rhs, tag if i is None else f"{tag} i={i}"))

    nodes = [((), root)]
    for length in range(1, max_len + 1):
        probe = (0,) * length
        d, l = depth(probe), level(probe)
        exps = ladder.exponents(d + 1)
        bound = 2.0 ** -length
        parents, nodes = nodes, []
        for psigma, parent in parents:
            for bit in (0, 1):
                sigma = psigma + (bit,)
                node = _child(cache, parent, key_of(sigma), {})
                M = node.M
                if len(M) != d + 1:
                    fail("bookkeeping", len(M), d + 1, sigma)
                if node.phi.length < 1:
                    fail("phi-nonempty", node.phi.length, 1, sigma)
                mine, theirs = parent.phi, node.phi
                if not (mine.length < theirs.length
                        and _prefix_walk(mine.segments, theirs.segments, mine.length)):
                    fail("p1-prefix", None, None, sigma)

                block_cost = math.fsum(_power_sum_parts(node.block, q))
                if not certified_less(block_cost, bound, margin):
                    fail("p2-block-cost", block_cost, bound, sigma)

                row = [math.fsum(_power_sum_parts(node.phi, p)) for p in exps]
                for i, (s, cap) in enumerate(zip(row, M)):
                    if not certified_less(s, float(cap), margin):
                        fail("p3-caps", s, cap, sigma, i)

                if bit == 0:
                    if length >= 2 and M[:len(parent.M)] != parent.M:
                        fail("p4-zero-stable", M, parent.M, sigma)
                else:
                    if l > 0 and M[:l] != parent.M[:l]:
                        fail("p5-one-stable", M[:l], parent.M[:l], sigma)
                    if not certified_less(float(length), row[l], margin):
                        fail("p6-forced-growth", row[l], length, sigma)
                nodes.append((sigma, node))
        n, half = len(nodes), len(parents)
        first_caps = next((k for k, (_, node) in enumerate(nodes) if node.M), 0)
        tallies = [
            (0, "bookkeeping", n), (0, "phi-nonempty", n), (0, "p1-prefix", n),
            (0, "p2-block-cost", n),
            (first_caps, "p3-caps", sum(min(len(node.M), d + 1) for _, node in nodes)),
            (0, "p4-zero-stable", half if length >= 2 else 0),
            (1, "p5-one-stable", half if l > 0 else 0),
            (1, "p6-forced-growth", half),
        ]
        for _, label, count in sorted(tallies, key=lambda t: t[0]):
            rep.count(label, count)
    return rep


def key_of(sigma):
    """The key of the node at sigma: the binary digits of 1 and sigma."""
    return int("".join(map(str, (1,) + tuple(sigma))), 2)


def nodes_of(cache):
    """The nodes a cache holds, ``{sigma: node}``, from ``construction.held``."""
    from lprl.construction import held

    return {tuple(map(int, bin(key)[3:])): node for key, node in held(cache)}


def built_nodes(ladder, margin=None):
    """The process-wide node memo of a configuration, ``{sigma: node}``: its
    root and every node reached from it by child links."""
    from lprl.construction import _root
    from lprl.seqspace import DEFAULT_MARGIN

    found, stack = {}, [((), _root(ladder, DEFAULT_MARGIN if margin is None else margin))]
    while stack:
        sigma, node = stack.pop()
        found[sigma] = node
        stack += [(sigma + (bit,), kid) for bit, kid in enumerate((node.kid0, node.kid1))
                  if kid is not None]
    return found

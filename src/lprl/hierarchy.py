"""Double-sequence machinery: interleaving, row extraction, embeddings.

A single sequence is identified with a double one through the diagonal
pairing: entry (m, t) of the array lives at flat index pair(m, t). Row
extraction is 1-Lipschitz for every power sum and for the sup norm
(it keeps a subset of the entries), which is what lets per-row statements
transfer through the identification.

``build_pi4_certificate`` describes one point from a list of component
specs: component m is scaled so its q-cost is at most 2**-m and becomes
row m of the point. Interleaving only permutes entries, so the point's
q-cost is the sum of its components' costs, every claim about it reads
off the component descriptors, and nothing is materialized;
``interleave`` and ``extract_row`` remain as the materializing
cross-check at small depth. Each component keeps its membership
classification, since the target class is closed under positive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construction import build_node
from .errors import ResourceLimitError
from .grid import pair
from .reports import CheckReport
from .seqspace import (
    MATERIALIZE_LIMIT,
    as_finseq,
    difference,
    finseq,
    frechet_metric,
    pnorm_pow,
    scale,
    sup_norm,
)
from .reduction import in_p3, path_bits


def extract_row(flat, m):
    """Row m of the array: entries of the flat sequence at indices pair(m, t)."""
    out = []
    t = 0
    while True:
        n = pair(m, t)
        if n >= flat.length:
            break
        out.append(flat.entry(n))
        t += 1
        if t > MATERIALIZE_LIMIT:
            raise ResourceLimitError(f"row extraction exceeded {MATERIALIZE_LIMIT} entries")
    return finseq(out)


def interleave(rows, upto):
    """The flat sequence of length ``upto`` holding rows[m][t] at pair(m, t)."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if upto > MATERIALIZE_LIMIT:
        raise ResourceLimitError(f"interleave target length {upto} exceeds {MATERIALIZE_LIMIT}")
    vals = [0.0] * upto
    for m, row in enumerate(rows):
        for t, v in enumerate(as_finseq(row).to_array().tolist()):
            n = pair(m, t)
            if n < upto:
                vals[n] = v
    return finseq(vals)


def embedding_inequality_check(x, y, ladder, terms):
    """Verify the identity-embedding inequalities on finite data, at b = ladder.a.

    For b >= 1: the sup norm of the difference is below its b-norm, and the
    truncated product metric is below the b-norm plus its tail bound. For
    b < 1 the power-sum analogues hold, the product-metric comparison
    conditionally on the b power-sum distance being below one.
    """
    b = ladder.a
    rep = CheckReport(f"embedding b={b}", keep_passing=True)
    diff = difference(x, y)
    sup = sup_norm(diff)
    value, tail = frechet_metric(x, y, ladder, terms)
    # non-strict claims compare exactly: sup ** b is one of the terms pnorm_pow
    # adds with correct rounding, and each metric claim has the tail to spare
    d_b = pnorm_pow(diff, b)
    if b >= 1:
        norm_b = d_b ** (1.0 / b)
        rep.add("sup<=b-norm", sup ** b <= d_b, sup, norm_b)
        rep.add("metric<=b-norm+tail", value <= norm_b + tail, value, norm_b + tail)
    else:
        rep.add("sup^b<=b-power", sup ** b <= d_b, sup ** b, d_b)
        if d_b < 1.0:
            rep.add("metric<=b-power+tail", value <= d_b + tail, value, d_b + tail)
        else:
            rep.add("metric<=b-power+tail", True, None, None,
                    note="skipped: b-power distance >= 1")
    return rep


@dataclass(frozen=True)
class Pi4Certificate:
    """Scaled components of a fourth-level example, one row of the point each.

    Row m of the point is ``components[m]``, whose q-cost is at most 2**-m;
    the point itself exists only as these descriptors.
    """

    components: tuple       # FinSeq per m: the scaled depth-k prefix
    scalings: tuple         # delta_m used for component m
    in_target_class: tuple  # per-component membership classification


def build_pi4_certificate(cache, specs, k):
    """Describe a multi-component point with geometrically shrinking costs.

    Component m is the depth-k prefix ``build_node(cache, path_bits(spec, k)).phi``
    of its spec's reduced point, scaled by delta_m <= 1 so that its q power
    sum lands at or under 2**-m (checked exactly on the scaled descriptor).
    Scaling never changes a component's classification.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    q = cache.ladder.q
    components = []
    scalings = []
    flags = []
    for m, spec in enumerate(specs):
        phi = build_node(cache, path_bits(spec, k)).phi
        cost = pnorm_pow(phi, q)
        target = 2.0 ** -m
        delta = 1.0
        if cost > target:
            delta = (target / cost) ** (1.0 / q) * (1.0 - 1e-12)
            phi = scale(phi, delta)
            scaled_cost = pnorm_pow(phi, q)
            if scaled_cost > target:
                raise ArithmeticError(
                    f"component {m}: scaled cost {scaled_cost} still above {target}")
        components.append(phi)
        scalings.append(delta)
        flags.append(in_p3(spec))
    return Pi4Certificate(tuple(components), tuple(scalings), tuple(flags))

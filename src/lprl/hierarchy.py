"""Double-sequence machinery: interleaving, row extraction, embeddings.

A single sequence is identified with a double one through the diagonal
pairing: entry (m, t) of the array lives at flat index pair(m, t). Row
extraction is 1-Lipschitz for every power sum and for the sup norm
(it keeps a subset of the entries), which is what lets per-row statements
transfer through the identification.

``build_pi4_certificate`` assembles one point from a list of component
specs, scaling component m so its q-cost is at most 2**-m before
interleaving; each component keeps its membership classification, since
the target class is closed under positive scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .construction import _format_segments
from .errors import ResourceLimitError
from .grid import pair
from .reports import CheckReport
from .seqspace import (
    MATERIALIZE_LIMIT,
    FinSeq,
    as_finseq,
    difference,
    finseq,
    frechet_metric,
    pnorm_pow,
    sup_norm,
)
from .reduction import in_p3, prefix_certificate, scale_prefix


def extract_row(flat, m, limit=MATERIALIZE_LIMIT):
    """Row m of the array: entries of the flat sequence at indices pair(m, t)."""
    out = []
    t = 0
    while True:
        n = pair(m, t)
        if n >= flat.length:
            break
        out.append(flat.entry(n))
        t += 1
        if t > limit:
            raise ResourceLimitError(f"row extraction exceeded {limit} entries")
    return finseq(out)


def interleave(rows, upto, limit=MATERIALIZE_LIMIT):
    """The flat sequence of length ``upto`` holding rows[m][t] at pair(m, t)."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if upto > limit:
        raise ResourceLimitError(f"interleave target length {upto} exceeds {limit}")
    vals = [0.0] * upto
    for m, row in enumerate(rows):
        for t, v in enumerate(as_finseq(row).to_array(limit).tolist()):
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
    """Per-component scaled prefixes with the 2**-m cost bounds, interleaved."""

    components: tuple      # PrefixCertificate per m
    scalings: tuple        # delta_m used for component m
    interleaved: FinSeq
    in_target_class: tuple  # per-component membership classification


def build_pi4_certificate(cache, specs, k, limit=MATERIALIZE_LIMIT):
    """Assemble a multi-component point with geometrically shrinking costs.

    Component m is the depth-k prefix of its spec's reduced point, scaled
    by delta_m <= 1 so that its q power sum lands at or under 2**-m, then
    all components are interleaved diagonally. Scaling never changes a
    component's classification.
    """
    q = cache.ladder.q
    components = []
    scalings = []
    flags = []
    for m, spec in enumerate(specs):
        pc = prefix_certificate(cache, spec, k)
        cost = pnorm_pow(pc.prefix, q)
        target = 2.0 ** -m
        delta = 1.0
        if cost > target:
            delta = (target / cost) ** (1.0 / q) * (1.0 - 1e-12)
        spc = scale_prefix(pc, delta) if delta != 1.0 else pc
        scaled_cost = pnorm_pow(spc.prefix, q)
        if scaled_cost > target:
            raise ArithmeticError(
                f"component {m}: scaled cost {scaled_cost} still above {target}")
        components.append(spc)
        scalings.append(delta)
        flags.append(in_p3(spec))
    upto = 0
    for m, c in enumerate(components):
        if c.prefix.length:
            upto = max(upto, pair(m, c.prefix.length - 1) + 1)
    inter = interleave([c.prefix for c in components], upto, limit)
    return Pi4Certificate(tuple(components), tuple(scalings), inter, tuple(flags))


def export_certificate(cert, path):
    """Write the certificate as structured text, one component per record.

    Mirrors the cache-file segment syntax, so component prefixes stay at
    full precision without ever materializing window descriptors.
    """
    lines = ["# lprl-pi4 v1"]
    for m, (comp, delta, flag) in enumerate(
            zip(cert.components, cert.scalings, cert.in_target_class)):
        lines.append(
            f"{m}|delta={delta!r}|in_class={int(flag)}|"
            f"tail={comp.tail_q_bound!r}|prefix={_format_segments(comp.prefix)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path

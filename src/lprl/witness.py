"""Witness-block extension.

Given a prefix u whose p_i power sums sit strictly under caps r_0..r_k, an
exponent p_{k+1} below all of them, a divergence target M and a q-cost
budget eps, ``extend`` appends a block v of canonical generator entries
``x_n = (n+1)**(-1/p_{k+1})`` with:

    * sum |v|^q              <  eps,
    * sum |u~v|^{p_i}        <  r_i   for every i <= k,
    * sum |u~v|^{p_{k+1}}    >  M.

The block lives on an index window [n0, n1]: n0 makes the generator tail
at the second-smallest exponent certifiably smaller than both the cap
slack and eps (this also bounds the q-cost, since entries are below one),
and n1 is the least index whose harmonic window sum clears M plus the
margin. The divergence rate is harmonic, so the window length grows like
``n0 * exp(M)``; short windows are searched by direct summation, long ones
analytically, and windows too long to enumerate under the step budget
raise a resource error carrying the partial sum reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import PreconditionError, ResourceLimitError
from .reports import CheckReport
from .seqspace import (
    DEFAULT_MARGIN,
    DIRECT_CUTOFF,
    FSUM_CUTOFF,
    MAX_EXACT_INDEX,
    FinSeq,
    Margin,
    as_finseq,
    certified_less,
    concat,
    pnorm_pow,
    window_seq,
    _generator_tail,
)

DEFAULT_STEP_BUDGET = 10 ** 8


def generator_entry(n, p_bottom):
    """The canonical generator value x_n = (n+1)**(-1/p_bottom)."""
    if n < 0:
        raise ValueError("generator index must be a natural")
    if not p_bottom > 0:
        raise ValueError("p_bottom must be positive")
    return (n + 1.0) ** (-1.0 / p_bottom)


@dataclass(frozen=True)
class ClaimRequest:
    """Inputs of one extension step.

    ``exps`` lists p_0 > ... > p_{k+1}; ``caps`` holds r_0..r_k for all but
    the last exponent, so an empty ``caps`` means only the q-budget and the
    divergence target are active.
    """

    u: FinSeq
    q: float
    exps: tuple
    caps: tuple
    M: float
    eps: float
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "u", as_finseq(self.u))
        object.__setattr__(self, "exps", tuple(float(p) for p in self.exps))
        object.__setattr__(self, "caps", tuple(float(r) for r in self.caps))
        if not self.exps:
            raise ValueError("need at least the divergence exponent")
        if len(self.caps) != len(self.exps) - 1:
            raise ValueError(
                f"caps must cover all but the last exponent: {len(self.caps)} caps for {len(self.exps)} exponents")
        prev = self.q
        if not (math.isfinite(self.q) and self.q > 0):
            raise ValueError(f"q must be a positive real, got {self.q!r}")
        for p in self.exps:
            if not (math.isfinite(p) and 0 < p < prev):
                raise ValueError(f"exponents must decrease strictly below q: {self.exps}")
            prev = p
        for name, val in (("caps entries", min(self.caps, default=1.0)), ("M", self.M), ("eps", self.eps)):
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive, got {val!r}")
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")


@dataclass(frozen=True)
class ClaimWitness:
    """The appended block v together with its generator index window."""

    v: FinSeq
    n0: int
    n1: int


def _least_start(s, thr, margin):
    """Least n0 >= 1 with the generator tail sum_{n>=n0} (n+1)**-s under thr.

    Starts from the integral estimate n0 > ((s-1)*thr)**(-1/(s-1)); below a
    million candidates the least one is found by exact summation against
    the analytic tail, beyond that the estimate itself is certified and
    used (any certified n0 is sound; minimality only matters at desk
    scale, where it is exact).
    """
    if not s > 1:
        raise PreconditionError(f"tail exponent ratio must exceed 1, got {s}")
    if not thr > margin.eta:
        raise PreconditionError(f"threshold {thr} is not above the margin {margin.eta}")
    log_est = -(math.log(s - 1.0) + math.log(thr)) / (s - 1.0)
    if log_est <= math.log(1 << 20):
        hi = max(1, math.ceil(math.exp(log_est)) + 1)
        tail_hi = _generator_tail(s, hi)
        while not certified_less(tail_hi, thr, margin):
            hi *= 2
            tail_hi = _generator_tail(s, hi)
        if hi == 1:
            return 1
        xs = (np.arange(1, hi, dtype=np.float64) + 1.0) ** (-s)  # (n+1)^-s, n=1..hi-1
        suffix = np.concatenate([np.cumsum(xs[::-1])[::-1], [0.0]])
        hits = np.nonzero(tail_hi + suffix + margin.eta < thr)[0]
        return int(hits[0]) + 1 if hits.size else hi
    # astronomical start: certify the estimate analytically
    with mp.workdps(40):
        n0 = int(mp.exp(mpf(log_est))) + 1
    while not certified_less(_generator_tail(s, n0), thr, margin):
        n0 *= 2
    return n0


def _harmonic_window(n0, n1):
    """sum_{n=n0}^{n1} 1/(n+1) evaluated analytically."""
    digits = int(math.log10(n1 + 2)) + 1
    with mp.workdps(40 + 2 * digits):
        return float(mp.harmonic(mpf(n1 + 1)) - mp.harmonic(mpf(n0)))


def _least_end(n0, M, margin, step_budget):
    """Least n1 >= n0 whose harmonic window sum exceeds M + eta."""
    target = M + margin.eta
    # crude upper estimate from H(m) ~ ln m + gamma
    log_hi = target + math.log(n0 + 1.0) + 1.0
    direct_feasible = (
        log_hi <= math.log(MAX_EXACT_INDEX)
        and (n0 + 1.0) * math.exp(target) - n0 + 16 <= DIRECT_CUTOFF
    )
    if direct_feasible:
        return _least_end_direct(n0, target, step_budget)
    if _harmonic_window(n0, n0) > target:
        return n0
    with mp.workdps(60):
        hi = int(mp.exp(mpf(log_hi))) + 2
    while _harmonic_window(n0, hi) <= target:
        hi *= 4
    lo = n0
    # invariant: W(lo) <= target < W(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _harmonic_window(n0, mid) > target:
            hi = mid
        else:
            lo = mid
    return hi


def _canonical_harmonic_block(n0, n1):
    """sum_{n=n0}^{n1} (n+1)**-1 by the same regime rules as pnorm_pow uses."""
    length = n1 - n0 + 1
    if length <= FSUM_CUTOFF:
        return math.fsum((n + 1.0) ** (-1.0) for n in range(n0, n1 + 1))
    m = np.arange(n0 + 1, n1 + 2, dtype=np.float64)
    return float(np.sum(m ** (-1.0)))


def _least_end_direct(n0, target, step_budget):
    chunk = 1 << 17
    total = 0.0
    steps = 0
    n = n0
    while True:
        count = min(chunk, step_budget - steps)
        if count <= 0:
            raise ResourceLimitError(
                f"harmonic window search exhausted the step budget ({step_budget} terms)",
                partial_sum=total, steps=steps)
        block = 1.0 / np.arange(n + 1, n + count + 1, dtype=np.float64)
        cum = total + np.cumsum(block)
        hits = np.nonzero(cum > target)[0]
        if hits.size:
            # the running cumsum orders additions differently from the
            # re-summation that verifies the block, so pin the boundary
            # against the canonical evaluator
            n1 = n + int(hits[0])
            while _canonical_harmonic_block(n0, n1) <= target:
                n1 += 1
            while n1 > n0 and _canonical_harmonic_block(n0, n1 - 1) > target:
                n1 -= 1
            return n1
        total = float(cum[-1])
        steps += count
        n += count


def _searched(memo, key, search, *args):
    """``search(*args)``, looked up under ``key`` in ``memo`` when one is given.

    Both window searches are pure, so a stored answer is the answer. A search
    that raises (for instance ``ResourceLimitError``) stores nothing.
    """
    if memo is None:
        return search(*args)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = search(*args)
    return hit


def extend(req, margin=DEFAULT_MARGIN, memo=None):
    """Produce a ClaimWitness for the request, following the tail-bound proof.

    Pure function of (request, margin): identical inputs give the identical
    window, which is what makes the tree construction well-defined. ``memo``
    is an optional dict that keeps the results of the two window searches
    by their full arguments; the block is still built and re-checked by
    ``verify_witness`` on every call.
    """
    if not isinstance(margin, Margin):
        margin = Margin(float(margin))
    pb = req.exps[-1]
    u_sums = [pnorm_pow(req.u, p) for p in req.exps[:-1]]
    slacks = []
    for i, (us, r) in enumerate(zip(u_sums, req.caps)):
        if not certified_less(us, r, margin):
            raise PreconditionError(
                f"prefix already violates cap {i}: sum={us!r} vs cap={r!r}")
        slacks.append(r - us)
    delta = min(slacks, default=math.inf)
    thr = min(delta, req.eps)
    s_tail = (req.exps[-2] if len(req.exps) >= 2 else req.q) / pb
    n0 = _searched(memo, ("start", s_tail, thr, margin.eta),
                   _least_start, s_tail, thr, margin)
    n1 = _searched(memo, ("end", n0, req.M, margin.eta, req.step_budget),
                   _least_end, n0, req.M, margin, req.step_budget)
    w = ClaimWitness(window_seq(pb, n0, n1), n0, n1)
    rep = verify_witness(req, w, margin)
    if not rep.ok:
        raise ArithmeticError(
            "constructed witness failed its own re-check:\n" + rep.summary())
    return w


def verify_witness(req, w, margin=DEFAULT_MARGIN):
    """Re-check all witness inequalities from the block itself.

    Uses only the block's entries (partial sums), never the tail estimates
    that guided the search, so a bookkeeping bug in ``extend`` cannot
    certify itself.
    """
    rep = CheckReport("claim-witness", keep_passing=True)
    v = w.v
    rep.add("non-empty", v.length >= 1, v.length, 1)
    if v.length == 0:
        return rep
    qcost = pnorm_pow(v, req.q)
    rep.add("q-cost", certified_less(qcost, req.eps, margin), qcost, req.eps)
    for i, (p, r) in enumerate(zip(req.exps, req.caps)):
        tot = pnorm_pow(concat(req.u, v), p)
        rep.add(f"cap-p{i}", certified_less(tot, r, margin), tot, r)
    div = pnorm_pow(concat(req.u, v), req.exps[-1])
    rep.add("divergence", certified_less(req.M, div, margin), div, req.M)
    return rep

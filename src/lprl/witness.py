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
``n0 * exp(M)``. Both searches bisect with one loop, ``_least_true``, on
``seqspace._range_power_sum``, the kernel that ``verify_witness`` re-sums
the block with, so the chosen n1 is exact against the re-check at every
scale. Neither search has a step budget: the kernel sums every tail, and
every window of more than ``seqspace.DIRECT_CUTOFF`` terms, analytically,
so no probe adds more terms one by one than that. Both searches are pure and
memoise themselves process-wide by their full arguments; a search that
raises stores nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import PreconditionError
from .reports import Check, CheckReport, tally
from .seqspace import (
    DEFAULT_MARGIN,
    FinSeq,
    as_finseq,
    certified_less,
    window_seq,
    _power_sum_parts,
    _range_power_sum,
)


@dataclass(frozen=True, slots=True)
class Claim:
    """What a request shares with every request of its shape: q, the
    exponents p_0 > ... > p_{k+1}, the divergence target M and the q-cost
    budget eps, with what follows from them alone.

    A tree node's length fixes all of it, so the tree makes one claim per
    length (``claim_of``) and every node of that length reuses it.
    """

    q: float
    exps: tuple
    M: float
    eps: float
    s_tail: float  # the tail exponent ratio of the start search
    counts: dict  # the re-check's claim families, each counted once, in report order


def claim_of(q, exps, M, eps, caps=None):
    """The Claim of (q, exps, M, eps), refused with ValueError at the first
    fault found, as ``ClaimRequest`` refuses it. Caps, when given, are
    checked too but are not part of the Claim."""
    exps = tuple(float(p) for p in exps)
    if not exps:
        raise ValueError("need at least the divergence exponent")
    if caps is not None and len(caps) != len(exps) - 1:
        raise ValueError(
            f"caps must cover all but the last exponent: {len(caps)} caps for {len(exps)} exponents")
    prev = q
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be a positive real, got {q!r}")
    for p in exps:
        if not (math.isfinite(p) and 0 < p < prev):
            raise ValueError(f"exponents must decrease strictly below q: {exps}")
        prev = p
    checked = [("caps entries", r) for r in caps or ()] + [("M", M), ("eps", eps)]
    for name, val in checked:
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive, got {val!r}")
    s_tail = (exps[-2] if len(exps) >= 2 else q) / exps[-1]
    labels = ["non-empty", "q-cost", *(f"cap-p{i}" for i in range(len(exps) - 1)), "divergence"]
    return Claim(q, exps, M, eps, s_tail, dict.fromkeys(labels, 1))


class ClaimRequest:
    """Inputs of one extension step: the prefix u, its caps, its Claim and
    u's power-sum parts.

    ``exps`` lists p_0 > ... > p_{k+1}; ``caps`` holds r_0..r_k for all but
    the last exponent, so an empty ``caps`` means only the q-budget and the
    divergence target are active. ``parts`` maps each exponent (at least)
    to u's parts there, which u and u~v are summed from. Construction checks
    every input, refuses a bad one with ValueError, and sums u's parts.
    ``ClaimRequest.on`` pairs a Claim made by ``claim_of`` with a prefix,
    caps that are positive and one fewer than its exponents, and u's parts,
    and checks nothing again: the tree's step makes its caps so and carries
    the parts. Immutable by convention.
    """

    __slots__ = ("u", "caps", "claim", "parts")

    def __init__(self, u, q, exps, caps, M, eps):
        u = as_finseq(u)
        exps = tuple(float(p) for p in exps)
        caps = tuple(float(r) for r in caps)
        self.u, self.caps, self.claim = u, caps, claim_of(q, exps, M, eps, caps)
        self.parts = {p: _power_sum_parts(u, p) for p in exps}

    @classmethod
    def on(cls, claim, u, caps, parts):
        req = cls.__new__(cls)
        req.u, req.caps, req.claim, req.parts = u, caps, claim, parts
        return req

    q = property(lambda self: self.claim.q)
    exps = property(lambda self: self.claim.exps)
    M = property(lambda self: self.claim.M)
    eps = property(lambda self: self.claim.eps)


@dataclass(frozen=True, slots=True)
class ClaimWitness:
    """The appended block v together with its generator index window."""

    v: FinSeq
    n0: int
    n1: int


def _least_true(pred, guess, floor):
    """Least n >= floor with pred(n), for a pred that stays true once true.

    Steps out from ``guess`` by doubling strides, then bisects.
    """
    guess = max(guess, floor)
    # invariant: pred(lo) is false (or lo = floor - 1), pred(hi) is true
    step = 1
    if pred(guess):
        lo, hi = guess - 1, guess
        while lo >= floor and pred(lo):
            hi, step = lo, 2 * step
            lo = max(guess - step, floor - 1)
    else:
        lo, hi = guess, guess + 1
        while not pred(hi):
            lo, step = hi, 2 * step
            hi = guess + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


# The most bits an estimated start index may have. CI's (1, 1.01) tree has
# a start of 28,261 bits by depth 8, and that ladder's estimates reach
# about 72,500 bits by depth 12. Both searches at a start of this size took
# 140 s and peaked at 34 MB on a 2-CPU x86-64 VM; a ratio much nearer 1
# asks for an index whose digits alone do not fit in memory.
START_BIT_LIMIT = 1 << 17


@functools.cache
def _least_start(s, thr, margin):
    """Least n0 >= 1 with the generator tail sum_{n>=n0} (n+1)**-s under thr.

    Where the integral estimate n0 > ((s-1)*thr)**(-1/(s-1)) is at most a
    million, the search returns the least n0 whose kernel-summed tail is
    certified. Beyond that the estimate, doubled until certified, is used
    (any certified n0 is sound; minimality only matters at desk scale); an
    estimate of more than ``START_BIT_LIMIT`` bits is refused before it
    is made.
    """
    if not s > 1:
        raise PreconditionError(f"tail exponent ratio must exceed 1, got {s}")
    if not thr > margin.eta:
        raise PreconditionError(f"threshold {thr} is not above the margin {margin.eta}")
    log_est = -(math.log(s - 1.0) + math.log(thr)) / (s - 1.0)
    if log_est <= math.log(1 << 20):
        # the tail is about (n0 + 1/2)**(1-s)/(s-1): guess where it meets
        # thr - eta, clamped short of exp's overflow for a thr just above eta
        log_guess = -(math.log(s - 1.0) + math.log(thr - margin.eta)) / (s - 1.0)
        guess = int(math.exp(min(log_guess, 700.0)) - 0.5)
        return _least_true(
            lambda n0: certified_less(_range_power_sum(s, n0 + 1), thr, margin), guess, 1)
    # astronomical start: certify the estimate analytically
    bits = log_est / math.log(2.0)
    if bits > START_BIT_LIMIT:
        raise PreconditionError(
            f"tail exponent ratio {s!r} and threshold {thr!r} need a start index of "
            f"about {bits:.4g} bits, past the limit of {START_BIT_LIMIT}")
    with mp.workdps(40):
        n0 = int(mp.exp(mpf(log_est))) + 1
    while not certified_less(_range_power_sum(s, n0 + 1), thr, margin):
        n0 *= 2
    return n0


@functools.cache
def _least_end(n0, M, margin):
    """Least n1 >= n0 whose harmonic window sum_{m=n0+1}^{n1+1} 1/m exceeds M + eta.

    The window is summed by ``_range_power_sum``, the kernel that
    ``verify_witness`` re-sums the block with, so the answer is exact
    against the re-check.
    """
    target = M + margin.eta
    # H(m) ~ ln(m + 1/2) + gamma puts the crossing near n1 + 1.5 =
    # exp(target + H(n0) - gamma); aiming half an ulp past the target finds
    # where the rounded window first exceeds it
    digits = int(math.log10(n0 + 2)) + 1
    with mp.workdps(40 + 2 * digits):
        aim = mpf(target) + mpf(math.ulp(target)) / 2
        guess = int(mp.exp(aim + mp.harmonic(n0) - mp.euler) - 1.5)
    return _least_true(lambda n1: _range_power_sum(1.0, n0 + 1, n1 + 1) > target, guess, n0)


# One block object per window, as every 0-extension shares one zero: the
# block keeps the power-sum parts summed for it, for each node that has it.
_block = functools.cache(window_seq)


def cap_room(total, cap):
    """Mass that may go on top of ``total`` under ``cap``, less two ulps of
    the cap: the re-check rounds the grown sum, which near a cap whose ulp
    exceeds eta could round up to the cap itself."""
    return cap - total - 2.0 * math.ulp(cap)


def extend(req, margin=DEFAULT_MARGIN):
    """Produce a ClaimWitness for the request, following the tail-bound proof.

    Pure function of (request, margin): identical inputs give the identical
    window, which is what makes the tree construction well-defined. Per
    call it sums u at each capped exponent from the request's parts; takes
    the cap slacks and the threshold; and looks up the two window searches
    and the block, which answer repeated arguments from their memos: a
    window found before gives the same block object (``_block``), which
    keeps its power-sum parts. What the request's Claim fixes is not
    derived again. The block is still re-checked by ``verify_witness`` on
    every call, which sums it at q and at every exponent of the request,
    one kernel request per exponent that the block does not hold yet.
    """
    claim = req.claim
    slacks = []
    for i, (p, r) in enumerate(zip(claim.exps, req.caps)):
        us = math.fsum(req.parts[p])
        if not certified_less(us, r, margin):
            raise PreconditionError(
                f"prefix already violates cap {i}: sum={us!r} vs cap={r!r}")
        slacks.append(cap_room(us, r))
    thr = min(min(slacks, default=math.inf), claim.eps)
    n0 = _least_start(claim.s_tail, thr, margin)
    n1 = _least_end(n0, claim.M, margin)
    pb = claim.exps[-1]
    w = ClaimWitness(_block(pb, n0, n1), n0, n1)
    rep = verify_witness(req, w, margin)
    if not rep.ok:
        raise ArithmeticError(
            "constructed witness failed its own re-check:\n" + rep.summary())
    return w


def verify_witness(req, w, margin):
    """Re-check all witness inequalities from the block itself.

    Uses only the block's entries (partial sums), never the tail estimates
    that guided the search, so a bookkeeping bug in ``extend`` cannot
    certify itself. u~v is summed once at each of the request's exponents,
    as the ``math.fsum`` of u's parts from the request followed by v's.
    Every claim is evaluated; each family of the request's Claim is counted
    once, and a Check is kept for a violation only.
    """
    claim, v, parts = req.claim, w.v, req.parts
    if v.length == 0:
        rep = CheckReport("claim-witness")
        rep.add("non-empty", False, v.length, 1)
        return rep
    bad = []
    qcost = math.fsum(_power_sum_parts(v, claim.q))
    if not certified_less(qcost, claim.eps, margin):
        bad.append(Check("q-cost", False, qcost, claim.eps))
    for i, (p, r) in enumerate(zip(claim.exps, req.caps)):
        s = math.fsum(parts[p] + _power_sum_parts(v, p))
        if not certified_less(s, r, margin):
            bad.append(Check(f"cap-p{i}", False, s, r))
    p = claim.exps[-1]
    div = math.fsum(parts[p] + _power_sum_parts(v, p))
    if not certified_less(claim.M, div, margin):
        bad.append(Check("divergence", False, div, claim.M))
    return CheckReport("claim-witness", False, tally(claim.counts), bad)

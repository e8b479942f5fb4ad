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
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .errors import PreconditionError
from .reports import CheckReport
from .seqspace import (
    DEFAULT_MARGIN,
    FinSeq,
    as_finseq,
    certified_less,
    concat,
    window_seq,
    _power_sum_parts,
    _range_power_sum,
    _range_power_sums,
)


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
        checked = [("caps entries", r) for r in self.caps] + [("M", self.M), ("eps", self.eps)]
        for name, val in checked:
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive, got {val!r}")


@dataclass(frozen=True)
class ClaimWitness:
    """The appended block v together with its generator index window.

    A witness from ``extend`` also holds the sequence u~v that its re-check
    summed, ``uv``, and u~v's power sums by exponent, ``sums``, so that the
    tree takes u~v as a node's phi and its caps from those sums. Neither
    takes part in equality.
    """

    v: FinSeq
    n0: int
    n1: int
    uv: FinSeq = field(default=None, compare=False, repr=False)
    sums: dict = field(default=None, compare=False, repr=False)


@dataclass
class WitnessReport(CheckReport):
    """``verify_witness``'s report, with the sequence u~v it summed (None
    for an empty block) and u~v's power sums by exponent."""

    uv: FinSeq = None
    sums: dict = field(default_factory=dict)


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


@functools.cache
def _least_start(s, thr, margin):
    """Least n0 >= 1 with the generator tail sum_{n>=n0} (n+1)**-s under thr.

    Where the integral estimate n0 > ((s-1)*thr)**(-1/(s-1)) is at most a
    million, the search returns the least n0 whose kernel-summed tail is
    certified. Beyond that the estimate, doubled until certified, is used
    (any certified n0 is sound; minimality only matters at desk scale).
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


def extend(req, margin=DEFAULT_MARGIN, more_exps=()):
    """Produce a ClaimWitness for the request, following the tail-bound proof.

    Pure function of (request, margin): identical inputs give the identical
    window, which is what makes the tree construction well-defined. The two
    window searches answer repeated arguments from their memo, and a window
    found before gives the same block object (``_block``), which keeps its
    power-sum parts; the block is still re-checked by ``verify_witness`` on
    every call. The prefix u keeps the power-sum parts summed for it here,
    so that the re-check sums ``u~v`` from them and the block's.

    The block is summed at q, at every exponent of the request and at
    ``more_exps`` in one kernel request: a window the kernel sums with
    numpy is walked once for all of them. A shared block that already holds
    its parts at each of them sends no request. The witness returned holds
    the re-check's u~v and its power sums, at ``more_exps`` too.
    """
    pb = req.exps[-1]
    u_sums = [math.fsum(_power_sum_parts(req.u, p, keep=True)) for p in req.exps[:-1]]
    slacks = []
    for i, (us, r) in enumerate(zip(u_sums, req.caps)):
        if not certified_less(us, r, margin):
            raise PreconditionError(
                f"prefix already violates cap {i}: sum={us!r} vs cap={r!r}")
        slacks.append(cap_room(us, r))
    delta = min(slacks, default=math.inf)
    thr = min(delta, req.eps)
    s_tail = (req.exps[-2] if len(req.exps) >= 2 else req.q) / pb
    n0 = _least_start(s_tail, thr, margin)
    n1 = _least_end(n0, req.M, margin)
    block = _block(pb, n0, n1)
    exps = (req.q, *req.exps, *more_exps)
    if any(p not in block._sums for p in exps):
        _range_power_sums(tuple(p / pb for p in exps), n0 + 1, n1 + 1)
    rep = verify_witness(req, ClaimWitness(block, n0, n1), margin)
    if not rep.ok:
        raise ArithmeticError(
            "constructed witness failed its own re-check:\n" + rep.summary())
    sums = rep.sums
    for p in more_exps:
        sums[p] = math.fsum(_power_sum_parts(rep.uv, p))
    return ClaimWitness(block, n0, n1, rep.uv, sums)


def verify_witness(req, w, margin):
    """Re-check all witness inequalities from the block itself.

    Uses only the block's entries (partial sums), never the tail estimates
    that guided the search, so a bookkeeping bug in ``extend`` cannot
    certify itself. u~v is ``concat(req.u, w.v)``, summed once at each of
    the request's exponents; the report holds it and those sums. It counts
    every claim and keeps a Check for a violation only.
    """
    rep = WitnessReport("claim-witness")
    v = w.v
    rep.add("non-empty", v.length >= 1, v.length, 1)
    if v.length == 0:
        return rep
    qcost = math.fsum(_power_sum_parts(v, req.q, keep=True))
    rep.add("q-cost", certified_less(qcost, req.eps, margin), qcost, req.eps)
    rep.uv = uv = concat(req.u, v)
    sums = rep.sums
    for p in req.exps:
        sums[p] = math.fsum(_power_sum_parts(uv, p))
    for i, (p, r) in enumerate(zip(req.exps, req.caps)):
        rep.add(f"cap-p{i}", certified_less(sums[p], r, margin), sums[p], r)
    div = sums[req.exps[-1]]
    rep.add("divergence", certified_less(req.M, div, margin), div, req.M)
    return rep

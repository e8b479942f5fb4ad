import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lprl import reports, seqspace, witness
from lprl.errors import PreconditionError
from lprl.seqspace import (
    DIRECT_CUTOFF,
    EMPTY,
    FinSeq,
    Margin,
    PowerWindow,
    _WINDOW_SUM_CACHE,
    _power_sum_parts,
    _range_power_sum,
    certified_less,
    concat,
    finseq,
    pnorm_pow,
    scale,
    window_seq,
)
from lprl.witness import (
    ClaimRequest,
    ClaimWitness,
    _least_end,
    _least_start,
    _least_true,
    extend,
    verify_witness,
)

from oracles import generator_tail_bracket, harmonic_first_crossing, power_sum_plain

MARGIN = Margin(2 ** -20)


def worked_request(M=1.0):
    return ClaimRequest(u=EMPTY, q=2.0, exps=(1.0, 0.5), caps=(10.0,), M=M, eps=10.0)


class TestGeneratorEntry:
    """Blocks are windows of the canonical generator x_n = (n+1)**(-1/p)."""

    def test_values(self):
        assert PowerWindow(0.5, 0, 3).entry(0) == 1.0
        assert PowerWindow(0.5, 0, 3).entry(3) == 1 / 16
        assert PowerWindow(1.0, 1, 1).entry(0) == 0.5
        assert repr(PowerWindow(1.0, 1, 1).entry(0)) == "0.5"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PowerWindow(0.5, -1, 0)
        with pytest.raises(ValueError):
            PowerWindow(0.0, 0, 0)
        with pytest.raises(ValueError):
            PowerWindow(math.inf, 0, 0)
        with pytest.raises(ValueError):
            PowerWindow(1.0, 0, 0, math.inf)


class TestWorkedExample:
    def test_window(self):
        w = extend(worked_request(), MARGIN)
        assert (w.n0, w.n1) == (1, 3)
        v = w.v.materialize()
        assert len(v) == 3
        for got, want in zip(v, (0.25, 1 / 9, 0.0625)):
            assert abs(got - want) < 1e-12

    def test_inequalities_by_direct_summation(self):
        w = extend(worked_request(), MARGIN)
        v = w.v.materialize()
        assert power_sum_plain(v, 2.0) < 10  # ~0.0786
        assert power_sum_plain(v, 1.0) < 10  # ~0.4236
        assert power_sum_plain(v, 0.5) > 1   # ~1.0833
        assert abs(power_sum_plain(v, 0.5) - (0.5 + 1 / 3 + 0.25)) < 1e-12

    def test_larger_target_matches_harmonic_oracle(self):
        w = extend(worked_request(M=3.0), MARGIN)
        n1_oracle, _ = harmonic_first_crossing(w.n0, 3.0 + MARGIN.eta)
        assert w.n0 == 1
        assert w.n1 == n1_oracle == 30

    def test_tail_choice_certified_by_bracket(self):
        w = extend(worked_request(), MARGIN)
        lower, upper = generator_tail_bracket(2.0, w.n0, terms=200000)
        assert upper < min(10.0, 10.0)  # tail at n0 is below min(delta, eps)


class TestExtendProperties:
    def test_entries_in_unit_interval(self):
        rng = random.Random(7)
        for _ in range(25):
            req = _random_request(rng, q_low=1.0, q_high=3.0)
            w = extend(req, MARGIN)
            assert w.v.length >= 1
            first = w.v.entry(0)
            assert 0 <= first < 1
            assert w.n0 >= 1

    def test_determinism(self):
        req = worked_request(M=2.0)
        w1 = extend(req, MARGIN)
        w2 = extend(req, MARGIN)
        assert w1 == w2

    def test_monotone_cost_chain(self):
        req = worked_request()
        w = extend(req, MARGIN)
        # entries below one and q > p_k: q-cost below p_k-cost below min(delta, eps)
        q_cost = pnorm_pow(w.v, req.q)
        pk_cost = pnorm_pow(w.v, req.exps[0])
        assert q_cost <= pk_cost <= min(10.0, req.eps)

    def test_no_caps_case(self):
        req = ClaimRequest(u=finseq((0.5,)), q=2.0, exps=(1.0,), caps=(), M=2.0, eps=0.5)
        w = extend(req, MARGIN)
        rep = verify_witness(req, w, MARGIN)
        assert rep.ok

    def test_the_prefix_is_summed_once_per_exponent(self, monkeypatch):
        # extend sums u for the cap slack and keeps its parts, so the
        # re-check of u~v sums the new block alone
        u = concat(window_seq(1.0, 0, 3, 0.5), window_seq(1.0, 10, 20, 0.25))
        summed = []
        segment_power_sum = seqspace._segment_power_sum

        def recorded(seg, p):
            if any(seg is own for own in u.segments):
                summed.append((id(seg), p))
            return segment_power_sum(seg, p)

        monkeypatch.setattr(seqspace, "_segment_power_sum", recorded)
        req = ClaimRequest(u=u, q=2.0, exps=(1.5, 1.2, 1.0), caps=(10.0, 10.0), M=2.0, eps=0.1)
        assert verify_witness(req, extend(req, MARGIN), MARGIN).ok
        assert sorted(summed) == sorted({(id(seg), p) for seg in u.segments
                                         for p in req.exps})

    def test_extend_makes_no_passing_check(self, monkeypatch):
        # extend reads the re-check's verdict and u~v; the re-check counts
        # its passing claims and makes no Check for them
        made = []
        check = reports.Check

        def recorded(*args):
            made.append(check(*args))
            return made[-1]

        monkeypatch.setattr(reports, "Check", recorded)
        req = ClaimRequest(u=finseq((0.5,)), q=2.0, exps=(1.5, 1.0, 0.5), caps=(10.0, 10.0),
                           M=1.0, eps=0.5)
        w = extend(req, MARGIN)
        assert made == []
        rep = verify_witness(req, w, MARGIN)
        assert rep.ok and made == [] and rep.checks == []
        assert list(rep.counts) == ["non-empty", "q-cost", "cap-p0", "cap-p1", "divergence"]

    def test_a_request_sums_u_from_its_parts(self):
        u = concat(window_seq(1.0, 0, 3, 0.5), finseq((0.25,)))
        exps = (1.5, 1.2, 1.0)
        req = ClaimRequest(u=u, q=2.0, exps=exps, caps=(10.0, 10.0), M=2.0, eps=0.1)
        # u's parts at the request's exponents, as summed afresh; u is
        # linked, so it keeps none of them
        fresh = FinSeq(u.segments)  # no links, no stored parts
        assert {p: [x.hex() for x in parts] for p, parts in req.parts.items()} == {
            p: [x.hex() for x in _power_sum_parts(fresh, p)] for p in exps}
        assert u._sums is None
        w = extend(req, MARGIN)
        assert w == ClaimWitness(w.v, w.n0, w.n1) and not hasattr(w, "uv")
        # a request on the same claim, prefix, caps and parts gives the same window
        assert extend(ClaimRequest.on(req.claim, u, req.caps, dict(req.parts)), MARGIN) == w
        # the re-check sums u~v from the request's parts, not from u
        heavier = {p: parts + (20.0,) for p, parts in req.parts.items()}
        rep = verify_witness(ClaimRequest.on(req.claim, u, req.caps, heavier), w, MARGIN)
        assert [c.label for c in rep.violations] == ["cap-p0", "cap-p1"]

    def test_cap_violation_rejected(self):
        req = ClaimRequest(u=finseq((2.0,)), q=2.0, exps=(1.0, 0.5), caps=(1.5,),
                           M=1.0, eps=1.0)
        with pytest.raises(PreconditionError):
            extend(req, MARGIN)

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            ClaimRequest(u=EMPTY, q=1.0, exps=(1.0, 0.5), caps=(1.0,), M=1.0, eps=1.0)
        with pytest.raises(ValueError):
            ClaimRequest(u=EMPTY, q=2.0, exps=(0.5, 1.0), caps=(1.0,), M=1.0, eps=1.0)
        with pytest.raises(ValueError):
            ClaimRequest(u=EMPTY, q=2.0, exps=(1.0, 0.5), caps=(), M=1.0, eps=1.0)
        with pytest.raises(ValueError):
            ClaimRequest(u=EMPTY, q=2.0, exps=(1.0, 0.5), caps=(1.0,), M=-1.0, eps=1.0)
        # every cap is checked, not only the smallest
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="caps entries"):
                ClaimRequest(u=EMPTY, q=2.0, exps=(1.0, 0.75, 0.5), caps=(1.0, bad),
                             M=1.0, eps=1.0)


class TestVerifyWitness:
    def test_passes_for_real_witness(self):
        req = worked_request()
        w = extend(req, MARGIN)
        rep = verify_witness(req, w, MARGIN)
        assert rep.ok
        assert set(rep.counts) >= {"non-empty", "q-cost", "divergence"}
        assert rep.checks == []  # only violations are kept

    def test_empty_block_fails(self):
        rep = verify_witness(worked_request(), ClaimWitness(EMPTY, 1, 0), MARGIN)
        assert not rep.ok
        assert any(c.label == "non-empty" and not c.ok for c in rep.checks)

    def test_scaled_block_fails_eps(self):
        req = worked_request()
        w = extend(req, MARGIN)
        blown = ClaimWitness(scale(w.v, 10 ** 6), w.n0, w.n1)
        rep = verify_witness(req, blown, MARGIN)
        assert any(c.label == "q-cost" and not c.ok for c in rep.checks)


    def test_recheck_reuses_the_searched_window_sum(self, monkeypatch):
        # _least_end has summed the block at the divergence exponent (the
        # kernel's c = 1), so the re-check adds entries at q and at the cap
        # exponents only
        added = []

        def recording(req, w, margin):
            window = (w.n0 + 1, w.n1 + 1)
            assert (1.0, *window) in _WINDOW_SUM_CACHE
            before = set(_WINDOW_SUM_CACHE)
            rep = verify_witness(req, w, margin)
            added.extend(set(_WINDOW_SUM_CACHE) - before)
            assert set(added) <= {(p / req.exps[-1], *window) for p in (req.q, *req.exps[:-1])}
            return rep

        monkeypatch.setattr(witness, "verify_witness", recording)
        req = ClaimRequest(u=EMPTY, q=2.0, exps=(1.0, 0.5), caps=(10.0,),
                           M=1.6180339887, eps=0.03125)
        extend(req, MARGIN)


def _random_request(rng, q_low, q_high):
    """A request whose window stays at desk scale: tail ratios >= 1.5, M <= 3."""
    q = rng.uniform(q_low, q_high)
    count = rng.randrange(1, 4)
    exps = []
    top = q / rng.uniform(1.5, 2.0)
    for _ in range(count):
        exps.append(top)
        top = top / rng.uniform(1.5, 2.0)
    u = finseq([rng.uniform(0, 0.5) for _ in range(rng.randrange(0, 5))])
    caps = tuple(pnorm_pow(u, p) + rng.uniform(0.5, 3.0) for p in exps[:-1])
    return ClaimRequest(u=u, q=q, exps=tuple(exps), caps=caps,
                        M=rng.uniform(0.3, 3.0), eps=rng.uniform(0.05, 5.0))


class TestRandomizedSoundness:
    @pytest.mark.parametrize("seed,q_low,q_high", [(11, 1.0, 4.0), (13, 0.31, 1.0)])
    def test_witnesses_verify(self, seed, q_low, q_high):
        rng = random.Random(seed)
        for _ in range(30):
            req = _random_request(rng, q_low, q_high)
            w = extend(req, MARGIN)
            assert verify_witness(req, w, MARGIN).ok


def _window(n0, n1):
    """The harmonic window sum_{m=n0+1}^{n1+1} 1/m as the kernel gives it."""
    return _range_power_sum(1.0, n0 + 1, n1 + 1)


class TestLeastEnd:
    @given(st.integers(1, 10 ** 30), st.floats(min_value=0.2, max_value=12.0),
           st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_least_crossing(self, n0, M, p_bottom):
        target = M + MARGIN.eta
        n1 = _least_end(n0, M, MARGIN)
        assert n1 >= n0
        assert _window(n0, n1) > target
        assert n1 == n0 or _window(n0, n1 - 1) <= target
        # the verifier re-sums the block with the same kernel
        assert pnorm_pow(window_seq(p_bottom, n0, n1), p_bottom) == _window(n0, n1)

    def test_analytic_answer_is_the_least_crossing(self):
        n0 = 10 ** 20
        n1 = _least_end(n0, 2.0, MARGIN)
        assert n1 - n0 + 1 > DIRECT_CUTOFF
        assert _window(n0, n1) > 2.0 + MARGIN.eta >= _window(n0, n1 - 1)


def _under(s, thr, margin):
    """Predicate on n0: the generator tail from n0, summed by the kernel, is under thr."""
    return lambda n0: certified_less(_range_power_sum(s, n0 + 1), thr, margin)


class TestLeastStart:
    def test_threshold_just_above_the_margin(self):
        # the tail must fall to 2**-30, about 2**30 terms out: found by
        # bisection on the kernel, with no array of that many entries
        margin = Margin()
        under = _under(2.0, 2 ** -20 * (1 + 2 ** -10), margin)
        n0 = _least_start(2.0, 2 ** -20 * (1 + 2 ** -10), margin)
        assert n0 > 2 ** 29
        assert under(n0) and not under(n0 - 1)

    def test_guess_past_float_range(self):
        # desk scale by the estimate at thr, yet the tail must fall to one
        # ulp of 16: the guess at thr - eta is past exp's range, so it is
        # clamped and the search steps on from there
        s, thr, margin = 1.05, 16.0, Margin(math.nextafter(16.0, 0.0))
        under = _under(s, thr, margin)
        n0 = _least_start(s, thr, margin)
        assert n0 > 2 ** 1024
        assert under(n0) and not under(n0 - 1)

    def test_a_start_past_the_bit_limit_is_refused_unmade(self, monkeypatch):
        # a ratio one ulp above 1 asks for a start of about 2**57 bits; the
        # estimate is refused before anything exponentiates it
        def unmade(*args):
            raise AssertionError("a start index past the limit was made")

        monkeypatch.setattr(witness.mp, "exp", unmade)
        assert witness.START_BIT_LIMIT == 1 << 17
        with pytest.raises(PreconditionError, match="bits, past the limit of 131072"):
            _least_start(math.nextafter(1.0, 2.0), 0.5, Margin())

    @given(st.floats(min_value=1.2, max_value=8.0), st.floats(min_value=1e-6, max_value=4.0),
           st.sampled_from([0.0, 2 ** -30, 2 ** -20, None]))
    @settings(max_examples=80, deadline=None)
    def test_least_certified_start(self, s, thr, eta):
        eta = thr / 4 if eta is None else eta
        assume(thr > eta)
        # desk scale: the integral estimate is at most 2**20
        assume(-(math.log(s - 1.0) + math.log(thr)) / (s - 1.0) <= math.log(2 ** 20))
        under = _under(s, thr, Margin(eta))
        n0 = _least_start(s, thr, Margin(eta))
        assert n0 >= 1 and under(n0)
        assert n0 == 1 or not under(n0 - 1)


class TestLeastTrue:
    @pytest.mark.parametrize("guess", [-5, 1, 40, 99, 100, 101, 250, 10 ** 6])
    def test_finds_crossing_from_any_guess(self, guess):
        calls = []

        def pred(n):
            calls.append(n)
            return n >= 100

        assert _least_true(pred, guess, 1) == 100
        assert min(calls) >= 1

    @pytest.mark.parametrize("guess", [0, 7, 12, 500])
    def test_respects_floor(self, guess):
        calls = []

        def pred(n):
            calls.append(n)
            return n >= 3

        assert _least_true(pred, guess, 7) == 7
        assert min(calls) >= 7
        assert _least_true(lambda n: n >= 30, guess, 7) == 30

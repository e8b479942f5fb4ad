"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria with stated
runtime limits assert them with time.monotonic.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from lprl.construction import ConstructionCache, build_tree, check_properties
from lprl.grid import depth, extend_laws_check, level, pair, unpair
from lprl.hierarchy import (
    build_pi4_certificate,
    embedding_inequality_check,
    extract_row,
    interleave,
)
from lprl.reduction import (
    AlphaSpec,
    EventuallyOne,
    FiniteOnes,
    bad_row,
    continuity_check,
    divergence_witness,
    in_p3,
    path_rows,
    stabilization_check,
    standard_corpus,
    unit_ball_check,
)
from lprl.seqspace import ExpLadder, Margin, difference, finseq, pnorm_pow, sup_norm
from lprl.witness import ClaimRequest, extend, verify_witness
from lprl.cli import main as lprl_main

from oracles import nodes_of, power_sum_plain

MARGIN = Margin(2 ** -20)

TABLE = {
    (0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4,
    (0, 2): 5, (3, 0): 6, (2, 1): 7, (1, 2): 8, (0, 3): 9,
}


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_pairing_fidelity():
    t0 = time.monotonic()
    table_ok = all(pair(i, j) == n for (i, j), n in TABLE.items())
    roundtrip_ok = all(pair(*unpair(n)) == n for n in range(10 ** 6))
    elapsed = time.monotonic() - t0
    report(1, "pairing fidelity",
           table_ok and roundtrip_ok and elapsed < 1.0)


def test_criterion_2_grid_laws():
    t0 = time.monotonic()
    figure_ok = depth((0,) * 8) == 3 and level((0,) * 8) == 2
    violations = 0
    for length in range(1, 17):
        for packed in range(1 << length):
            s = tuple((packed >> t) & 1 for t in range(length))
            for bit in (0, 1):
                if not extend_laws_check(s, bit).ok:
                    violations += 1
    elapsed = time.monotonic() - t0
    report(2, "grid transition laws",
           figure_ok and violations == 0 and elapsed < 10.0)


def _random_claim_request(rng, q_low, q_high):
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


def test_criterion_3_claim_soundness():
    t0 = time.monotonic()
    ok = True
    for seed, (q_low, q_high) in ((101, (1.0, 4.0)), (202, (0.31, 1.0))):
        rng = random.Random(seed)
        for _ in range(100):
            req = _random_claim_request(rng, q_low, q_high)
            w = extend(req, MARGIN)
            ok = ok and verify_witness(req, w, MARGIN).ok
    # the worked example, cross-checked by direct summation
    req = ClaimRequest(u=finseq(()), q=2.0, exps=(1.0, 0.5), caps=(10.0,),
                       M=1.0, eps=10.0)
    w = extend(req, MARGIN)
    v = w.v.materialize()
    ok = ok and (w.n0, w.n1) == (1, 3)
    ok = ok and all(abs(a - b) < 1e-12 for a, b in zip(v, (0.25, 1 / 9, 0.0625)))
    ok = ok and abs(power_sum_plain(v, 0.5) - pnorm_pow(w.v, 0.5)) < 1e-12
    ok = ok and power_sum_plain(v, 2.0) < 10 and power_sum_plain(v, 0.5) > 1
    elapsed = time.monotonic() - t0
    report(3, "claim soundness", ok and elapsed < 30.0)


def test_criterion_4_construction_properties():
    # each configuration gets a cache of its own: the shared cache02 may
    # already hold nodes past depth 10, which would break the count
    ok = True
    cache = build_tree(ConstructionCache(ExpLadder(0.0, 2.0)), 10)
    rep = check_properties(cache, 10)
    ok = ok and rep.ok and len(nodes_of(cache)) == 2047
    for a, q in ((0.0, 0.5), (1.0, 3.0)):
        cache = ConstructionCache(ExpLadder(a, q))
        rep = check_properties(cache, 10)
        ok = ok and rep.ok and len(nodes_of(cache)) == 2047
    report(4, "construction properties", ok)


def test_criterion_5_block_bound_and_unit_ball(cache02):
    corpus = standard_corpus()
    ok = len(corpus) == 8
    ok = ok and sum(in_p3(s) for s in corpus) == 4
    for spec in corpus:
        rep = unit_ball_check(cache02, path_rows(cache02, spec, 12, ()))
        ok = ok and rep.ok
    report(5, "block bound and unit ball", ok)


def test_criterion_6_dichotomy(cache02):
    ok = True
    for spec in standard_corpus():
        if in_p3(spec):
            path = path_rows(cache02, spec, 12, cache02.ladder.exponents(3))
            for i in range(3):
                rep = stabilization_check(cache02, spec, i, path)
                ok = ok and rep.ok and rep.counts.get("cap-stable", 0) > 0
        else:
            row = bad_row(spec)
            w = divergence_witness(cache02, spec, row, 3.0, path_rows(cache02, spec, 0, ()))
            ok = ok and w.norm_value > 3.0
    report(6, "membership dichotomy", ok)


def test_criterion_7_continuity_modulus(cache02):
    from lprl.cli import _seeded_continuity_pairs
    rng = random.Random(424242)
    pairs = _seeded_continuity_pairs(rng, 20)
    ok = all(3 <= agree_to <= 8 for _, _, agree_to in pairs)
    for spec_a, spec_b, agree_to in pairs:
        rep = continuity_check(cache02, spec_a, spec_b, agree_to, 2)
        ok = ok and rep.ok
    report(7, "continuity modulus", ok)


def test_criterion_8_corollary_machinery(cache02):
    ok = True
    # interleave/extract round-trips on 1000 random double sequences
    rng = random.Random(31337)
    for _ in range(1000):
        rows = [[rng.uniform(-3, 3) for _ in range(rng.randrange(0, 5))]
                for _ in range(rng.randrange(0, 4))]
        upto = max((pair(m, len(r) - 1) + 1 for m, r in enumerate(rows) if r),
                   default=1)
        d = interleave([finseq(r) for r in rows], upto)
        for m, r in enumerate(rows):
            got = extract_row(d, m).materialize()
            if got[:len(r)] != tuple(r) or any(v != 0 for v in got[len(r):]):
                ok = False
    # 1-Lipschitz row extraction for power sums and sup norm
    for p in (0.5, 1.0, 2.0, None):
        for _ in range(100):
            n = rng.randrange(1, 12)
            x = finseq([rng.uniform(-1, 1) for _ in range(n)])
            y = finseq([rng.uniform(-1, 1) for _ in range(n)])
            m = rng.randrange(0, 3)
            rx = extract_row(x, m)
            ry = extract_row(y, m)
            if p is None:
                ok = ok and (sup_norm(difference(rx, ry))
                             <= sup_norm(difference(x, y)) + 1e-12)
            else:
                ok = ok and (pnorm_pow(difference(rx, ry), p)
                             <= pnorm_pow(difference(x, y), p) + 1e-12)
    # per-component cost bounds for m <= 6
    cert = build_pi4_certificate(cache02, list(standard_corpus())[:7], k=4)
    for m, comp in enumerate(cert.components):
        ok = ok and pnorm_pow(comp, 2.0) <= 2.0 ** -m
    # embedding inequalities on 100 random sub-unit pairs, both regimes
    lad1 = ExpLadder(1.0, 3.0)
    lad_half = ExpLadder(0.5, 0.95)
    for _ in range(50):
        n = rng.randrange(0, 8)
        x = finseq([rng.uniform(0, 0.9) for _ in range(n)])
        y = finseq([rng.uniform(0, 0.9) for _ in range(n)])
        ok = ok and embedding_inequality_check(x, y, lad1, 8).ok
        ok = ok and embedding_inequality_check(x, y, lad_half, 8).ok
    report(8, "corollary machinery", ok)


@pytest.mark.parametrize("a,q,max_len", [(0.0, 2.0, 8), (1.0, 3.0, 6)])
def test_criterion_9_determinism(tmp_path, a, q, max_len):
    assert lprl_main(["build", "--a", str(a), "--q", str(q), "--max-len", str(max_len),
                      "--out", str(tmp_path / "inproc")]) == 0
    name = f"cache_a{a}_q{q}_len{max_len}.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "lprl.cli", "build", "--a", str(a), "--q", str(q),
         "--max-len", str(max_len), "--out", str(tmp_path / "subproc")],
        capture_output=True, text=True)
    ok = proc.returncode == 0
    ok = ok and ((tmp_path / "inproc" / name).read_bytes()
                 == (tmp_path / "subproc" / name).read_bytes())
    report(9, f"determinism (a={a}, q={q})", ok)

#!/usr/bin/env python3
"""Measure how witness block length grows with the divergence target.

The harmonic divergence rate makes the block window roughly n0 * exp(M)
entries long: linear targets cost exponentially many generator terms.
This sweep prints the exact windows for a family of requests so the
growth curve can be eyeballed or plotted from the CSV on stdout.
``witness_growth.expected.csv`` beside it is the expected output, so any
change to a window shows as a diff against it.
"""

import math

from lprl.seqspace import EMPTY
from lprl.witness import ClaimRequest, extend

print("M,eps,n0,n1,block_len,log_block_len")
for m_target in range(1, 15):
    req = ClaimRequest(u=EMPTY, q=2.0, exps=(1.0, 0.5), caps=(10.0 ** 6,),
                       M=float(m_target), eps=0.25)
    w = extend(req)
    length = w.n1 - w.n0 + 1
    print(f"{m_target},{req.eps},{w.n0},{w.n1},{length},{math.log(length):.3f}")

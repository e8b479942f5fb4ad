"""Child entry point of the benchmark: runs lprl work in a fresh process.

Modes (the first argument):

  setup                       import the CLI and exit (what every command pays)
  cli [lprl args...]          run ``lprl.cli.main`` once and exit with its code
  recheck JOB RESULT          import_cache + check_properties passes, in-process
  trace JOB RESULT            one pass of ``lprl.cli.main(["trace", ...])`` requests

With ``PERFBENCH_SPANS=<file>`` in the environment the tracer is installed
before any work and its spans are written to that file at exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path

import clock
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lprl.cli  # noqa: E402  (the path set-up above must come first)

# trace requests timed between two calibrations of the machine speed
TRACE_BATCH = 20


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def first_line(text):
    return text.strip().splitlines()[0] if text.strip() else ""


def parse_trace_output(stdout):
    """Split ``lprl trace`` stdout into its k,bit,block_len rows and verdict lines.

    The block table is printed before the verdict is computed, so a request
    that fails in the divergence walk still yields its rows.
    """
    lines = stdout.splitlines()
    rows, verdict = [], []
    if not lines or not lines[0].startswith("k,bit,block_len"):
        return rows, verdict
    body = iter(lines[1:])
    for line in body:
        if line.startswith("trace written to"):
            break
        rows.append(",".join(line.split(",")[:3]))
    verdict = list(body)
    return rows, verdict


def run_trace_request(request, out_dir):
    """One interactive request; returns (seconds, exit, rows, verdict, error)."""
    a, q, spec, k = request
    argv = ["trace", "--a", repr(a), "--q", repr(q), "--spec", spec, "--k", str(k),
            "--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = lprl.cli.main(argv)
        elapsed = time.perf_counter() - start
    rows, verdict = parse_trace_output(out.getvalue())
    return (elapsed, code, digest(rows) if rows else None,
            digest(verdict) if verdict else None, first_line(err.getvalue()))


def trace_job(job, tracer):
    """One pass over the request pool in the given order.

    Each pass runs in a fresh process, so the module-global window-sum memo
    is shared across the distinct requests of one stream and never carried
    over from an earlier pass. The machine speed is calibrated after every
    ``TRACE_BATCH`` requests rather than after each, which would cost more
    than the requests.
    """
    requests, order = job["requests"], job["order"]
    out_dir = Path(job["out"])
    ops, batch = [], []
    yardstick = clock.Yardstick()
    for n, idx in enumerate(order, 1):
        if tracer is not None:
            tracer.op_id = n
        batch.append([idx, *run_trace_request(requests[idx], out_dir)])
        if len(batch) == TRACE_BATCH or n == len(order):
            factor = yardstick.factor()
            ops += [[idx, t * factor, *rest] for idx, t, *rest in batch]
            batch = []
    return {"ops": ops, "calibrations": yardstick.samples}


def recheck_job(job, tracer):
    """One warm-up pass over the exports, then the timed passes."""
    from lprl.construction import check_properties, import_cache

    exports = job["exports"]
    rng = random.Random(job["seed"])
    passes = []
    yardstick = clock.Yardstick()
    start = time.perf_counter()
    while clock.more_passes(len(passes) - 1, start, job):
        order = list(range(len(exports)))
        rng.shuffle(order)
        ops = []
        for i in order:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            rep = check_properties(import_cache(exports[i]), job["max_len"])
            elapsed = time.perf_counter() - t0
            ops.append([i, elapsed * yardstick.factor(), rep.ok, rep.instances])
        passes.append(ops)
    return {"warmup": passes[0], "passes": passes[1:], "calibrations": yardstick.samples}


def main(argv):
    spans_path = os.environ.get(tracing.SPANS_ENV)
    tracer = tracing.install() if spans_path else None
    mode = argv[0]
    code = 0
    try:
        if mode == "setup":
            pass
        elif mode == "cli":
            code = lprl.cli.main(argv[1:])
        elif mode in ("recheck", "trace"):
            job = json.loads(Path(argv[1]).read_text())
            run = recheck_job if mode == "recheck" else trace_job
            Path(argv[2]).write_text(json.dumps(run(job, tracer)))
        else:
            print(f"unknown worker mode {mode!r}", file=sys.stderr)
            code = 2
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

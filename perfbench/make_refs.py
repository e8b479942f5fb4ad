#!/usr/bin/env python3
"""Record the benchmark's fixed inputs and reference outputs under data/.

    python3 perfbench/make_refs.py

Writes the three depth-10 exports (the ``recheck`` inputs, whose records up
to depth 7 are what ``tree``'s builds must reproduce), the per-suite
``(title, ok, instances)`` of ``lprl verify``, and the pool of ``trace`` requests with digests
of their ``k,bit,block_len`` columns and verdict lines. The references are
meant to be made once, at the commit that defines the benchmark; remaking
them at a later commit would hide any change in the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)

from lprl.cli import main as lprl_main  # noqa: E402
from lprl.construction import check_properties, import_cache  # noqa: E402

TRACE_POOL = 220
POOL_SEED = 20081299


def random_spec(rng):
    """0-3 of rows 0..3, each a finite, eventually or periodic one-pattern."""
    clauses = []
    for i in sorted(rng.sample(range(4), rng.randint(0, 3))):
        kind = rng.choice(("finite", "eventually", "periodic"))
        if kind == "finite":
            cols = sorted(rng.sample(range(5), rng.randint(0, 3)))
            clauses.append(f"row={i}:finite{{{','.join(map(str, cols))}}}")
        elif kind == "eventually":
            clauses.append(f"row={i}:eventually({rng.randint(0, 3)})")
        else:
            m = rng.randint(1, 3)
            clauses.append(f"row={i}:periodic({rng.randrange(m)},{m},{rng.randint(0, 3)})")
    return ";".join(clauses)


def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = lprl_main([str(a) for a in argv])
    return code, worker.first_line(err.getvalue())


def main():
    bench.DATA.mkdir(exist_ok=True)
    refs = {"exports": {}, "recheck_instances": {}, "verify": {}, "trace": []}

    for a, q in bench.CONFIGS:
        name = bench.tag(a, q)
        code, err = quiet(["build", "--a", a, "--q", q, "--max-len", bench.RECHECK_DEPTH,
                           "--out", bench.DATA])
        assert code == 0, err
        path = bench.DATA / bench.export_name(a, q, bench.RECHECK_DEPTH)
        refs["exports"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        rep = check_properties(import_cache(path), bench.RECHECK_DEPTH)
        assert rep.ok
        refs["recheck_instances"][name] = rep.instances
        print(f"export {path.name}: {rep.instances} instances", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for a, q in bench.CONFIGS:
            name = bench.tag(a, q)
            out = Path(tmp) / name
            code, err = quiet(["verify", "--a", a, "--q", q, "--max-len", bench.TREE_DEPTH,
                               "--seed", bench.VERIFY_SEED, "--out", out])
            if code == 0:
                report = json.loads((out / "verify_report.json").read_text())
                refs["verify"][name] = {"suites": [
                    [s["title"], s["ok"], sum(s["instances"].values())] for s in report["suites"]]}
            else:
                refs["verify"][name] = {"exit": code, "error": err}
            print(f"verify {name}: exit {code} {err}", flush=True)

        rng = random.Random(POOL_SEED)
        for i in range(TRACE_POOL):
            a, q = bench.CONFIGS[i % len(bench.CONFIGS)]
            request = (a, q, random_spec(rng), rng.randint(8, 18))
            _t, code, rows, verdict, err = worker.run_trace_request(request, Path(tmp))
            refs["trace"].append({"a": a, "q": q, "spec": request[2], "k": request[3],
                                  "exit": code, "rows": rows, "verdict": verdict,
                                  "error": err or None})
        failed = sum(r["exit"] != 0 for r in refs["trace"])
        print(f"trace pool: {len(refs['trace'])} requests, {failed} exit nonzero")

    (bench.DATA / "refs.json").write_text(json.dumps(refs, indent=0) + "\n")


if __name__ == "__main__":
    main()

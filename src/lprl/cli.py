"""Command-line front end: build caches, run verification suites, trace paths.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or parse
error or an unusable output directory, 3 a materialization or an
entrywise comparison past its entry limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import string
import sys
from pathlib import Path
from typing import NamedTuple

from .construction import (
    ConstructionCache,
    build_tree,
    cache_stats,
    check_properties,
    export_cache,
    int_text,
    write_output,
)
from .errors import ResourceLimitError
from .grid import pair
from .reduction import (
    AlphaSpec,
    EventuallyOne,
    FiniteOnes,
    PeriodicOnes,
    alpha_bit,
    bad_row,
    check_divergence_target,
    continuity_check,
    divergence_witness,
    in_p3,
    path_rows,
    stabilization_check,
    standard_corpus,
    unit_ball_check,
)
from .reports import CheckReport
from .seqspace import DEFAULT_ETA, ExpLadder, Margin, certified_less, pnorm_pow

CORPUS_BLOCK_DEPTH = 12
DIVERGENCE_TARGET = 3.0
STABILIZATION_ROWS = 3  # i = 0, 1, 2
CONTINUITY_PAIRS = 20
CONTINUITY_EXTRA = 2


# ---------------------------------------------------------------------------
# AlphaSpec serialization grammar
# ---------------------------------------------------------------------------

class SpecParseError(ValueError):
    pass


# digits and whitespace are ASCII, as in the cache format: ``\d`` and ``\s``
# would read any Unicode digit and space
_CLAUSE = re.compile(r"row=([0-9]+):(?:(finite)\{\s*([0-9]+(?:\s*,\s*[0-9]+)*)?\s*\}"
                     r"|eventually\(([0-9]+)\)|periodic\(([0-9]+),([0-9]+),([0-9]+)\))", re.ASCII)


def parse_alpha_spec(text):
    """Parse ``row=<i>:finite{j,...} | eventually(<j>) | periodic(<r>,<m>,<j>)``.

    Clauses are semicolon-separated; the empty string is the all-zero
    point. Undeclared rows are all-zero. Inside ``finite{...}`` whitespace
    may surround the commas and braces only, and no item may be empty.
    """
    rows = {}
    text = text.strip(string.whitespace)
    if not text:
        return AlphaSpec.from_rows(rows)
    for pos, raw in enumerate(text.split(";")):
        clause = raw.strip(string.whitespace)
        m = _CLAUSE.fullmatch(clause)
        if m is None:
            raise SpecParseError(f"clause {pos}: unrecognized token {clause!r}")
        row, finite, cols, start, *periodic = m.groups()
        row = int(row)
        if finite:
            pat = FiniteOnes(frozenset(int(c) for c in cols.split(",")) if cols else frozenset())
        elif start is not None:
            pat = EventuallyOne(int(start))
        else:
            pat = PeriodicOnes(*map(int, periodic))
        if row in rows:
            raise SpecParseError(f"clause {pos}: duplicate row {row}")
        rows[row] = pat
    return AlphaSpec.from_rows(rows)


def format_alpha_spec(spec):
    parts = []
    for i, pat in spec.rows:
        if isinstance(pat, FiniteOnes):
            cols = ",".join(str(c) for c in sorted(pat.cols))
            parts.append(f"row={i}:finite{{{cols}}}")
        elif isinstance(pat, EventuallyOne):
            parts.append(f"row={i}:eventually({pat.j_start})")
        else:
            parts.append(f"row={i}:periodic({pat.residue},{pat.modulus},{pat.j_min})")
    return ";".join(parts)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_build(cache, max_len, out):
    """Populate the full tree to max_len and export it deterministically."""
    build_tree(cache, max_len)
    stats = cache_stats(cache)
    path = export_cache(cache, out / f"cache_a{cache.ladder.a}_q{cache.ladder.q}_len{max_len}.txt")
    print(f"nodes cached: {stats['nodes']}")
    print(f"max phi length: {int_text(stats['max_phi_length'])}")
    print(f"stored literal entries: {stats['literal_entries']}")
    print(f"window segments: {stats['window_segments']} "
          f"(covering {int_text(stats['window_entries'])} entries as descriptors)")
    print(f"cache written to {path}")
    return 0


def _seeded_continuity_pairs(rng, count):
    """Spec pairs agreeing on all positions <= their agree_to.

    The mutated cell is the first grid cell past the agreement window whose
    index is at most 9. That cap once kept the prefixes short enough to
    materialize; continuity no longer materializes, but the cap stays
    because it fixes the pairs (and suite titles) a seed gives.
    """
    pairs = []
    while len(pairs) < count:
        agree_to = rng.randrange(3, 9)
        rows_a = {}
        for _ in range(rng.randrange(0, 3)):
            rows_a[rng.randrange(0, 3)] = FiniteOnes(
                frozenset(rng.sample(range(0, 3), rng.randrange(0, 3))))
        spec_a = AlphaSpec.from_rows(rows_a)
        mutation = min(
            ((i, j) for i in range(3) for j in range(5)
             if agree_to < pair(i, j) <= 9),
            key=lambda cell: pair(*cell))
        i, j = mutation
        base = rows_a.get(i)
        cols = set(base.cols) if isinstance(base, FiniteOnes) else set()
        cols.add(j)
        rows_b = dict(rows_a)
        rows_b[i] = FiniteOnes(frozenset(cols))
        spec_b = AlphaSpec.from_rows(rows_b)
        if any(alpha_bit(spec_a, n) != alpha_bit(spec_b, n) for n in range(agree_to + 1)):
            continue
        pairs.append((spec_a, spec_b, agree_to))
    return pairs


def run_verification_suites(cache, max_len, seed):
    """All finite-scale suites over the standard corpus; list of reports."""
    build_tree(cache, max_len)  # its walk carries the parts; the check builds nothing
    reports = [check_properties(cache, max_len)]
    corpus = standard_corpus()
    depth = min(CORPUS_BLOCK_DEPTH, max(max_len, 1) + 2)
    # each spec's path is walked once, with sums where the stabilization
    # rows read them; the unit-ball, stabilization and divergence checks
    # all read that walk
    stable = cache.ladder.exponents(STABILIZATION_ROWS)
    paths = [path_rows(cache, spec, depth, stable if in_p3(spec) else ()) for spec in corpus]
    reports += [unit_ball_check(cache, path) for path in paths]
    for spec, path in zip(corpus, paths):
        if in_p3(spec):
            for i in range(STABILIZATION_ROWS):
                reports.append(stabilization_check(cache, spec, i, path))
        else:
            row = bad_row(spec)
            witness = divergence_witness(cache, spec, row, DIVERGENCE_TARGET, path)
            rep = CheckReport(f"divergence row={row}", keep_passing=True)
            rep.add("target-cleared",
                    certified_less(DIVERGENCE_TARGET, witness.norm_value, cache.margin),
                    witness.norm_value, DIVERGENCE_TARGET,
                    note=f"prefix_len={int_text(witness.prefix_len)}")
            reports.append(rep)
    rng = random.Random(seed)
    for spec_a, spec_b, agree_to in _seeded_continuity_pairs(rng, CONTINUITY_PAIRS):
        reports.append(continuity_check(cache, spec_a, spec_b, agree_to, CONTINUITY_EXTRA))
    return reports


def cmd_verify(cache, max_len, seed, out):
    """Run every suite, write the machine-readable report, exit by outcome."""
    reports = run_verification_suites(cache, max_len, seed)
    payload = {
        "config": {
            "a": cache.ladder.a, "q": cache.ladder.q, "max_len": max_len,
            "eta": cache.margin.eta, "seed": seed,
        },
        "suites": [r.to_dict() for r in reports],
        "ok": all(r.ok for r in reports),
    }
    path = write_output(out / "verify_report.json", json.dumps(payload, indent=2) + "\n")
    for r in reports:
        print(r.summary())
    print(f"report written to {path}")
    return 0 if payload["ok"] else 1


TRACE_COLUMNS = [
    "k", "bit", "block_len", "block_q_pow",
    "cum_q_pow", "cum_p0_pow", "cum_p1_pow", "cum_p2_pow", "cum_p3_pow",
]


def cmd_trace(cache, spec_text, k, target, out):
    """Emit the block table of a path as CSV (full-precision values).

    A non-member spec's divergence target is checked before anything is
    built, written or printed; a member spec never reads it. The path to
    k is walked once (``path_rows``): the table, the stabilization checks
    and the divergence walk up to k read its nodes and its power sums.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    spec = parse_alpha_spec(spec_text)
    member = in_p3(spec)
    if not member:
        check_divergence_target(target)
    ladder = cache.ladder
    path = path_rows(cache, spec, k, (ladder.q,) + ladder.exponents(4))
    # no field needs quoting: each is an int, a column name or a float repr
    lines, block, sums, parent = [",".join(TRACE_COLUMNS)], None, None, cache.root
    for t, (node, row) in enumerate(path):
        if node.block is not block:  # every 0-node shares one block object
            block = node.block
            block_text = f"{block.length},{pnorm_pow(block, ladder.q)!r}"
        if row is not sums:  # a 0-node that shares its parent's sums shares their text
            sums = row
            cum_text = ",".join(map(repr, sums.values()))
        lines.append(f"{t},{int(node is parent.kid1)},{block_text},{cum_text}")
        parent = node
    written = write_output(out / "trace.csv", "\r\n".join(lines) + "\r\n")
    print("\n".join(lines))
    print(f"trace written to {written}")
    if member:
        for i in range(STABILIZATION_ROWS):
            rep = stabilization_check(cache, spec, i, path)
            print(rep.summary())
    else:
        row_i = bad_row(spec)
        witness = divergence_witness(cache, spec, row_i, target, path)
        print(f"divergence at row {row_i}: power sum {witness.norm_value!r} "
              f"after prefix of length {int_text(witness.prefix_len)}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Flag(NamedTuple):
    name: str
    type: type
    default: object
    help: str
    required: bool = False

    @property
    def dest(self):
        """argparse's name for the flag's value."""
        return self.name[2:].replace("-", "_")


_COMMON = (
    _Flag("--a", float, 0.0, "lower exponent limit (>= 0)"),
    _Flag("--q", float, 2.0, "ambient exponent (> a)"),
    _Flag("--eta", float, DEFAULT_ETA, "strictness margin for certified comparisons"),
    _Flag("--out", str, None, "output directory (default $LPRL_OUT or ./out)"),
)
_MAX_LEN = _Flag("--max-len", int, 10, "tree depth to build/check")

# Each command's help and flags, in the order its usage lists them: the one
# table that both argparse and ``_read_flags`` read.
_COMMANDS = {
    "build": ("build the tree and export the cache", _COMMON + (_MAX_LEN,)),
    "verify": ("run all verification suites",
               _COMMON + (_MAX_LEN, _Flag("--seed", int, 0, "seed for randomized sweeps"))),
    "trace": ("emit the block table of one path", _COMMON + (
        _Flag("--spec", str, None,
              "point spec, e.g. 'row=0:finite{1,2};row=2:eventually(0)'", required=True),
        _Flag("--k", int, CORPUS_BLOCK_DEPTH, "number of blocks to trace"),
        _Flag("--target", float, DIVERGENCE_TARGET, "divergence target for non-member specs"))),
}


# by command: each flag's name -> (dest, type), and the defaults of the
# flags it need not be given
_READERS = {command: ({f.name: (f.dest, f.type) for f in flags},
                      {f.dest: f.default for f in flags if not f.required})
            for command, (_, flags) in _COMMANDS.items()}


def _print_sigma(err):
    sigma = getattr(err, "sigma", None)
    if sigma is not None:
        print(f"  sigma: {''.join(map(str, sigma))}", file=sys.stderr)


@functools.cache
def _parser():
    """The top-level parser and each command's own by name, built once per
    process; ``--out`` defaults to None, so ``$LPRL_OUT`` is read per call
    by ``main``."""
    parser = argparse.ArgumentParser(
        prog="lprl",
        description="Certified finite-scale checks for the sequence-space construction. "
                    "Trace CSV columns: " + ", ".join(TRACE_COLUMNS) + ".")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in flags:
            p.add_argument(f.name, type=f.type, default=f.default, help=f.help,
                           required=f.required)
    return parser, sub.choices


def _read_flags(command, argv):
    """The command's arguments from argv, or None where argparse must read it.

    Only an argv of the command's own exact flags, each followed by a value
    that does not start with ``-`` and that the flag's type reads, is read
    here, and argparse reads such an argv the same way: a repeated flag
    keeps its last value. Every other argv gets argparse's verdict, with its
    usage, help and error text: help, an abbreviated flag, ``--flag=value``,
    a dash-led value such as ``--target -1``, an unknown flag, a value the
    type refuses, a missing value or a missing required flag.
    """
    flags, defaults = _READERS[command]
    if len(argv) % 2:
        return None
    args = dict(defaults)
    for flag, value in zip(argv[::2], argv[1::2]):
        reader = flags.get(flag)
        if reader is None or value.startswith("-"):
            return None
        dest, kind = reader
        try:
            args[dest] = kind(value)
        except ValueError:
            return None
    return args if len(args) == len(flags) else None


def main(argv=None):
    """Run one command; return its exit code.

    An argv made of a command and its own exact flags, each with a plain
    value, is read by ``_read_flags`` from the flag table. argparse, built
    from the same table, reads every other one, and gives every usage, help
    and error text: the command's own parser, so that a usage error names
    the command, or the top-level one for an argv that does not start with
    a command, such as ``--help``, no command or an unknown one.
    """
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv else None
        args = _read_flags(command, argv[1:]) if command in _READERS else None
        if args is None:
            parser, commands = _parser()
            if command in commands:
                args = vars(commands[command].parse_args(argv[1:]))
            else:
                args = vars(parser.parse_args(argv))
                command = args.pop("command")
        cache = ConstructionCache(ExpLadder(args["a"], args["q"]), Margin(args["eta"]))
        out = Path(args["out"] or os.environ.get("LPRL_OUT", "out"))
        if command == "trace":
            return cmd_trace(cache, args["spec"], args["k"], args["target"], out)
        if args["max_len"] < 1:
            raise ValueError("max_len must be >= 1")
        # an --out that cannot be a directory fails here, before the tree is built
        out.mkdir(parents=True, exist_ok=True)
        if command == "build":
            return cmd_build(cache, args["max_len"], out)
        return cmd_verify(cache, args["max_len"], args["seed"], out)
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        _print_sigma(err)
        return 3
    # ValueError includes SpecParseError and PreconditionError; OSError is
    # an output directory that names a file or cannot be made
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        _print_sigma(err)
        return 2


if __name__ == "__main__":
    sys.exit(main())

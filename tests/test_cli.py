import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lprl import cli, construction, reduction, witness
from lprl.construction import ConstructionCache
from lprl.errors import ResourceLimitError
from lprl.reports import CheckReport
from lprl.reduction import (
    AlphaSpec, DivergenceWitness, EventuallyOne, FiniteOnes, PeriodicOnes, path_bits)
from lprl.seqspace import ExpLadder
from lprl.cli import (
    DIVERGENCE_TARGET,
    SpecParseError,
    _parser,
    cmd_build,
    cmd_trace,
    format_alpha_spec,
    int_text,
    main,
    parse_alpha_spec,
)


class TestSpecGrammar:
    def test_finite(self):
        spec = parse_alpha_spec("row=0:finite{1,2}")
        assert spec.row_pattern(0) == FiniteOnes(frozenset({1, 2}))

    def test_empty_finite_and_whitespace(self):
        spec = parse_alpha_spec(" row=3:finite{} ; row=1:eventually(4) ; row=0:finite{ 1 ,\n\t2 }\n")
        assert spec.row_pattern(3) == FiniteOnes(frozenset())
        assert spec.row_pattern(1) == EventuallyOne(4)
        assert spec.row_pattern(0) == FiniteOnes(frozenset({1, 2}))

    def test_periodic(self):
        spec = parse_alpha_spec("row=2:periodic(1,3,0)")
        assert spec.row_pattern(2) == PeriodicOnes(1, 3, 0)

    def test_empty_string_is_all_zero(self):
        assert parse_alpha_spec("") == AlphaSpec.from_rows({})

    def test_roundtrip(self):
        text = "row=0:finite{1,2};row=2:eventually(0);row=4:periodic(0,2,1)"
        assert format_alpha_spec(parse_alpha_spec(text)) == text

    @given(st.dictionaries(
        st.integers(0, 50),
        st.one_of(
            st.builds(FiniteOnes, st.frozensets(st.integers(0, 10 ** 6), max_size=5)),
            st.builds(EventuallyOne, st.integers(0, 10 ** 6)),
            st.integers(1, 1000).flatmap(lambda m: st.builds(
                PeriodicOnes, st.integers(0, m - 1), st.just(m), st.integers(0, 10 ** 6)))),
        max_size=5))
    def test_roundtrip_random_specs(self, rows):
        spec = AlphaSpec.from_rows(rows)
        assert parse_alpha_spec(format_alpha_spec(spec)) == spec

    @pytest.mark.parametrize("body", ["1 2", "1,,2", "1,", ",1", ",",
                                      # digits are ASCII: Arabic-Indic and full-width ones
                                      "\u0661", "\uff11", "\u0661,2"])
    def test_malformed_finite_is_two(self, tmp_path, capsys, body):
        clause = f"row=0:finite{{{body}}}"
        with pytest.raises(SpecParseError, match="clause 1"):
            parse_alpha_spec(f"row=1:eventually(0);{clause}")
        rc = main(["trace", "--spec", clause, "--k", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert f"clause 0: unrecognized token {clause!r}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("clause", [
        "row=\u0663:finite{\u0661,2}", "row=\u0663:finite{}", "row=\uff13:finite{1}",
        "row=0:eventually(\u0663)", "row=0:periodic(0,\uff12,0)",
    ])
    def test_non_ascii_digits_are_two(self, tmp_path, capsys, clause):
        with pytest.raises(SpecParseError, match="clause 0"):
            parse_alpha_spec(clause)
        rc = main(["trace", "--spec", clause, "--k", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert f"clause 0: unrecognized token {clause!r}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("spec", ["row=0:finite{\u3000 1 , 2 }", "\u3000row=1:eventually(2) "],
                             ids=["inside", "around"])
    def test_non_ascii_whitespace_is_two(self, tmp_path, capsys, spec):
        # whitespace is ASCII too: an ideographic space is no separator
        clause = spec.strip(" ")
        with pytest.raises(SpecParseError, match="clause 0"):
            parse_alpha_spec(spec)
        rc = main(["trace", "--spec", spec, "--k", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert f"clause 0: unrecognized token {clause!r}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_errors_cite_clause(self):
        with pytest.raises(SpecParseError, match="clause 1"):
            parse_alpha_spec("row=0:finite{1};bogus")
        with pytest.raises(SpecParseError, match="duplicate"):
            parse_alpha_spec("row=0:finite{1};row=0:eventually(2)")


class TestCommands:
    def test_build_writes_deterministic_cache(self, tmp_path, capsys):
        for out in ("one", "two"):
            construction._root.cache_clear()  # two independent builds
            assert cmd_build(ConstructionCache(ExpLadder(0.0, 2.0)), 5, tmp_path / out) == 0
        out = capsys.readouterr().out
        assert "nodes cached: 63" in out
        f1 = tmp_path / "one" / "cache_a0.0_q2.0_len5.txt"
        f2 = tmp_path / "two" / "cache_a0.0_q2.0_len5.txt"
        assert f1.read_bytes() == f2.read_bytes()

    def test_trace_zero_path(self, tmp_path, capsys):
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        assert cmd_trace(cache, "", 5, DIVERGENCE_TARGET, tmp_path) == 0
        rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert len(rows) == 7  # header + six blocks
        for line in rows[1:]:
            fields = line.split(",")
            assert fields[2] == "1"       # each block is one literal zero
            assert float(fields[3]) == 0  # zero q-cost

    def test_trace_reports_divergence(self, tmp_path, capsys):
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        assert cmd_trace(cache, "row=0:eventually(0)", 5, 2.0, tmp_path) == 0
        out = capsys.readouterr().out
        assert "divergence at row 0" in out


# an int whose decimal passes Python's default limit of 4300 digits
HUGE = 10 ** 5000


def huge_text():
    """HUGE as ``int_text`` must give it under this interpreter's limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return hex(HUGE) if 0 < limit < 5001 else str(HUGE)


class TestHugePrefixLength:
    """A divergence prefix length is written whatever its size."""

    def test_int_text(self):
        assert int_text(12345) == "12345"
        assert int_text(HUGE) == huge_text()
        assert int(int_text(HUGE), 0) == HUGE

    def test_verify_notes_it(self, monkeypatch):
        monkeypatch.setattr(cli, "divergence_witness",
                            lambda *args: DivergenceWitness(HUGE, 4.0))
        reports = cli.run_verification_suites(ConstructionCache(ExpLadder(0.0, 2.0)), 2, 0)
        notes = [c.note for r in reports if r.title.startswith("divergence") for c in r.checks]
        assert notes and set(notes) == {f"prefix_len={huge_text()}"}

    def test_trace_prints_it(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "divergence_witness",
                            lambda *args: DivergenceWitness(HUGE, 4.0))
        cache = ConstructionCache(ExpLadder(0.0, 2.0))
        assert cmd_trace(cache, "row=0:eventually(0)", 3, 2.0, tmp_path) == 0
        assert f"after prefix of length {huge_text()}\n" in capsys.readouterr().out


class TestMainExitCodes:
    def test_usage_error_is_two(self, tmp_path):
        rc = main(["build", "--a", "3", "--q", "1", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("command", [["build"], ["verify"]], ids=["build", "verify"])
    def test_max_len_below_one_is_two(self, tmp_path, capsys, command):
        rc = main(command + ["--max-len", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: max_len must be >= 1\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["build", "--max-len", "2"], ["verify", "--max-len", "2"], ["trace", "--spec", "", "--k", "3"],
    ], ids=["build", "verify", "trace"])
    @pytest.mark.parametrize("out", ["file", "dangling/sub"])
    def test_an_unusable_out_is_two(self, tmp_path, capsys, command, out):
        # a regular file, and a directory that cannot be made because its
        # parent is a link to nothing
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        rc = main(command + ["--out", str(tmp_path / out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: [Errno ")
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("command,work", [
        (["build", "--max-len", "2"], "build_tree"),
        (["verify", "--max-len", "2"], "run_verification_suites"),
    ], ids=["build", "verify"])
    def test_an_unusable_out_fails_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                   command, work):
        def refused(*args):
            raise AssertionError(f"{work} ran for an unusable --out")

        monkeypatch.setattr(cli, work, refused)
        (tmp_path / "file").write_text("kept\n")
        rc = main(command + ["--out", str(tmp_path / "file")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command,flag", [
        (["build"], ["--seed", "1"]),
        (["trace", "--spec", "row=0:eventually(0)"], ["--seed", "1"]),
        (["trace", "--spec", "row=0:eventually(0)"], ["--max-len", "3"]),
        (["trace", "--spec", "row=0:eventually(0)"], ["--ladder", "1.5"]),  # a removed flag
    ], ids=["build-seed", "trace-seed", "trace-max-len", "trace-ladder"])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                               command, flag):
        with pytest.raises(SystemExit) as exit_:
            main(command + flag + ["--out", str(tmp_path)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        # the command's own parser refuses it, and names the command
        assert err.startswith(f"usage: lprl {command[0]} [-h]")
        assert f"\nlprl {command[0]}: error: unrecognized arguments" in err
        assert not any(tmp_path.iterdir())

    def test_each_command_reads_its_own_flags(self):
        _, commands = _parser()
        flags = {name: sorted(opt for action in parser._actions if action.dest != "help"
                              for opt in action.option_strings)
                 for name, parser in commands.items()}
        common = ["--a", "--eta", "--out", "--q"]
        assert flags == {
            "build": sorted(common + ["--max-len"]),
            "verify": sorted(common + ["--max-len", "--seed"]),
            "trace": sorted(common + ["--k", "--spec", "--target"]),
        }

    @pytest.mark.parametrize("argv,code", [
        ([], 2), (["--help"], 0), (["bogus"], 2), (["trace", "--help"], 0),
    ], ids=["no-command", "help", "unknown-command", "trace-help"])
    def test_the_top_level_answers_as_before(self, capsys, argv, code):
        # main once handed every argv to the top-level parser, which hands a
        # command's arguments on to that command's parser
        def answer(parse):
            with pytest.raises(SystemExit) as exit_:
                parse(list(argv))
            return exit_.value.code, capsys.readouterr()

        parser, _ = _parser()
        got = answer(main)
        assert got == answer(parser.parse_args)
        assert got[0] == code

    def test_negative_eta_is_two(self, tmp_path, capsys):
        rc = main(["build", "--eta", "-1", "--max-len", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: margin eta must be finite and >= 0, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace", "--a", "0", "--q", "5e-324", "--spec", "", "--k", "3"],
        ["trace", "--a", "0.9999999999999999", "--q", "1", "--spec", "", "--k", "3"],
        ["trace", "--a", "1", "--q", "3", "--spec", "", "--k", "2000"],
        ["trace", "--a", "1", "--q", "1.0000000001", "--spec", "row=0:finite{0}", "--k", "2"],
        ["verify", "--a", "1", "--q", "1.0000000000000004", "--max-len", "3"],
        ["build", "--a", "1", "--q", "1.0000000000000004", "--max-len", "1"],
    ], ids=["p0-rounds-to-a", "p0-rounds-to-q", "p53-rounds-to-a", "start-past-limit",
            "verify-near-one", "build-near-one"])
    def test_a_ratio_too_near_one_is_two(self, tmp_path, capsys, monkeypatch, argv):
        # a ladder that stops decreasing, or a start index past its bit
        # limit, is refused before anything exponentiates it
        def unmade(*args):
            raise AssertionError("a start index past the limit was made")

        monkeypatch.setattr(witness.mp, "exp", unmade)
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            err.splitlines()[0]]
        assert "stops decreasing at p_" in err or "past the limit of 131072" in err

    def test_a_refused_walk_reads_no_bit_past_its_refusal(self, tmp_path, capsys, monkeypatch):
        # (1, 3)'s ladder stops decreasing at p_53, which the all-zero path
        # reaches at length 1432, so --k 2000 and --k 10**6 are refused at
        # the same node, with the same message, after the same 1432 bits
        read = []
        bits = reduction.diagonal_bits

        def counted(spec, start=0):
            for bit in bits(spec, start):
                read.append(bit)
                yield bit

        monkeypatch.setattr(reduction, "diagonal_bits", counted)
        runs = []
        for k in ("2000", "1000000"):
            read.clear()
            assert main(["trace", "--a", "1", "--q", "3", "--spec", "", "--k", k,
                         "--out", str(tmp_path)]) == 2
            runs.append((len(read), capsys.readouterr()))
        assert runs[0] == runs[1]
        count, captured = runs[1]
        assert count == 1432 and captured.out == ""
        assert captured.err.startswith("error: the ladder of a=1.0, q=3.0 stops decreasing at p_53")
        assert not (tmp_path / "trace.csv").exists()

    def test_malformed_spec_is_two(self, tmp_path, capsys):
        rc = main(["trace", "--spec", "row=0:finite{1};nope", "--k", "3",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["-1", "-2"])
    def test_negative_trace_depth_is_two(self, tmp_path, capsys, k):
        rc = main(["trace", "--spec", "", "--k", k, "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: k must be >= 0" in captured.err
        assert "[PASS]" not in captured.out
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("target", ["nan", "inf", "-1"])
    def test_non_finite_target_is_two(self, tmp_path, capsys, target):
        rc = main(["trace", "--spec", "row=0:eventually(0)", "--k", "4",
                   "--target", target, "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"divergence target must be finite and >= 0, got {target}" in captured.err
        # refused before any node is built, written or printed
        assert captured.out == ""
        assert not (tmp_path / "trace.csv").exists()

    def test_member_spec_never_reads_the_target(self, tmp_path):
        rc = main(["trace", "--spec", "row=0:finite{1}", "--k", "3",
                   "--target", "-1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_step_budget_below_one_is_two(self, tmp_path, capsys, monkeypatch, budget):
        # no search has a step budget: any value is an unknown flag
        built = []
        extend_node = construction._extend_node
        monkeypatch.setattr(construction, "_extend_node",
                            lambda *args: built.append(args) or extend_node(*args))
        with pytest.raises(SystemExit) as exit_:
            main(["build", "--step-budget", budget, "--max-len", "2", "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --step-budget {budget}" in capsys.readouterr().err
        assert built == []  # refused before any node is built
        assert not any(tmp_path.iterdir())

    def test_resource_error_is_three(self, tmp_path, capsys, monkeypatch):
        def refuse(cache, max_len, out):
            err = ResourceLimitError("refusing to materialize 9 entries (limit 8)")
            err.sigma = (0, 1)
            raise err

        monkeypatch.setattr(cli, "cmd_build", refuse)
        rc = main(["build", "--max-len", "2", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "resource limit: refusing to materialize 9 entries (limit 8)", "  sigma: 01"]

    def test_a_sum_past_float_range_is_three_naming_its_node(self, tmp_path, capsys):
        # near k = 440 a power sum at a new row of the path passes float64's
        # largest value, and no cap lies above it
        spec = "row=0:eventually(0)"
        rc = main(["trace", "--a", "0", "--q", "2", "--eta", "1e-300", "--spec", spec,
                   "--k", "440", "--out", str(tmp_path)])
        first, second = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert first == "resource limit: no float cap lies above the power sum inf"
        assert second.startswith("  sigma: ")
        sigma = second.removeprefix("  sigma: ")
        assert 400 < len(sigma) <= 441
        assert sigma == "".join(map(str, path_bits(parse_alpha_spec(spec), len(sigma) - 1)))

    def test_an_underflowing_divergence_budget_is_two_at_once(self, tmp_path):
        # the row's first one sits at position ~5e27, which no walk reaches
        done = subprocess.run(
            [sys.executable, "-m", "lprl.cli", "trace", "--spec",
             "row=99999999999999:eventually(0)", "--k", "3", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 2
        assert "error: row 99999999999999's first one is at position" in done.stderr

    def test_a_later_underflowing_divergence_budget_is_two_at_once(self, tmp_path):
        # the row's one at 0 reaches ~1; its next sits at position ~5e23
        done = subprocess.run(
            [sys.executable, "-m", "lprl.cli", "trace", "--spec",
             "row=0:periodic(0,1000000000000,0)", "--k", "3", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 2
        assert "error: row 0's next one is at position 500000000001500000000000" in done.stderr

    def test_margin_error_names_node(self, tmp_path, capsys):
        rc = main(["verify", "--eta", "0.01", "--max-len", "3", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: threshold 0.001953125 is not above the margin 0.01"
        # the 1-extension whose budget 2**-9 is below the margin
        assert err[1:] == ["  sigma: 010000001"]

    def test_verify_a1_q3_passes(self, tmp_path):
        # continuity is certified from block costs, so the (1, 3) prefixes of
        # about 2e19 entries are never materialized
        rc = main(["verify", "--a", "1", "--q", "3", "--max-len", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_report.json").read_text())
        assert payload["ok"] is True

    def test_small_verify_passes(self, tmp_path, capsys):
        rc = main(["verify", "--max-len", "4", "--out", str(tmp_path), "--seed", "1"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_report.json").read_text())
        assert payload["ok"] is True
        assert any(s["title"].startswith("construction-properties")
                   for s in payload["suites"])

    def test_parser_is_built_once_and_keeps_its_defaults(self, tmp_path, capsys,
                                                          monkeypatch):
        trace = ["trace", "--spec", "row=0:eventually(0)", "--k", "4"]
        monkeypatch.setenv("LPRL_OUT", str(tmp_path / "first"))
        _parser.cache_clear()
        assert main(trace) == 0
        first = capsys.readouterr().out
        assert main(trace + ["--target", "5"]) == 0
        targeted = capsys.readouterr().out
        assert targeted.splitlines()[-1] != first.splitlines()[-1]
        with pytest.raises(SystemExit):
            main(["trace", "--k", "4"])  # no --spec: argparse exits
        monkeypatch.setenv("LPRL_OUT", str(tmp_path / "again"))
        capsys.readouterr()
        assert main(trace) == 0
        last = capsys.readouterr().out
        # the default target 3 again, and the new $LPRL_OUT
        assert last == first.replace(str(tmp_path / "first"), str(tmp_path / "again"))
        assert ((tmp_path / "again" / "trace.csv").read_bytes()
                == (tmp_path / "first" / "trace.csv").read_bytes())
        assert _parser.cache_info().misses == 1

    def test_verify_walks_each_member_path_once(self, monkeypatch):
        calls = []
        check = cli.stabilization_check

        def recorded(cache, spec, i, path):
            calls.append((spec, i, path))
            return check(cache, spec, i, path)

        monkeypatch.setattr(cli, "stabilization_check", recorded)
        cli.run_verification_suites(ConstructionCache(ExpLadder(0.0, 2.0)), 4, 0)
        members = [spec for spec in reduction.standard_corpus() if reduction.in_p3(spec)]
        assert [(spec, i) for spec, i, _ in calls] == [
            (spec, i) for spec in members for i in range(3)]
        for n in range(0, len(calls), 3):
            (_, _, path), *rest = calls[n:n + 3]
            assert path is not None and all(other is path for _, _, other in rest)

    def test_verify_walks_each_corpus_path_once(self, monkeypatch):
        # with the property check and the continuity pairs left out, the
        # corpus suites step along each of the eight paths once, to position
        # 12: 104 steps, where the unit-ball walks and then the stabilization
        # and divergence walks made 104 + 52 + 32
        steps = []
        child = construction._child
        monkeypatch.setattr(construction, "_child",
                            lambda *args: steps.append(args[2]) or child(*args))
        monkeypatch.setattr(cli, "build_tree", lambda cache, max_len: cache)
        monkeypatch.setattr(cli, "check_properties", lambda cache, max_len: CheckReport("stub"))
        monkeypatch.setattr(cli, "_seeded_continuity_pairs", lambda rng, count: [])
        reports = cli.run_verification_suites(ConstructionCache(ExpLadder(0.0, 2.0)), 10, 0)
        assert len(reports) == 1 + 8 + 4 * 3 + 4 and all(r.ok for r in reports)
        assert len(steps) == 8 * 13
        # each step's length, from its key (the binary digits of 1 and its string)
        assert sorted(key.bit_length() - 1 for key in steps) == sorted(list(range(1, 14)) * 8)

    def test_build_then_trace_cli(self, tmp_path):
        assert main(["build", "--max-len", "4", "--out", str(tmp_path)]) == 0
        assert main(["trace", "--spec", "row=1:finite{0}", "--k", "4",
                     "--out", str(tmp_path)]) == 0


_ALL_FLAGS = sorted({flag.name for _, flags in cli._COMMANDS.values() for flag in flags})
_VALUES = ["0", "3", "12", "2.5", "1e3", "-1", "-0.5", "nan", "inf", "1_0", "08", "", " 4",
           "x", "-x", "--k", "-", "row=0:finite{1}", "row=1:eventually(2)", "a b"]
# values every flag's type reads
_PLAIN = st.sampled_from(["0", "3", "1_0", "08"])
_VALUE = st.one_of(st.sampled_from(_VALUES), _PLAIN)
# an item is a flag with its value, a flag with none, a --flag=value, an
# abbreviated, unknown or help flag with a value, or a stray value
_ITEM = st.one_of(
    st.tuples(st.sampled_from(_ALL_FLAGS), _VALUE), st.tuples(st.sampled_from(_ALL_FLAGS)),
    st.builds(lambda flag, value: (f"{flag}={value}",), st.sampled_from(_ALL_FLAGS), _VALUE),
    st.tuples(st.sampled_from(["--tar", "--ta", "--s", "--sp", "--se", "--max", "--e", "--o"]),
              _VALUE),
    st.tuples(st.sampled_from(["--bogus", "--step-budget", "--ladder", "-k", "--", "-h", "--help"]),
              _VALUE),
    st.tuples(_VALUE))


def _answer(argv):
    """main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = ("exit", exit_.code)
    return code, out.getvalue(), err.getvalue()


def _typed(args):
    # repr tells nan from nan, and -0.0 from 0.0
    return {dest: (type(value), repr(value)) for dest, value in args.items()}


def _stub(name):
    """A command that prints what it was given."""
    def run(cache, *args):
        print(name, cache.ladder, cache.margin, *map(repr, args))
        return 0
    return run


class TestArgvReader:
    """main reads an argv of a command's own exact flags, each with a plain
    value, from the flag table; argparse reads every other one. Each answer
    must be argparse's: the same arguments where the table reads them, and
    the same exit code, stdout and stderr from main everywhere."""

    @pytest.fixture(autouse=True, scope="class")
    def _in_a_fresh_cwd(self, tmp_path_factory):
        # build and verify make their --out directory before the work
        cwd = os.getcwd()
        os.chdir(tmp_path_factory.mktemp("argv"))
        yield
        os.chdir(cwd)

    @staticmethod
    def _check(command, argv):
        stubs = {name: _stub(name) for name in ("cmd_build", "cmd_verify", "cmd_trace")}
        with mock.patch.multiple(cli, **stubs):
            read = cli._read_flags(command, argv)
            if read is not None:
                # only an argv of exact own flags, each with a plain value
                names = {flag.name for flag in cli._COMMANDS[command][1]}
                assert len(argv) % 2 == 0
                assert all(flag in names and not value.startswith("-")
                           for flag, value in zip(argv[::2], argv[1::2]))
                parsed = vars(cli._parser()[1][command].parse_args(argv))
                assert _typed(read) == _typed(parsed)
            got = _answer([command] + argv)
            # main as it was, with argparse reading every argv
            with mock.patch.object(cli, "_read_flags", lambda command, argv: None):
                assert got == _answer([command] + argv)
        return read

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_reader_answers_as_argparse(self, command, data):
        own = st.tuples(st.sampled_from([flag.name for flag in cli._COMMANDS[command][1]]),
                        _VALUE)
        items = data.draw(st.one_of(st.lists(own, max_size=6),
                                    st.lists(st.one_of(own, _ITEM), max_size=6)))
        self._check(command, [token for item in items for token in item])

    @pytest.mark.parametrize("argv,read", [
        (["--spec", "-x"], False),  # a dash-led value is argparse's
        (["--out", "--k", "--spec", ""], False),
        (["--target", "-1", "--spec", "x"], False),
        (["--tar", "5", "--spec", "x"], False),  # so is an abbreviation
        (["--spec", "x", "--k=4"], False),
        (["--k", "4"], False),  # and a missing --spec
        (["--spec", "x", "--k", "4", "--k", "1_0", "--target", "nan", "--out", ""], True),
        (["--spec", "row=0:finite{1}", "--a", "08", "--q", " 4", "--eta", "inf"], True),
    ])
    def test_marked_trace_argvs(self, argv, read):
        assert (self._check("trace", argv) is not None) == read


MEMBER, NON_MEMBER = "row=0:finite{1,3};row=2:finite{0,2}", "row=1:eventually(2)"

# SHA-256 of trace.csv and of stdout (the out directory written as <out>)
# from `lprl trace --k 12`
GOLDEN_TRACE = [
    (0.0, 2.0, MEMBER, "13ebbee0bf6054c8638bfee87e1a9cc0758b05155f939ec31c0e8ae510f05dd5",
     "cad868e4b4b565a4e0c41e45f66e6fed1da99ceec173d9ce21083e194db5b7ef"),
    (0.0, 2.0, NON_MEMBER, "8f6c47657fbac8e12599c64ebc2042db042c39c622d9509aa260fdcccaea6b7d",
     "d69996bc455c31b3f4e7686d289f4fd76c7fd1f0fd7156fa628e26b85c931a8c"),
    # with a = 0 the blocks' power sums depend on the exponents' ratios to q alone
    (0.0, 0.5, MEMBER, "13ebbee0bf6054c8638bfee87e1a9cc0758b05155f939ec31c0e8ae510f05dd5",
     "cad868e4b4b565a4e0c41e45f66e6fed1da99ceec173d9ce21083e194db5b7ef"),
    (0.0, 0.5, NON_MEMBER, "8f6c47657fbac8e12599c64ebc2042db042c39c622d9509aa260fdcccaea6b7d",
     "d69996bc455c31b3f4e7686d289f4fd76c7fd1f0fd7156fa628e26b85c931a8c"),
    (1.0, 3.0, MEMBER, "c550b7a6affed7fa097b69fb50cbf32d8e2d3e16d00e940d39ac572e3c435db1",
     "2315beb71563552da49434b51fd952c82467a9eab82a0a37ab6483d38c17beae"),
    (1.0, 3.0, NON_MEMBER, "fc81a54c58a4a839e2273999f4bab191ba257f17dd7e96b43deeda61f8a75afc",
     "1f3707d9de503b1aad80d1746702eb740690380ac66a65f161072575fadb7bd2"),
]


@pytest.mark.parametrize("a,q,spec,csv_digest,out_digest", GOLDEN_TRACE, ids=[
    f"{config}-{kind}" for config in ("a0-q2", "a0-q0.5", "a1-q3")
    for kind in ("member", "non-member")])
def test_trace_output_is_golden(tmp_path, capsys, a, q, spec, csv_digest, out_digest):
    assert main(["trace", "--a", str(a), "--q", str(q), "--spec", spec, "--k", "12",
                 "--out", str(tmp_path)]) == 0
    csv_bytes = (tmp_path / "trace.csv").read_bytes()
    out = capsys.readouterr().out
    assert hashlib.sha256(csv_bytes).hexdigest() == csv_digest
    assert hashlib.sha256(out.replace(str(tmp_path), "<out>").encode()).hexdigest() == out_digest
    # the file and stdout carry the same lines
    assert csv_bytes.decode().split("\r\n")[:-1] == out.splitlines()[:14]


class TestOneWalkPerTrace:
    """A trace request walks its path once: its table, its stabilization
    checks and its divergence walk up to k read the same nodes and sums."""

    @pytest.mark.parametrize("spec", ["", "row=0:eventually(0)"], ids=["member", "non-member"])
    def test_a_request_steps_once_per_position(self, tmp_path, capsys, monkeypatch, spec):
        steps = []
        child = construction._child
        monkeypatch.setattr(construction, "_child",
                            lambda *args: steps.append(args[2]) or child(*args))
        k = 12
        assert main(["trace", "--spec", spec, "--k", str(k), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # every row is checked to k, or the target is cleared before it
        assert "[PASS] stabilization i=2 j0=0" in out or "divergence at row 0" in out
        assert len(steps) == k + 1

    def test_stabilization_reads_the_printed_sums(self, tmp_path, monkeypatch):
        # each row's prefix-bounded lhs, in the order stabilization_check
        # compares them; a passing claim makes no Check to read them from
        compared = []
        check, less = cli.stabilization_check, reduction.certified_less

        def recording(lhs, rhs, margin):
            compared[-1].append(lhs)
            return less(lhs, rhs, margin)

        def stabilization(*args):
            compared.append([])
            return check(*args)

        monkeypatch.setattr(reduction, "certified_less", recording)
        monkeypatch.setattr(cli, "stabilization_check", stabilization)
        # rows 0..2 go zero from column 2: positions 5, 8 and 12
        assert main(["trace", "--spec", "row=0:finite{0,1}", "--k", "12",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        table = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        bounded = []
        for i, (first, sums) in enumerate(zip((5, 8, 12), compared)):
            for t, lhs in enumerate(sums, first):
                assert lhs.hex() == float(table[t][f"cum_p{i}_pow"]).hex()
                bounded.append((i, t))
        assert bounded == [(0, t) for t in range(5, 13)] + [(1, t) for t in range(8, 13)] \
            + [(2, 12)]
        assert any(float(table[12][f"cum_p{i}_pow"]) > 0 for i in range(3))


class TestOutputsAreNewFiles:
    """Every output is written as a new file, so nothing at its path before
    the run shows in it: not the tail of a longer file, nor a link's target."""

    STALE = b"stale row\n" * 64

    @staticmethod
    def _run(argv, out, capsys):
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv,name", [
        (["verify", "--max-len", "3"], "verify_report.json"),
        (["build", "--max-len", "4"], "cache_a0.0_q2.0_len4.txt"),
    ], ids=["verify", "build"])
    def test_a_longer_file_leaves_no_tail(self, tmp_path, capsys, argv, name):
        self._run(argv, tmp_path / "fresh", capsys)
        fresh = (tmp_path / "fresh" / name).read_bytes()
        (tmp_path / "reused").mkdir()
        (tmp_path / "reused" / name).write_bytes(fresh + self.STALE)
        self._run(argv, tmp_path / "reused", capsys)
        assert (tmp_path / "reused" / name).read_bytes() == fresh

    def test_a_shorter_trace_after_a_longer_one(self, tmp_path, capsys):
        spec = ["trace", "--spec", "row=0:eventually(0)"]
        self._run(spec + ["--k", "12"], tmp_path / "reused", capsys)
        longer = (tmp_path / "reused" / "trace.csv").read_bytes()
        self._run(spec + ["--k", "3"], tmp_path / "reused", capsys)
        self._run(spec + ["--k", "3"], tmp_path / "fresh", capsys)
        fresh = (tmp_path / "fresh" / "trace.csv").read_bytes()
        assert len(fresh) < len(longer)
        assert (tmp_path / "reused" / "trace.csv").read_bytes() == fresh

    def test_a_symlink_is_replaced_and_its_target_kept(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_bytes(self.STALE)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trace.csv").symlink_to(target)
        argv = ["trace", "--spec", "row=0:finite{1}", "--k", "4"]
        self._run(argv, tmp_path / "out", capsys)
        self._run(argv, tmp_path / "fresh", capsys)
        written = tmp_path / "out" / "trace.csv"
        assert not written.is_symlink() and written.is_file()
        assert written.read_bytes() == (tmp_path / "fresh" / "trace.csv").read_bytes()
        assert target.read_bytes() == self.STALE

    def test_a_hard_link_is_replaced_and_its_other_names_kept(self, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_bytes(self.STALE)
        (tmp_path / "out").mkdir()
        os.link(other, tmp_path / "out" / "trace.csv")
        argv = ["trace", "--spec", "row=0:finite{1}", "--k", "4"]
        self._run(argv, tmp_path / "out", capsys)
        self._run(argv, tmp_path / "fresh", capsys)
        written = tmp_path / "out" / "trace.csv"
        assert written.read_bytes() == (tmp_path / "fresh" / "trace.csv").read_bytes()
        assert not os.path.samefile(written, other)
        assert other.read_bytes() == self.STALE and other.stat().st_nlink == 1

    def test_a_short_write_is_written_on(self, tmp_path, monkeypatch):
        # os.write may write fewer bytes than it was given
        calls = []
        write = os.write
        text = "".join(f"{n},{n * n}\r\n" for n in range(40))
        with monkeypatch.context() as patched:
            patched.setattr(os, "write", lambda fd, data: calls.append(fd) or write(fd, data[:7]))
            construction.write_output(tmp_path / "short.csv", text)
        assert (tmp_path / "short.csv").read_bytes() == text.encode()
        assert len(calls) == -(-len(text) // 7)

    def test_write_output_makes_a_missing_parent_and_keeps_line_ends(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        assert construction.write_output(path, "x\r\ny\n") == path
        assert path.read_bytes() == b"x\r\ny\n"

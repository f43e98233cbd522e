from __future__ import annotations

import time

import pytest

import copyprop.analysis as analysis
import copyprop.cli as cli
import copyprop.oracle as oracle
from copyprop import Const, Replacement, ReplacementReport, Verdict, variables
from copyprop.cli import build_parser, main
from copyprop.ir import print_program
from conftest import FIXTURES, load_fixture, sequential_diamonds

FIG1 = str(FIXTURES / "fig1.tac")
FIG2 = str(FIXTURES / "fig2.tac")
MINIMAL = str(FIXTURES / "minimal.tac")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fig1(capsys):
    code, out, err = run(capsys, "analyze", FIG1)
    assert code == 0
    assert err == ""
    assert out == (
        "B0: IN = { }\n"
        "B1: IN = { }\n"
        "B2: IN = { }\n"
        "B3: IN = { }\n"
        "B4: IN = { (y, x) }\n"
        "B5: IN = { (y, x) }\n"
    )


def test_analyze_out_sets(capsys):
    code, out, _ = run(capsys, "analyze", FIG1, "--out-sets")
    assert code == 0
    lines = out.splitlines()
    assert "B2: OUT = { (y, x) }" in lines
    assert lines.index("B0: IN = { }") < lines.index("B0: OUT = { }")


def test_analyze_skips_unreachable(tmp_path, capsys):
    path = tmp_path / "orphan.tac"
    path.write_text(
        "entry: B0\nexit: B1\nB0: nop -> B1\nB1: nop\nB9: x = 1 -> B1\n"
    )
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "B9" not in out


def test_transform_fig1(capsys):
    code, out, err = run(capsys, "transform", FIG1)
    assert code == 0
    assert err == ""
    assert "B4: z = x + w -> B5" in out.splitlines()
    assert "#" not in out  # no report lines unless asked


def test_transform_report(capsys):
    _, out, _ = run(capsys, "transform", FIG1, "--report")
    lines = out.splitlines()
    assert "# passes: 1" in lines
    assert "# B4 binary-lhs: y -> x (chain 1)" in lines


def test_transform_output_reparses(capsys):
    from copyprop import parse_program

    _, out, _ = run(capsys, "transform", FIG2)
    prog = parse_program(out)
    assert prog.blocks["B6"].stmt.src.name == "a"


def test_transform_iterate(capsys):
    _, out, _ = run(capsys, "transform", FIG2, "--iterate", "10", "--report")
    assert "# passes: 2" in out.splitlines()


def test_transform_iterate_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", FIG2, "--iterate", "0"])
    assert exc.value.code == 2
    assert "iterate" in capsys.readouterr().err


def test_transform_copy_free_is_verbatim(tmp_path, capsys):
    text = "entry: B0\nexit: B2\nB0: nop -> B1\nB1: z = a + 1 -> B2\nB2: nop\n"
    path = tmp_path / "plain.tac"
    path.write_text(text)
    _, out, _ = run(capsys, "transform", str(path))
    assert out == text


def test_compare_fig1(capsys):
    code, out, _ = run(capsys, "compare", FIG1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "classic=0 unified=1"
    assert lines[1] == "B4 binary-lhs y: classic=- unified=x"


def test_compare_fig2(capsys):
    code, out, _ = run(capsys, "compare", FIG2)
    assert code == 0
    assert out.splitlines() == [
        "classic=4 unified=6",
        "B2 binary-lhs b: classic=a unified=a",
        "B3 copy-src b: classic=- unified=a",
        "B4 binary-lhs c: classic=b unified=a",
        "B5 binary-lhs c: classic=b unified=a",
        "B5 binary-rhs b: classic=a unified=a",
        "B6 copy-src c: classic=- unified=a",
    ]


def test_compare_copy_free(tmp_path, capsys):
    path = tmp_path / "plain.tac"
    path.write_text("entry: B0\nexit: B1\nB0: nop -> B1\nB1: nop\n")
    code, out, _ = run(capsys, "compare", str(path))
    assert code == 0
    assert out == "classic=0 unified=0\n"


def test_compare_reports_a_baseline_site_the_unified_pass_lacks(monkeypatch, capsys):
    """compare only reports: a baseline rewrite with no unified counterpart
    is a site line like any other, and the exit code stays 0."""
    baseline = cli.classic_transform

    def extra_site(prog, result):
        out, report = baseline(prog, result)
        extra = Replacement("B2", "copy-src", "x", Const(9), 1)
        return out, ReplacementReport(report.replacements + (extra,), report.pass_count)

    monkeypatch.setattr(cli, "classic_transform", extra_site)
    code, out, err = run(capsys, "compare", FIG1)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "classic=1 unified=1",
        "B2 copy-src x: classic=9 unified=-",
        "B4 binary-lhs y: classic=- unified=x",
    ]


def test_check_file(capsys):
    code, out, err = run(capsys, "check", FIG2, "--inputs", "10", "--seed", "7")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert "differential: PASS" in lines
    assert "solver-agreement: PASS" in lines
    assert lines[-1] == "PASS"


def test_check_file_with_mop(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--acyclic-mop")
    assert code == 0
    assert "mop: PASS" in out.splitlines()


def test_check_mop_skips_cyclic(tmp_path, capsys):
    path = tmp_path / "loop.tac"
    path.write_text(
        "entry: B0\nexit: B3\nB0: nop -> B1\n"
        "B1: x = x + 1 -> B2\nB2: branch p -> B1, B3\nB3: nop\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--acyclic-mop")
    assert code == 0
    assert "mop: SKIP (cyclic-cfg)" in out.splitlines()


def test_check_mop_ignores_a_cycle_among_unreachable_blocks(tmp_path, capsys):
    # every path from the entry is finite, so meet-over-paths is defined
    path = tmp_path / "dead-loop.tac"
    path.write_text(
        "entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = 1 -> B2\nB2: nop\n"
        "B8: x = x + 1 -> B9\nB9: branch p -> B8, B2\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--acyclic-mop")
    assert (code, out) == (0, "differential: PASS\nsolver-agreement: PASS\nmop: PASS\nPASS\n")


def test_check_mop_skips_a_program_past_the_path_budget(tmp_path, capsys):
    # 2**20 paths; the walk toward the exit stops after the budget's 4096
    path = tmp_path / "diamonds.tac"
    path.write_text(print_program(sequential_diamonds(20)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path), "--acyclic-mop")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: SKIP (budget)", "PASS"]


def test_check_mop_transfers_once_per_walk_step(tmp_path, monkeypatch, capsys):
    # 2**12 paths; walking them once per block made 835,599 transfers
    calls = 0
    transfer = oracle.transfer

    def counted(stmt, facts):
        nonlocal calls
        calls += 1
        return transfer(stmt, facts)

    monkeypatch.setattr(oracle, "transfer", counted)
    prog = sequential_diamonds(12)
    oracle.mop_in(prog)
    assert calls <= 2**15
    path = tmp_path / "diamonds.tac"
    path.write_text(print_program(prog))
    calls = 0
    code, out, _ = run(capsys, "check", str(path), "--acyclic-mop")
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: PASS", "PASS"]
    assert calls <= 2**15


def test_check_mop_skips_a_program_past_the_step_budget(tmp_path, capsys):
    # 2**12 paths fit the path budget, but each runs through 2000 copies
    path = tmp_path / "diamonds-tail.tac"
    path.write_text(print_program(sequential_diamonds(12, tail=2000)))
    code, out, _ = run(capsys, "check", str(path), "--inputs", "1")
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: SKIP (budget)", "PASS"]


@pytest.mark.parametrize(
    "argv",
    [
        [FIG1],
        [FIG2, "--inputs", "3", "--seed", "4"],
        [MINIMAL],
        ["--fuzz", "--programs", "30", "--seed", "11"],
    ],
    ids=["fig1", "fig2", "minimal", "fuzz"],
)
def test_check_ignores_the_retired_mop_switch(argv, capsys):
    """Meet-over-paths always runs, so the old switch changes nothing."""
    plain = run(capsys, "check", *argv)
    switched = run(capsys, "check", *argv, "--acyclic-mop")
    assert plain == switched
    assert plain[0] == 0
    assert [line for line in plain[1].splitlines() if line.startswith("mop: ")]


def test_check_fuzz_does_not_count_programs_past_the_path_budget(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "PATH_BUDGET", 0)
    code, out, _ = run(capsys, "check", "--fuzz", "--programs", "20", "--seed", "42", "--acyclic-mop")
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: PASS (checked=0)", "PASS"]


def test_check_fuzz(capsys):
    code, out, _ = run(
        capsys, "check", "--fuzz", "--programs", "20", "--inputs", "3", "--seed", "42"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fuzz: programs=20 inputs=3 seed=42"
    assert lines[-1] == "PASS"


def test_check_fuzz_with_mop_reports_count(capsys):
    code, out, _ = run(
        capsys,
        "check", "--fuzz", "--programs", "20", "--inputs", "3", "--seed", "42",
        "--acyclic-mop",
    )
    assert code == 0
    mop = [ln for ln in out.splitlines() if ln.startswith("mop:")]
    assert len(mop) == 1
    assert mop[0].startswith("mop: PASS (checked=")


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],  # neither file nor --fuzz
        ["check", "x.tac", "--fuzz"],  # both
        ["check", "--fuzz", "--programs", "0"],
        ["check", "--fuzz", "--inputs", "0"],
    ],
)
def test_check_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err != ""


@pytest.mark.parametrize("fuel", ["0", "-5"])
def test_check_fuel_must_be_positive(fuel, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--fuzz", "--programs", "1", "--fuel", fuel])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--fuel must be at least 1" in captured.err


SELF_LOOP = "entry: B0\nexit: B2\nB0: nop -> B1\nB1: branch 1 -> B1, B2\nB2: nop\n"


@pytest.mark.parametrize("fuel", [str(10**7 + 1), "100000000000000000000"])
@pytest.mark.parametrize("fuzz", [False, True], ids=["file", "fuzz"])
def test_check_fuel_above_the_ceiling_is_a_usage_error(fuel, fuzz, tmp_path, monkeypatch, capsys):
    """Refused before any program is built or run: a trace holds `fuel`
    labels, and 10**20 of them overflowed inside the interpreter."""
    path = tmp_path / "loop.tac"
    path.write_text(SELF_LOOP)

    def refuse(*args, **kwargs):
        raise AssertionError("ran past the fuel check")

    monkeypatch.setattr(oracle, "interpret", refuse)
    monkeypatch.setattr(cli, "random_program", refuse)
    source = ["--fuzz", "--programs", "1"] if fuzz else [str(path)]
    with pytest.raises(SystemExit) as exc:
        main(["check", *source, "--fuel", fuel])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        "copyprop check: error: --fuel must be at most 10000000"
    ]


def test_check_fuel_at_the_ceiling_is_accepted(tmp_path, monkeypatch, capsys):
    path = tmp_path / "loop.tac"
    path.write_text(SELF_LOOP)
    fuels = []

    def record(prog, envs, fuel, **kwargs):
        fuels.append(fuel)
        return Verdict(True)

    monkeypatch.setattr(cli, "differential_check", record)
    code, out, _ = run(capsys, "check", str(path), "--fuel", str(10**7))
    assert (code, out) == (0, "differential: PASS\nsolver-agreement: PASS\nmop: SKIP (cyclic-cfg)\nPASS\n")
    assert fuels == [10**7]


def test_check_draws_each_input_only_when_it_is_read(monkeypatch, capsys):
    """The inputs are drawn lazily: a check that stops at the first input
    draws one environment, not `--inputs` of them."""
    draws = []

    class CountingRandom(cli.random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    def fail_on_first(prog, envs, fuel, **kwargs):
        return Verdict(False, "stop", next(iter(envs)))

    monkeypatch.setattr(cli.random, "Random", CountingRandom)
    monkeypatch.setattr(cli, "differential_check", fail_on_first)
    code, out, _ = run(capsys, "check", FIG1, "--inputs", "100000")
    assert code == 1
    assert out.splitlines()[:2] == ["differential: FAIL", "reason: stop"]
    assert len(draws) == len(variables(load_fixture("fig1.tac")))


def test_check_programs_above_the_ceiling_is_a_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a program past the --programs check")

    monkeypatch.setattr(cli, "random_program", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--fuzz", "--programs", str(10**6 + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        "copyprop check: error: --programs must be at most 1000000"
    ]


def test_check_programs_at_the_ceiling_is_accepted(monkeypatch, capsys):
    checked = []

    def fail_first(prog, envs, args):
        checked.append(prog)
        return "differential", Verdict(False, "stop")

    monkeypatch.setattr(cli, "_check_one", fail_first)
    code, out, _ = run(capsys, "check", "--fuzz", "--programs", str(10**6))
    assert code == 1
    assert out.splitlines()[:3] == ["fuzz: programs=1000000 inputs=5 seed=0", "differential: FAIL", "reason: stop"]
    assert len(checked) == 1


def test_main_repeats_with_the_cached_parser(capsys):
    build_parser.cache_clear()
    fresh = run(capsys, "check", FIG1, "--acyclic-mop")
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = run(capsys, "check", FIG1, "--acyclic-mop")
    assert again[:2] == fresh[:2] == (0, "differential: PASS\nsolver-agreement: PASS\nmop: PASS\nPASS\n")
    assert build_parser() is build_parser()


def test_dot_plain(capsys):
    code, out, _ = run(capsys, "dot", FIG1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph cfg {"
    assert lines[-1] == "}"
    assert sum("[label=" in ln for ln in lines) == 6
    assert sum("->" in ln for ln in lines) == 6


def test_dot_annotate(capsys):
    _, out, _ = run(capsys, "dot", FIG1, "--annotate")
    assert '  B4 [label="B4: z = y + w\\n{ (y, x) }"];' in out.splitlines()


def test_dot_transformed(capsys):
    _, out, _ = run(capsys, "dot", FIG2, "--transformed")
    assert '  B6 [label="B6: e = a"];' in out.splitlines()


def test_dot_minimal(capsys):
    _, out, _ = run(capsys, "dot", MINIMAL)
    lines = out.splitlines()
    assert sum("[label=" in ln for ln in lines) == 2
    assert sum("->" in ln for ln in lines) == 1


def test_missing_file_is_a_usage_error(capsys):
    code = main(["analyze", "does-not-exist.tac"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_undecodable_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.tac"
    path.write_bytes(b"\xff\xfe\x00bad")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_undecodable_file_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "binary.tac"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "utf-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "transform", "compare", "check", "dot"])
def test_utf8_byte_order_mark_is_skipped(command, tmp_path, capsys):
    path = tmp_path / "fig1.tac"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "fig1.tac").read_bytes())
    assert run(capsys, command, str(path)) == run(capsys, command, FIG1)


def test_a_unicode_line_separator_in_a_comment_is_not_a_line_break(tmp_path, capsys):
    path = tmp_path / "fig1.tac"
    text = (FIXTURES / "fig1.tac").read_text(encoding="utf-8")
    lines = text.split("\n")
    lines[2] += "  # a comment\u2028with a line separator"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert run(capsys, "analyze", str(path)) == run(capsys, "analyze", FIG1)


@pytest.mark.parametrize(
    "argv, solves",
    [(["compare", FIG2], 1), (["check", FIG2, "--acyclic-mop"], 2)],
)
def test_commands_solve_the_original_once(argv, solves, monkeypatch, capsys):
    """compare hands its solution to the baseline and check hands it to the
    differential check; only check's iterated rewrite solves again."""
    calls = []
    original = analysis.solve_forward

    def counted(prog, *args, **kwargs):
        calls.append(prog)
        return original(prog, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_forward", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == solves


def test_parse_diagnostics_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "broken.tac"
    path.write_text("entry: B0\nexit: B1\nB0: nop -> B9\nB1: nop\n")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown-successor B9" in captured.err


# past the 4300 digits that int() converts
LONG_DIGITS = "9" * 5000
COMMANDS = [["analyze"], ["transform"], ["compare"], ["check"], ["dot", "--annotate"]]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
def test_a_constant_too_long_for_int_is_a_parse_error(command, tmp_path, capsys):
    path = tmp_path / "long_constant.tac"
    path.write_text(f"entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = -{LONG_DIGITS} -> B2\nB2: nop\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: line 4, col 9: constant -{LONG_DIGITS} out of 64-bit range\n"


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
def test_a_label_with_a_long_digit_run_is_accepted(command, tmp_path, capsys):
    label = "L" + LONG_DIGITS
    path = tmp_path / "long_label.tac"
    path.write_text(f"entry: B0\nexit: B2\nB0: nop -> {label}\n{label}: x = 1 -> B2\nB2: nop\n")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 0
    assert err == ""
    if command[0] in ("analyze", "transform", "dot"):
        assert label in out


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", FIG2)
    _, second, _ = run(capsys, "analyze", FIG2)
    assert first == second
    args = ["check", "--fuzz", "--programs", "10", "--inputs", "2", "--seed", "5"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

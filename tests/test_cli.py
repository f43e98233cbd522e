from __future__ import annotations

import contextlib
import io
import re
import time
import tracemalloc
from dataclasses import replace

import pytest

import copyprop.analysis as analysis
import copyprop.classic as classic
import copyprop.cli as cli
import copyprop.dataflow as dataflow
import copyprop.ir as ir
import copyprop.oracle as oracle
from copyprop import Replacement, ReplacementReport, Verdict, variables
from copyprop.cli import build_parser, main
from copyprop.ir import print_program
from conftest import FIXTURES, copy_chain, fan_in, load_fixture, nested_loops, nop_run, sequential_diamonds, wide

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
    assert prog.blocks["B6"].stmt.src == "a"


def test_transform_iterate(capsys):
    _, out, _ = run(capsys, "transform", FIG2, "--iterate", "10", "--report")
    lines = out.splitlines()
    assert "# passes: 2" in lines and "# not-converged" not in lines
    # fig2 needs two rounds, so one round stops short of the fixpoint
    _, out, _ = run(capsys, "transform", FIG2, "--iterate", "1", "--report")
    lines = out.splitlines()
    assert lines[lines.index("# passes: 1") + 1] == "# not-converged"


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
        extra = Replacement("B2", "copy-src", "x", 9, 1)
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


def test_check_reports_solvers_that_disagree(monkeypatch, capsys):
    def dropping_one_in_set(prog):
        result = oracle.solve_round_robin(prog)
        return replace(result, in_sets={label: facts for label, facts in result.in_sets.items() if label != "B4"})

    monkeypatch.setattr(cli, "solve_round_robin", dropping_one_in_set)
    code, out, err = run(capsys, "check", FIG1)
    assert (code, err) == (1, "")
    head = "solver-agreement: FAIL\nreason: worklist and round-robin fixpoints differ\nprogram:\n"
    assert out == head + print_program(load_fixture("fig1.tac")) + "FAIL\n"


def test_check_file_with_mop(capsys):
    code, out, _ = run(capsys, "check", FIG1)
    assert code == 0
    assert "mop: PASS" in out.splitlines()


def test_check_mop_skips_cyclic(tmp_path, capsys):
    path = tmp_path / "loop.tac"
    path.write_text(
        "entry: B0\nexit: B3\nB0: nop -> B1\n"
        "B1: x = x + 1 -> B2\nB2: branch p -> B1, B3\nB3: nop\n"
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "mop: SKIP (cyclic-cfg)" in out.splitlines()


def test_check_mop_ignores_a_cycle_among_unreachable_blocks(tmp_path, capsys):
    # every path from the entry is finite, so meet-over-paths is defined
    path = tmp_path / "dead-loop.tac"
    path.write_text(
        "entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = 1 -> B2\nB2: nop\n"
        "B8: x = x + 1 -> B9\nB9: branch p -> B8, B2\n"
    )
    code, out, _ = run(capsys, "check", str(path))
    assert (code, out) == (0, "differential: PASS\nsolver-agreement: PASS\nmop: PASS\nPASS\n")


def test_check_mop_skips_a_program_past_the_path_budget(tmp_path, capsys):
    # 2**20 paths; the walk toward the exit stops once its steps pass the budget
    path = tmp_path / "diamonds.tac"
    path.write_text(print_program(sequential_diamonds(20)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path))
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
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: PASS", "PASS"]
    assert calls <= 2**15


def test_check_mop_skips_a_program_past_the_step_budget(tmp_path, capsys):
    # each of the 2**12 paths runs through 2000 copies, deeper than the budget admits
    path = tmp_path / "diamonds-tail.tac"
    path.write_text(print_program(sequential_diamonds(12, tail=2000)))
    code, out, _ = run(capsys, "check", str(path), "--inputs", "1")
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: SKIP (budget)", "PASS"]


@pytest.mark.parametrize("shape", [fan_in, sequential_diamonds], ids=["fan_in", "sequential_diamonds"])
def test_check_finishes_on_large_programs_whose_labels_run_against_the_flow(shape, tmp_path, capsys):
    # round robin sweeps once per block on both shapes; at n=1000 check takes
    # under 3 s on a shared 2-vCPU host, so 60 s leaves a margin of over 20x
    path = tmp_path / "shape.tac"
    path.write_text(print_program(shape(1000)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", str(path), "--inputs", "2")
    assert time.perf_counter() - start < 60
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


# shape and its loop connectedness d; each command takes under 0.5 s on a shared 2-vCPU host,
# the slowest `check` on `wide`; the loops wrap a long body, so d + 2 is close to the passes a solve takes
SHAPES = {
    "nested_loops": (lambda: nested_loops(2, body=2000), 2),
    "nop_run": (lambda: nop_run(2000), 0),
    "chain": (lambda: copy_chain(150)[0], 0),
    "wide": (lambda: wide(600), 0),
    "fan_in": (lambda: fan_in(300), 0),
    "diamonds": (lambda: sequential_diamonds(600), 0),
}
COMMANDS = {
    "analyze": ["analyze"],
    "iterate": ["transform", "--iterate", "10"],
    "compare": ["compare"],
    "check": ["check", "--inputs", "2"],
    "dot": ["dot", "--annotate"],
}


@pytest.mark.parametrize("shape, d", list(SHAPES.values()), ids=list(SHAPES))
@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_every_command_solves_a_shape_in_d_plus_2_passes(shape, d, argv, tmp_path, monkeypatch, capsys):
    """Availability and reaching definitions are gen/kill frameworks, so a
    solve in reverse postorder settles within d + 2 passes over the reachable
    blocks, d the loop connectedness (Kam & Ullman, 1976): every solve a
    command makes visits at most d + 2 blocks per reachable block."""
    solves = []
    solve = dataflow._solve

    def counted(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(dataflow, "_solve", counted)
    monkeypatch.setattr(classic, "_solve", counted)
    path = tmp_path / "shape.tac"
    path.write_text(print_program(shape()))
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert argv[0] != "check" or out.splitlines()[-1] == "PASS"
    assert solves
    for result in solves:
        assert result.iterations <= (d + 2) * len(result.in_sets)


def test_check_finds_the_edge_views_of_a_file_once(monkeypatch, capsys):
    """`check` solves the program and every rewrite of it, and runs round
    robin, over one graph: a rewrite moves no successor, so it shares the
    program's predecessor map and reverse postorder, and each is found once."""
    built = []
    for name in ("_build_predecessors", "_build_reverse_postorder"):
        build = getattr(ir, name, None)
        monkeypatch.setattr(ir, name, lambda prog, b=build, n=name: built.append(n) or b(prog), raising=False)
    code, out, _ = run(capsys, "check", FIG2)  # its first pass moves copy sources, so it iterates
    assert code == 0
    assert sorted(built) == ["_build_predecessors", "_build_reverse_postorder"]


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
    monkeypatch.setattr(oracle, "STEP_BUDGET", 0)
    code, out, _ = run(capsys, "check", "--fuzz", "--programs", "20", "--seed", "42")
    assert code == 0
    assert out.splitlines()[-2:] == ["mop: PASS (checked=0)", "PASS"]


@pytest.fixture(scope="module")
def fuzz_run():
    """One run of `check --fuzz` whose exit code and stdout both tests below read."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "--fuzz", "--programs", "20", "--inputs", "3", "--seed", "42"])
    return code, out.getvalue().splitlines()


def test_check_fuzz(fuzz_run):
    code, lines = fuzz_run
    assert code == 0
    assert lines[0] == "fuzz: programs=20 inputs=3 seed=42"
    assert lines[-1] == "PASS"


def test_check_fuzz_with_mop_reports_count(fuzz_run):
    code, lines = fuzz_run
    assert code == 0
    mop = [ln for ln in lines if ln.startswith("mop:")]
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
    """Refused before any program is built or run: a run whose state never
    repeats executes, and keeps the label of, every step of its fuel."""
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


def test_check_at_the_fuel_ceiling_keeps_no_fuel_long_trace(tmp_path, monkeypatch, capsys):
    """Generated program 543 spends the fuel on all five inputs of `check
    --seed 0`, and so does program 635 with its B2: b = 6 made a nop, where
    B5: b = b * 0 then reads the input b. Each run is fast-forwarded: its
    trace holds a few labels, and one check stays far below the ~230 MB that
    traces of 10**7 labels take. Program 543 reads no input, so its five
    inputs share one run of the original and one of the one-pass program;
    program 635, so edited, reads b, and runs both per input."""
    edited = oracle.random_program(oracle.GenParams(seed=635))
    b2 = edited.blocks["B2"]
    assert b2.stmt == ir.Copy("b", 6)
    edited = ir.Program({**edited.blocks, "B2": ir.Block(ir.Nop(), b2.succs)}, edited.entry, edited.exit)
    traces, interpret = [], oracle.interpret

    def recording(*args, **kwargs):
        traces.append(interpret(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(oracle, "interpret", recording)
    for prog, runs in ((oracle.random_program(oracle.GenParams(seed=543)), 2), (edited, 10)):
        path = tmp_path / "looping.tac"
        path.write_text(print_program(prog))
        traces.clear()
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "check", str(path), "--inputs", "5", "--fuel", str(10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out.splitlines()[-1]) == (0, "PASS")
        assert peak < 16 * 2**20
        assert len(traces) == runs  # an original and a one-pass run per input that shares none
        for trace in traces:
            assert (trace.status, trace.length) == ("fuel-exhausted", 10**7)
            assert len(trace.prefix) + len(trace.cycle) < 100


def test_check_fuzz_runs_each_program_at_most_three_times(monkeypatch, capsys):
    """Generated programs assign every variable before reading it, so the
    first input's runs give the verdict of every input: the original, the
    one-pass and the iterated program run once each, however many inputs
    there are. The other inputs are still drawn, as later programs' inputs
    come from the same rng."""
    calls: list[int] = []
    draws = []
    interpret, differential_check = oracle.interpret, cli.differential_check

    class CountingRandom(cli.random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    def counting(*args, **kwargs):
        calls[-1] += 1
        return interpret(*args, **kwargs)

    def check(*args, **kwargs):
        calls.append(0)
        return differential_check(*args, **kwargs)

    monkeypatch.setattr(cli.random, "Random", CountingRandom)
    monkeypatch.setattr(oracle, "interpret", counting)
    monkeypatch.setattr(cli, "differential_check", check)
    assert main(["check", "--fuzz", "--programs", "100", "--inputs", "5", "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(calls) == 100
    assert max(calls) <= 3
    # the generator's own rng is counted too, and never draws from -64..64;
    # every generated program has GenParams' 4 variables
    assert draws.count((-64, 64)) == 100 * 5 * 4


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
    fresh = run(capsys, "check", FIG1)
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = run(capsys, "check", FIG1)
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


# B1: x = 1, B2: y = x + 1, so one pass rewrites a binary use and no copy source
CONSTANT_USE = "entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = 1 -> B2\nB2: y = x + 1 -> B3\nB3: nop\n"


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["compare", FIG2], 1),
        (["check", FIG2], 2),
        (["transform", FIG2, "--iterate", "10"], 2),
        (["transform", "CONSTANT_USE", "--iterate", "10"], 1),
    ],
)
def test_commands_solve_the_original_once(argv, solves, monkeypatch, capsys, tmp_path):
    """compare hands its solution to the baseline and check hands it to the
    differential check; only check's iterated rewrite solves again. An
    iterated transform solves until a round moves no copy source (fig2's
    first round moves c = b to c = a) and counts the next round unsolved."""
    path = tmp_path / "constant_use.tac"
    path.write_text(CONSTANT_USE)
    argv = [str(path) if arg == "CONSTANT_USE" else arg for arg in argv]
    calls = []
    original = analysis.solve_forward

    def counted(prog, *args, **kwargs):
        calls.append(prog)
        return original(prog, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_forward", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == solves


def test_iterate_reports_the_round_it_counts_without_solving(tmp_path, capsys):
    path = tmp_path / "constant_use.tac"
    path.write_text(CONSTANT_USE)
    assert run(capsys, "transform", str(path), "--iterate", "10", "--report") == (
        0,
        "entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = 1 -> B2\nB2: y = 1 + 1 -> B3\nB3: nop\n"
        "# passes: 2\n"
        "# B2 binary-lhs: x -> 1 (chain 1)\n",
        "",
    )


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


def readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ copyprop ...` line in README's fenced text blocks, with the
    lines the block shows under it."""
    readme = (FIXTURES.parent / "README.md").read_text()
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"^```text\n(.*?)^```$", readme, re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ copyprop "):
                shown = []
                examples.append((line, shown))
            elif shown is not None:
                shown.append(line)
    return examples


def shows(shown: list[str], out: list[str]) -> bool:
    """Whether `out` is `shown` line for line, a `...` line standing for any run of lines."""
    if not shown:
        return not out
    if shown[0] == "...":
        return any(shows(shown[1:], out[i:]) for i in range(len(out) + 1))
    return bool(out) and out[0] == shown[0] and shows(shown[1:], out[1:])


def test_readme_examples_print_what_they_show(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    examples = readme_examples()
    assert len(examples) >= 4
    for command, shown in examples:
        code, out, err = run(capsys, *command.split()[2:])
        assert (code, err) == (0, ""), command
        assert shows(shown, out.splitlines()), command

from __future__ import annotations

import random

import pytest

from copyprop import (
    Binary,
    Block,
    Branch,
    Const,
    Copy,
    GenParams,
    Nop,
    ParseError,
    Program,
    Var,
    defined_var,
    format_statement,
    parse_program,
    print_program,
    random_program,
    to_dot,
    used_vars,
    uses,
    validate,
    variables,
)
from conftest import load_fixture, reversed_listing, straight_line


def test_parse_fig1_structure(fig1):
    assert fig1.entry == "B0"
    assert fig1.exit == "B5"
    assert sorted(fig1.blocks) == ["B0", "B1", "B2", "B3", "B4", "B5"]
    assert fig1.blocks["B1"].stmt == Branch(Var("p"))
    assert fig1.blocks["B1"].succs == ("B2", "B3")
    assert fig1.blocks["B2"].stmt == Copy("y", Var("x"))
    assert fig1.blocks["B4"].stmt == Binary("z", "+", Var("y"), Var("w"))
    assert fig1.blocks["B5"].succs == ()


def test_parse_ignores_comments_and_blanks():
    text = """\
entry: B0
exit: B2

# a comment
B0: nop -> B1
B1: x = 5 -> B2   # trailing comment
B2: nop
"""
    prog = parse_program(text)
    assert prog.blocks["B1"].stmt == Copy("x", Const(5))


def test_parse_signed_constants():
    prog = parse_program(
        "entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = -3 -> B2\nB2: y = +7 -> B3\nB3: nop\n"
    )
    assert prog.blocks["B1"].stmt == Copy("x", Const(-3))
    assert prog.blocks["B2"].stmt == Copy("y", Const(7))


def test_parse_int64_boundaries():
    lo, hi = -(2**63), 2**63 - 1
    prog = parse_program(
        f"entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = {lo} -> B2\nB2: y = {hi} -> B3\nB3: nop\n"
    )
    assert prog.blocks["B1"].stmt == Copy("x", Const(lo))
    assert prog.blocks["B2"].stmt == Copy("y", Const(hi))


def test_parse_constant_out_of_range():
    text = f"entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = {2**63} -> B2\nB2: nop\n"
    with pytest.raises(ParseError, match="out of 64-bit range"):
        parse_program(text)


def test_validate_constant_range():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(2**63)), ("B2",)),
        "B2": Block("B2", Nop(), ()),
    }
    assert "constant-range B1" in validate(Program(blocks, "B0", "B2"))


def test_parse_error_reports_position():
    text = "entry: B0\nexit: B1\nB0: nop -> B1\nB1: x = $\n"
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert exc.value.line == 4
    assert exc.value.col > 0


def test_parse_duplicate_label():
    text = "entry: B0\nexit: B1\nB0: nop -> B1\nB1: nop\nB1: nop\n"
    with pytest.raises(ParseError, match="duplicate label"):
        parse_program(text)


def test_parse_missing_entry_directive():
    with pytest.raises(ParseError):
        parse_program("exit: B1\nB0: nop -> B1\nB1: nop\n")


@pytest.mark.parametrize("bad", ["x = nop", "nop = 5", "branch = 1", "x = entry"])
def test_reserved_words_rejected(bad):
    text = f"entry: B0\nexit: B2\nB0: nop -> B1\nB1: {bad} -> B2\nB2: nop\n"
    with pytest.raises(ParseError):
        parse_program(text)


def test_parse_branch_needs_two_successors():
    text = "entry: B0\nexit: B2\nB0: nop -> B1\nB1: branch p -> B2\nB2: nop\n"
    with pytest.raises(ParseError, match="branch-arity"):
        parse_program(text)


def test_parse_unknown_successor():
    text = "entry: B0\nexit: B1\nB0: nop -> L9\nB1: nop\n"
    with pytest.raises(ParseError, match="unknown-successor L9"):
        parse_program(text)


def test_validate_clean_fixture(fig2):
    assert validate(fig2) == []


def test_validate_exit_must_be_nop():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(1)), ()),
    }
    assert validate(Program(blocks, "B0", "B1")) == ["exit-not-nop"]


def test_validate_entry_must_be_nop():
    blocks = {
        "B0": Block("B0", Copy("x", Const(1)), ("B1",)),
        "B1": Block("B1", Nop(), ()),
    }
    assert "entry-not-nop" in validate(Program(blocks, "B0", "B1"))


def test_validate_entry_has_preds():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Branch(Var("p")), ("B0", "B2")),
        "B2": Block("B2", Nop(), ()),
    }
    assert "entry-has-preds" in validate(Program(blocks, "B0", "B2"))


def test_validate_label_mismatch():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("X", Nop(), ()),
    }
    diags = validate(Program(blocks, "B0", "B1"))
    assert "label-mismatch B1" in diags


def test_validate_entry_is_exit():
    prog = Program({"B0": Block("B0", Nop(), ())}, "B0", "B0")
    assert "entry-is-exit" in validate(prog)


def test_validate_nonexit_needs_successor():
    blocks = {
        "B0": Block("B0", Nop(), ("B1",)),
        "B1": Block("B1", Copy("x", Const(1)), ()),
        "B2": Block("B2", Nop(), ()),
    }
    diags = validate(Program(blocks, "B0", "B2"))
    assert any(d.startswith("succ-arity") for d in diags)


@pytest.mark.parametrize(
    "stmt,dst,used",
    [
        (Nop(), None, ()),
        (Branch(Var("p")), None, ("p",)),
        (Copy("x", Var("y")), "x", ("y",)),
        (Copy("x", Const(3)), "x", ()),
        (Binary("z", "+", Var("a"), Const(1)), "z", ("a",)),
        (Binary("z", "*", Var("a"), Var("b")), "z", ("a", "b")),
        (Binary("z", "*", Var("a"), Var("a")), "z", ("a", "a")),
    ],
)
def test_def_use(stmt, dst, used):
    assert defined_var(stmt) == dst
    assert used_vars(stmt) == used


def test_uses_keeps_operand_order():
    assert uses(Binary("z", "-", Var("a"), Var("b"))) == (Var("a"), Var("b"))
    assert uses(Copy("x", Const(2))) == (Const(2),)
    assert uses(Nop()) == ()


def test_variables_fig1(fig1):
    assert variables(fig1) == {"p", "w", "x", "y", "z"}


@pytest.mark.parametrize(
    "stmt,text",
    [
        (Nop(), "nop"),
        (Branch(Var("p")), "branch p"),
        (Copy("y", Var("x")), "y = x"),
        (Copy("y", Const(-4)), "y = -4"),
        (Binary("z", "/", Var("a"), Const(2)), "z = a / 2"),
    ],
)
def test_format_statement(stmt, text):
    assert format_statement(stmt) == text


def test_print_minimal_is_four_lines():
    text = print_program(load_fixture("minimal.tac"))
    assert text.splitlines() == [
        "entry: B0",
        "exit: B1",
        "B0: nop -> B1",
        "B1: nop",
    ]


def test_print_orders_labels_naturally():
    stmts = [Copy(f"v{i}", Const(i)) for i in range(11)]
    text = print_program(straight_line(*stmts))
    lines = [ln for ln in text.splitlines() if not ln.endswith(("B0", "B12"))]
    # B2 must come before B10 despite lexicographic order saying otherwise
    assert lines.index("B2: v1 = 1 -> B3") < lines.index("B10: v9 = 9 -> B11")


def test_print_breaks_natural_key_ties_by_label():
    """B1 and B01 share a numeric part; the listing order must not decide
    which comes first."""
    prog = parse_program("entry: B0\nexit: B9\nB0: nop -> B01\nB01: x = 1 -> B1\nB1: y = x -> B9\nB9: nop\n")
    flipped = reversed_listing(prog)
    assert flipped == prog
    assert print_program(flipped) == print_program(prog)
    assert to_dot(flipped) == to_dot(prog)


@pytest.mark.parametrize("name", ["minimal.tac", "fig1.tac", "fig2.tac"])
def test_round_trip_fixtures(name):
    prog = load_fixture(name)
    assert parse_program(print_program(prog)) == prog


def test_round_trip_generated_corpus():
    rng = random.Random(7)
    for _ in range(30):
        prog = random_program(
            GenParams(seed=rng.randrange(2**32), branch_prob=0.3, loop_prob=0.2)
        )
        assert parse_program(print_program(prog)) == prog


def test_dot_fig1_shape(fig1):
    out = to_dot(fig1)
    lines = out.splitlines()
    assert lines[0] == "digraph cfg {"
    assert lines[-1] == "}"
    assert sum("[label=" in ln for ln in lines) == 6
    assert sum("->" in ln for ln in lines) == 6
    assert '  B4 [label="B4: z = y + w"];' in lines
    assert "  B1 -> B3;" in lines


def test_dot_minimal_shape():
    out = to_dot(load_fixture("minimal.tac"))
    lines = out.splitlines()
    assert sum("[label=" in ln for ln in lines) == 2
    assert sum("->" in ln for ln in lines) == 1


def test_dot_annotations(fig1):
    out = to_dot(fig1, {"B4": "{ (y, x) }"})
    assert '  B4 [label="B4: z = y + w\\n{ (y, x) }"];' in out.splitlines()

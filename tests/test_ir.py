from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from copyprop.ir import DIGITS_RE, natural_key
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


def test_parse_constant_with_leading_zeros_past_the_int_limit():
    zeros = "0" * 5000
    prog = parse_program(f"entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = -{zeros}5 -> B2\nB2: nop\n")
    assert prog.blocks["B1"].stmt == Copy("x", Const(-5))


def test_validate_constant_range():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", Const(2**63)), ("B2",)),
        "B2": Block(Nop(), ()),
    }
    assert "constant-range B1" in validate(Program(blocks, "B0", "B2"))


def test_parse_error_reports_position():
    text = "entry: B0\nexit: B1\nB0: nop -> B1\nB1: x = $\n"
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert exc.value.line == 4
    assert exc.value.col > 0


@pytest.mark.parametrize(
    "succs, message, col",
    [
        ("B2, $x", "bad label '$x'", 21),
        ("B2,  nop", "reserved word 'nop'", 22),
        ("B2, ,B3", "empty successor label", 21),
        ("B2,", "empty successor label", 20),
        ("$x, B2", "bad label '$x'", 17),
    ],
)
def test_parse_error_names_the_successor_column(succs, message, col):
    """Each successor label is reported at its own column, not the first
    one's; a missing one where it ends, at the next comma or the line end."""
    text = f"entry: B0\nexit: B3\nB0: nop -> B1\nB1: branch p -> {succs}\nB2: nop -> B3\nB3: nop\n"
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col) == (4, col)


def test_parse_duplicate_label():
    text = "entry: B0\nexit: B1\nB0: nop -> B1\nB1: nop\nB1: nop\n"
    with pytest.raises(ParseError, match="duplicate label"):
        parse_program(text)


# digit runs and labels past the 4300 digits that int() converts
LONG_DIGITS = "9" * 5000
LONG_LABEL = "L" + "7" * 5000
labels = st.sampled_from(("B0", "B1", "B2", "B01", LONG_LABEL, "nop", "$", ""))
operand_texts = st.sampled_from(("x", "y", "0", "-3", LONG_DIGITS, "-" + LONG_DIGITS, "0" * 5000 + "1", "branch", "$"))
tokens = st.one_of(labels, operand_texts, st.sampled_from(("entry:", "exit:", ":", "=", "+", "/", "%", "->", ",", "#")))
soups = st.lists(tokens, max_size=6).map(" ".join)
statement_texts = st.one_of(
    st.just("nop"),
    st.builds("branch {}".format, operand_texts),
    st.builds("x = {}".format, operand_texts),
    st.builds("y = {} {} {}".format, operand_texts, st.sampled_from(("+", "*", "%")), operand_texts),
    soups,
)
successor_texts = st.one_of(st.just(""), st.lists(labels, max_size=3).map(lambda names: " -> " + ", ".join(names)))
block_lines = st.builds("{}: {}{}".format, labels, statement_texts, successor_texts)
program_texts = st.builds(
    lambda head, lines: head + "\n".join(lines) + "\n",
    st.sampled_from(("entry: B0\nexit: B2\n", f"entry: {LONG_LABEL}\nexit: B2\n", "entry: B0\n", "")),
    st.lists(st.one_of(block_lines, soups), max_size=6),
)


@settings(max_examples=500)
@given(program_texts)
def test_malformed_text_raises_only_parse_errors(text):
    """Whatever the text, parsing returns a program or raises ParseError,
    never another exception, long digit runs and labels included."""
    try:
        parse_program(text)
    except ParseError:
        pass


def _int_natural_key(label):
    parts = DIGITS_RE.split(label)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(parts)), label


@settings(max_examples=300)
@given(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True), min_size=2, max_size=8))
def test_natural_key_orders_digit_runs_by_value(names):
    """Keying digit runs by length and digits sorts labels as keying them
    by their int value does, ties like B1 and B01 included."""
    assert sorted(names, key=natural_key) == sorted(names, key=_int_natural_key)


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
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", Const(1)), ()),
    }
    assert validate(Program(blocks, "B0", "B1")) == ["exit-not-nop"]


def test_validate_entry_must_be_nop():
    blocks = {
        "B0": Block(Copy("x", Const(1)), ("B1",)),
        "B1": Block(Nop(), ()),
    }
    assert "entry-not-nop" in validate(Program(blocks, "B0", "B1"))


def test_validate_entry_has_preds():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Branch(Var("p")), ("B0", "B2")),
        "B2": Block(Nop(), ()),
    }
    assert "entry-has-preds" in validate(Program(blocks, "B0", "B2"))


def test_validate_entry_is_exit():
    prog = Program({"B0": Block(Nop(), ())}, "B0", "B0")
    assert "entry-is-exit" in validate(prog)


def test_validate_nonexit_needs_successor():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", Const(1)), ()),
        "B2": Block(Nop(), ()),
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

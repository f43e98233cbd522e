from __future__ import annotations

import gc
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copyprop import (
    Binary,
    Block,
    Branch,
    Copy,
    GenParams,
    Nop,
    Operand,
    ParseError,
    Program,
    Statement,
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
from copyprop.ir import BINARY_OPS, DIGITS_RE, INT64_MAX, INT64_MIN, INT_RE, RESERVED, natural_key
from conftest import FIXTURES, load_fixture, reversed_listing, straight_line
from strategies import programs


def test_parse_fig1_structure(fig1):
    assert fig1.entry == "B0"
    assert fig1.exit == "B5"
    assert sorted(fig1.blocks) == ["B0", "B1", "B2", "B3", "B4", "B5"]
    assert fig1.blocks["B1"].stmt == Branch("p")
    assert fig1.blocks["B1"].succs == ("B2", "B3")
    assert fig1.blocks["B2"].stmt == Copy("y", "x")
    assert fig1.blocks["B4"].stmt == Binary("z", "+", "y", "w")
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
    assert prog.blocks["B1"].stmt == Copy("x", 5)


def test_a_comment_may_hold_a_unicode_line_separator():
    """Only \\n, \\r\\n and \\r end a line; U+2028 in a comment is comment text."""
    text = "entry: B0\nexit: B2\nB0: nop -> B1  # see\u2028B7\nB1: x = 5 -> B2\nB2: nop\n"
    prog = parse_program(text)
    assert prog.blocks["B0"].succs == ("B1",)
    assert prog.blocks["B1"].stmt == Copy("x", 5)


def test_one_leading_byte_order_mark_is_skipped():
    """The library reads a UTF-8 byte-order mark as the CLI does; a second
    one is text, and errors keep the columns of the text without the mark."""
    text = (FIXTURES / "minimal.tac").read_text(encoding="utf-8")
    assert parse_program("\ufeff" + text) == parse_program(text)
    with pytest.raises(ParseError, match=re.escape("expected 'entry: <label>'")) as exc:
        parse_program("\ufeff\ufeff" + text)
    assert (exc.value.line, exc.value.col) == (1, 1)
    with pytest.raises(ParseError, match=re.escape("bad label '$'")) as exc:
        parse_program("\ufeffentry: $\nexit: B1\n")
    assert (exc.value.line, exc.value.col) == (1, 8)


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x85", "\u2029"])
def test_vertical_whitespace_between_tokens_is_whitespace(space):
    text = f"entry: B0\r\nexit: B2\rB0: nop{space}-> B1\nB1: x{space}={space}5 -> B2\nB2: nop\n"
    prog = parse_program(text)
    assert prog.blocks["B0"].succs == ("B1",)
    assert prog.blocks["B1"].stmt == Copy("x", 5)


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\u2028"])
def test_parse_error_after_vertical_whitespace_names_the_editor_line(space):
    text = f"entry: B0\nexit: B2\nB0: nop{space}-> B1\nB1: x = $ -> B2\nB2: nop\n"
    with pytest.raises(ParseError, match=re.escape("expected operand, got '$'")) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col) == (4, 9)


def test_parse_signed_constants():
    prog = parse_program(
        "entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = -3 -> B2\nB2: y = +7 -> B3\nB3: nop\n"
    )
    assert prog.blocks["B1"].stmt == Copy("x", -3)
    assert prog.blocks["B2"].stmt == Copy("y", 7)
    # an operand is its own value: a constant its int, a variable its name
    prog = parse_program(
        "entry: B0\nexit: B4\nB0: nop -> B1\nB1: x = -5 -> B2\nB2: x = y -> B3\nB3: branch 0 -> B4, B4\nB4: nop\n"
    )
    assert type(prog.blocks["B1"].stmt.src) is int
    assert type(prog.blocks["B2"].stmt.src) is str
    assert type(prog.blocks["B3"].stmt.cond) is int
    assert uses(prog.blocks["B1"].stmt) == (-5,)
    assert uses(prog.blocks["B2"].stmt) == ("y",)
    assert uses(prog.blocks["B3"].stmt) == (0,)


def test_parse_int64_boundaries():
    lo, hi = -(2**63), 2**63 - 1
    prog = parse_program(
        f"entry: B0\nexit: B3\nB0: nop -> B1\nB1: x = {lo} -> B2\nB2: y = {hi} -> B3\nB3: nop\n"
    )
    assert prog.blocks["B1"].stmt == Copy("x", lo)
    assert prog.blocks["B2"].stmt == Copy("y", hi)


def test_parse_constant_out_of_range():
    text = f"entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = {2**63} -> B2\nB2: nop\n"
    with pytest.raises(ParseError, match="out of 64-bit range"):
        parse_program(text)


def test_parse_constant_with_leading_zeros_past_the_int_limit():
    zeros = "0" * 5000
    prog = parse_program(f"entry: B0\nexit: B2\nB0: nop -> B1\nB1: x = -{zeros}5 -> B2\nB2: nop\n")
    assert prog.blocks["B1"].stmt == Copy("x", -5)


def test_validate_constant_range():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", 2**63), ("B2",)),
        "B2": Block(Nop(), ()),
    }
    assert "constant-range B1" in validate(Program(blocks, "B0", "B2"))


@pytest.mark.parametrize("label", ["entry", "1B", "B\u00e9"])
def test_validate_bad_label(label):
    blocks = {
        "B0": Block(Nop(), (label,)),
        label: Block(Copy("x", 1), ("B2",)),
        "B2": Block(Nop(), ()),
    }
    assert validate(Program(blocks, "B0", "B2")) == [f"bad-label {label}"]


@pytest.mark.parametrize(
    "stmt, diag",
    [
        (Copy("nop", 1), "bad-identifier nop"),
        (Copy("x", "1x"), "bad-identifier 1x"),
        (Binary("x", "%", "a", 2), "bad-operator B1"),
        (Copy("x", "\u017f"), "bad-identifier \u017f"),
    ],
)
def test_validate_statement_names_and_operator(stmt, diag):
    blocks = {"B0": Block(Nop(), ("B1",)), "B1": Block(stmt, ("B2",)), "B2": Block(Nop(), ())}
    assert validate(Program(blocks, "B0", "B2")) == [diag]


def test_validate_orders_diagnostics_by_label_then_by_check():
    """Labels in natural order; within a block the label, then the
    statement's destination, operands and operator, then its successors."""
    blocks = {
        "B0": Block(Nop(), ("1B",)),
        "B10": Block(Binary("y", "%", 2**63, "branch"), ("B11",)),
        "B2": Block(Copy("nop", "1x"), ("B10", "L7")),
        "1B": Block(Branch("p"), ("B2",)),
        "B11": Block(Nop(), ()),
    }
    assert validate(Program(blocks, "B0", "B11")) == [
        "bad-label 1B",
        "branch-arity 1B",
        "bad-identifier nop",
        "bad-identifier 1x",
        "unknown-successor L7",
        "succ-arity B2",
        "constant-range B10",
        "bad-identifier branch",
        "bad-operator B10",
    ]


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
        ("B2, B\u00e9", "bad label 'B\u00e9'", 21),
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


# A token-walk parser of the same format, written apart from parse_program:
# it splits each block line into whitespace-separated tokens, each with its
# column, and reads them one at a time. parse_program must agree with it, on
# programs and on every ParseError's text, line and column. Its identifiers
# are the ones this pattern matches.
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokens(text: str, offset: int) -> list[tuple[str, int]]:
    return [(m.group(), offset + m.start()) for m in re.finditer(r"\S+", text)]


def _parse_name(tok: tuple[str, int], lineno: int, kind: str) -> str:
    text, col = tok
    if not IDENT_RE.match(text):
        raise ParseError(f"bad {kind} '{text}'", lineno, col + 1)
    if text in RESERVED:
        raise ParseError(f"reserved word '{text}' cannot be a {kind}", lineno, col + 1)
    return text


def _parse_operand(tok: tuple[str, int], lineno: int) -> Operand:
    text, col = tok
    if INT_RE.match(text):
        # 64 bits hold at most 19 digits; counting them without leading zeros
        # keeps int() off a run of over 4300 digits, which it refuses
        digits = text.lstrip("+-").lstrip("0") or "0"
        if len(digits) <= 19:
            value = -int(digits) if text[0] == "-" else int(digits)
            if INT64_MIN <= value <= INT64_MAX:
                return value
        raise ParseError(f"constant {text} out of 64-bit range", lineno, col + 1)
    if IDENT_RE.match(text) and text not in RESERVED:
        return text
    raise ParseError(f"expected operand, got '{text}'", lineno, col + 1)


def _parse_statement(toks: list[tuple[str, int]], lineno: int) -> Statement:
    if not toks:
        raise ParseError("missing statement", lineno)
    head, head_col = toks[0]
    if head == "nop":
        if len(toks) > 1:
            raise ParseError(f"unexpected '{toks[1][0]}' after nop", lineno, toks[1][1] + 1)
        return Nop()
    if head == "branch":
        if len(toks) != 2:
            raise ParseError("branch takes one operand", lineno, head_col + 1)
        return Branch(_parse_operand(toks[1], lineno))
    if len(toks) >= 2 and toks[1][0] == "=":
        dst = _parse_name(toks[0], lineno, "variable")
        if len(toks) == 3:
            return Copy(dst, _parse_operand(toks[2], lineno))
        if len(toks) == 5:
            op, op_col = toks[3]
            if op not in BINARY_OPS:
                raise ParseError(f"unknown operator '{op}'", lineno, op_col + 1)
            return Binary(dst, op, _parse_operand(toks[2], lineno), _parse_operand(toks[4], lineno))
        raise ParseError("expected 'v = <operand>' or 'v = <operand> <op> <operand>'", lineno, head_col + 1)
    raise ParseError(f"unrecognized statement '{' '.join(t for t, _ in toks)}'", lineno, head_col + 1)


def _parse_directive(line: tuple[int, str], name: str) -> str:
    lineno, text = line
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(\S+)\s*\Z", text)
    if not m or m.group(1) != name:
        raise ParseError(f"expected '{name}: <label>'", lineno, 1)
    return _parse_name((m.group(2), m.start(2)), lineno, "label")


def _parse_block(line: tuple[int, str], blocks: dict[str, Block]) -> tuple[str, Block]:
    lineno, text = line
    m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*", text)
    if not m:
        raise ParseError("expected '<label>: <statement>'", lineno, 1)
    label = _parse_name((m.group(1), m.start(1)), lineno, "label")
    if label in blocks:
        raise ParseError(f"duplicate label {label}", lineno, m.start(1) + 1)
    toks = _tokens(text[m.end():], m.end())
    arrow = next((i for i, (t, _) in enumerate(toks) if t == "->"), None)
    succs: tuple[str, ...] = ()
    if arrow is not None:
        tail = toks[arrow + 1:]
        if not tail:
            raise ParseError("expected successor labels after '->'", lineno, toks[arrow][1] + 1)
        # one (name, column) token per comma-separated name, at the name's own
        # column; an empty name's column is where it ends
        names = []
        col = tail[0][1]
        for piece in text[col:].split(","):
            names.append((" ".join(piece.split()), col + len(piece) - len(piece.lstrip())))
            col += len(piece) + 1
        for name, name_col in names:
            if not name:
                raise ParseError("empty successor label", lineno, name_col + 1)
        succs = tuple(_parse_name(tok, lineno, "label") for tok in names)
        toks = toks[:arrow]
    return label, Block(_parse_statement(toks, lineno), succs)


def reference_parse(text: str) -> Program:
    """Parse the text format; raises ParseError on syntax or structure faults."""
    lines = []
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            lines.append((lineno, content))
    if len(lines) < 2:
        raise ParseError("expected 'entry:' and 'exit:' directives", len(lines) + 1)
    entry = _parse_directive(lines[0], "entry")
    exit_ = _parse_directive(lines[1], "exit")
    blocks: dict[str, Block] = {}
    for line in lines[2:]:
        label, block = _parse_block(line, blocks)
        blocks[label] = block
    prog = Program(blocks, entry, exit_)
    diags = validate(prog)
    if diags:
        raise ParseError("invalid program: " + "; ".join(diags))
    return prog



WHITESPACE = (" ", " ", " ", "  ", "\t", "\x0b", "\x1c", "\u3000")
GOOD_LABELS = ("B0", "B1", "B2", "B3", "B4", "B5")
ODD_NAMES = ("nop", "branch", "entry", "exit", "1B", "$x", "")
GOOD_OPERANDS = ("x", "y", "z", "0", "-3", "+7")
ODD_OPERANDS = (
    *("nop", "branch", "entry", "exit", "-0", "007", "1x", "$", "+-1", ""),
    *("9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809"),
    *("10000000000000000000", "-" + "0" * 25 + "5", "0" * 5000 + "1", "9" * 5000),
)
JUNK_TOKENS = ("->", ",", "=", "+", "%", ":", "nop", "x", "5", "->B2", "y->", "x=5", "a+", "b", "#")


def _pick(draw, good, odd, faulty, one_in=3):
    """A good value, or on a faulty line an odd one about one time in `one_in`."""
    return draw(st.sampled_from(odd if faulty and draw(st.integers(1, one_in)) == 1 else good))


@st.composite
def statement_tokens(draw, faulty):
    kind = draw(st.sampled_from(("copy", "binary", "branch")))
    operand = lambda: _pick(draw, GOOD_OPERANDS, ODD_OPERANDS, faulty)
    if kind == "branch":
        return ["branch", operand()]
    dst = _pick(draw, ("x", "y", "z"), ODD_NAMES, faulty, one_in=5)
    if kind == "copy":
        return [dst, "=", operand()]
    return [dst, "=", operand(), _pick(draw, ("+", "-", "*", "/"), ("%", "->", "=", "++"), faulty, one_in=5), operand()]


@st.composite
def block_line(draw, label, stmt, succs, fault):
    """One block line: label, statement and successors joined by
    whitespace. A "structure" fault swaps in another list of known or
    unknown successors. A "syntax" fault may also take an odd label or
    successor list, and glue, split, drop or add tokens."""
    syntax = fault == "syntax"
    if fault == "structure":
        succs = draw(st.lists(st.sampled_from(GOOD_LABELS + ("B9", "L10")), max_size=3))
    if syntax and draw(st.integers(1, 4)) == 1:
        label = draw(st.sampled_from(GOOD_LABELS + ODD_NAMES))
    if syntax and draw(st.integers(1, 3)) == 1:
        succs = draw(st.lists(st.sampled_from(GOOD_LABELS + ODD_NAMES[:4] + ("", "B9")), max_size=3))
    tokens = [label + ":", *stmt]
    if succs or syntax and draw(st.integers(1, 4)) == 1:
        seps = [draw(st.sampled_from((",", ", ", " , ", ",\t", "\u3000,"))) for _ in succs]
        tokens += ["->", "".join(sep + name for sep, name in zip(["", *seps], succs))]
    for _ in range(draw(st.integers(0, 2)) if syntax else 0):
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(("glue", "drop", "insert", "split")))
        if how == "glue" and i + 1 < len(tokens):
            tokens[i : i + 2] = [tokens[i] + tokens[i + 1]]
        elif how == "drop" and len(tokens) > 1:
            del tokens[i]
        elif how == "insert":
            tokens.insert(i, draw(st.sampled_from(JUNK_TOKENS)))
        elif how == "split" and len(tokens[i]) > 1:
            cut = draw(st.integers(1, len(tokens[i]) - 1))
            tokens[i : i + 1] = [tokens[i][:cut], tokens[i][cut:]]
    if syntax:
        gaps = [draw(st.sampled_from(WHITESPACE)) for _ in tokens[1:]]
    else:
        gaps = [draw(st.sampled_from(WHITESPACE))] * (len(tokens) - 1)
    line = tokens[0] + "".join(gap + tok for gap, tok in zip(gaps, tokens[1:]))
    return draw(st.sampled_from(WHITESPACE + ("",))) + line + draw(st.sampled_from(("", " ", "\u3000")))


@st.composite
def reference_program_texts(draw):
    """A chain of blocks B0..B{n+1}, branching forward, written as text. Up
    to two lines have a fault and the directives sometimes do; faults are
    drawn at every level: labels, statements, successor lists, whitespace
    and token boundaries."""
    n = draw(st.integers(0, 4))
    exit_label = f"B{n + 1}"
    head = ["entry: B0", f"exit: {exit_label}"]
    if draw(st.integers(1, 10)) == 1:
        head = draw(
            st.sampled_from(
                (
                    ["entry:B0", f"exit :{exit_label}"],
                    ["entry: B0"],
                    ["exit: B1", "entry: B0"],
                    ["entry: nop", f"exit: {exit_label}"],
                    ["entry: B0", "exit: B0"],
                    ["entry: B0 B1", f"exit: {exit_label}"],
                    ["entry: B9", "exit: B8"],
                )
            )
        )
    faults = draw(st.dictionaries(st.integers(0, n + 1), st.sampled_from(("syntax", "structure")), max_size=2))
    lines = []
    for i in range(n + 2):
        if i in (0, n + 1):
            stmt = ["nop"]
        else:
            stmt = draw(statement_tokens(faults.get(i) == "syntax"))
        succs = [] if i == n + 1 else [f"B{i + 1}"]
        if stmt[0] == "branch":
            succs.append(f"B{draw(st.integers(i + 1, n + 1))}")
        lines.append(draw(block_line(f"B{i}", stmt, succs, faults.get(i))))
    lines = draw(st.permutations(lines))
    return "\n".join(head + lines) + draw(st.sampled_from(("\n", "", "\n\n# done\n")))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line, err.col


@settings(max_examples=600)
@given(reference_program_texts())
def test_parse_agrees_with_the_token_walk_reference(text):
    """Every text gives what the reference gives: an equal program, or a
    ParseError with the same text, line and column."""
    assert _parse_outcome(parse_program, text) == _parse_outcome(reference_parse, text)


EDGE_LINES = [
    "B1: x = 5 ->B2",
    "B1: x = 5-> B2",
    "B1: x = y-> B2",
    "B1: nop->B2",
    "B1: x=5 -> B2",
    "B1: x =5 -> B2",
    "B1: x= 5 -> B2",
    "B1: x = a+ b -> B2",
    "B1: x = a +b -> B2",
    "B1: x = a - -5 -> B2",
    "B1: x = a -> -> B2",
    "B1:x = 5 -> B2",
    "B1 : x = 5 -> B2",
    "B1: x = 5 -> B2,",
    "B1: x = 5 -> ,B2",
    "B1: x = 5 -> B2 B3",
    "B1: x = 5 -> B2 -> B3",
    "B1: x = 5 ->",
    "B1: x = 5 # -> B2",
    "B1: x = 5\u3000->\tB2",
    "B1: x = 9223372036854775807 -> B2",
    "B1: x = 9223372036854775808 -> B2",
    "B1: x = -9223372036854775808 -> B2",
    "B1: x = 10000000000000000000 -> B2",
    "B1: x = -000000000000000000000001 -> B2",
    "B1: x = -0 -> B2",
    "B1: x = +-1 -> B2",
    "B1: branch branch -> B2, B2",
    "B1: exit = 1 -> B2",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_parse_agrees_with_the_reference_on_token_boundaries(line):
    """Glued and split tokens, literals at the 64-bit edges and reserved
    words, each on the one line that can fail."""
    text = f"entry: B0\nexit: B2\nB0: nop -> B1\n{line}\nB2: nop\n"
    assert _parse_outcome(parse_program, text) == _parse_outcome(reference_parse, text)


def _best_parse_seconds(small, large):
    """Best of 3 parse times of each text, taken in turns so that a busy
    spell on the host slows both. The cycle collector is off while timing:
    its full passes scan every live object, the rest of the test session's
    too, so they grow with the heap and not with the parse."""
    best = [float("inf")] * 2
    gc.disable()
    try:
        for _ in range(3):
            for i, text in enumerate((small, large)):
                start = time.perf_counter()
                _parse_outcome(parse_program, text)
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    return best


# lines where a regex over the whole line, or a parser that scans the line
# again for each token or name, would take more than linear time
LONG_LINES = {
    "spaces before junk": lambda n: "B1: x = 5" + " " * n + "z -> B2",
    "spaces after the arrow": lambda n: "B1: x = 5 ->" + " " * n + "B2",
    "many successors": lambda n: "B1: nop -> B2" + ", B2" * n,
    "tabs in a binary": lambda n: "B1: x = a" + "\t" * n + "+" + "\t" * n + "b -> B2",
}


@pytest.mark.parametrize("shape", LONG_LINES)
def test_parse_time_is_linear_in_line_length(shape):
    """Ten times the repeats take under 30 times as long: linear reads
    about 10, quadratic about 100."""
    def text(n):
        return f"entry: B0\nexit: B2\nB0: nop -> B1\n{LONG_LINES[shape](n)}\nB2: nop\n"

    small, large = _best_parse_seconds(text(10**4), text(10**5))
    assert large < 30 * small


def _large_program_text(n):
    lines = ["entry: B0", f"exit: B{n + 1}", "B0: nop -> B1"]
    for i in range(1, n + 1):
        v, w = f"v{i % 26}", f"v{i * 7 % 26}"
        stmt = (f"branch {v}", f"{v} = {w}", f"{v} = {w} + {i}", f"{v} = -{i}")[i % 4]
        succs = f"B{i + 1}, B{max(1, i // 2)}" if i % 4 == 0 else f"B{i + 1}"
        lines.append(f"B{i}: {stmt} -> {succs}")
    lines.append(f"B{n + 1}: nop")
    return "\n".join(lines) + "\n"


def test_parse_time_is_linear_in_program_size():
    """Eight times the blocks take under 20 times as long."""
    text = _large_program_text(51200)
    assert len(parse_program(text).blocks) == 51202
    small, large = _best_parse_seconds(_large_program_text(6400), text)
    assert large < 20 * small


def _int_natural_key(label):
    parts = DIGITS_RE.split(label)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(parts)), label


@settings(max_examples=300)
@given(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True), min_size=2, max_size=8))
def test_natural_key_orders_digit_runs_by_value(names):
    """Keying digit runs by length and digits sorts labels as keying them
    by their int value does, ties like B1 and B01 included."""
    assert sorted(names, key=natural_key) == sorted(names, key=_int_natural_key)


def test_rebuilding_a_program_reuses_every_cached_label_key():
    # past 1 << 16 labels, where an LRU key cache of that size misses on
    # every label of a second build
    blocks = {f"K{i}": Block(Nop()) for i in range(70_001)}
    Program(blocks, "K0", "K70000")
    misses = natural_key.cache_info().misses
    Program(blocks, "K0", "K70000")
    assert natural_key.cache_info().misses == misses


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
        "B1": Block(Copy("x", 1), ()),
    }
    assert validate(Program(blocks, "B0", "B1")) == ["exit-not-nop"]


def test_validate_entry_must_be_nop():
    blocks = {
        "B0": Block(Copy("x", 1), ("B1",)),
        "B1": Block(Nop(), ()),
    }
    assert "entry-not-nop" in validate(Program(blocks, "B0", "B1"))


def test_validate_entry_has_preds():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Branch("p"), ("B0", "B2")),
        "B2": Block(Nop(), ()),
    }
    assert "entry-has-preds" in validate(Program(blocks, "B0", "B2"))


def test_validate_entry_is_exit():
    prog = Program({"B0": Block(Nop(), ())}, "B0", "B0")
    assert "entry-is-exit" in validate(prog)


def test_validate_nonexit_needs_successor():
    blocks = {
        "B0": Block(Nop(), ("B1",)),
        "B1": Block(Copy("x", 1), ()),
        "B2": Block(Nop(), ()),
    }
    diags = validate(Program(blocks, "B0", "B2"))
    assert any(d.startswith("succ-arity") for d in diags)


@pytest.mark.parametrize(
    "stmt,dst,used",
    [
        (Nop(), None, ()),
        (Branch("p"), None, ("p",)),
        (Copy("x", "y"), "x", ("y",)),
        (Copy("x", 3), "x", ()),
        (Binary("z", "+", "a", 1), "z", ("a",)),
        (Binary("z", "*", "a", "b"), "z", ("a", "b")),
        (Binary("z", "*", "a", "a"), "z", ("a", "a")),
    ],
)
def test_def_use(stmt, dst, used):
    assert defined_var(stmt) == dst
    assert used_vars(stmt) == used


def test_uses_keeps_operand_order():
    assert uses(Binary("z", "-", "a", "b")) == ("a", "b")
    assert uses(Copy("x", 2)) == (2,)
    assert uses(Nop()) == ()


def test_variables_fig1(fig1):
    assert variables(fig1) == {"p", "w", "x", "y", "z"}


@pytest.mark.parametrize(
    "stmt,text",
    [
        (Nop(), "nop"),
        (Branch("p"), "branch p"),
        (Copy("y", "x"), "y = x"),
        (Copy("y", -4), "y = -4"),
        (Binary("z", "/", "a", 2), "z = a / 2"),
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
    stmts = [Copy(f"v{i}", i) for i in range(11)]
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


@settings(max_examples=300)
@given(programs())
def test_round_trip_any_program(prog):
    """int64-extreme literals, a branch with one target twice, self-loops
    and unreachable blocks all print and parse back."""
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


def test_dot_quotes_labels_spelled_as_dot_keywords():
    """DOT reads node, edge, graph, digraph, subgraph and strict as keywords in
    any case: a bare `node [label=...]` sets default attributes and a bare
    `graph -> edge` does not parse. Such labels are quoted; others, such as
    `nodes`, stay bare."""
    prog = parse_program(
        "entry: node\nexit: Edge\nnode: nop -> graph\ngraph: x = 1 -> subgraph\n"
        "subgraph: branch x -> STRICT, digraph\nSTRICT: y = x -> nodes\nnodes: nop -> digraph\n"
        "digraph: z = x + 1 -> Edge\nEdge: nop\n"
    )
    assert to_dot(prog).splitlines() == [
        "digraph cfg {",
        '  "Edge" [label="Edge: nop"];',
        '  "STRICT" [label="STRICT: y = x"];',
        '  "digraph" [label="digraph: z = x + 1"];',
        '  "graph" [label="graph: x = 1"];',
        '  "node" [label="node: nop"];',
        '  nodes [label="nodes: nop"];',
        '  "subgraph" [label="subgraph: branch x"];',
        '  "STRICT" -> nodes;',
        '  "digraph" -> "Edge";',
        '  "graph" -> "subgraph";',
        '  "node" -> "graph";',
        '  nodes -> "digraph";',
        '  "subgraph" -> "STRICT";',
        '  "subgraph" -> "digraph";',
        "}",
    ]

"""Three-address-code programs as single-statement control flow graphs.

A program maps each label to a block of (statement, successors), plus
designated entry and exit blocks that both hold ``nop``. The label lives only
in that key; a block does not repeat it. The text format is line oriented:
the first two content lines name the entry and exit labels, every later line
describes one block.

    entry: B0
    exit: B3
    B0: nop -> B1
    B1: x = 5 -> B2
    B2: branch x -> B1, B3
    B3: nop

Lines end at ``\n``, ``\r\n`` or ``\r`` only; the other breaks of
`str.splitlines`, such as ``\x0c`` or U+2028, are whitespace within a line.
``#`` starts a comment and blank lines are skipped. Statements are ``nop``,
``v = <operand>``, ``v = <operand> <op> <operand>``, or ``branch <operand>``,
with operators ``+ - * /`` and operands either identifiers or optionally
signed decimal integers that fit in 64 signed bits. A branch block lists two
successors (the first is taken when the condition is nonzero), the exit block
none, and every other block exactly one.

Lexically, the tokens of a statement are separated by whitespace, so
``x=5`` is one token and no statement. ``->`` is a token of its own that ends
the statement, and the labels after it are separated by commas, with or
without whitespace around them. A line parses with any number of
successors; the validity check then decides whether the block has the right
number.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NoReturn

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_INT = r"[+-]?[0-9]+"
IDENT_RE = re.compile(_IDENT + r"\Z")
INT_RE = re.compile(_INT + r"\Z")
DIGITS_RE = re.compile(r"([0-9]+)")
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")
RESERVED = frozenset({"nop", "branch", "entry", "exit"})
BINARY_OPS = ("+", "-", "*", "/")
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


Operand = Var | Const


@dataclass(frozen=True)
class Nop:
    pass


@dataclass(frozen=True)
class Copy:
    dst: str
    src: Operand


@dataclass(frozen=True)
class Binary:
    dst: str
    op: str
    lhs: Operand
    rhs: Operand


@dataclass(frozen=True)
class Branch:
    cond: Operand


Statement = Nop | Copy | Binary | Branch


@dataclass(frozen=True)
class Block:
    stmt: Statement
    succs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Program:
    blocks: dict[str, Block]
    entry: str
    exit: str


def defined_var(stmt: Statement) -> str | None:
    """Variable assigned by the statement, or None for nop and branch."""
    if isinstance(stmt, (Copy, Binary)):
        return stmt.dst
    return None


def uses(stmt: Statement) -> tuple[Operand, ...]:
    """Operands read by the statement, in slot order."""
    if isinstance(stmt, Copy):
        return (stmt.src,)
    if isinstance(stmt, Binary):
        return (stmt.lhs, stmt.rhs)
    if isinstance(stmt, Branch):
        return (stmt.cond,)
    return ()


def used_vars(stmt: Statement) -> tuple[str, ...]:
    return tuple(op.name for op in uses(stmt) if isinstance(op, Var))


def variables(prog: Program) -> frozenset[str]:
    """All variable names defined or read anywhere in the program."""
    names: set[str] = set()
    for block in prog.blocks.values():
        d = defined_var(block.stmt)
        if d is not None:
            names.add(d)
        names.update(used_vars(block.stmt))
    return frozenset(names)


@functools.lru_cache(maxsize=1 << 16)
def natural_key(label: str) -> tuple:
    # Digit runs (the odd parts) keep B2 ahead of B10: without leading zeros,
    # a longer run is a larger number, and runs of one length compare digit
    # by digit, so no int() is needed, which refuses over 4300 digits. The
    # label breaks ties like B1 and B01. Cached: each rewrite pass and
    # `validate` sort every label again.
    parts: list = DIGITS_RE.split(label)
    parts[1::2] = [(len(run), run) for run in (p.lstrip("0") for p in parts[1::2])]
    return tuple(parts), label


def sorted_labels(prog: Program) -> list[str]:
    return sorted(prog.blocks, key=natural_key)


def format_operand(op: Operand) -> str:
    return op.name if isinstance(op, Var) else str(op.value)


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Nop):
        return "nop"
    if isinstance(stmt, Copy):
        return f"{stmt.dst} = {format_operand(stmt.src)}"
    if isinstance(stmt, Binary):
        return f"{stmt.dst} = {format_operand(stmt.lhs)} {stmt.op} {format_operand(stmt.rhs)}"
    return f"branch {format_operand(stmt.cond)}"


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)


_LABEL = rf"\s*({_IDENT})\s*:\s*"
_OPERAND = f"{_INT}|{_IDENT}"
_LABEL_RE = re.compile(_LABEL)
_DIRECTIVE_RE = re.compile(_LABEL + r"(\S+)\s*\Z")
# A whole block line. Groups: label, nop, branch condition, destination, first
# operand, operator, second operand, then the text after `->`. Each group but
# the last is one whole token: it ends where whitespace or the line does, as
# the tokens `_tokens` splits do. `_match_block` splits the last one at commas,
# which on a long successor list is about a hundred times faster than a
# repeated group matching one name at a time.
BLOCK_LINE_RE = re.compile(
    _LABEL
    + rf"(?:(nop)|branch\s+({_OPERAND})|({_IDENT})\s+=\s+({_OPERAND})(?:\s+([-+*/])\s+({_OPERAND}))?)"
    + r"(?:\s+->\s+(\S(?:.*\S)?))?\s*\Z"
)


def _literal(text: str) -> int | None:
    """Value of an integer token, or None outside 64 bits."""
    # 64 bits hold at most 19 digits; counting them without leading zeros
    # keeps int() off a run of over 4300 digits, which it refuses
    digits = text.lstrip("+-").lstrip("0") or "0"
    if len(digits) <= 19:
        value = -int(digits) if text[0] == "-" else int(digits)
        if INT64_MIN <= value <= INT64_MAX:
            return value
    return None


def _operand(text: str) -> Operand | None:
    """Operand of a token the line pattern matched, or None for a literal
    outside 64 bits."""
    if text[0] in "+-0123456789":
        value = _literal(text)
        return None if value is None else Const(value)
    return Var(text)


def _match_block(text: str, blocks: dict[str, Block]) -> tuple[str, Block] | None:
    """Label and block of a well-formed block line, or None for a line with a
    fault: a token out of place, a successor that is no name, a reserved word
    in any slot, a literal outside 64 bits or a label already in `blocks`."""
    m = BLOCK_LINE_RE.match(text)
    if m is None:
        return None
    label, nop, cond, dst, lhs, op, rhs, succ_text = m.groups()
    succs = () if succ_text is None else tuple(map(str.strip, succ_text.split(",")))
    if (
        label in blocks
        or not RESERVED.isdisjoint((label, dst, cond, lhs, rhs, *succs))
        or not all(map(IDENT_RE.match, succs))
    ):
        return None
    if nop:
        stmt: Statement = Nop()
    elif cond is not None:
        if (first := _operand(cond)) is None:
            return None
        stmt = Branch(first)
    else:
        if (first := _operand(lhs)) is None:
            return None
        if rhs is None:
            stmt = Copy(dst, first)
        elif (second := _operand(rhs)) is None:
            return None
        else:
            stmt = Binary(dst, op, first, second)
    return label, Block(stmt, succs)


def _tokens(text: str, offset: int) -> list[tuple[str, int]]:
    return [(m.group(), offset + m.start()) for m in re.finditer(r"\S+", text)]


def _check_name(tok: tuple[str, int], lineno: int, kind: str) -> None:
    text, col = tok
    if not IDENT_RE.match(text):
        raise ParseError(f"bad {kind} '{text}'", lineno, col + 1)
    if text in RESERVED:
        raise ParseError(f"reserved word '{text}' cannot be a {kind}", lineno, col + 1)


def _check_operand(tok: tuple[str, int], lineno: int) -> None:
    text, col = tok
    if INT_RE.match(text):
        if _literal(text) is None:
            raise ParseError(f"constant {text} out of 64-bit range", lineno, col + 1)
    elif not IDENT_RE.match(text) or text in RESERVED:
        raise ParseError(f"expected operand, got '{text}'", lineno, col + 1)


def _check_statement_tokens(toks: list[tuple[str, int]], lineno: int) -> None:
    if not toks:
        raise ParseError("missing statement", lineno)
    head, head_col = toks[0]
    if head == "nop":
        if len(toks) > 1:
            raise ParseError(f"unexpected '{toks[1][0]}' after nop", lineno, toks[1][1] + 1)
    elif head == "branch":
        if len(toks) != 2:
            raise ParseError("branch takes one operand", lineno, head_col + 1)
        _check_operand(toks[1], lineno)
    elif len(toks) >= 2 and toks[1][0] == "=":
        _check_name(toks[0], lineno, "variable")
        if len(toks) == 3:
            _check_operand(toks[2], lineno)
        elif len(toks) == 5:
            op, op_col = toks[3]
            if op not in BINARY_OPS:
                raise ParseError(f"unknown operator '{op}'", lineno, op_col + 1)
            _check_operand(toks[2], lineno)
            _check_operand(toks[4], lineno)
        else:
            raise ParseError("expected 'v = <operand>' or 'v = <operand> <op> <operand>'", lineno, head_col + 1)
    else:
        raise ParseError(f"unrecognized statement '{' '.join(t for t, _ in toks)}'", lineno, head_col + 1)


def _parse_directive(line: tuple[int, str], name: str) -> str:
    lineno, text = line
    m = _DIRECTIVE_RE.match(text)
    if not m or m.group(1) != name:
        raise ParseError(f"expected '{name}: <label>'", lineno, 1)
    _check_name((m.group(2), m.start(2)), lineno, "label")
    return m.group(2)


def _raise_block_error(line: tuple[int, str], blocks: dict[str, Block]) -> NoReturn:
    """Raise the ParseError of a block line `_match_block` refuses, found by
    walking its tokens: the label first, then the successors, then the
    statement."""
    lineno, text = line
    m = _LABEL_RE.match(text)
    if not m:
        raise ParseError("expected '<label>: <statement>'", lineno, 1)
    label = m.group(1)
    _check_name((label, m.start(1)), lineno, "label")
    if label in blocks:
        raise ParseError(f"duplicate label {label}", lineno, m.start(1) + 1)
    toks = _tokens(text[m.end():], m.end())
    arrow = next((i for i, (t, _) in enumerate(toks) if t == "->"), None)
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
        for tok in names:
            _check_name(tok, lineno, "label")
        toks = toks[:arrow]
    _check_statement_tokens(toks, lineno)
    raise AssertionError(f"line {lineno}: the block line pattern refused a well-formed line")


def parse_program(text: str) -> Program:
    """Parse the text format; raises ParseError on syntax or structure faults."""
    lines = []
    for lineno, raw in enumerate(_LINE_BREAK_RE.split(text), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            lines.append((lineno, content))
    if len(lines) < 2:
        raise ParseError("expected 'entry:' and 'exit:' directives", len(lines) + 1)
    entry = _parse_directive(lines[0], "entry")
    exit_ = _parse_directive(lines[1], "exit")
    blocks: dict[str, Block] = {}
    for line in lines[2:]:
        parsed = _match_block(line[1], blocks)
        if parsed is None:
            _raise_block_error(line, blocks)
        label, block = parsed
        blocks[label] = block
    prog = Program(blocks, entry, exit_)
    # parsed names, literals and operators are well formed, so of `validate`'s
    # checks only the structural ones can fail; labels are sorted into
    # `validate`'s order only when there is a fault to order
    block_diags = _edge_diagnostics(prog, blocks)
    if block_diags:
        block_diags = _edge_diagnostics(prog, sorted(blocks, key=natural_key))
    diags = _program_diagnostics(prog, block_diags)
    if diags:
        raise ParseError("invalid program: " + "; ".join(diags))
    return prog


def _check_statement(label: str, stmt: Statement, diags: list[str]) -> None:
    def ok(name: str) -> bool:
        return bool(IDENT_RE.match(name)) and name not in RESERVED

    d = defined_var(stmt)
    if d is not None and not ok(d):
        diags.append(f"bad-identifier {d}")
    for op in uses(stmt):
        if isinstance(op, Var):
            if not ok(op.name):
                diags.append(f"bad-identifier {op.name}")
        elif not INT64_MIN <= op.value <= INT64_MAX:
            diags.append(f"constant-range {label}")
    if isinstance(stmt, Binary) and stmt.op not in BINARY_OPS:
        diags.append(f"bad-operator {label}")


def _edge_diagnostics(prog: Program, labels: Iterable[str]) -> list[str]:
    """Successor faults of the blocks at `labels`, block by block in that
    order: unknown successors, then a wrong successor count."""
    diags = []
    for label in labels:
        block = prog.blocks[label]
        for succ in block.succs:
            if succ not in prog.blocks:
                diags.append(f"unknown-successor {succ}")
        if isinstance(block.stmt, Branch):
            if len(block.succs) != 2:
                diags.append(f"branch-arity {label}")
        elif len(block.succs) != (0 if label == prog.exit else 1):
            diags.append(f"succ-arity {label}")
    return diags


def _program_diagnostics(prog: Program, block_diags: list[str]) -> list[str]:
    """The per-block diagnostics, in label order, between the entry and exit
    checks."""
    diags: list[str] = []
    if prog.entry not in prog.blocks:
        diags.append("entry-undefined")
    if prog.exit not in prog.blocks:
        diags.append("exit-undefined")
    if prog.entry == prog.exit:
        diags.append("entry-is-exit")
    diags += block_diags
    entry_block = prog.blocks.get(prog.entry)
    if entry_block is not None and not isinstance(entry_block.stmt, Nop):
        diags.append("entry-not-nop")
    exit_block = prog.blocks.get(prog.exit)
    if exit_block is not None and not isinstance(exit_block.stmt, Nop):
        diags.append("exit-not-nop")
    if any(prog.entry in b.succs for b in prog.blocks.values()):
        diags.append("entry-has-preds")
    return diags


def validate(prog: Program) -> list[str]:
    """Structural diagnostics; an empty list means the program is well formed."""
    block_diags: list[str] = []
    for label in sorted(prog.blocks, key=natural_key):
        block = prog.blocks[label]
        if not IDENT_RE.match(label) or label in RESERVED:
            block_diags.append(f"bad-label {label}")
        _check_statement(label, block.stmt, block_diags)
        block_diags += _edge_diagnostics(prog, (label,))
    return _program_diagnostics(prog, block_diags)


def print_program(prog: Program) -> str:
    """Canonical listing: directives first, blocks in ascending label order."""
    lines = [f"entry: {prog.entry}", f"exit: {prog.exit}"]
    for label in sorted_labels(prog):
        block = prog.blocks[label]
        line = f"{label}: {format_statement(block.stmt)}"
        if block.succs:
            line += " -> " + ", ".join(block.succs)
        lines.append(line)
    return "\n".join(lines) + "\n"


# DOT reads these as keywords in any case, so a label spelled as one is quoted
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(label: str) -> str:
    return f'"{label}"' if label.lower() in _DOT_KEYWORDS else label


def to_dot(prog: Program, annotations: dict[str, str] | None = None) -> str:
    """Graphviz rendering; annotations append a second label line per node."""
    notes = annotations or {}
    lines = ["digraph cfg {"]
    for label in sorted_labels(prog):
        text = f"{label}: {format_statement(prog.blocks[label].stmt)}"
        if label in notes:
            text += "\\n" + notes[label]
        lines.append(f'  {_dot_id(label)} [label="{text}"];')
    for label in sorted_labels(prog):
        for succ in prog.blocks[label].succs:
            lines.append(f"  {_dot_id(label)} -> {_dot_id(succ)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

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
number. This grammar is the one the parser runs: it splits each line into
these tokens once, and a faulty line raises the ParseError of its first fault.

An operand is a `str` or an `int`: a variable is its name and a constant
its value, as in ``Copy("x", "y")`` and ``Copy("x", 5)``, and an operand
prints as itself.

A `Program` keeps its blocks in `natural_key` order (B2 before B10) whatever
order it was given, so no listing order reaches any walk over `prog.blocks`.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TypeVar

INT_RE = re.compile(r"[+-]?[0-9]+\Z")
DIGITS_RE = re.compile(r"([0-9]+)")
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")
RESERVED = frozenset({"nop", "branch", "entry", "exit"})
BINARY_OPS = ("+", "-", "*", "/")
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


# perfbench/bench_trace.py imports this name to tell a variable use
Var = str
Operand = str | int


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

# Each statement kind's operand fields in slot order, each with the name of
# its use slot in a rewrite report: the one place that says which operand of
# which statement is which use
USE_SLOTS: dict[type, tuple[tuple[str, str], ...]] = {
    Nop: (),
    Copy: (("src", "copy-src"),),
    Binary: (("lhs", "binary-lhs"), ("rhs", "binary-rhs")),
    Branch: (("cond", "branch-cond"),),
}


@dataclass(frozen=True)
class Block:
    stmt: Statement
    succs: tuple[str, ...] = ()


T = TypeVar("T")


def _build_reverse_postorder(prog: Program) -> tuple[str, ...]:
    seen = {prog.entry}
    post: list[str] = []
    stack = [(prog.entry, iter(prog.blocks[prog.entry].succs))]
    while stack:
        label, succs = stack[-1]
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(prog.blocks[succ].succs)))
                break
        else:
            stack.pop()
            post.append(label)
    return tuple(reversed(post))


def _build_predecessors(prog: Program) -> Mapping[str, tuple[str, ...]]:
    preds: dict[str, dict[str, None]] = {label: {} for label in prog.blocks}
    for label, block in prog.blocks.items():
        for succ in block.succs:
            preds[succ][label] = None
    return MappingProxyType({label: tuple(ps) for label, ps in preds.items()})


@dataclass(frozen=True)
class Program:
    """`blocks` is a read-only view of the program's own dict, in
    `natural_key` order whatever order it was given; equality ignores order,
    as dicts compare without it.

    A value derived from the program, such as its predecessor map or the
    interpreter's decoded form, is built on its first use (`_derive`) and
    kept in `_memo`, which equality and repr ignore. The program cannot be
    edited, so what is kept never goes stale.
    """

    blocks: Mapping[str, Block]
    entry: str
    exit: str
    _memo: dict[Callable[[Program], object], object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ordered = {name: self.blocks[name] for name in sorted(self.blocks, key=natural_key)}
        object.__setattr__(self, "blocks", MappingProxyType(ordered))

    def __reduce__(self) -> tuple[type[Program], tuple[dict[str, Block], str, str]]:
        # the view does not pickle, and what `_memo` keeps is rebuilt on use
        return Program, (dict(self.blocks), self.entry, self.exit)

    def _derive(self, build: Callable[[Program], T]) -> T:
        """`build(self)`, built on the first call with `build` and kept."""
        value = self._memo.get(build)
        if value is None:
            value = self._memo[build] = build(self)
        return value

    def _with_statements(self, blocks: dict[str, Block]) -> Program:
        """This program with `blocks` in place of its own. Each label of
        `blocks` must keep its successors, so the new program has the same
        edges and shares the views built from them alone."""
        new = Program(blocks, self.entry, self.exit)
        for build in (_build_predecessors, _build_reverse_postorder):
            if build in self._memo:
                new._memo[build] = self._memo[build]
        return new


def predecessors(prog: Program) -> Mapping[str, tuple[str, ...]]:
    """Each block's predecessors once each, in label order: a read-only map,
    built once per program and shared by programs with the same edges."""
    return prog._derive(_build_predecessors)


def reverse_postorder(prog: Program) -> tuple[str, ...]:
    """Blocks reachable from the entry in reverse postorder of a depth-first walk
    that explores successors in listed order; only back edges point backwards.
    Built once per program and shared like `predecessors`."""
    return prog._derive(_build_reverse_postorder)


def defined_var(stmt: Statement) -> str | None:
    """Variable assigned by the statement, or None for nop and branch."""
    if isinstance(stmt, (Copy, Binary)):
        return stmt.dst
    return None


def uses(stmt: Statement) -> tuple[Operand, ...]:
    """Operands read by the statement, in slot order (`USE_SLOTS`)."""
    return tuple(getattr(stmt, name) for name, _ in USE_SLOTS[type(stmt)])


def used_vars(stmt: Statement) -> tuple[str, ...]:
    return tuple(op for op in uses(stmt) if isinstance(op, str))


def variables(prog: Program) -> frozenset[str]:
    """All variable names defined or read anywhere in the program."""
    names: set[str] = set()
    for block in prog.blocks.values():
        d = defined_var(block.stmt)
        if d is not None:
            names.add(d)
        names.update(used_vars(block.stmt))
    return frozenset(names)


@functools.cache
def natural_key(label: str) -> tuple:
    # Digit runs (the odd parts) keep B2 ahead of B10: without leading zeros,
    # a longer run is a larger number, and runs of one length compare digit
    # by digit, so no int() is needed, which refuses over 4300 digits. The
    # label breaks ties like B1 and B01. Cached without a bound: a `Program`
    # sorts all its labels, so a smaller LRU cache would miss on every call.
    parts: list = DIGITS_RE.split(label)
    parts[1::2] = [(len(run), run) for run in (p.lstrip("0") for p in parts[1::2])]
    return tuple(parts), label


def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Nop):
        return "nop"
    if isinstance(stmt, Copy):
        return f"{stmt.dst} = {stmt.src}"
    if isinstance(stmt, Binary):
        return f"{stmt.dst} = {stmt.lhs} {stmt.op} {stmt.rhs}"
    return f"branch {stmt.cond}"


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)


_TOKEN_RE = re.compile(r"\S+")


class _TokenFault(Exception):
    """A statement's fault: the message and the index of the token at fault,
    or None for a fault at no column."""


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


def _is_name(text: str) -> bool:
    """The rule for label and variable names: an identifier (on ASCII text,
    `str.isidentifier` accepts a letter or underscore, then letters, digits
    and underscores) that is not a reserved word."""
    return text.isascii() and text.isidentifier() and text not in RESERVED


def _name_error(text: str, kind: str) -> str:
    """Why `_is_name` refuses `text` as the name of a `kind`."""
    if text in RESERVED:
        return f"reserved word '{text}' cannot be a {kind}"
    return f"bad {kind} '{text}'"


def _column(text: str, start: int, index: int) -> int:
    """Column of the `index`-th token of `text` from offset `start` on."""
    return [m.start() for m in _TOKEN_RE.finditer(text, start)][index] + 1


def _operand(toks: list[str], i: int) -> Operand:
    text = toks[i]
    if _is_name(text):
        return text
    if not INT_RE.match(text):
        raise _TokenFault(f"expected operand, got '{text}'", i)
    value = _literal(text)
    if value is None:
        raise _TokenFault(f"constant {text} out of 64-bit range", i)
    return value


def _statement(toks: list[str]) -> Statement:
    n = len(toks)
    if not n:
        raise _TokenFault("missing statement", None)
    head = toks[0]
    if head == "nop":
        if n > 1:
            raise _TokenFault(f"unexpected '{toks[1]}' after nop", 1)
        return Nop()
    if head == "branch":
        if n != 2:
            raise _TokenFault("branch takes one operand", 0)
        return Branch(_operand(toks, 1))
    if n < 2 or toks[1] != "=":
        raise _TokenFault(f"unrecognized statement '{' '.join(toks)}'", 0)
    if not _is_name(head):
        raise _TokenFault(_name_error(head, "variable"), 0)
    if n == 3:
        return Copy(head, _operand(toks, 2))
    if n != 5:
        raise _TokenFault("expected 'v = <operand>' or 'v = <operand> <op> <operand>'", 0)
    if toks[3] not in BINARY_OPS:
        raise _TokenFault(f"unknown operator '{toks[3]}'", 3)
    return Binary(head, toks[3], _operand(toks, 2), _operand(toks, 4))


def _parse_directive(line: tuple[int, str], name: str) -> str:
    lineno, text = line
    head, _, rest = text.partition(":")
    toks = rest.split()
    if head.strip() != name or len(toks) != 1:
        raise ParseError(f"expected '{name}: <label>'", lineno, 1)
    if not _is_name(toks[0]):
        raise ParseError(_name_error(toks[0], "label"), lineno, _column(text, len(head) + 1, 0))
    return toks[0]


def _parse_block(line: tuple[int, str], blocks: dict[str, Block]) -> tuple[str, Block]:
    """Label and block of a block line. A faulty line raises the ParseError
    of its first fault: the label, then the successors, then the statement.
    Columns are found only then."""
    lineno, text = line
    head, colon, rest = text.partition(":")
    label = head.strip()
    if not colon or not _is_name(label) or label in blocks:
        if not colon or not (label.isascii() and label.isidentifier()):
            raise ParseError("expected '<label>: <statement>'", lineno, 1)
        message = _name_error(label, "label") if label in RESERVED else f"duplicate label {label}"
        raise ParseError(message, lineno, len(head) - len(head.lstrip()) + 1)
    start = len(head) + 1
    toks = rest.split()
    succs: tuple[str, ...] = ()
    if "->" in toks:
        arrow = toks.index("->")
        if arrow + 1 == len(toks):
            raise ParseError("expected successor labels after '->'", lineno, _column(text, start, arrow))
        succs = tuple(map(str.strip, " ".join(toks[arrow + 1:]).split(",")))
        if not all(map(_is_name, succs)):
            # the names as written, each at its first character's column or,
            # when empty, where it ends; an empty name is reported first
            col = _column(text, start, arrow + 1)
            faults = []
            for piece in text[col - 1:].split(","):
                name = " ".join(piece.split())
                if not _is_name(name):
                    faults.append((name != "", col + len(piece) - len(piece.lstrip()), name))
                col += len(piece) + 1
            _, col, name = min(faults)
            raise ParseError(_name_error(name, "label") if name else "empty successor label", lineno, col)
        del toks[arrow:]
    try:
        return label, Block(_statement(toks), succs)
    except _TokenFault as fault:
        message, index = fault.args
        raise ParseError(message, lineno, None if index is None else _column(text, start, index)) from None


def parse_program(text: str) -> Program:
    """Parse the text format; raises ParseError on syntax or structure faults.
    One leading byte-order mark is skipped."""
    lines = []
    for lineno, raw in enumerate(_LINE_BREAK_RE.split(text.removeprefix("\ufeff")), start=1):
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
    # parsed names, literals and operators are well formed, so of `validate`'s
    # checks only the structural ones can fail
    diags = _program_diagnostics(prog, _edge_diagnostics(prog, prog.blocks))
    if diags:
        raise ParseError("invalid program: " + "; ".join(diags))
    return prog


def _check_statement(label: str, stmt: Statement, diags: list[str]) -> None:
    d = defined_var(stmt)
    if d is not None and not _is_name(d):
        diags.append(f"bad-identifier {d}")
    for op in uses(stmt):
        if isinstance(op, str):
            if not _is_name(op):
                diags.append(f"bad-identifier {op}")
        elif not INT64_MIN <= op <= INT64_MAX:
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
    for label, block in prog.blocks.items():
        if not _is_name(label):
            block_diags.append(f"bad-label {label}")
        _check_statement(label, block.stmt, block_diags)
        block_diags += _edge_diagnostics(prog, (label,))
    return _program_diagnostics(prog, block_diags)


def print_program(prog: Program) -> str:
    """Canonical listing: directives first, blocks in ascending label order."""
    lines = [f"entry: {prog.entry}", f"exit: {prog.exit}"]
    for label, block in prog.blocks.items():
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
    for label, block in prog.blocks.items():
        text = f"{label}: {format_statement(block.stmt)}"
        if label in notes:
            text += "\\n" + notes[label]
        lines.append(f'  {_dot_id(label)} [label="{text}"];')
    for label, block in prog.blocks.items():
        for succ in block.succs:
            lines.append(f"  {_dot_id(label)} -> {_dot_id(succ)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

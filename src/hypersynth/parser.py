"""Concrete syntax for formulas: tokenizer, recursive-descent parser, and
pretty printer.  The printer reads the parser's operator tables, so
precedence and associativity are stated once.

Grammar (binding strength increases downward, U is right-associative):

    formula := ("forall" | "exists") IDENT "." formula | body
    body    := iff
    iff     := implies ("<->" implies)*          left-assoc
    implies := or ("->" implies)?                right-assoc
    or      := and ("|" and)*
    and     := until ("&" until)*
    until   := unary ("U" until)?                right-assoc
    unary   := ("!" | "X" | "F" | "G") unary | primary
    primary := "true" | "false" | IDENT "[" IDENT "]" | "(" body ")"

A body nested deeper than MAX_NESTING operators or parentheses is a
ParseError.  "false" parses to Not(true); the printer emits it back as
"false", so the round trip is stable.  "#" starts a comment to end of line.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError
from .formula import (
    And,
    Atom,
    Body,
    Eventually,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Quantifier,
    Release,
    TrueBool,
    Until,
    post_order,
)

_KEYWORDS = {"forall", "exists", "true", "false", "U", "X", "F", "G"}
_SYMBOLS = ("<->", "->", "|", "&", "!", "(", ")", "[", "]", ".")

# binary operator -> (binding level, right-associative, constructor);
# higher levels bind tighter
_BINARY = {
    "<->": (0, False, Iff),
    "->": (1, True, Implies),
    "|": (2, False, Or),
    "&": (3, False, And),
    "U": (4, True, Until),
}
_PREFIX = {"!": Not, "X": Next, "F": Eventually, "G": Globally}

# The parser recurses at most twice per nesting level, so bodies within
# this depth parse well inside the interpreter's default recursion limit of
# 1000 frames.  No other walk over a body recurses (see formula.post_order),
# so the output of desugar, up to about three times deeper than its input,
# prints, compares and evaluates as well.
MAX_NESTING = 250


class _Token(NamedTuple):
    kind: str  # 'ident', 'kw', 'sym', 'eof'
    text: str
    pos: int
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, i, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, i, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, line, col)
    tokens.append(_Token("eof", "", n, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.pos, tok.line, tok.col)

    def expect_sym(self, sym: str) -> None:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == sym:
            self.advance()
            return
        self.fail(f"expected {sym!r}")

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == word

    def formula(self) -> Formula:
        prefix: list[tuple[Quantifier, str]] = []
        while self.at_kw("forall") or self.at_kw("exists"):
            quant = (
                Quantifier.FORALL if self.advance().text == "forall" else Quantifier.EXISTS
            )
            tok = self.peek()
            if tok.kind != "ident":
                self.fail("expected trace variable name")
            self.advance()
            prefix.append((quant, tok.text))
            self.expect_sym(".")
        body, _ = self.body()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"trailing input {tok.text!r}")
        return Formula(tuple(prefix), body)

    def body(self, budget: int = MAX_NESTING, min_level: int = 0) -> tuple[Body, int]:
        """Precedence climbing: a body whose top binary operator binds at
        least ``min_level``, with its operator height.  Every operator and
        parenthesis spends one level of ``budget``, so the parser recurses
        at most twice per level."""
        node, height = self.unary(budget)
        while True:
            tok = self.peek()
            op = None if tok.kind == "ident" else _BINARY.get(tok.text)
            if op is None or op[0] < min_level:
                return node, height
            level, right_assoc, ctor = op
            if height >= budget:
                self.too_deep()
            self.advance()
            rhs, rhs_height = self.body(budget - 1, level if right_assoc else level + 1)
            node, height = ctor(node, rhs), 1 + max(height, rhs_height)

    def unary(self, budget: int) -> tuple[Body, int]:
        tok = self.peek()
        ctor = None if tok.kind == "ident" else _PREFIX.get(tok.text)
        if ctor is None and not self.at_sym("("):
            return self.primary(), 0
        if budget < 1:
            self.too_deep()
        self.advance()
        if ctor is not None:
            node, height = self.unary(budget - 1)
            return ctor(node), height + 1
        node, height = self.body(budget - 1)
        self.expect_sym(")")
        return node, height

    def primary(self) -> Body:
        tok = self.peek()
        if self.at_kw("true"):
            self.advance()
            return TrueBool()
        if self.at_kw("false"):
            self.advance()
            return Not(TrueBool())
        if tok.kind == "ident":
            self.advance()
            self.expect_sym("[")
            var = self.peek()
            if var.kind != "ident":
                self.fail("expected trace variable inside [ ]")
            self.advance()
            self.expect_sym("]")
            return Atom(tok.text, var.text)
        self.fail(f"unexpected token {tok.text!r}")

    def too_deep(self):
        self.fail(f"formula nested deeper than {MAX_NESTING} levels")


def parse(text: str) -> Formula:
    """Parse a closed formula; raises ParseError, UnboundVariable, or
    DuplicateQuantifier."""
    return _Parser(_tokenize(text)).formula()


def parse_body(text: str) -> Body:
    """Parse a bare body (no quantifier prefix, free variables allowed)."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.body()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.text!r}")
    return node


# --- printing --------------------------------------------------------------

# the grammar tables read backwards: node class -> operator text (a word
# needs a space before its operand), and the level of atoms and prefix
# forms, above every binary level
_BINARY_TEXT = {
    ctor: (text, level, right) for text, (level, right, ctor) in _BINARY.items()
}
_PREFIX_TEXT = {ctor: text + " " * text.isalpha() for text, ctor in _PREFIX.items()}
_ATOMIC = 1 + max(level for level, _, _ in _BINARY.values())


def print_body(body: Body) -> str:
    """Text of a body, which parses back to the same body: each node gets
    its text and binding level, and an operand looser than its position
    allows is parenthesized.  Release, internal only, prints through its
    until definition ``!(!a U !b)`` at the level of U."""
    nodes = post_order(body)
    texts: list[str] = []
    levels: list[int] = []

    def operand(i: int, min_level: int) -> str:
        return texts[i] if levels[i] >= min_level else f"({texts[i]})"

    def negated(i: int) -> str:
        return "false" if type(nodes[i][0]) is TrueBool else "!" + operand(i, _ATOMIC)

    for node, args in nodes:
        kind = type(node)
        level = _ATOMIC
        if kind is TrueBool:
            text = "true"
        elif kind is Atom:
            text = f"{node.prop}[{node.var}]"
        elif kind is Not:
            text = negated(*args)
        elif kind in _PREFIX_TEXT:
            text = _PREFIX_TEXT[kind] + operand(*args, _ATOMIC)
        elif kind is Release:
            level = _BINARY["U"][0]
            text = "!({} U {})".format(*map(negated, args))
        else:
            sym, level, right = _BINARY_TEXT[kind]
            # only the operand on the associating side may share the level
            lhs, rhs = (level + 1, level) if right else (level, level + 1)
            text = f"{operand(args[0], lhs)} {sym} {operand(args[1], rhs)}"
        texts.append(text)
        levels.append(level)
    return texts[-1]


def print_formula(f: Formula) -> str:
    parts = [f"{q.value} {name}." for q, name in f.prefix]
    parts.append(print_body(f.body))
    return " ".join(parts)

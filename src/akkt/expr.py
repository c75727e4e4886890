"""Scalar expression trees over variables x0..x{n-1}.

Grammar (binding tight to loose): integer powers, unary minus, '*' and '/',
then '+' and '-'.  Functions: exp, log, sin, cos, sqrt.  `-x0^2` therefore
parses as `-(x0^2)`; write `(-x0)^2` to square the negation.

Trees are immutable and hashable; structural equality is dataclass equality.
Parsing a printed tree reproduces it node for node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
MAX_EXPONENT = 64

_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT_RE = re.compile(r"[0-9]+")


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Syntax or validation error; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation hit a domain guard or produced a non-finite value."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in subexpression '{subexpr}'")
        self.subexpr = subexpr


@dataclass(frozen=True)
class Expr:
    """One node: op is 'const', 'var', 'add', 'sub', 'mul', 'div', 'pow',
    'neg', or a function name from FUNCTIONS."""

    op: str
    args: tuple["Expr", ...] = ()
    value: float = 0.0   # const payload
    index: int = 0       # var payload
    exponent: int = 0    # pow payload


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def var(i: int) -> Expr:
    return Expr("var", index=i)


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.sum_()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return e

    def sum_(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Expr("add" if op == "+" else "sub", (e, rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = Expr("mul" if op == "*" else "div", (e, rhs))
        return e

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Expr("neg", (self.factor(),))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok[0] != "number" or not _INT_RE.fullmatch(tok[1]):
            raise ParseError("exponent must be an integer", tok[2])
        exponent = sign * int(tok[1])
        if abs(exponent) > MAX_EXPONENT:
            raise ParseError(f"exponent magnitude exceeds {MAX_EXPONENT}", tok[2])
        return Expr("pow", (base,), exponent=exponent)

    def atom(self) -> Expr:
        tok = self.advance()
        kind, lexeme, pos = tok
        if kind == "number":
            v = float(lexeme)
            if v != v or v in (float("inf"), float("-inf")):
                raise ParseError("constant overflows a double", pos)
            return const(v)
        if kind == "word":
            if re.fullmatch(r"x[0-9]+", lexeme):
                idx = int(lexeme[1:])
                if idx >= self.n:
                    raise ParseError(
                        f"variable x{idx} out of range for dimension {self.n}", pos
                    )
                return var(idx)
            if lexeme in FUNCTIONS:
                self.expect("(")
                inner = self.sum_()
                self.expect(")")
                return Expr(lexeme, (inner,))
            raise ParseError(f"unknown function or variable {lexeme!r}", pos)
        if kind == "(":
            inner = self.sum_()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {lexeme!r}" if lexeme else "unexpected end of input", pos)


def _tokenize(text: str):
    tokens = []
    i, N = 0, len(text)
    while i < N:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            tokens.append(("number", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha():
            m = _WORD_RE.match(text, i)
            tokens.append(("word", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", N))
    return tokens


def parse_expr(text: str, n: int) -> Expr:
    """Parse `text` over variables x0..x{n-1}; raises ParseError with the
    offending position on any syntax or range violation."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _Parser(text, n).parse()


_LEVEL_SUM, _LEVEL_TERM, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if e.op in ("add", "sub"):
        return _LEVEL_SUM
    if e.op in ("mul", "div"):
        return _LEVEL_TERM
    if e.op == "neg":
        return _LEVEL_NEG
    if e.op == "pow":
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    s = unparse(e)
    return f"({s})" if _level(e) < minimum else s


def unparse(e: Expr) -> str:
    """Print with the fewest parentheses that preserve the tree."""
    if e.op == "const":
        return repr(e.value)
    if e.op == "var":
        return f"x{e.index}"
    if e.op == "add":
        a, b = e.args
        return f"{_wrap(a, _LEVEL_SUM)} + {_wrap(b, _LEVEL_SUM + 1)}"
    if e.op == "sub":
        a, b = e.args
        return f"{_wrap(a, _LEVEL_SUM)} - {_wrap(b, _LEVEL_SUM + 1)}"
    if e.op == "mul":
        a, b = e.args
        return f"{_wrap(a, _LEVEL_TERM)} * {_wrap(b, _LEVEL_TERM + 1)}"
    if e.op == "div":
        a, b = e.args
        return f"{_wrap(a, _LEVEL_TERM)} / {_wrap(b, _LEVEL_TERM + 1)}"
    if e.op == "neg":
        return f"-{_wrap(e.args[0], _LEVEL_NEG)}"
    if e.op == "pow":
        return f"{_wrap(e.args[0], _LEVEL_ATOM)}^{e.exponent}"
    if e.op in FUNCTIONS:
        return f"{e.op}({unparse(e.args[0])})"
    raise ValueError(f"unknown op {e.op!r}")

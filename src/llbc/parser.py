"""Concrete syntax: lexer, operator-precedence parser, and pretty printer.

Expressions and types share one table of infix operators (``_INFIX``),
tightest binding last::

    -o      obligation / linear implication   (right associative, sugar)
    +       plus, types only                  (left associative)
    &       with, types only                  (left associative)
    @       contraction, expressions only     (left associative)
    #       connection / par                  (left associative)
    *       isolation / tensor                (left associative)

Above them bind the prefixes ``?`` (and ``!`` on types; ``inl``/``inr`` and
the ``!``/``choose`` boxes on expressions) and, tightest, the postfix dual
``^``. One precedence-climbing method reads the table for both sorts; an
operator with no constructor in the sort being parsed ends the operand.

``N . unit`` abbreviates an N-fold ``*`` chain of unit literals, grouped to
the left like explicit ``*``. ``//`` comments run to end of line. A script
file may begin with a type header line ``-- types: A1, A2, ...`` declaring
the interface types.

``render`` is the inverse of parsing: ``parse(render(v))`` equals ``v`` up
to source spans, and output carries only the parentheses the same table
requires: the left operand of a level-L operator renders at level L, the
right at L + 1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import syntax as sx
from .errors import DualityError, ParseError
from .units import DEFAULT_UNITS

KEYWORDS = frozenset({"txn", "choose", "inl", "inr"})

_PUNCT = {
    "-o": "LOLLI",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    ";": "SEMI",
    "*": "STAR",
    "#": "HASH",
    "@": "AT",
    "^": "CARET",
    "?": "QUERY",
    "!": "BANG",
    "&": "AMP",
    "+": "PLUS",
    ".": "DOT",
}

# Groups: 1 newline, 2 punctuation, 3 word, 4 anything else (an error).
# Blanks and comments match without a group and are skipped.
_LEXEME = re.compile(r"(\n)|[ \t\r]+|//[^\n]*|(-o|[(){},;*#@^?!&+.])|(\w+)|(.)", re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: sx.SourceSpan


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    span = sx.SourceSpan
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        start = m.start()
        if group == 1:
            line, line_start = line + 1, start + 1
            continue
        word = m.group()
        where = span(start, m.end(), line, start - line_start + 1)
        if group == 2:
            append(Token(_PUNCT[word], word, where))
        elif group == 3:
            # ``int`` reads exactly the decimal words; ``isdigit`` would let
            # superscripts such as "²" through.
            kind = "INT" if word.isdecimal() else "UNDER" if word == "_" else "IDENT"
            append(Token(kind, word, where))
        else:
            raise ParseError(f"unsupported character {word!r}", where)
    n = len(text)
    append(Token("EOF", "", span(n, n, line, n - line_start + 1)))
    return tokens


class _Op(NamedTuple):
    """An infix operator: its text, its binding level (higher binds
    tighter), and the node it builds in each sort, or None where the sort
    lacks it. Constructors take ``(left, right, span=...)``."""

    text: str
    level: int
    expr: Callable | None
    type: Callable | None
    right_assoc: bool = False


_INFIX = {
    "LOLLI": _Op(
        "-o",
        0,
        lambda a, b, span: sx.desugar_obligation(a, b),
        lambda a, b, span: sx.Par(sx.dual(a), b),
        right_assoc=True,
    ),
    "PLUS": _Op("+", 1, None, sx.Plus),
    "AMP": _Op("&", 2, None, sx.With),
    "AT": _Op("@", 3, sx.Contract, None),
    "HASH": _Op("#", 4, sx.Conn, sx.Par),
    "STAR": _Op("*", 5, sx.Iso, sx.Tensor),
}
_PREFIX_LEVEL = 6
_ATOM_LEVEL = 7

# The printer's view of the table: node class -> operator. The obligation
# builds no node of its own, so only class constructors are keys.
_OP_OF_NODE = {
    node: op for op in _INFIX.values() for node in (op.expr, op.type) if isinstance(node, type)
}

# A sort is named by its constructor column in ``_Op``.
_EXPR = "expr"
_TYPE = "type"


def _expected(what: str, tok: Token, kind: str) -> ParseError:
    return ParseError(
        f"expected {what}, found {tok.text or 'end of input'!r}", tok.span, expected={kind}
    )


class _Parser:
    def __init__(self, text: str, units: frozenset[str]):
        self.tokens = tokenize(text)
        self.pos = 0
        self.units = units

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _expected(kind, tok, kind)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def span_from(self, begin: sx.SourceSpan) -> sx.SourceSpan:
        prev = self.tokens[max(self.pos - 1, 0)].span
        return sx.SourceSpan(begin.begin, prev.end, begin.line, begin.column)

    def finish(self, value):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.span)
        return value

    # -- programs ----------------------------------------------------------

    def program(self) -> sx.Program:
        begin = self.expect("LPAREN").span
        interface: list[sx.Expression] = []
        if not self.at("RPAREN"):
            interface.append(self.infix(_EXPR))
            while self.at("COMMA"):
                self.next()
                interface.append(self.infix(_EXPR))
        self.expect("RPAREN")
        self.expect("LBRACE")
        pending: list[sx.Transaction] = []
        if not self.at("RBRACE"):
            pending.append(self.transaction())
            while self.at("SEMI"):
                self.next()
                if self.at("RBRACE"):
                    break
                pending.append(self.transaction())
        self.expect("RBRACE")
        return sx.Program(tuple(interface), tuple(pending), span=self.span_from(begin))

    def transaction(self) -> sx.Transaction:
        tok = self.peek()
        if not (tok.kind == "IDENT" and tok.text == "txn"):
            raise _expected("txn", tok, "txn")
        self.next()
        self.expect("LPAREN")
        left = self.infix(_EXPR)
        self.expect("COMMA")
        right = self.infix(_EXPR)
        self.expect("RPAREN")
        return sx.Transaction(left, right, span=self.span_from(tok.span))

    # -- operators, both sorts ---------------------------------------------

    def infix(self, sort: str, floor: int = 0):
        """An operand of ``sort`` joined by operators of level ``floor`` or
        tighter. Compound expressions span their operands; compound types
        carry no span."""
        left = self.prefixed(sort)
        while True:
            tok = self.peek()
            op = _INFIX.get(tok.kind)
            build = op and getattr(op, sort)
            if build is None or op.level < floor:
                return left
            self.next()
            right = self.infix(sort, op.level if op.right_assoc else op.level + 1)
            try:
                left = build(left, right, span=self._join(left, right) if sort == _EXPR else None)
            except DualityError as err:
                raise ParseError(str(err), err.span or tok.span) from err

    def prefixed(self, sort: str):
        tok = self.peek()
        if tok.kind == "QUERY" or (sort == _TYPE and tok.kind == "BANG"):
            self.next()
            inner = self.prefixed(sort)
            if sort == _TYPE:
                return sx.OfCourse(inner) if tok.kind == "BANG" else sx.WhyNot(inner)
            return sx.Store(inner, span=self.span_from(tok.span))
        if sort == _EXPR and tok.kind == "IDENT" and tok.text in ("inl", "inr"):
            self.next()
            self.expect("LPAREN")
            inner = self.infix(_EXPR)
            self.expect("RPAREN")
            cls = sx.Inl if tok.text == "inl" else sx.Inr
            return cls(inner, span=self.span_from(tok.span))
        value = self.primary(sort)
        while self.at("CARET"):
            tok = self.next()
            if sort == _TYPE:
                value = sx.dual(value)
                continue
            try:
                value = sx.dualize_expr(value)
            except DualityError as err:
                raise ParseError(str(err), tok.span) from err
        return value

    def primary(self, sort: str):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            value = self.infix(sort)
            self.expect("RPAREN")
            return value
        if sort == _TYPE:
            if tok.kind == "IDENT":
                if tok.text not in self.units:
                    raise ParseError(f"unknown currency unit {tok.text!r}", tok.span)
                self.next()
                return sx.Atom(tok.text, span=tok.span)
            raise _expected("a type", tok, "type")
        if tok.kind == "UNDER":
            self.next()
            return sx.Dispose(span=tok.span)
        if tok.kind == "INT":
            return self.unit_chain()
        if tok.kind == "BANG":
            return self.bang()
        if tok.kind == "IDENT" and tok.text == "choose":
            return self.choose()
        if tok.kind == "IDENT":
            if tok.text in KEYWORDS:
                raise ParseError(f"{tok.text!r} is a keyword", tok.span)
            self.next()
            if tok.text in self.units:
                if self.at("DOT"):
                    raise ParseError(
                        "freshness suffix is not allowed on a currency unit",
                        self.peek().span,
                    )
                return sx.Unit(tok.text, span=tok.span)
            return sx.Addr(self.address_suffix(tok), span=self.span_from(tok.span))
        raise _expected("an expression", tok, "expression")

    # -- expression forms --------------------------------------------------

    def unit_chain(self) -> sx.Expression:
        tok = self.expect("INT")
        count = int(tok.text)
        if count < 1:
            raise ParseError("unit multiplier must be positive", tok.span)
        self.expect("DOT")
        unit_tok = self.expect("IDENT")
        if unit_tok.text not in self.units:
            raise ParseError(f"unknown currency unit {unit_tok.text!r}", unit_tok.span)
        span = self.span_from(tok.span)
        expr: sx.Expression = sx.Unit(unit_tok.text, span=span)
        for _ in range(count - 1):
            expr = sx.Iso(expr, sx.Unit(unit_tok.text, span=span), span=span)
        return expr

    def address_suffix(self, tok: Token) -> sx.Address:
        path: list[str] = []
        while self.at("DOT"):
            nxt = self.peek(1)
            if nxt.kind == "IDENT" and nxt.text in ("l", "r"):
                self.next()
                path.append(self.next().text)
            else:
                break
        try:
            return sx.Address(tok.text, tuple(path))
        except ValueError as err:
            raise ParseError(str(err), tok.span) from err

    def bound_addresses(self) -> tuple[sx.Address, ...]:
        self.expect("LPAREN")
        bound: list[sx.Address] = []
        if not self.at("RPAREN"):
            while True:
                tok = self.expect("IDENT")
                if tok.text in KEYWORDS or tok.text in self.units:
                    raise ParseError(
                        f"{tok.text!r} cannot be used as a bound address", tok.span
                    )
                bound.append(self.address_suffix(tok))
                if self.at("COMMA"):
                    self.next()
                    continue
                break
        self.expect("RPAREN")
        if len(set(bound)) != len(bound):
            raise ParseError("bound addresses must be pairwise distinct", self.peek().span)
        return tuple(bound)

    def choose(self) -> sx.Expression:
        tok = self.next()  # choose
        bound = self.bound_addresses()
        self.expect("LBRACE")
        left = self.program()
        self.expect("SEMI")
        right = self.program()
        self.expect("RBRACE")
        return sx.Choose(bound, left, right, span=self.span_from(tok.span))

    def bang(self) -> sx.Expression:
        tok = self.expect("BANG")
        if self.peek().kind == "LPAREN":
            bound = self.bound_addresses()
            self.expect("LBRACE")
            body = self.program()
            self.expect("RBRACE")
            return sx.Bang(bound, body, span=self.span_from(tok.span))
        raise ParseError("expected '(' after '!'", self.peek().span, expected={"LPAREN"})

    @staticmethod
    def _join(left, right) -> sx.SourceSpan | None:
        ls, rs = left.span, right.span
        if ls is None or rs is None:
            return None
        return sx.SourceSpan(ls.begin, rs.end, ls.line, ls.column)


def parse_program(text: str, units: frozenset[str] = DEFAULT_UNITS) -> sx.Program:
    parser = _Parser(text, units)
    return parser.finish(parser.program())


def parse_expression(text: str, units: frozenset[str] = DEFAULT_UNITS) -> sx.Expression:
    parser = _Parser(text, units)
    return parser.finish(parser.infix(_EXPR))


def parse_type(text: str, units: frozenset[str] = DEFAULT_UNITS) -> sx.LinearType:
    parser = _Parser(text, units)
    return parser.finish(parser.infix(_TYPE))


TYPE_HEADER = "-- types:"


def parse_script(
    text: str, units: frozenset[str] = DEFAULT_UNITS
) -> tuple[sx.Program, list[sx.LinearType] | None]:
    """Parse a ``.llbc`` script: an optional type header, then one program.

    Both parts are parsed in place, with everything else blanked out, so
    every span points into ``text``.
    """
    declared = None
    body = text
    if text.lstrip().startswith("--"):
        offset = text.index("--")
        end = text.find("\n", offset)
        end = len(text) if end < 0 else end
        start = offset + len(TYPE_HEADER)
        if not text.startswith(TYPE_HEADER, offset):
            line = text.count("\n", 0, offset) + 1
            column = offset - text.rfind("\n", 0, offset)
            raise ParseError(
                "a '--' line must be a type header of the form '-- types: ...'",
                sx.SourceSpan(offset, end, line, column),
            )
        declared = []
        if text[start:end].strip():
            header = _Parser(_blank(text[:start]) + text[start:end], units)
            declared.append(header.infix(_TYPE))
            while header.at("COMMA"):
                header.next()
                declared.append(header.infix(_TYPE))
            header.finish(declared)
        body = text[:offset] + _blank(text[offset:end]) + text[end:]
    return parse_program(body, units), declared


def _blank(text: str) -> str:
    """``text`` with every character but newlines turned into a space."""
    return re.sub(r"[^\n]", " ", text)


# ---------------------------------------------------------------------------
# Pretty printer

def _sugar_chain(e: sx.Expression) -> str | None:
    """``N . unit`` for a left-nested ``*`` chain of one repeated unit literal."""
    count, units, node = 1, set(), e
    while type(node) is sx.Iso and type(node.right) is sx.Unit:
        units.add(node.right.unit)
        count, node = count + 1, node.left
    if count == 1 or type(node) is not sx.Unit or units != {node.unit}:
        return None
    return f"{count} . {node.unit}"


def _names(bound) -> str:
    return ", ".join(a.render() for a in bound)


def _listed(items, sep: str) -> list:
    parts: list = []
    for item in items:
        parts += [sep, (item, 0)] if parts else [(item, 0)]
    return parts


# How each form that is not an infix operator prints: its text, or text
# pieces and (sub-node, level) slots, left to right.
_LAYOUT = {
    sx.Addr: lambda n: n.address.render(),
    sx.Address: lambda n: n.render(),
    sx.Unit: lambda n: n.unit,
    sx.Atom: lambda n: n.unit + "^" if n.negated else n.unit,
    sx.Dispose: lambda n: "_",
    sx.Dual: lambda n: [(n.inner, _ATOM_LEVEL), "^"],
    sx.Store: lambda n: ["?", (n.inner, _PREFIX_LEVEL)],
    sx.WhyNot: lambda n: ["?", (n.body, _PREFIX_LEVEL)],
    sx.OfCourse: lambda n: ["!", (n.body, _PREFIX_LEVEL)],
    sx.Inl: lambda n: ["inl(", (n.inner, 0), ")"],
    sx.Inr: lambda n: ["inr(", (n.inner, 0), ")"],
    sx.Choose: lambda n: [f"choose({_names(n.bound)}){{ ", (n.left, 0), "; ", (n.right, 0), " }"],
    sx.Bang: lambda n: [f"!({_names(n.bound)}){{ ", (n.body, 0), " }"],
    sx.Transaction: lambda n: ["txn(", (n.left, 0), ", ", (n.right, 0), ")"],
    sx.Program: lambda n: ["(", *_listed(n.interface, ", "), "){ ", *_listed(n.pending, "; "), " }"]
    if n.pending
    else ["(", *_listed(n.interface, ", "), "){}"],
}


def render(value) -> str:
    """Concrete syntax for a program, transaction, expression, or type.
    Iterative, so arbitrarily deep values are fine."""
    out: list[str] = []
    todo: list = [(value, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        op = _OP_OF_NODE.get(type(node))
        layout = _LAYOUT.get(type(node))
        sugared = _sugar_chain(node) if type(node) is sx.Iso else None
        if sugared is not None:
            out.append(sugared)
        elif op is not None:
            parts = ((node.right, op.level + 1), f" {op.text} ", (node.left, op.level))
            todo += (")", *parts, "(") if op.level < level else parts
        elif layout is not None:
            parts = layout(node)
            if type(parts) is str:
                out.append(parts)
            else:
                todo += reversed(parts)
        elif isinstance(node, sx.LinearType):
            out.append(str(node))  # a leaf from outside the syntax, such as a checker's unknown
        else:
            raise TypeError(f"cannot render {node!r}")
    return "".join(out)

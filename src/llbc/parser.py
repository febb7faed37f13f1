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

``render`` is the one printer, for both sorts, and the inverse of parsing:
``parse(render(v))`` equals ``v`` up to source spans, and output carries
only the parentheses the same table requires: the left operand of a
level-L operator renders at level L, the right at L + 1. It reads a type
at a polarity, asking ``syntax.connective`` what each node is when
negated, so a type's dual prints without being built.
"""
from __future__ import annotations

import re
from typing import Callable, NamedTuple

from . import syntax as sx
from .errors import DualityError, LimitError, ParseError
from .syntax import MAX_LITERALS
from .units import DEFAULT_UNITS, KEYWORDS

# The tokens that may continue an operand after a word: ``^``, and the
# ``.`` of a freshness suffix.
_SUFFIXES = ("CARET", "DOT")

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

# One match per lexeme, taking the blanks and the comment before it along.
# Groups: 1 a token (punctuation or a word), 2 newline, 3 anything else
# (an error); blanks and a comment at the end of the text match without
# a group.
_LEXEME = re.compile(
    r"[ \t\r]*(?://[^\n]*)?(?:(-o|[(){},;*#@^?!&+.]|\w+)|(\n)|(.)|\Z)", re.DOTALL
)
# The kind of each token text that has one of its own; any other word is
# an ``INT`` or an ``IDENT``.
_KIND_OF_TEXT = {**_PUNCT, "_": "UNDER"}


# A token is a plain tuple ``(kind, text, begin, end, line, column)``:
# its kind, its text, its half-open range in the source, and the 1-based
# line and column of its first character. Spans are built only for the
# syntax nodes and errors that keep them.
KIND, TEXT, BEGIN, END, LINE, COLUMN = range(6)


def tokenize(text: str) -> list[tuple]:
    """The tokens of ``text``, ending in one ``EOF`` token."""
    tokens: list[tuple] = []
    append = tokens.append
    kind_of = _KIND_OF_TEXT.get
    # A column is an offset plus ``base``: one less the offset of the line.
    line, base = 1, 1
    for m in _LEXEME.finditer(text):
        word = m[1]
        if word is not None:
            start, end = m.span(1)
            # ``int`` reads exactly the decimal words; ``isdigit`` would let
            # superscripts such as "²" through.
            kind = kind_of(word) or ("INT" if word.isdecimal() else "IDENT")
            append((kind, word, start, end, line, start + base))
        elif m.lastindex == 2:
            line, base = line + 1, 1 - m.end()
        elif m.lastindex == 3:
            start, end = m.span(3)
            where = sx.SourceSpan(start, end, line, start + base)
            raise ParseError(f"unsupported character {m[3]!r}", where)
    n = len(text)
    append(("EOF", "", n, n, line, n + base))
    return tokens


# Token ranges run forward by construction, so the parser's spans skip
# the constructor's check.
_SourceSpan = sx.SourceSpan.trusted


def _span(tok: tuple) -> sx.SourceSpan:
    return _SourceSpan(tok[BEGIN], tok[END], tok[LINE], tok[COLUMN])


class _Op(NamedTuple):
    """An infix operator: its text, its binding level (higher binds
    tighter), and the node it builds in each sort, or None where the sort
    lacks it. Constructors take ``(left, right, span)``."""

    text: str
    level: int
    expr: Callable | None
    type: Callable | None
    right_assoc: bool = False


_INFIX = {
    "LOLLI": _Op(
        "-o",
        0,
        lambda a, b, span: sx.desugar_obligation(a, b).replace(span=span),
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

# How deep operands may nest: each parenthesis, ``inl``/``inr`` operand, box
# entry or transaction side, and right operand of ``-o`` is a level. At most
# six parser frames per level keep this far inside the recursion limit.
MAX_NESTING = 100

# A sort is named by its constructor column in ``_Op``.
_EXPR = "expr"
_TYPE = "type"


def _expected(what: str, tok: tuple, kind: str) -> ParseError:
    return ParseError(
        f"expected {what}, found {tok[TEXT] or 'end of input'!r}", _span(tok), expected={kind}
    )


class _Parser:
    def __init__(self, text: str, units: frozenset[str]):
        self.tokens = tokenize(text)
        # A second EOF, so that looking one past the end needs no clamp.
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.units = units
        self.depth = 0
        self.literals = 0
        self.addresses = sx.Interned()

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> tuple:
        """The next token, or the one after it; reading stops at EOF."""
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[KIND] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[KIND] != kind:
            raise _expected(kind, tok, kind)
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][KIND] == kind

    def span_from(self, tok: tuple) -> sx.SourceSpan:
        """From the start of ``tok`` to the end of the last token read."""
        return _SourceSpan(tok[BEGIN], self.tokens[self.pos - 1][END], tok[LINE], tok[COLUMN])

    def finish(self, value):
        tok = self.peek()
        if tok[KIND] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[TEXT]!r}", _span(tok))
        return value

    # -- programs ----------------------------------------------------------

    def program(self) -> sx.Program:
        begin = self.expect("LPAREN")
        interface = [] if self.at("RPAREN") else self.listed(self.infix, _EXPR)
        self.expect("RPAREN")
        self.expect("LBRACE")
        pending: list[sx.Transaction] = []
        tokens = self.tokens
        if not self.at("RBRACE"):
            pending.append(self.transaction())
            while tokens[self.pos][KIND] == "SEMI":
                self.pos += 1
                if tokens[self.pos][KIND] == "RBRACE":
                    break
                pending.append(self.transaction())
        self.expect("RBRACE")
        return sx.Program(tuple(interface), tuple(pending), self.span_from(begin))

    def listed(self, read: Callable, *args) -> list:
        """One or more ``read(*args)`` items, separated by commas."""
        items = [read(*args)]
        while self.at("COMMA"):
            self.next()
            items.append(read(*args))
        return items

    def transaction(self) -> sx.Transaction:
        tok = self.tokens[self.pos]
        if not (tok[KIND] == "IDENT" and tok[TEXT] == "txn"):
            raise _expected("txn", tok, "txn")
        self.pos += 1
        self.expect("LPAREN")
        left = self.infix(_EXPR)
        self.expect("COMMA")
        right = self.infix(_EXPR)
        end = self.expect("RPAREN")
        span = _SourceSpan(tok[BEGIN], end[END], tok[LINE], tok[COLUMN])
        return sx.Transaction(left, right, span)

    # -- operators, both sorts ---------------------------------------------

    def infix(self, sort: str, floor: int = 0):
        """An operand of ``sort`` joined by operators of level ``floor`` or
        tighter. Compound expressions span their operands; compound types
        carry no span. Nesting is counted here, where every nested operand
        starts."""
        if self.depth == MAX_NESTING:
            raise LimitError(f"operands nest deeper than {MAX_NESTING} levels", _span(self.peek()))
        self.depth += 1
        tok, after = self.tokens[self.pos], self.tokens[self.pos + 1]
        if tok[KIND] == "IDENT" and after[KIND] not in _SUFFIXES and tok[TEXT] not in KEYWORDS:
            left = self.primary(sort)  # one word, so no prefix or ``^`` to read
        else:
            left = self.prefixed(sort)
        while True:
            tok = self.tokens[self.pos]
            op = _INFIX.get(tok[KIND])
            build = op and getattr(op, sort)
            if build is None or op.level < floor:
                self.depth -= 1
                return left
            self.next()
            right = self.infix(sort, op.level if op.right_assoc else op.level + 1)
            try:
                left = build(left, right, self._join(left, right) if sort == _EXPR else None)
            except DualityError as err:
                raise ParseError(str(err), err.span or _span(tok)) from err

    def prefixed(self, sort: str):
        """An operand under its prefixes, which are read in a loop."""
        prefixes = []
        while self.at("QUERY") or (sort == _TYPE and self.at("BANG")):
            prefixes.append(self.next())
        tok = self.peek()
        if sort == _EXPR and tok[KIND] == "IDENT" and tok[TEXT] in ("inl", "inr"):
            self.next()
            self.expect("LPAREN")
            inner = self.infix(_EXPR)
            self.expect("RPAREN")
            cls = sx.Inl if tok[TEXT] == "inl" else sx.Inr
            value = cls(inner, span=self.span_from(tok))
        else:
            value = self.primary(sort)
            while self.at("CARET"):
                caret = self.next()
                if sort == _TYPE:
                    value = sx.dual(value)
                    continue
                try:
                    value = sx.dualize_expr(value)
                except DualityError as err:
                    raise ParseError(str(err), _span(caret)) from err
        for tok in reversed(prefixes):
            if sort == _TYPE:
                value = sx.OfCourse(value) if tok[KIND] == "BANG" else sx.WhyNot(value)
            else:
                value = sx.Store(value, span=self.span_from(tok))
        return value

    def primary(self, sort: str):
        tok = self.tokens[self.pos]
        kind, text = tok[KIND], tok[TEXT]
        if kind == "IDENT" and sort == _EXPR and text not in KEYWORDS:
            self.pos += 1
            if text in self.units:
                if self.at("DOT"):
                    raise ParseError(
                        "freshness suffix is not allowed on a currency unit",
                        _span(self.peek()),
                    )
                return sx.Unit(text, _span(tok))
            return sx.Addr(self.address_suffix(tok), self.span_from(tok))
        if kind == "LPAREN":
            self.next()
            value = self.infix(sort)
            self.expect("RPAREN")
            return value
        if sort == _TYPE:
            if kind == "IDENT":
                if text not in self.units:
                    raise ParseError(f"unknown currency unit {text!r}", _span(tok))
                self.next()
                return sx.Atom(text, span=_span(tok))
            raise _expected("a type", tok, "type")
        if kind == "UNDER":
            self.next()
            return sx.Dispose(span=_span(tok))
        if kind == "INT":
            return self.unit_chain()
        if kind == "BANG" or text == "choose":
            return self.box()
        if kind == "IDENT":
            raise ParseError(f"{text!r} is a keyword", _span(tok))
        raise _expected("an expression", tok, "expression")

    # -- expression forms --------------------------------------------------

    def unit_chain(self) -> sx.Expression:
        tok = self.expect("INT")
        try:
            count = int(tok[TEXT])
        except ValueError:  # more digits than ``int`` converts, so far past the limit
            count = MAX_LITERALS + 1
        if count < 1:
            raise ParseError("unit multiplier must be positive", _span(tok))
        self.literals += count
        if self.literals > MAX_LITERALS:
            raise LimitError(f"unit literals expand to more than {MAX_LITERALS} units", _span(tok))
        self.expect("DOT")
        unit_tok = self.expect("IDENT")
        unit = unit_tok[TEXT]
        if unit not in self.units:
            raise ParseError(f"unknown currency unit {unit!r}", _span(unit_tok))
        return sx.amount_literal(count, unit, self.span_from(tok))

    def address_suffix(self, tok: tuple) -> sx.Address:
        path: list[str] = []
        # Only a word token has the text "l" or "r".
        while self.tokens[self.pos][KIND] == "DOT" and self.peek(1)[TEXT] in (sx.LEFT, sx.RIGHT):
            self.next()
            path.append(self.next()[TEXT])
        try:
            return self.addresses[(tok[TEXT], tuple(path)) if path else tok[TEXT]]
        except ValueError as err:
            raise ParseError(str(err), _span(tok)) from err

    def binder(self) -> sx.Address:
        """One entry of a box's bound list: an address, not a unit."""
        tok = self.expect("IDENT")
        if tok[TEXT] in KEYWORDS or tok[TEXT] in self.units:
            raise ParseError(f"{tok[TEXT]!r} cannot be used as a bound address", _span(tok))
        return self.address_suffix(tok)

    def box(self) -> sx.Expression:
        """A menu ``choose(x...){ p; q }`` or a replication ``!(x...){ p }``:
        its bound list, then its branches, one program each."""
        tok = self.next()  # choose or !
        menu = tok[TEXT] == "choose"
        if not (menu or self.at("LPAREN")):
            raise ParseError("expected '(' after '!'", _span(self.peek()), expected={"LPAREN"})
        self.expect("LPAREN")
        bound = () if self.at("RPAREN") else tuple(self.listed(self.binder))
        self.expect("RPAREN")
        if len(set(bound)) != len(bound):
            raise ParseError("bound addresses must be pairwise distinct", _span(self.peek()))
        self.expect("LBRACE")
        branches = [self.program()]
        if menu:
            self.expect("SEMI")
            branches.append(self.program())
        self.expect("RBRACE")
        return (sx.Choose if menu else sx.Bang)(bound, *branches, span=self.span_from(tok))

    @staticmethod
    def _join(left, right) -> sx.SourceSpan | None:
        ls, rs = left.span, right.span
        if ls is None or rs is None:
            return None
        return _SourceSpan(ls.begin, rs.end, ls.line, ls.column)


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
            declared = header.finish(header.listed(header.infix, _TYPE))
        body = text[:offset] + _blank(text[offset:end]) + text[end:]
    return parse_program(body, units), declared


def _blank(text: str) -> str:
    """``text`` with every character but newlines turned into a space."""
    return re.sub(r"[^\n]", " ", text)


# ---------------------------------------------------------------------------
# Pretty printer

def _sugar_spine(e: sx.Iso, sugar: dict) -> None:
    """Record in ``sugar``, by id, the ``N . unit`` text (or None) of each
    ``*`` node on ``e``'s left spine of literals: a node is sugar when the
    literals from it to the spine's end are one unit. Render looks nodes
    up there, so it examines each spine once."""
    sugar[id(e)] = None
    spine, node = [], e
    while type(node) is sx.Iso and type(node.right) is sx.Unit:
        spine.append(node)
        node = node.left
    count = 1 if type(node) is sx.Unit else 0
    for iso in reversed(spine):
        count = count + 1 if count and iso.right.unit == node.unit else 0
        sugar[id(iso)] = f"{count} . {node.unit}" if count else None


def _listed(items, sep: str) -> list:
    parts: list = []
    for item in items:
        parts += [sep, (item, False, 0)] if parts else [(item, False, 0)]
    return parts


def _box(head: str, box) -> list:
    """A menu or a replication box: its head and bound list, then its
    branches separated by ``;``."""
    bound = ", ".join(a.render() for a in box.bound)
    return [f"{head}({bound}){{ ", *_listed(sx.children(box), "; "), " }"]


# How each form that is not an infix operator prints when read at polarity
# ``neg`` (only types are ever negated): its text, or text pieces and
# (sub-node, polarity, level) slots, left to right.
_LAYOUT = {
    sx.Atom: lambda n, neg: n.unit + "^" if n.negated ^ neg else n.unit,
    sx.OfCourse: lambda n, neg: ["!", (n.body, neg, _PREFIX_LEVEL)],
    sx.WhyNot: lambda n, neg: ["?", (n.body, neg, _PREFIX_LEVEL)],
    sx.Addr: lambda n, neg: n.address.render(),
    sx.Address: lambda n, neg: n.render(),
    sx.Unit: lambda n, neg: n.unit,
    sx.Dispose: lambda n, neg: "_",
    sx.Dual: lambda n, neg: [(n.inner, neg, _ATOM_LEVEL), "^"],
    sx.Store: lambda n, neg: ["?", (n.inner, neg, _PREFIX_LEVEL)],
    sx.Inl: lambda n, neg: ["inl(", (n.inner, neg, 0), ")"],
    sx.Inr: lambda n, neg: ["inr(", (n.inner, neg, 0), ")"],
    sx.Choose: lambda n, neg: _box("choose", n),
    sx.Bang: lambda n, neg: _box("!", n),
    sx.Transaction: lambda n, neg: ["txn(", (n.left, neg, 0), ", ", (n.right, neg, 0), ")"],
    sx.Program: lambda n, neg: ["(", *_listed(n.interface, ", "), "){ ", *_listed(n.pending, "; "), " }"]
    if n.pending
    else ["(", *_listed(n.interface, ", "), "){}"],
}


class _Cut(Exception):
    """Raised by a bounded writer once it is past its limit."""


def _bounded(out: list, limit: int):
    """``out.append`` that raises :class:`_Cut` once more than ``limit``
    characters are out."""
    size = 0

    def write(text):
        nonlocal size
        out.append(text)
        size += len(text)
        if size > limit:
            raise _Cut

    return write


def render(value, negated: bool = False, chase=None, limit=None) -> str:
    """Concrete syntax for a program, transaction, expression, or type; a
    type is read dualised when ``negated``. Iterative, so arbitrarily deep
    values are fine; hand-written, not on ``walk``, as it writes text.

    ``chase(node, negated)``, if given, names the node to print in place
    of each one met and the polarity to read it at; a type leaf from
    outside the syntax, such as a checker's unknown, prints as
    ``str(leaf)``. With ``limit``, writing stops once more than ``limit``
    characters are out, so a large value costs only the depth of its head.
    """
    out: list[str] = []
    write = out.append if limit is None else _bounded(out, limit)
    sugar: dict[int, str | None] = {}
    todo: list = [(value, negated, 0)]
    try:
        while todo:
            item = todo.pop()
            if type(item) is str:
                write(item)
                continue
            node, neg, level = item
            if chase is not None:
                node, neg = chase(node, neg)
            kind = sx.connective(node, True) if neg else type(node)
            if kind is sx.Iso:
                if id(node) not in sugar:
                    _sugar_spine(node, sugar)
                if sugar[id(node)] is not None:
                    write(sugar[id(node)])
                    continue
            op = _OP_OF_NODE.get(kind)
            if op is not None:
                parts = ((node.right, neg, op.level + 1), f" {op.text} ", (node.left, neg, op.level))
                todo += (")", *parts, "(") if op.level < level else parts
                continue
            layout = _LAYOUT.get(kind)
            if layout is not None:
                parts = layout(node, neg)
            elif isinstance(node, sx.LinearType):
                parts = str(node)
            else:
                raise TypeError(f"cannot render {node!r}")
            if type(parts) is str:
                write(parts)
            else:
                todo += reversed(parts)
    except _Cut:
        pass
    return "".join(out)

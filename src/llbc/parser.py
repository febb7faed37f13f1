"""Concrete syntax: lexer, recursive-descent parser, and pretty printer.

Surface syntax, tightest binding first::

    ^                 postfix dual
    ? inl inr         prefixes (and the ! / choose boxes)
    *                 isolation / tensor      (left associative)
    #                 connection / par        (left associative)
    @                 contraction             (left associative)
    & +               with / plus, types only (left associative)
    -o                obligation              (right associative)

``N . unit`` abbreviates an N-fold ``*`` chain of unit literals, grouped to
the left like explicit ``*``. ``//`` comments run to end of line. A script
file may begin with a type header line ``-- types: A1, A2, ...`` declaring
the interface types.

``render`` is the inverse of parsing: ``parse(render(v))`` equals ``v`` up
to source spans, and output carries only the parentheses the precedence
table requires.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .errors import DualityError, ParseError
from .units import DEFAULT_UNITS

KEYWORDS = frozenset({"txn", "choose", "inl", "inr"})

_PUNCT = {
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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: sx.SourceSpan


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def bump(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            bump(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                bump(1)
            continue
        start, sl, sc = i, line, col
        if text.startswith("-o", i):
            bump(2)
            tokens.append(Token("LOLLI", "-o", sx.SourceSpan(start, i, sl, sc)))
            continue
        if ch in _PUNCT:
            bump(1)
            tokens.append(Token(_PUNCT[ch], ch, sx.SourceSpan(start, i, sl, sc)))
            continue
        if ch.isalnum() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                bump(1)
            word = text[start:i]
            span = sx.SourceSpan(start, i, sl, sc)
            if word.isdigit():
                tokens.append(Token("INT", word, span))
            elif word == "_":
                tokens.append(Token("UNDER", word, span))
            else:
                tokens.append(Token("IDENT", word, span))
            continue
        raise ParseError(
            f"unsupported character {ch!r}", sx.SourceSpan(start, start + 1, sl, sc)
        )
    tokens.append(Token("EOF", "", sx.SourceSpan(n, n, line, col)))
    return tokens


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
            raise ParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.span,
                expected={kind},
            )
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def span_from(self, begin: sx.SourceSpan) -> sx.SourceSpan:
        prev = self.tokens[max(self.pos - 1, 0)].span
        return sx.SourceSpan(begin.begin, prev.end, begin.line, begin.column)

    # -- programs ----------------------------------------------------------

    def program(self) -> sx.Program:
        begin = self.expect("LPAREN").span
        interface: list[sx.Expression] = []
        if not self.at("RPAREN"):
            interface.append(self.expression())
            while self.at("COMMA"):
                self.next()
                interface.append(self.expression())
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
            raise ParseError(
                f"expected txn, found {tok.text or 'end of input'!r}",
                tok.span,
                expected={"txn"},
            )
        self.next()
        self.expect("LPAREN")
        left = self.expression()
        self.expect("COMMA")
        right = self.expression()
        self.expect("RPAREN")
        return sx.Transaction(left, right, span=self.span_from(tok.span))

    # -- expressions -------------------------------------------------------

    def expression(self) -> sx.Expression:
        return self.obligation()

    def obligation(self) -> sx.Expression:
        left = self.contraction()
        if self.at("LOLLI"):
            tok = self.next()
            right = self.obligation()
            try:
                out = sx.desugar_obligation(left, right)
            except DualityError as err:
                raise ParseError(str(err), err.span or tok.span) from err
            return out
        return left

    def contraction(self) -> sx.Expression:
        left = self.connection()
        while self.at("AT"):
            self.next()
            right = self.connection()
            left = sx.Contract(left, right, span=self._join(left, right))
        return left

    def connection(self) -> sx.Expression:
        left = self.isolation()
        while self.at("HASH"):
            self.next()
            right = self.isolation()
            left = sx.Conn(left, right, span=self._join(left, right))
        return left

    def isolation(self) -> sx.Expression:
        left = self.prefixed()
        while self.at("STAR"):
            self.next()
            right = self.prefixed()
            left = sx.Iso(left, right, span=self._join(left, right))
        return left

    def prefixed(self) -> sx.Expression:
        tok = self.peek()
        if tok.kind == "QUERY":
            self.next()
            inner = self.prefixed()
            return sx.Store(inner, span=self.span_from(tok.span))
        if tok.kind == "IDENT" and tok.text in ("inl", "inr"):
            self.next()
            self.expect("LPAREN")
            inner = self.expression()
            self.expect("RPAREN")
            cls = sx.Inl if tok.text == "inl" else sx.Inr
            return cls(inner, span=self.span_from(tok.span))
        return self.postfixed()

    def postfixed(self) -> sx.Expression:
        expr = self.primary()
        while self.at("CARET"):
            tok = self.next()
            try:
                expr = sx.dualize_expr(expr)
            except DualityError as err:
                raise ParseError(str(err), tok.span) from err
        return expr

    def primary(self) -> sx.Expression:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            expr = self.expression()
            self.expect("RPAREN")
            return expr
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
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.span,
            expected={"expression"},
        )

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

    # -- types -------------------------------------------------------------

    def type_expr(self) -> sx.LinearType:
        left = self.type_plus()
        if self.at("LOLLI"):
            self.next()
            right = self.type_expr()
            return sx.Par(sx.dual(left), right)
        return left

    def type_plus(self) -> sx.LinearType:
        left = self.type_with()
        while self.at("PLUS"):
            self.next()
            left = sx.Plus(left, self.type_with())
        return left

    def type_with(self) -> sx.LinearType:
        left = self.type_par()
        while self.at("AMP"):
            self.next()
            left = sx.With(left, self.type_par())
        return left

    def type_par(self) -> sx.LinearType:
        left = self.type_tensor()
        while self.at("HASH"):
            self.next()
            left = sx.Par(left, self.type_tensor())
        return left

    def type_tensor(self) -> sx.LinearType:
        left = self.type_prefixed()
        while self.at("STAR"):
            self.next()
            left = sx.Tensor(left, self.type_prefixed())
        return left

    def type_prefixed(self) -> sx.LinearType:
        tok = self.peek()
        if tok.kind == "BANG":
            self.next()
            return sx.OfCourse(self.type_prefixed())
        if tok.kind == "QUERY":
            self.next()
            return sx.WhyNot(self.type_prefixed())
        return self.type_postfixed()

    def type_postfixed(self) -> sx.LinearType:
        t = self.type_primary()
        while self.at("CARET"):
            self.next()
            t = sx.dual(t)
        return t

    def type_primary(self) -> sx.LinearType:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            t = self.type_expr()
            self.expect("RPAREN")
            return t
        if tok.kind == "IDENT":
            if tok.text not in self.units:
                raise ParseError(f"unknown currency unit {tok.text!r}", tok.span)
            self.next()
            return sx.Atom(tok.text, span=tok.span)
        raise ParseError(
            f"expected a type, found {tok.text or 'end of input'!r}",
            tok.span,
            expected={"type"},
        )


def _finish(parser: _Parser, value):
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.span)
    return value


def parse_program(text: str, units: frozenset[str] = DEFAULT_UNITS) -> sx.Program:
    parser = _Parser(text, units)
    return _finish(parser, parser.program())


def parse_expression(text: str, units: frozenset[str] = DEFAULT_UNITS) -> sx.Expression:
    parser = _Parser(text, units)
    return _finish(parser, parser.expression())


def parse_type(text: str, units: frozenset[str] = DEFAULT_UNITS) -> sx.LinearType:
    parser = _Parser(text, units)
    return _finish(parser, parser.type_expr())


TYPE_HEADER = "-- types:"


def parse_script(
    text: str, units: frozenset[str] = DEFAULT_UNITS
) -> tuple[sx.Program, list[sx.LinearType] | None]:
    """Parse a ``.llbc`` script: an optional type header, then one program."""
    declared = None
    body = text
    stripped = text.lstrip()
    if stripped.startswith("--"):
        offset = text.index("--")
        newline = text.find("\n", offset)
        header = text[offset:] if newline < 0 else text[offset:newline]
        if not header.startswith(TYPE_HEADER):
            raise ParseError(
                "a '--' line must be a type header of the form '-- types: ...'",
                sx.SourceSpan(offset, offset + len(header), 1, 1),
            )
        spec = header[len(TYPE_HEADER) :].strip()
        declared = [parse_type(part.strip(), units) for part in _split_types(spec)]
        # Blank the header out rather than slicing it off so spans in the
        # program body keep their original offsets and line numbers.
        end = len(text) if newline < 0 else newline
        body = text[:offset] + " " * (end - offset) + text[end:]
    return parse_program(body, units), declared


def _split_types(spec: str) -> list[str]:
    if not spec:
        return []
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(spec[start:i])
            start = i + 1
    parts.append(spec[start:])
    return parts


# ---------------------------------------------------------------------------
# Pretty printer

_T_OBLIG, _T_PLUS, _T_WITH, _T_PAR, _T_TENSOR, _T_PREFIX, _T_ATOM = range(7)


def _render_type(t: sx.LinearType, level: int) -> str:
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < level else text

    match t:
        case sx.Atom(unit, negated):
            return unit + ("^" if negated else "")
        case sx.Tensor(left, right):
            text = f"{_render_type(left, _T_TENSOR)} * {_render_type(right, _T_PREFIX)}"
            return wrap(text, _T_TENSOR)
        case sx.Par(left, right):
            text = f"{_render_type(left, _T_PAR)} # {_render_type(right, _T_TENSOR)}"
            return wrap(text, _T_PAR)
        case sx.With(left, right):
            text = f"{_render_type(left, _T_WITH)} & {_render_type(right, _T_PAR)}"
            return wrap(text, _T_WITH)
        case sx.Plus(left, right):
            text = f"{_render_type(left, _T_PLUS)} + {_render_type(right, _T_WITH)}"
            return wrap(text, _T_PLUS)
        case sx.OfCourse(body):
            return f"!{_render_type(body, _T_PREFIX)}"
        case sx.WhyNot(body):
            return f"?{_render_type(body, _T_PREFIX)}"
        case sx.LinearType():
            return str(t)  # a leaf from outside the syntax, such as a checker's unknown
    raise TypeError(f"not a LinearType: {t!r}")


_E_OBLIG, _E_AT, _E_HASH, _E_STAR, _E_PREFIX, _E_ATOM = range(6)


def _sugar_chain(e: sx.Expression) -> tuple[int, str] | None:
    """Recognise a left-nested ``*`` chain of one repeated unit literal."""
    count = 0
    node = e
    while isinstance(node, sx.Iso):
        if not isinstance(node.right, sx.Unit):
            return None
        count += 1
        node = node.left
    if not isinstance(node, sx.Unit) or count == 0:
        return None
    unit = node.unit
    probe = e
    while isinstance(probe, sx.Iso):
        if probe.right.unit != unit:  # type: ignore[union-attr]
            return None
        probe = probe.left
    return count + 1, unit


def _render_expr(e: sx.Expression, level: int) -> str:
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < level else text

    match e:
        case sx.Addr(address):
            return address.render()
        case sx.Unit(unit):
            return unit
        case sx.Dual(inner):
            return f"{_render_expr(inner, _E_ATOM)}^"
        case sx.Iso(left, right):
            sugared = _sugar_chain(e)
            if sugared is not None:
                count, unit = sugared
                return f"{count} . {unit}"
            text = f"{_render_expr(left, _E_STAR)} * {_render_expr(right, _E_PREFIX)}"
            return wrap(text, _E_STAR)
        case sx.Conn(left, right):
            text = f"{_render_expr(left, _E_HASH)} # {_render_expr(right, _E_STAR)}"
            return wrap(text, _E_HASH)
        case sx.Contract(left, right):
            text = f"{_render_expr(left, _E_AT)} @ {_render_expr(right, _E_HASH)}"
            return wrap(text, _E_AT)
        case sx.Store(inner):
            return f"?{_render_expr(inner, _E_PREFIX)}"
        case sx.Inl(inner):
            return f"inl({_render_expr(inner, _E_OBLIG)})"
        case sx.Inr(inner):
            return f"inr({_render_expr(inner, _E_OBLIG)})"
        case sx.Dispose():
            return "_"
        case sx.Choose(bound, left, right):
            names = ", ".join(a.render() for a in bound)
            return f"choose({names}){{ {render(left)}; {render(right)} }}"
        case sx.Bang(bound, body):
            names = ", ".join(a.render() for a in bound)
            return f"!({names}){{ {render(body)} }}"
    raise TypeError(f"not an Expression: {e!r}")


def render(value) -> str:
    """Concrete syntax for a program, transaction, expression, or type."""
    match value:
        case sx.Program(interface, pending):
            ports = ", ".join(_render_expr(e, _E_OBLIG) for e in interface)
            if not pending:
                return f"({ports}){{}}"
            txns = "; ".join(render(t) for t in pending)
            return f"({ports}){{ {txns} }}"
        case sx.Transaction(left, right):
            return f"txn({_render_expr(left, _E_OBLIG)}, {_render_expr(right, _E_OBLIG)})"
        case sx.LinearType():
            return _render_type(value, _T_OBLIG)
        case sx.Expression():
            return _render_expr(value, _E_OBLIG)
        case sx.Address():
            return value.render()
    raise TypeError(f"cannot render {value!r}")

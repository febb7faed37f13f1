"""Abstract syntax for block-chain state programs and their resource types.

A :class:`Program` is a block-chain state: an ordered interface of resource
expressions (the ports the outside world sees) plus a list of pending
transactions. Resource types are built from currency-unit atoms with the
multiplicative (``*``/``#``), additive (``&``/``+``) and exponential
(``!``/``?``) connectives; negation is kept in negation-normal form, i.e. it
lives only on atoms, so type equality is plain structural equality.

Everything in this module is an immutable value; all operations are pure.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import DualityError

# ---------------------------------------------------------------------------
# Source locations

@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range [begin, end) with the 1-based line/column of begin."""

    begin: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.begin > self.end:
            raise ValueError("span begin must not exceed end")

    def __str__(self):
        return f"{self.line}:{self.column}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Addresses

_NAME_RE = re.compile(r"(?!\d+$)[A-Za-z0-9_]+\Z")

LEFT = "l"
RIGHT = "r"
_SIDES = (LEFT, RIGHT)


@dataclass(frozen=True, order=True)
class Address:
    """A named port, plus the freshness path the reducer appends when copying.

    Addresses with a non-empty freshness path are reducer output; scripts are
    normally written with bare names.
    """

    name: str
    path: tuple[str, ...] = ()

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid address name: {self.name!r}")
        if any(side not in _SIDES for side in self.path):
            raise ValueError(f"invalid freshness path: {self.path!r}")

    def extended(self, side: str) -> "Address":
        if side not in _SIDES:
            raise ValueError(f"freshness side must be 'l' or 'r', got {side!r}")
        return Address(self.name, self.path + (side,))

    def render(self) -> str:
        return self.name + "".join("." + side for side in self.path)


# ---------------------------------------------------------------------------
# Types

class LinearType:
    """Base class for the resource-type language (negation-normal form)."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(LinearType):
    unit: str
    negated: bool = False
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Tensor(LinearType):
    left: LinearType
    right: LinearType
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Par(LinearType):
    left: LinearType
    right: LinearType
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class With(LinearType):
    left: LinearType
    right: LinearType
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Plus(LinearType):
    left: LinearType
    right: LinearType
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class OfCourse(LinearType):
    body: LinearType
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class WhyNot(LinearType):
    body: LinearType
    span: SourceSpan | None = _span_field()


def dual(t: LinearType) -> LinearType:
    """De Morgan dual; an involution on types in negation-normal form."""
    match t:
        case Atom(unit, negated):
            return Atom(unit, not negated)
        case Tensor(left, right):
            return Par(dual(left), dual(right))
        case Par(left, right):
            return Tensor(dual(left), dual(right))
        case With(left, right):
            return Plus(dual(left), dual(right))
        case Plus(left, right):
            return With(dual(left), dual(right))
        case OfCourse(body):
            return WhyNot(dual(body))
        case WhyNot(body):
            return OfCourse(dual(body))
    raise TypeError(f"not a LinearType: {t!r}")


# ---------------------------------------------------------------------------
# Expressions, transactions, programs

class Expression:
    """Base class for resource expressions (the proof-term side)."""

    __slots__ = ()


@dataclass(frozen=True)
class Addr(Expression):
    address: Address
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Unit(Expression):
    """A currency literal, e.g. one satoshi sitting on the chain."""

    unit: str
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Dual(Expression):
    """Demand-polarity marker. After normalisation it only wraps Unit."""

    inner: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Iso(Expression):
    """Isolation ``e * e``: two resources on disjoint chain fragments."""

    left: Expression
    right: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Conn(Expression):
    """Connection ``e # e``: two linked resources in one fragment."""

    left: Expression
    right: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Choose(Expression):
    """Menu ``choose(x...){p; q}`` of two alternative chain states.

    The bound list either matches the branch interface length (its head is
    then an inert placeholder, as in the genesis/burn menu) or is one
    shorter (pure context binders).
    """

    bound: tuple[Address, ...]
    left: "Program"
    right: "Program"
    span: SourceSpan | None = _span_field()

    def __post_init__(self):
        if len(set(self.bound)) != len(self.bound):
            raise ValueError("bound addresses must be pairwise distinct")


@dataclass(frozen=True)
class Inl(Expression):
    inner: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Inr(Expression):
    inner: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Store(Expression):
    """Storage ``?e``: a value made copyable/discardable."""

    inner: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Dispose(Expression):
    """Disposal ``_``: the sink that discards what is sent to it."""

    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Contract(Expression):
    """Contraction ``e @ e``: two uses of one copyable resource."""

    left: Expression
    right: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Bang(Expression):
    """Replication ``!(x...){p}``: a server that re-emits the state ``p``."""

    bound: tuple[Address, ...]
    body: "Program"
    span: SourceSpan | None = _span_field()

    def __post_init__(self):
        if len(set(self.bound)) != len(self.bound):
            raise ValueError("bound addresses must be pairwise distinct")


@dataclass(frozen=True)
class Transaction:
    left: Expression
    right: Expression
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Program:
    interface: tuple[Expression, ...]
    pending: tuple[Transaction, ...]
    span: SourceSpan | None = _span_field()


Renameable = Union[Expression, Transaction, Program, Address]


# ---------------------------------------------------------------------------
# Duality and desugaring on expressions

def dualize_expr(e: Expression) -> Expression:
    """Push the demand marker through an expression.

    Identity on addresses, marks currency literals as demands, and swaps
    isolation with connection. Undefined on the remaining forms, which are
    rejected rather than guessed at.
    """
    match e:
        case Addr():
            return e
        case Unit(unit):
            return Dual(e, span=e.span)
        case Dual(inner):
            return inner
        case Iso(left, right):
            return Conn(dualize_expr(left), dualize_expr(right), span=e.span)
        case Conn(left, right):
            return Iso(dualize_expr(left), dualize_expr(right), span=e.span)
    raise DualityError(
        f"dual is not defined on {type(e).__name__} expressions", getattr(e, "span", None)
    )


def desugar_obligation(e1: Expression, e2: Expression) -> Expression:
    """``e1 -o e2`` is sugar for ``dual(e1) # e2``."""
    return Conn(dualize_expr(e1), e2)


# ---------------------------------------------------------------------------
# Renaming

def rename(value: Renameable, side: str) -> Renameable:
    """Append ``side`` to the freshness path of every address in ``value``."""
    if side not in _SIDES:
        raise ValueError(f"freshness side must be 'l' or 'r', got {side!r}")
    return _rename(value, side)


def _rename(value, side):
    match value:
        case Address():
            return value.extended(side)
        case Addr(address):
            return Addr(address.extended(side), span=value.span)
        case Unit() | Dispose():
            return value
        case Dual(inner):
            return Dual(_rename(inner, side), span=value.span)
        case Iso(left, right):
            return Iso(_rename(left, side), _rename(right, side), span=value.span)
        case Conn(left, right):
            return Conn(_rename(left, side), _rename(right, side), span=value.span)
        case Inl(inner):
            return Inl(_rename(inner, side), span=value.span)
        case Inr(inner):
            return Inr(_rename(inner, side), span=value.span)
        case Store(inner):
            return Store(_rename(inner, side), span=value.span)
        case Contract(left, right):
            return Contract(_rename(left, side), _rename(right, side), span=value.span)
        case Choose(bound, left, right):
            return Choose(
                tuple(a.extended(side) for a in bound),
                _rename(left, side),
                _rename(right, side),
                span=value.span,
            )
        case Bang(bound, body):
            return Bang(
                tuple(a.extended(side) for a in bound),
                _rename(body, side),
                span=value.span,
            )
        case Transaction(left, right):
            return Transaction(_rename(left, side), _rename(right, side), span=value.span)
        case Program(interface, pending):
            return Program(
                tuple(_rename(e, side) for e in interface),
                tuple(_rename(t, side) for t in pending),
                span=value.span,
            )
    raise TypeError(f"cannot rename {value!r}")


# ---------------------------------------------------------------------------
# Address analysis

def context_binders(box: Choose | Bang) -> tuple[Address, ...]:
    """The binders that stand for the branch context.

    A menu whose bound list matches its branch interface length carries an
    inert placeholder at the head; it is dropped here. Replication boxes
    never carry a placeholder.
    """
    if isinstance(box, Bang):
        return box.bound
    width = len(box.left.interface)
    if len(box.bound) == width and width > 0:
        return box.bound[1:]
    return box.bound


def _free(e) -> set[Address]:
    match e:
        case Addr(address):
            return {address}
        case Unit() | Dispose():
            return set()
        case Dual(inner) | Inl(inner) | Inr(inner) | Store(inner):
            return _free(inner)
        case Iso(left, right) | Conn(left, right) | Contract(left, right):
            return _free(left) | _free(right)
        case Choose(bound, left, right):
            inner = _free(left) | _free(right)
            return set(context_binders(e)) | (inner - set(bound))
        case Bang(bound, body):
            return set(bound) | (_free(body) - set(bound))
        case Transaction(left, right):
            return _free(left) | _free(right)
        case Program(interface, pending):
            out: set[Address] = set()
            for entry in interface:
                out |= _free(entry)
            for txn in pending:
                out |= _free(txn)
            return out
    raise TypeError(f"cannot analyse {e!r}")


def free_addresses(value: Expression | Transaction | Program) -> frozenset[Address]:
    """Addresses visible to the enclosing scope.

    Box binders count as occurrences of the surrounding program (their
    partner lives outside the box); names used inside a box that the box
    binds do not leak. The placeholder binder of a menu is inert and is not
    reported.
    """
    return frozenset(_free(value))


# Occurrence sites, used by the linearity census and the reducer. Boxes are
# opaque: only their binder lists count at the enclosing level.

ENTRY = "interface"
PENDING = "pending"


def surface_occurrences(program: Program) -> Iterator[tuple[Address, str]]:
    for entry in program.interface:
        for address in surface_addresses(entry):
            yield (address, ENTRY)
    for txn in program.pending:
        for side in (txn.left, txn.right):
            for address in surface_addresses(side):
                yield (address, PENDING)


def surface_addresses(e: Expression) -> list[Address]:
    """The occurrence sites of ``e`` at the enclosing level, left to right.

    Iterative, so arbitrarily deep ``*``-chains of literals are fine.
    """
    out: list[Address] = []
    stack = [e]
    while stack:
        node = stack.pop()
        match node:
            case Addr(address):
                out.append(address)
            case Unit() | Dispose():
                pass
            case Dual(inner) | Inl(inner) | Inr(inner) | Store(inner):
                stack.append(inner)
            case Iso(left, right) | Conn(left, right) | Contract(left, right):
                stack.append(right)
                stack.append(left)
            case Choose() | Bang():
                out.extend(context_binders(node))
            case _:
                raise TypeError(f"cannot analyse {node!r}")
    return out


# ---------------------------------------------------------------------------
# Counting helpers

def node_count(value) -> int:
    """Number of syntax nodes, counting through box bodies."""
    match value:
        case Addr() | Unit() | Dispose():
            return 1
        case Dual(inner) | Inl(inner) | Inr(inner) | Store(inner):
            return 1 + node_count(inner)
        case Iso(l, r) | Conn(l, r) | Contract(l, r):
            return 1 + node_count(l) + node_count(r)
        case Choose(_, left, right):
            return 1 + node_count(left) + node_count(right)
        case Bang(_, body):
            return 1 + node_count(body)
        case Transaction(l, r):
            return 1 + node_count(l) + node_count(r)
        case Program(interface, pending):
            return 1 + sum(map(node_count, interface)) + sum(map(node_count, pending))
    raise TypeError(f"cannot count {value!r}")


def unit_multiset(value) -> Counter:
    """Multiset of currency literals, counting through box bodies.

    Iterative, so arbitrarily deep ``*``-chains of literals are fine.
    """
    out: Counter = Counter()
    stack = [value]
    while stack:
        node = stack.pop()
        match node:
            case Unit(unit):
                out[unit] += 1
            case Addr() | Dispose():
                pass
            case Dual(inner) | Inl(inner) | Inr(inner) | Store(inner):
                stack.append(inner)
            case Iso(l, r) | Conn(l, r) | Contract(l, r) | Transaction(l, r):
                stack.append(r)
                stack.append(l)
            case Choose(_, left, right):
                stack.append(right)
                stack.append(left)
            case Bang(_, body):
                stack.append(body)
            case Program(interface, pending):
                stack.extend(reversed(pending))
                stack.extend(reversed(interface))
            case _:
                raise TypeError(f"cannot count {node!r}")
    return out


# ---------------------------------------------------------------------------
# Alpha equivalence (equality modulo a bijective relabelling of freshness
# paths; base names must agree)

class _Bijection:
    def __init__(self):
        self.fwd: dict[Address, Address] = {}
        self.bwd: dict[Address, Address] = {}

    def match(self, a: Address, b: Address) -> bool:
        if a.name != b.name:
            return False
        if a in self.fwd:
            return self.fwd[a] == b and self.bwd.get(b) == a
        if b in self.bwd:
            return False
        self.fwd[a] = b
        self.bwd[b] = a
        return True

    def snapshot(self):
        return dict(self.fwd), dict(self.bwd)

    def restore(self, saved):
        self.fwd, self.bwd = saved


def _alpha(a, b, bij: _Bijection) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case Addr():
            return bij.match(a.address, b.address)
        case Unit():
            return a.unit == b.unit
        case Dispose():
            return True
        case Dual() | Inl() | Inr() | Store():
            return _alpha(a.inner, b.inner, bij)
        case Iso() | Conn() | Contract():
            return _alpha(a.left, b.left, bij) and _alpha(a.right, b.right, bij)
        case Choose():
            if len(a.bound) != len(b.bound):
                return False
            return (
                all(bij.match(x, y) for x, y in zip(a.bound, b.bound))
                and _alpha(a.left, b.left, bij)
                and _alpha(a.right, b.right, bij)
            )
        case Bang():
            if len(a.bound) != len(b.bound):
                return False
            return all(bij.match(x, y) for x, y in zip(a.bound, b.bound)) and _alpha(
                a.body, b.body, bij
            )
        case Transaction():
            # A transaction joins two resources symmetrically; reduction
            # orders may fuse the same pair in either orientation.
            saved = bij.snapshot()
            if _alpha(a.left, b.left, bij) and _alpha(a.right, b.right, bij):
                return True
            bij.restore(saved)
            return _alpha(a.left, b.right, bij) and _alpha(a.right, b.left, bij)
        case Program():
            if len(a.interface) != len(b.interface) or len(a.pending) != len(b.pending):
                return False
            for x, y in zip(a.interface, b.interface):
                if not _alpha(x, y, bij):
                    return False
            return _alpha_pending(list(a.pending), list(b.pending), bij)
    raise TypeError(f"cannot compare {a!r}")


def _erase_key(value) -> str:
    """A path-insensitive structural key, used to prune pending matching."""
    match value:
        case Addr():
            return f"a:{value.address.name}"
        case Unit():
            return f"u:{value.unit}"
        case Dispose():
            return "_"
        case Dual() | Inl() | Inr() | Store():
            return f"{type(value).__name__}({_erase_key(value.inner)})"
        case Iso() | Conn() | Contract():
            return f"{type(value).__name__}({_erase_key(value.left)},{_erase_key(value.right)})"
        case Choose():
            names = ",".join(x.name for x in value.bound)
            return f"Choose[{names}]({_erase_key(value.left)};{_erase_key(value.right)})"
        case Bang():
            names = ",".join(x.name for x in value.bound)
            return f"Bang[{names}]({_erase_key(value.body)})"
        case Transaction():
            sides = sorted((_erase_key(value.left), _erase_key(value.right)))
            return f"txn({sides[0]},{sides[1]})"
        case Program():
            i = ",".join(_erase_key(e) for e in value.interface)
            p = ";".join(_erase_key(t) for t in value.pending)
            return f"({i}){{{p}}}"
    raise TypeError(f"cannot key {value!r}")


def _alpha_pending(xs, ys, bij) -> bool:
    # Fast path: positions line up.
    saved = bij.snapshot()
    if all(_alpha(x, y, bij) for x, y in zip(xs, ys)):
        return True
    bij.restore(saved)
    # Otherwise treat the pending lists as multisets and backtrack.
    if not xs:
        return not ys
    head, rest = xs[0], xs[1:]
    key = _erase_key(head)
    for i, candidate in enumerate(ys):
        if _erase_key(candidate) != key:
            continue
        saved = bij.snapshot()
        if _alpha(head, candidate, bij) and _alpha_pending(rest, ys[:i] + ys[i + 1 :], bij):
            return True
        bij.restore(saved)
    return False


def alpha_equivalent(a: Program, b: Program) -> bool:
    """Programs equal up to a name-preserving relabelling of freshness paths.

    The interface is compared in order; pending transactions are compared as
    a multiset, since independent reduction orders may interleave residues
    differently.
    """
    return _alpha(a, b, _Bijection())

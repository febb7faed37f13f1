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
from dataclasses import dataclass, field, replace
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


# The De Morgan partner of each connective.
DUAL_CONNECTIVE = {Tensor: Par, Par: Tensor, With: Plus, Plus: With, OfCourse: WhyNot, WhyNot: OfCourse}


def dual(t: LinearType) -> LinearType:
    """De Morgan dual; an involution on types in negation-normal form.
    Iterative, so arbitrarily deep types are fine."""

    def flip(node, kids):
        if type(node) is Atom:
            return Atom(node.unit, not node.negated)
        connective = DUAL_CONNECTIVE.get(type(node))
        if connective is None:
            raise TypeError(f"not a LinearType: {node!r}")
        return connective(*kids)

    return fold(t, flip)


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
# Traversal: one children/rebuild pair per node kind. Addresses, units and
# box binders are data of their node, not children.

_LEAF = (lambda n: (), lambda n, kids: n)
_INNER = (lambda n: (n.inner,), lambda n, kids: type(n)(kids[0], span=n.span))
_BODY = (lambda n: (n.body,), lambda n, kids: type(n)(kids[0], span=n.span))
_PAIR = (lambda n: (n.left, n.right), lambda n, kids: type(n)(kids[0], kids[1], span=n.span))

_SHAPES = {
    **dict.fromkeys((Atom, Addr, Unit, Dispose), _LEAF),
    **dict.fromkeys((Dual, Inl, Inr, Store), _INNER),
    **dict.fromkeys((OfCourse, WhyNot), _BODY),
    **dict.fromkeys((Tensor, Par, With, Plus, Iso, Conn, Contract, Transaction), _PAIR),
    Choose: (
        lambda n: (n.left, n.right),
        lambda n, kids: Choose(n.bound, kids[0], kids[1], span=n.span),
    ),
    Bang: (lambda n: (n.body,), lambda n, kids: Bang(n.bound, kids[0], span=n.span)),
    Program: (
        lambda n: n.interface + n.pending,
        lambda n, kids: Program(
            tuple(kids[: len(n.interface)]), tuple(kids[len(n.interface) :]), span=n.span
        ),
    ),
}


def _shape(node):
    shape = _SHAPES.get(type(node))
    if shape is not None:
        return shape
    if isinstance(node, LinearType):
        return _LEAF  # a type leaf from outside the syntax, such as a checker's unknown
    raise TypeError(f"not a syntax node: {node!r}")


def children(node) -> tuple:
    """The direct sub-nodes of ``node``, left to right; box bodies included."""
    return _shape(node)[0](node)


def rebuild(node, kids):
    """``node`` with its children replaced by ``kids`` (same kind, data, span)."""
    return _shape(node)[1](node, kids)


def walk(value, children=children) -> Iterator:
    """Every node under ``value``, pre-order, left to right. Iterative."""
    stack = [value]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def fold(value, f, children=children):
    """Compute ``f(node, results for its children)`` bottom-up. Iterative,
    so arbitrarily deep ``*``-chains of literals are fine.

    ``children`` gives a node's sub-nodes (by default its syntax children);
    it is called once per node, in pre-order, and ``f`` in post-order, both
    left to right.
    """
    done: list = []
    todo: list = [(value, None)]
    while todo:
        node, kids = todo.pop()
        if kids is None:
            kids = children(node)
            if kids:
                todo.append((node, kids))
                todo += [(kid, None) for kid in reversed(kids)]
                continue
            done.append(f(node, ()))
            continue
        split = len(done) - len(kids)
        results = tuple(done[split:])
        del done[split:]
        done.append(f(node, results))
    return done[0]


# ---------------------------------------------------------------------------
# Duality and desugaring on expressions

def dualize_expr(e: Expression) -> Expression:
    """Push the demand marker through an expression.

    Identity on addresses, marks currency literals as demands, and swaps
    isolation with connection. Undefined on the remaining forms, which are
    rejected rather than guessed at: the error names the leftmost one.
    Iterative, so arbitrarily deep literals are fine.
    """

    def flip(node, kids):
        kind = type(node)
        if kind is Addr:
            return node
        if kind is Unit:
            return Dual(node, span=node.span)
        if kind is Dual:
            return node.inner
        if kind is Iso:
            return Conn(*kids, span=node.span)
        if kind is Conn:
            return Iso(*kids, span=node.span)
        raise DualityError(
            f"dual is not defined on {kind.__name__} expressions", getattr(node, "span", None)
        )

    return fold(e, flip, lambda node: children(node) if type(node) in (Iso, Conn) else ())


def desugar_obligation(e1: Expression, e2: Expression) -> Expression:
    """``e1 -o e2`` is sugar for ``dual(e1) # e2``."""
    return Conn(dualize_expr(e1), e2)


# ---------------------------------------------------------------------------
# Renaming

def rename(value: Renameable, side: str) -> Renameable:
    """Append ``side`` to the freshness path of every address in ``value``."""
    if side not in _SIDES:
        raise ValueError(f"freshness side must be 'l' or 'r', got {side!r}")
    if isinstance(value, Address):
        return value.extended(side)

    def renamed(node, kids):
        if type(node) is Addr:
            return Addr(node.address.extended(side), span=node.span)
        if type(node) is Choose or type(node) is Bang:
            node = replace(node, bound=tuple(a.extended(side) for a in node.bound))
        return rebuild(node, kids)

    return fold(value, renamed)


# ---------------------------------------------------------------------------
# Address analysis

def binder_sites(box: Choose | Bang) -> tuple[Address, ...]:
    """A box's bound list as occurrence sites of the enclosing level.

    A menu whose bound list is as wide as its branches carries an inert
    placeholder at the head; it is not a site. Replication boxes never
    carry a placeholder.
    """
    if type(box) is Choose and len(box.bound) == len(box.left.interface) > 0:
        return box.bound[1:]
    return box.bound


def context_binders(box: Choose | Bang) -> tuple[Address, ...] | None:
    """The binders that stand for the box's context, aligned with the
    non-principal interface of its branches (or body); None when the
    arity does not line up.

    Both branches of a menu must be equally wide, and the binders, once a
    menu's placeholder is dropped, one fewer than that width.
    """
    width = len((box.left if type(box) is Choose else box.body).interface)
    if type(box) is Choose and len(box.right.interface) != width:
        return None
    binders = binder_sites(box)
    return binders if len(binders) == width - 1 else None


def free_addresses(value: Expression | Transaction | Program) -> frozenset[Address]:
    """Addresses visible to the enclosing scope.

    Box binders count as occurrences of the surrounding program (their
    partner lives outside the box); names used inside a box that the box
    binds do not leak. The placeholder binder of a menu is inert and is not
    reported.
    """

    def free(node, kids):
        if type(node) is Addr:
            return {node.address}
        out = set().union(*kids)
        if type(node) is Choose or type(node) is Bang:
            return set(binder_sites(node)) | (out - set(node.bound))
        return out

    return frozenset(fold(value, free))


# Occurrence sites, used by the linearity census and the reducer. Boxes are
# opaque: only their context binders count at the enclosing level, as
# BINDER sites.

ENTRY = "interface"
PENDING = "pending"
BINDER = "binder"


def _surface(e: Expression, tag: str) -> Iterator[tuple[Address, str]]:
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is Addr:
            yield (node.address, tag)
        elif type(node) is Choose or type(node) is Bang:
            for binder in binder_sites(node):
                yield (binder, BINDER)
        else:
            stack.extend(reversed(children(node)))


def surface_occurrences(program: Program) -> Iterator[tuple[Address, str]]:
    """Every occurrence site of ``program``'s own level, left to right,
    tagged ENTRY (interface), PENDING (a transaction side) or BINDER (a
    box's context binder, wherever the box sits). Iterative."""
    for entry in program.interface:
        yield from _surface(entry, ENTRY)
    for txn in program.pending:
        yield from _surface(txn.left, PENDING)
        yield from _surface(txn.right, PENDING)


def surface_addresses(e: Expression) -> list[Address]:
    """The occurrence sites of ``e`` at the enclosing level, left to right.

    Iterative, so arbitrarily deep ``*``-chains of literals are fine.
    """
    return [address for address, _ in _surface(e, PENDING)]


# ---------------------------------------------------------------------------
# Counting helpers

def node_count(value) -> int:
    """Number of syntax nodes, counting through box bodies."""
    return sum(1 for _ in walk(value))


def unit_multiset(value) -> Counter:
    """Multiset of currency literals, counting through box bodies."""
    return Counter(node.unit for node in walk(value) if type(node) is Unit)


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
    """Same kind, same data (addresses through ``bij``), alike children.
    Transactions may match in either orientation, and pending lists as
    multisets."""
    if type(a) is not type(b):
        return False
    if type(a) is Addr:
        return bij.match(a.address, b.address)
    if type(a) is Transaction:
        # A transaction joins two resources symmetrically; reduction
        # orders may fuse the same pair in either orientation.
        saved = bij.snapshot()
        if _alpha(a.left, b.left, bij) and _alpha(a.right, b.right, bij):
            return True
        bij.restore(saved)
        return _alpha(a.left, b.right, bij) and _alpha(a.right, b.left, bij)
    if type(a) is Choose or type(a) is Bang:
        if len(a.bound) != len(b.bound):
            return False
        if not all(bij.match(x, y) for x, y in zip(a.bound, b.bound)):
            return False
    if type(a) is Program:
        if len(a.interface) != len(b.interface) or len(a.pending) != len(b.pending):
            return False
        return all(_alpha(x, y, bij) for x, y in zip(a.interface, b.interface)) and (
            _alpha_pending(list(a.pending), list(b.pending), bij)
        )
    kids = children(a)
    if not kids:
        return a == b  # units and disposals
    return all(_alpha(x, y, bij) for x, y in zip(kids, children(b)))


def _erase_key(value) -> str:
    """A path-insensitive structural key, used to prune pending matching."""

    def key(node, kids):
        data = ""
        if type(node) is Transaction:
            kids = sorted(kids)
        elif type(node) is Program:
            width = len(node.interface)
            kids = [*kids[:width], *sorted(kids[width:])]
            data = str(width)
        elif type(node) is Addr:
            data = node.address.name
        elif type(node) is Unit:
            data = node.unit
        elif type(node) is Choose or type(node) is Bang:
            data = ",".join(x.name for x in node.bound)
        return f"{type(node).__name__}[{data}]({','.join(kids)})"

    return fold(value, key)


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

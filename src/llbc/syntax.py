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

import functools
from collections import Counter
from typing import Iterator

from .errors import DualityError
from .units import NAME_RE

# ---------------------------------------------------------------------------
# Immutable nodes

# The role of a field, given as the value of its entry in a Node class's
# ``__slots__`` dict (Python keeps the value as the slot's docstring).
CHILD = "child node"
CHILDREN = "tuple of child nodes"
DATA = "data"
SPAN = "source span, outside equality"

# Methods generated for each field layout; ``_set_<field>`` and
# ``_default_<field>`` are bound per class when the code runs.
_METHODS = """
def __init__(self, {params}):
{sets}
{check}
def _key(self):
    return ({key})
"""
# A constructor that skips ``_check``, for layouts that have one.
_TRUSTED = """
def trusted({params}):
    self = _new(_cls)
{sets}
    return self
"""
_BRANCH = """
def _kids(self):
    return ({kids})
def _rebuild(self, kids):
    new = _new(_cls)
{rebuilt}
    return new
"""
# Compiled code per layout, shared by the classes of one layout, such as
# the binary connectives.
_COMPILED: dict = {}


def _methods_code(spec: dict, defaulted: tuple, checked: bool):
    layout = (tuple(spec.items()), defaulted, checked)
    if layout in _COMPILED:
        return _COMPILED[layout]
    kids, key, rebuilt, at = [], [], [], "0"
    for n, role in spec.items():
        value = f"self.{n}"
        if role is CHILD:
            kids.append(value)
            value, at = f"kids[{at}]", f"{at} + 1"
        elif role is CHILDREN:
            kids.append(f"*self.{n}")
            key.append(f"len(self.{n})")
            value, at = f"tuple(kids[{at}:{at} + len(self.{n})])", f"{at} + len(self.{n})"
        elif role is DATA:
            key.append(value)
        rebuilt.append(f"    _set_{n}(new, {value})")
    key = "".join(k + ", " for k in key)
    params = ", ".join(n + (f"=_default_{n}" if n in defaulted else "") for n in spec)
    sets = "\n".join(f"    _set_{n}(self, {n})" for n in spec)
    source = _METHODS.format(
        params=params,
        sets=sets,
        check="    self._check()" if checked else "",
        key=key,
    )
    if checked:
        source += _TRUSTED.format(params=params, sets=sets)
    if kids:
        source += _BRANCH.format(kids="".join(k + ", " for k in kids), rebuilt="\n".join(rebuilt))
    code = _COMPILED[layout] = compile(source, "<node methods>", "exec")
    return code


def _no_kids(self):
    return ()


def _unchanged(self, kids):
    return self


def _leaf_hash(self):
    """The hash of a node without children, cached in its ``_hash`` slot."""
    try:
        return self._hash
    except AttributeError:
        _set_hash(self, hash((type(self), *self._key())))
        return self._hash


class Node:
    """Base of every immutable record in the package.

    A subclass states its fields, in constructor order, as a ``__slots__``
    dict from name to role: ``CHILD``, ``CHILDREN``, ``DATA`` or ``SPAN``
    (default None; outside equality, hash and repr). ``DEFAULTS`` gives
    trailing fields defaults, and ``_check`` validates what the constructor
    builds. ``==`` and the cached ``hash`` are iterative, so deep trees are
    fine; a leaf (a node without children) hashes its data alone.

    ``cls.trusted(...)`` takes the constructor's arguments and skips
    ``_check``, for values already known to pass it: it is generated for
    the layouts of checked classes and is the constructor itself elsewhere.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        spec = cls.__dict__.get("__slots__")
        if not isinstance(spec, dict):
            return  # an abstract base, such as Expression
        defaults = {n: None for n, role in spec.items() if role is SPAN}
        defaults.update(cls.__dict__.get("DEFAULTS", {}))
        cls.__match_args__ = tuple(spec)
        cls._shown = tuple(n for n, role in spec.items() if role is not SPAN)
        namespace = {
            "__name__": cls.__module__,
            "_new": object.__new__,
            "_cls": cls,
        }
        namespace.update((f"_set_{n}", cls.__dict__[n].__set__) for n in spec)
        namespace.update((f"_default_{n}", value) for n, value in defaults.items())
        exec(_methods_code(spec, tuple(defaults), hasattr(cls, "_check")), namespace)
        if "_kids" not in namespace:  # a leaf
            namespace.update(_kids=_no_kids, _rebuild=_unchanged, __hash__=_leaf_hash)
        for name in ("__init__", "_kids", "_key", "_rebuild", "__hash__"):
            if name in namespace:
                setattr(cls, name, namespace[name])
        # Without a ``_check``, the constructor trusts its values already.
        cls.trusted = staticmethod(namespace["trusted"]) if "trusted" in namespace else cls

    def replace(self, **changes):
        """A copy with the named fields changed, checked like a new node."""
        return type(self)(**{name: getattr(self, name) for name in self.__match_args__} | changes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        # Hand-written: it walks two trees in step, which ``walk`` does not.
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is not b:
                if type(a) is not type(b) or a._key() != b._key():
                    return False
                todo += zip(a._kids(), b._kids())
        return True

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # The nodes that still need this method's hash, pre-order; reversed,
        # every node follows its children.
        for node in reversed([*walk(self, _unhashed)]):
            _set_hash(node, hash((type(node), node._key(), *map(hash, node._kids()))))
        return self._hash


def _unhashed(node) -> list:
    """The children of ``node`` that ``Node.__hash__`` has yet to hash."""
    return [k for k in node._kids() if type(k).__hash__ is Node.__hash__ and not hasattr(k, "_hash")]


_set_hash = Node.__dict__["_hash"].__set__


# ---------------------------------------------------------------------------
# Source locations

class SourceSpan(Node):
    """Half-open byte range [begin, end) with the 1-based line/column of begin."""

    __slots__ = {"begin": DATA, "end": DATA, "line": DATA, "column": DATA}

    def _check(self):
        if self.begin > self.end:
            raise ValueError("span begin must not exceed end")

    def __str__(self):
        return f"{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# Addresses

LEFT = "l"
RIGHT = "r"
_SIDES = (LEFT, RIGHT)


@functools.total_ordering
class Address(Node):
    """A named port, plus the freshness path the reducer appends when copying.

    Addresses with a non-empty freshness path are reducer output; scripts are
    normally written with bare names. Addresses order by name, then path.
    """

    __slots__ = {"name": DATA, "path": DATA}
    DEFAULTS = {"path": ()}

    def _check(self):
        if not NAME_RE.match(self.name):
            raise ValueError(f"invalid address name: {self.name!r}")
        for side in self.path:
            if side not in _SIDES:
                raise ValueError(f"invalid freshness path: {self.path!r}")

    def extended(self, side: str) -> "Address":
        if side not in _SIDES:
            raise ValueError(f"freshness side must be 'l' or 'r', got {side!r}")
        return Address.trusted(self.name, self.path + (side,))

    def render(self) -> str:
        return self.name + "".join("." + side for side in self.path)

    def __lt__(self, other):
        if type(other) is not Address:
            return NotImplemented
        return (self.name, self.path) < (other.name, other.path)


class Interned(dict):
    """Address nodes by name, or by ``(name, path)``, each checked and
    built on first use, so equal addresses read through one table are one
    object. A front end keeps one table per parse or load."""

    def __missing__(self, key) -> Address:
        found = self[key] = Address(key) if type(key) is str else Address(*key)
        return found


# ---------------------------------------------------------------------------
# Types

class LinearType(Node):
    """Base class for the resource-type language (negation-normal form)."""

    __slots__ = ()


class Atom(LinearType):
    __slots__ = {"unit": DATA, "negated": DATA, "span": SPAN}
    DEFAULTS = {"negated": False}


class Tensor(LinearType):
    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class Par(LinearType):
    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class With(LinearType):
    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class Plus(LinearType):
    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class OfCourse(LinearType):
    __slots__ = {"body": CHILD, "span": SPAN}


class WhyNot(LinearType):
    __slots__ = {"body": CHILD, "span": SPAN}


# The De Morgan partner of each connective.
DUAL_CONNECTIVE = {Tensor: Par, Par: Tensor, With: Plus, Plus: With, OfCourse: WhyNot, WhyNot: OfCourse}


def connective(node, negated: bool) -> type:
    """The connective ``node`` has when read dualised (``negated``) or as
    it is: its class, or that class's De Morgan partner. Negation lives on
    atoms, so an atom (and any other leaf) keeps its own kind."""
    kind = type(node)
    return DUAL_CONNECTIVE.get(kind, kind) if negated else kind


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

class Expression(Node):
    """Base class for resource expressions (the proof-term side)."""

    __slots__ = ()


def _distinct_bound(box):
    if len(set(box.bound)) != len(box.bound):
        raise ValueError("bound addresses must be pairwise distinct")


class Addr(Expression):
    __slots__ = {"address": DATA, "span": SPAN}


class Unit(Expression):
    """A currency literal, e.g. one satoshi sitting on the chain."""

    __slots__ = {"unit": DATA, "span": SPAN}


class Dual(Expression):
    """Demand-polarity marker. After normalisation it only wraps Unit."""

    __slots__ = {"inner": CHILD, "span": SPAN}


class Iso(Expression):
    """Isolation ``e * e``: two resources on disjoint chain fragments."""

    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class Conn(Expression):
    """Connection ``e # e``: two linked resources in one fragment."""

    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class Choose(Expression):
    """Menu ``choose(x...){p; q}`` of two alternative chain states.

    The bound list either matches the branch interface length (its head is
    then an inert placeholder, as in the genesis/burn menu) or is one
    shorter (pure context binders).
    """

    __slots__ = {"bound": DATA, "left": CHILD, "right": CHILD, "span": SPAN}
    _check = _distinct_bound


class Inl(Expression):
    __slots__ = {"inner": CHILD, "span": SPAN}


class Inr(Expression):
    __slots__ = {"inner": CHILD, "span": SPAN}


class Store(Expression):
    """Storage ``?e``: a value made copyable/discardable."""

    __slots__ = {"inner": CHILD, "span": SPAN}


class Dispose(Expression):
    """Disposal ``_``: the sink that discards what is sent to it."""

    __slots__ = {"span": SPAN}


class Contract(Expression):
    """Contraction ``e @ e``: two uses of one copyable resource."""

    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class Bang(Expression):
    """Replication ``!(x...){p}``: a server that re-emits the state ``p``."""

    __slots__ = {"bound": DATA, "body": CHILD, "span": SPAN}
    _check = _distinct_bound


class Transaction(Node):
    __slots__ = {"left": CHILD, "right": CHILD, "span": SPAN}


class Program(Node):
    __slots__ = {"interface": CHILDREN, "pending": CHILDREN, "span": SPAN}


# How many unit literals the ``N . unit`` forms of one parse, or the
# distinct amounts of one chain bridged by ``chains.chain_to_program``, may
# expand to in all. Each literal is a node, so an unbounded ``N`` could
# exhaust time and memory before anything else sees the program.
MAX_LITERALS = 100000


def amount_literal(count: int, unit: str, span=None) -> Expression:
    """``count . unit``: the left-nested ``*`` chain of ``count`` literals of
    ``unit``, every node carrying ``span``."""
    expr: Expression = Unit(unit, span=span)
    for _ in range(count - 1):
        expr = Iso(expr, Unit(unit, span=span), span=span)
    return expr


# ---------------------------------------------------------------------------
# Traversal, on the children each node class declares. Box bodies are
# children; addresses, units and box binders are data.

def children(node) -> tuple:
    """The direct sub-nodes of ``node``, left to right; box bodies included."""
    return node._kids()


def rebuild(node, kids):
    """``node`` with its children replaced by ``kids`` (same kind, data, span)."""
    return node._rebuild(kids)


def walk(value, children=children) -> Iterator:
    """Every node under ``value``, pre-order, left to right. Iterative.
    ``children`` gives a node's sub-nodes, as for :func:`fold`."""
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

def rename(value: Expression | Transaction | Program | Address, side: str):
    """Append ``side`` to the freshness path of every address in ``value``."""
    if side not in _SIDES:
        raise ValueError(f"freshness side must be 'l' or 'r', got {side!r}")
    if isinstance(value, Address):
        return value.extended(side)

    def renamed(node, kids):
        if type(node) is Addr:
            return Addr(node.address.extended(side), span=node.span)
        if type(node) is Choose or type(node) is Bang:
            node = node.replace(bound=tuple(a.extended(side) for a in node.bound))
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
    non-principal interface of its branches (a replication's body is its
    one branch); None when the arity does not line up.

    All branches must be equally wide, and the binders, once a menu's
    placeholder is dropped, one fewer than that width.
    """
    binders = binder_sites(box)
    widths = {len(branch.interface) for branch in children(box)}
    return binders if widths == {len(binders) + 1} else None


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
    # Hand-written: on ``walk``, listing the occurrences of 600 generated
    # programs took 1.8 times as long.
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
        for side in (txn.left, txn.right):
            if type(side) is Addr:  # the common side, read without a walk
                yield (side.address, PENDING)
            else:
                yield from _surface(side, PENDING)


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

def _erase_keys(value) -> dict[int, int]:
    """A path-insensitive structural key for each transaction under
    ``value``, by id. Alpha-equivalent transactions have equal keys, so
    pending lists are matched only between transactions of one key."""
    keys: dict[int, int] = {}

    def key(node, kids):
        kind, data = type(node), None
        if kind is Transaction:
            kids = tuple(sorted(kids))
        elif kind is Program:
            width = len(node.interface)
            kids, data = (*kids[:width], *sorted(kids[width:])), width
        elif kind is Addr:
            data = node.address.name
        elif kind is Unit:
            data = node.unit
        elif kind is Choose or kind is Bang:
            data = tuple(x.name for x in node.bound)
        result = hash((kind, data, kids))
        if kind is Transaction:
            keys[id(node)] = result
        return result

    fold(value, key)
    return keys


def _relabelling(a: Program, b: Program) -> dict[Address, Address] | None:
    """A bijection on addresses, preserving base names, that takes ``a`` to
    ``b``; None if there is none.

    Hand-written, not on ``walk``, as it backtracks: a depth-first search
    on an explicit stack. ``goals`` is a linked list of node pairs still
    to match, or of pending lists ``(xs, ys, start)`` of one key that
    match as multisets, where ``start`` is the first candidate in ``ys``
    for ``xs[0]``. ``choices`` holds the goals to resume after a failure:
    the flipped orientation of a transaction, or the next candidate. A
    match of ``xs[0]`` that binds nothing new leaves the same state
    whichever way it went, so its choices are dropped: a pending list of
    equal ground transactions is matched once, not in every order.
    """
    keys = {**_erase_keys(a), **_erase_keys(b)}
    fwd: dict[Address, Address] = {}
    bwd: dict[Address, Address] = {}
    trail: list[Address] = []
    choices: list = []

    def bind(x: Address, y: Address) -> bool:
        if x in fwd:
            return fwd[x] == y
        if x.name != y.name or y in bwd:
            return False
        fwd[x], bwd[y] = y, x
        trail.append(x)
        return True

    goals = ((a, b), None)
    while goals is not None:
        goal, goals = goals
        x, y = goal[0], goal[1]
        if x is None:  # the end of a match of xs[0]; y is (choices, trail) before it
            if len(trail) == y[1]:
                del choices[y[0] :]
            continue
        kind = type(x)
        if kind is tuple:
            if not x:
                continue
            want = keys[id(x[0])]
            j = next((j for j in range(goal[2], len(y)) if keys[id(y[j])] == want), None)
            ok = j is not None
            if ok:
                before = (len(choices), len(trail))
                choices.append((((x, y, j + 1), goals), len(trail)))
                goals = ((x[0], y[j]), ((None, before), ((x[1:], y[:j] + y[j + 1 :], 0), goals)))
        elif kind is not type(y):
            ok = False
        elif kind is Addr:
            ok = bind(x.address, y.address)
        elif kind is Transaction:
            choices.append((((x.left, y.right), ((x.right, y.left), goals)), len(trail)))
            goals = ((x.left, y.left), ((x.right, y.right), goals))
            continue
        elif kind is Program:
            ok = len(x.interface) == len(y.interface) and len(x.pending) == len(y.pending)
            buckets: dict[int, tuple[list, list]] = {}
            for txn in x.pending:
                buckets.setdefault(keys[id(txn)], ([], []))[0].append(txn)
            for txn in y.pending:
                buckets.get(keys[id(txn)], ([], []))[1].append(txn)
            ok = ok and all(len(xs) == len(ys) for xs, ys in buckets.values())
            for xs, ys in reversed(buckets.values()):
                goals = ((tuple(xs), tuple(ys), 0), goals)
            for pair in reversed(tuple(zip(x.interface, y.interface))):
                goals = (pair, goals)
        else:
            if kind is Choose or kind is Bang:
                ok = len(x.bound) == len(y.bound) and all(map(bind, x.bound, y.bound))
            else:
                ok = x._key() == y._key()  # the data of units and the rest
            for pair in reversed(tuple(zip(children(x), children(y)))):
                goals = (pair, goals)
        if not ok:
            if not choices:
                return None
            goals, mark = choices.pop()
            while len(trail) > mark:
                del bwd[fwd.pop(trail.pop())]
    return fwd


def alpha_equivalent(a: Program, b: Program) -> bool:
    """Programs equal up to a name-preserving relabelling of freshness paths.

    The interface is compared in order; pending transactions are compared as
    a multiset, since independent reduction orders may interleave residues
    differently. Transactions match in either orientation. Iterative, and
    the search backtracks over every choice it makes.
    """
    return _relabelling(a, b) is not None

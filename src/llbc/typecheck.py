"""Linear type checking for block-chain state programs.

``check`` decides whether a program can be assigned the declared interface
types under the typing rules: one axiom per address pair, a literal axiom
for currency units, a cut rule typing each pending transaction by a pair of
dual types, and one row of ``_SHAPED`` per rule that forces a connective:
tensor/par for isolation/connection, with/plus for menus and selections,
storage/disposal/contraction/replication for the exponentials. Both boxes,
menu and replication, are typed by one rule. ``replay`` re-checks a
derivation against rules stated again, in a table of its own.

Interface types are mandatory input; nothing is inferred about them. What
a pending transaction cuts, however, carries no annotation, so the checker
threads types through the program: each address has exactly two
occurrences (or one, for an open interface port) and the two are forced to
dual types. Holes the flow cannot pin down on its own, such as the absent
summand of a selection or the body type of a bare disposal, become
unification variables; anything still undetermined once the whole program
has been visited is filled with the default currency atom, in creation
order, so checking is deterministic and total on meaningful scripts.
"""
from __future__ import annotations

from . import syntax as sx
from .errors import (
    BranchContextMismatchError,
    NonLinearAddressError,
    PromotionContextError,
    TypeMismatchError,
)
from .parser import render

DEFAULT_UNIT = "satoshi"

# The most characters of one type a diagnostic shows: the type of a
# hundred-thousand-unit literal renders to a megabyte.
MAX_SHOWN_TYPE = 1000


# ---------------------------------------------------------------------------
# Derivations

class Derivation(sx.Node):
    """One rule application: its label, the typed node, assigned type (or
    None), premises."""

    __slots__ = {"rule": sx.DATA, "node": sx.DATA, "type": sx.DATA, "children": sx.CHILDREN}
    DEFAULTS = {"children": ()}

    @property
    def subject(self) -> str:
        """The typed node in concrete syntax."""
        return render(self.node)


class TypedJudgment(sx.Node):
    """A program, its interface types and its derivation. ``check`` stores
    how to build the tree, which is built the first time ``derivation`` is
    read (``==``, ``hash`` and ``repr`` read it too); a tree passed in is
    kept as it is."""

    __slots__ = {"program": sx.DATA, "interface_types": sx.DATA, "derivation": sx.DATA}


_stored_derivation = TypedJudgment.derivation


def _derivation(judgment: TypedJudgment) -> Derivation:
    value = _stored_derivation.__get__(judgment)
    if callable(value):  # the build ``check`` left
        value = value()
        _stored_derivation.__set__(judgment, value)
    return value


TypedJudgment.derivation = property(_derivation, doc="The derivation tree, built on first read.")


# ---------------------------------------------------------------------------
# Unification

class _TVar(sx.LinearType):
    """A type not yet determined by the flow, or its dual when ``negated``.
    Internal to checking."""

    __slots__ = {"id": sx.DATA, "negated": sx.DATA}
    DEFAULTS = {"negated": False}

    def __str__(self):
        return f"T{self.id}" + ("^" if self.negated else "")

    __repr__ = __str__


class _UnifyError(Exception):
    pass


class _Unifier:
    """Union-find over variable ids with path compression (Tarjan 1975) and
    a polarity bit on every edge: ``link[v] = (target, flip)`` says that
    variable ``v`` is ``target`` (a variable id, or a node), dualised when
    ``flip``. A variable without an entry is free. Fresh unknowns are
    numbered ``T<n>`` in creation order; negative ids name a compound
    type's dual. Only nodes made by :meth:`shaped` hold variables; all
    other nodes are ground syntax and never walked for them.

    Only :meth:`unify` can fail. A free variable that a rule forces into a
    shape is linked to a :meth:`shaped` node directly: its variables are
    new, so the occurs test ``unify`` would make is false.
    """

    def __init__(self):
        self.link: dict[int, tuple] = {}
        self.created = 0  # ``fresh`` has made the ids 1..created
        self._hidden = 0
        self._open: set[int] = set()  # ids of the nodes made by ``shaped``

    def fresh(self) -> _TVar:
        self.created += 1
        return _TVar(self.created)

    def shaped(self, cls) -> tuple[sx.LinearType, tuple[_TVar, ...]]:
        """A ``cls`` node over fresh variables, and those variables."""
        slots = tuple(self.fresh() for _ in range(1 if cls in (sx.OfCourse, sx.WhyNot) else 2))
        node = cls(*slots)
        self._open.add(id(node))
        return node, slots

    def neg(self, t: sx.LinearType) -> sx.LinearType:
        """The dual of ``t`` in constant time."""
        if type(t) is _TVar:
            return _TVar(t.id, not t.negated)
        if type(t) is sx.Atom:
            return sx.Atom(t.unit, not t.negated)
        self._hidden -= 1
        self.link[self._hidden] = (t, False)
        return _TVar(self._hidden, True)

    def head(self, t: sx.LinearType, negated: bool = False):
        """``t``, dualised when ``negated``, with its variables chased: a
        free variable's id or a node, and the polarity to read it at."""
        if type(t) is not _TVar:
            return t, negated
        link, path = self.link, []
        target, flip = t.id, False
        while type(target) is int and target in link:
            path.append((target, flip))
            target, step = link[target]
            flip ^= step
        for var_id, seen in path[:-1]:  # the last one points at ``target`` already
            link[var_id] = (target, flip ^ seen)
        return target, flip ^ t.negated ^ negated

    def shown(self, t: sx.LinearType, negated: bool = False) -> str:
        """``t``, dualised when ``negated``, rendered for a diagnostic: cut
        to ``MAX_SHOWN_TYPE`` characters, ``...`` included. Variables are
        chased as the text is written, and writing stops at the cut."""
        text = render(t, negated, self._chase, MAX_SHOWN_TYPE)
        return text if len(text) <= MAX_SHOWN_TYPE else text[: MAX_SHOWN_TYPE - 3] + "..."

    def _chase(self, t, negated):
        node, negated = self.head(t, negated)
        return (_TVar(node, negated), False) if type(node) is int else (node, negated)

    def _mismatch(self, a, a_neg, b, b_neg) -> _UnifyError:
        return _UnifyError(f"{self.shown(a, a_neg)} vs {self.shown(b, b_neg)}")

    def _occurs(self, var_id: int, node) -> bool:
        """Does free variable ``var_id`` occur in ``node``? Each class met
        is walked once. Hand-written: on ``walk``, checking the seed-21
        corpus scripts took 10% more CPU."""
        seen = set()
        todo = [node]
        while todo:
            node = todo.pop()
            if type(node) is _TVar:
                node, _ = self.head(node)
                if type(node) is int:
                    if node == var_id:
                        return True
                    continue
            if id(node) in self._open and id(node) not in seen:
                seen.add(id(node))
                todo.extend(sx.children(node))
        return False

    def unify(self, a: sx.LinearType, b: sx.LinearType, negated: bool = False):
        """Make ``a`` equal to ``b``, or to its dual when ``negated``: shallow
        heads on a work stack (Martelli and Montanari 1982), operands left
        to right, as a recursive descent would take them. Hand-written: it
        walks two trees in step, which ``walk`` does not."""
        todo = [(a, False, b, negated)]
        while todo:
            a, a_neg, b, b_neg = todo.pop()
            a, a_neg = self.head(a, a_neg)
            b, b_neg = self.head(b, b_neg)
            if type(a) is not int and type(b) is int:
                a, a_neg, b, b_neg = b, b_neg, a, a_neg  # bind the variable
            if type(a) is int:
                if type(b) is int and a == b:
                    if a_neg != b_neg:
                        raise _UnifyError("a type cannot be its own dual")
                elif type(b) is not int and self._occurs(a, b):
                    raise _UnifyError("cyclic type")
                else:
                    self.link[a] = (b, a_neg ^ b_neg)
                continue
            shape = sx.connective(a, a_neg)
            if shape is not sx.connective(b, b_neg):
                raise self._mismatch(a, a_neg, b, b_neg)
            if shape is sx.Atom:
                if a.unit != b.unit or a.negated ^ a_neg != b.negated ^ b_neg:
                    raise self._mismatch(a, a_neg, b, b_neg)
            elif shape is sx.OfCourse or shape is sx.WhyNot:
                todo.append((a.body, a_neg, b.body, b_neg))
            else:
                todo.append((a.right, a_neg, b.right, b_neg))
                todo.append((a.left, a_neg, b.left, b_neg))

    def resolve(self, t: sx.LinearType, negated: bool = False, memo=None) -> sx.LinearType:
        """``t``, dualised when ``negated``, with every bound variable
        replaced by its value; a free one stays a ``T<n>`` leaf. On
        ``sx.fold``, so deep types are fine.

        ``memo`` maps (node id, polarity) to the resolved type; calls that
        share it share resolved subtrees, so each class and its dual are
        built at most once. It is valid only while no variable is bound.
        Ground syntax is returned as it is, a ground ``t`` without a fold.
        """
        if type(t) is not _TVar and not negated and id(t) not in self._open:
            return t
        memo = {} if memo is None else memo

        # Items are ``[type, polarity]``; ``chase`` puts the head there,
        # and the resolved type when it is known without the children.
        def chase(item):
            node, neg = self.head(*item)
            if type(node) is int:
                done = _TVar(node, neg)
            elif not neg and id(node) not in self._open:
                done = node
            else:
                done = memo.get((id(node), neg))
            item[:] = node, neg, done
            return () if done is not None else [[kid, neg] for kid in sx.children(node)]

        def build(item, kids):
            node, neg, done = item
            if done is None:  # a compound, or an atom read dualised
                done = self.neg(node) if type(node) is sx.Atom else sx.connective(node, neg)(*kids)
                memo[id(node), neg] = done
            return done

        return sx.fold([t, negated], build, chase)

    def default_leftovers(self):
        """Bind every still-free variable to the default currency atom."""
        fallback = sx.Atom(DEFAULT_UNIT)
        for var_id in range(1, self.created + 1):
            if var_id not in self.link:
                self.link[var_id] = (fallback, False)


# ---------------------------------------------------------------------------
# The checking scope
#
# While checking, a derivation is a tuple ``(rule, node, type, premises)``
# whose type may still hold variables; the :class:`Derivation` tree is
# built from it, once every variable is bound, when it is first read.

# One row per rule that forces the expected type into a connective's
# shape, boxes included: the rule, the connective, the error message that
# a type of another shape gets (the type follows it), and the slot of that
# connective each premise is typed at (None: the whole type). A box's
# premises are its branches (a replication's body), each checked as a
# program whose principal port takes the slot.
_SHAPED = {
    sx.Iso: ("Tensor", sx.Tensor, "an isolation cannot have type ", (0, 1)),
    sx.Conn: ("Par", sx.Par, "a connection cannot have type ", (0, 1)),
    sx.Store: ("Storage", sx.WhyNot, "storage cannot have type ", (0,)),
    sx.Dispose: ("Disposal", sx.WhyNot, "disposal cannot have type ", ()),
    sx.Contract: ("Contraction", sx.WhyNot, "contraction cannot have type ", (None, None)),
    sx.Inl: ("Left", sx.Plus, "a selection cannot have type ", (0,)),
    sx.Inr: ("Right", sx.Plus, "a selection cannot have type ", (1,)),
    sx.Choose: ("With", sx.With, "a menu cannot have type ", (0, 1)),
    sx.Bang: ("Replication", sx.OfCourse, "replication cannot have type ", (0,)),
}


class _Scope:
    def __init__(self, program, declared, unifier: _Unifier):
        self.program = program
        self.unifier = unifier
        if len(declared) != len(program.interface):
            raise TypeMismatchError(
                f"{len(declared)} type(s) declared for "
                f"{len(program.interface)} interface entr{'y' if len(program.interface) == 1 else 'ies'}",
                program.span,
            )
        self.declared = [unifier.fresh() if t is None else t for t in declared]
        # Per address: ``[occurrences counted]``, then the type of its
        # first typed occurrence once there is one.
        self.uses: dict[sx.Address, list] = {}
        self._run_census()

    # -- linearity census ----------------------------------------------------

    def _run_census(self):
        """Count each address's occurrences: two, or one at the interface."""
        uses, at_interface, entry = self.uses, set(), sx.ENTRY
        for address, tag in sx.surface_occurrences(self.program):
            uses.setdefault(address, [0])[0] += 1
            if tag == entry:
                at_interface.add(address)
        for address, (count,) in uses.items():
            if count != 2 and (count != 1 or address not in at_interface):
                raise NonLinearAddressError(address.render(), count, span=self.program.span)

    # -- occurrence table ---------------------------------------------------

    def _learn(self, address, t, span):
        """Type one occurrence of ``address``. The census counted every
        occurrence that typing meets, so none is typed beyond its uses."""
        use = self.uses[address]
        if len(use) == 1:
            use.append(t)
            return
        try:
            self.unifier.unify(t, use[1], negated=True)
        except _UnifyError as err:
            raise TypeMismatchError(
                f"occurrences of {address.render()} must have dual types: {err}", span
            ) from None

    # -- driver ---------------------------------------------------------------

    def run(self) -> tuple[list[sx.LinearType], tuple]:
        """The declared types, unresolved, and the program's derivation."""
        entry_derivs = [
            self._type_expr(entry, declared)
            for entry, declared in zip(self.program.interface, self.declared)
        ]
        txn_derivs = [self._type_txn(txn) for txn in self.program.pending]
        return self.declared, ("Program", self.program, None, tuple(entry_derivs + txn_derivs))

    def _type_txn(self, txn) -> tuple:
        left = self._type_expr(txn.left, None)
        right = self._type_expr(txn.right, self.unifier.neg(left[2]))
        return ("Cut", txn, left[2], (left, right))

    # -- expression typing ------------------------------------------------------

    def _want(self, expected, cls, span, message, error=TypeMismatchError):
        """Force ``expected`` into shape ``cls``, returning it and its
        child slots; a type of another shape raises ``error``, ``message``
        followed by the type. A free variable is bound to a ``cls`` node
        over fresh variables without ``unify``: they are new, so it cannot
        occur in them, and the bind cannot fail."""
        unifier = self.unifier
        if expected is not None:
            node, neg = unifier.head(expected)
            if type(node) is not int:
                if sx.connective(node, neg) is not cls:
                    raise error(message + unifier.shown(expected), span)
                slots = sx.children(node)
                return expected, tuple(map(unifier.neg, slots)) if neg else slots
        shaped, slots = unifier.shaped(cls)
        if expected is not None:
            unifier.link[node] = (shaped, neg)
        return shaped, slots

    def _type_expr(self, e, expected) -> tuple:
        """The derivation of ``e`` against ``expected`` (None: unconstrained).
        A leaf, an address or a literal, takes its rule (Axiom or Literal)
        here, directly; anything else is typed on ``sx.fold`` over ``[e,
        expected]`` items, so deep expressions are fine: :meth:`_apply_rule`
        turns each item, in pre-order, into its derivation less the
        premises, which the post-order pass adds."""
        kind = type(e)
        if kind is sx.Addr:
            t = expected if expected is not None else self.unifier.fresh()
            self._learn(e.address, t, e.span)
            return ("Axiom", e, t, ())
        if kind is sx.Unit or (kind is sx.Dual and type(e.inner) is sx.Unit):
            t = sx.Atom(e.unit) if kind is sx.Unit else sx.Atom(e.inner.unit, True)
            if expected is not None:
                try:
                    self.unifier.unify(expected, t)
                except _UnifyError as err:
                    raise TypeMismatchError(f"expected type does not fit: {err}", e.span) from None
            return ("Literal", e, t, ())
        return sx.fold(
            [e, expected],
            lambda item, premises: (*item, premises) if len(item) == 3 else tuple(item),
            self._apply_rule,
        )

    def _apply_rule(self, item) -> list:
        """Apply the rule for ``item = [e, expected]``, leaving ``[rule, e,
        type]`` in it (a leaf or a box: its whole derivation); returns the
        premises' items."""
        e, expected = item
        kind = type(e)
        if kind is sx.Addr or kind is sx.Unit or (kind is sx.Dual and type(e.inner) is sx.Unit):
            item[:] = self._type_expr(e, expected)  # a leaf
            return []
        if kind is sx.Dual:
            raise TypeMismatchError("dual marker survives only on literals", e.span)
        row = _SHAPED.get(kind)
        if row is None:
            raise TypeMismatchError(f"cannot type {kind.__name__}", getattr(e, "span", None))
        if kind is sx.Choose or kind is sx.Bang:
            item[:] = self._type_box(e, expected, row)
            return []
        rule, cls, message, at = row
        out, slots = self._want(expected, cls, e.span, message)
        item[:] = (rule, e, out)
        return [[kid, out if i is None else slots[i]] for kid, i in zip(sx.children(e), at)]

    # -- boxes -------------------------------------------------------------------

    def _binder_split(self, box):
        """Context binders for a box; an arity that does not line up is
        reported by what is wrong with it."""
        binders = sx.context_binders(box)
        if binders is not None:
            return binders
        menu = type(box) is sx.Choose
        widths = {len(branch.interface) for branch in sx.children(box)}
        if menu and (0 in widths or len(widths) > 1):
            raise BranchContextMismatchError(
                "menu branches must expose the same, non-empty interface", box.span
            )
        (width,) = widths
        if width == 0:
            raise TypeMismatchError("replication body must expose a principal port", box.span)
        owner, held = ("menu", "branches") if menu else ("replication", "a body")
        raise TypeMismatchError(
            f"{owner} binds {len(box.bound)} address(es) for {held} of width {width}", box.span
        )

    def _type_box(self, box, expected, row) -> tuple:
        """A menu or a replication box: each branch is checked as a program
        whose principal port takes its slot and whose other ports take the
        context. A menu's two context vectors must then agree; a
        replication's context must be ?-typed."""
        rule, cls, message, at = row
        unifier = self.unifier
        binders = self._binder_split(box)
        out, slots = self._want(expected, cls, box.span, message)
        contexts, premises = [], []
        for branch, i in zip(sx.children(box), at):
            # A binder's partner occurrence (the conclusion's context entry)
            # has the first branch's context type; only the binder-list
            # occurrence is dual. A menu's second branch gets types of its
            # own, so that disagreeing with the first is reported as such.
            context = [
                unifier.fresh() if contexts or len(self.uses[x]) == 1 else self.uses[x][1]
                for x in binders
            ]
            premises.append(_Scope(branch, [slots[i], *context], unifier).run()[1])
            contexts.append(context)
        context = contexts[0]
        if len(contexts) == 2:  # a menu
            for left, right in zip(*contexts):
                try:
                    unifier.unify(left, right)
                except _UnifyError:
                    raise BranchContextMismatchError(
                        "menu branches disagree on their shared context: "
                        + " vs ".join(f"({', '.join(map(unifier.shown, c))})" for c in contexts),
                        box.span,
                    ) from None
        else:  # a replication
            message = "replication context must be ?-typed, found "
            for g in context:
                self._want(g, sx.WhyNot, box.span, message, PromotionContextError)
        for x, g in zip(binders, context):
            self._learn(x, unifier.neg(g), box.span)
        return (rule, box, out, tuple(premises))


# ---------------------------------------------------------------------------
# Public API

def check(program: sx.Program, declared) -> TypedJudgment:
    """Check ``program`` against the declared interface types.

    Raises a :class:`TypeCheckError` subclass when no derivation exists.
    Linear in the size of the program and its declared types.
    """
    unifier = _Unifier()
    types, derivation = _Scope(program, list(declared), unifier).run()
    unifier.default_leftovers()
    memo: dict = {}
    types = [unifier.resolve(t, memo=memo) for t in types]

    # Nothing binds from here on, so ``memo`` stays valid for the build;
    # the closure keeps alive the nodes whose ids key it.
    def build(raw, premises):
        rule, node, t, _ = raw
        return Derivation(rule, node, None if t is None else unifier.resolve(t, memo=memo), premises)

    return TypedJudgment(program, tuple(types), lambda: sx.fold(derivation, build, lambda raw: raw[3]))


# -- expression-level checking against an explicit context --------------------


class TypeContext:
    """An ordered, linearly consumed list of expression/type bindings."""

    def __init__(self, bindings=()):
        # [expression, type, consumed] per binding
        self._bindings = [[e, t, False] for e, t in bindings]

    def __len__(self):
        return len(self._bindings)

    def __iter__(self):
        return iter((e, t) for e, t, _ in self._bindings)

    def copy(self) -> "TypeContext":
        out = TypeContext()
        out._bindings = [list(b) for b in self._bindings]
        return out

    def consume(self, expr) -> sx.LinearType | None:
        # Hashes are cached per node, so comparing them first keeps a deep
        # expression, whose every sub-node is looked up, linear.
        for binding in self._bindings:
            if not binding[2] and hash(binding[0]) == hash(expr) and binding[0] == expr:
                binding[2] = True
                return binding[1]
        return None

    def residual(self) -> "TypeContext":
        return TypeContext((e, t) for e, t, consumed in self._bindings if not consumed)

    def fully_consumed(self) -> bool:
        return all(consumed for _, _, consumed in self._bindings)


def check_expression(
    e: sx.Expression,
    context: TypeContext,
    expected: sx.LinearType | None = None,
) -> tuple[sx.LinearType, TypeContext]:
    """Type one expression against a context of sub-expression bindings.

    The context plays the role of the surrounding resources: a binding is
    consumed exactly where its expression occurs, and the residual context
    is returned alongside the type. The check is :func:`check` on a derived
    program: each consumed binding, and each box (typed on its own by
    ``check``), becomes a fresh port whose partner is an interface port
    declared at the dual type. Addresses not bound in the context are
    rejected, and so is a type that still holds an unknown, such as a
    selection without an expected ``A + B`` to supply the absent summand.

    Both operands of a contraction are typed at one ``?``-type, so a hole
    one operand leaves is filled by the other: ``_ @ b`` with ``b : ?btc``
    has type ``?btc``.
    """
    ctx = context.copy()
    unifier = _Unifier()
    ports: list[sx.Expression] = []
    declared: list[sx.LinearType | None] = [expected]

    # Items are one-element lists holding a node. The pre-order pass cuts
    # a node out by putting its port in its item; the post-order pass
    # rebuilds the expression around the ports.
    def cut_out(item):
        node = item[0]
        bound = ctx.consume(node)
        if bound is None and isinstance(node, (sx.Choose, sx.Bang)):
            # Typed on its own: its context binders get open partner ports.
            binders = [sx.Addr(x) for x in sx.binder_sites(node)]
            box = sx.Program((node, *binders), ())
            judgment = check(box, [None] * len(box.interface))
            bound = judgment.interface_types[0]
        if bound is not None:
            item[0] = sx.Addr(sx.Address(f"port{len(ports)}"))
            ports.append(item[0])
            declared.append(unifier.neg(bound))
            return ()
        if isinstance(node, sx.Addr):
            raise TypeMismatchError(
                f"address {node.address.render()} is not bound in the context", node.span
            )
        # a demand literal is one leaf of the typing rules
        return () if isinstance(node, sx.Dual) else [[kid] for kid in sx.children(node)]

    body = sx.fold([e], lambda item, kids: sx.rebuild(item[0], kids) if kids else item[0], cut_out)
    types, _ = _Scope(sx.Program((body, *ports), ()), declared, unifier).run()
    result = unifier.resolve(types[0])
    if any(isinstance(n, _TVar) for n in sx.walk(result)):
        raise TypeMismatchError("could not resolve the expression's type", e.span)
    return result, ctx


# ---------------------------------------------------------------------------
# Derivation replay

def replay(judgment: TypedJudgment) -> bool:
    """Re-derive the judgment from its stored derivation tree.

    Verifies that every node's conclusion follows from its premises by the
    named rule, and that the root assigns the judgment's interface types.
    Iterative, so deep derivations are fine.
    """
    root = judgment.derivation
    if root.rule != "Program":
        return False
    n = len(judgment.program.interface)
    if len(root.children) != n + len(judgment.program.pending):
        return False
    if len(judgment.interface_types) != n or not all(
        child.type is not None and child.type == t
        for child, t in zip(root.children, judgment.interface_types)
    ):
        return False
    return all(map(_rule_holds, sx.walk(root)))


# What each shaped and box rule concludes, stated again apart from the
# checker's ``_SHAPED`` so that replay checks the checker, not itself: the
# connective of the conclusion, the part of it each premise concludes (None:
# all of it), and whether the premises are programs, whose principal port
# then carries that part.
_CONCLUSIONS = {
    "Tensor": (sx.Tensor, ("left", "right"), False),
    "Par": (sx.Par, ("left", "right"), False),
    "Storage": (sx.WhyNot, ("body",), False),
    "Disposal": (sx.WhyNot, (), False),
    "Contraction": (sx.WhyNot, (None, None), False),
    "Left": (sx.Plus, ("left",), False),
    "Right": (sx.Plus, ("right",), False),
    "With": (sx.With, ("left", "right"), True),
    "Replication": (sx.OfCourse, ("body",), True),
}


def _rule_holds(node: Derivation) -> bool:
    """Does ``node``'s conclusion follow from its premises' conclusions?"""
    rule, t, kids = node.rule, node.type, node.children
    row = _CONCLUSIONS.get(rule)
    if row is not None:
        connective, parts, boxed = row
        return type(t) is connective and len(kids) == len(parts) and all(
            (t if part is None else getattr(t, part)) == (_principal_type(kid) if boxed else kid.type)
            for kid, part in zip(kids, parts)
        )
    if rule == "Axiom" or rule == "Literal":
        return t is not None and not kids
    if rule == "Cut":
        lt = kids[0].type if len(kids) == 2 else None
        return lt is not None and kids[1].type == sx.dual(lt) and t == lt
    return rule == "Program"


def _principal_type(premise: Derivation) -> sx.LinearType | None:
    """The type at a program premise's principal port; None for any other
    premise."""
    if premise.rule != "Program" or not premise.children:
        return None
    return premise.children[0].type

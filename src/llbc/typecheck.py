"""Linear type checking for block-chain state programs.

``check`` decides whether a program can be assigned the declared interface
types under the typing rules: one axiom per address pair, a literal axiom
for currency units, tensor/par for isolation/connection, with/plus for
menus and selections, storage/disposal/contraction/replication for the
exponentials, and a cut rule typing each pending transaction by a pair of
dual types.

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

from dataclasses import dataclass

from . import syntax as sx
from .errors import (
    BranchContextMismatchError,
    NonLinearAddressError,
    PromotionContextError,
    TypeCheckError,
    TypeMismatchError,
)
from .parser import render

DEFAULT_UNIT = "satoshi"


# ---------------------------------------------------------------------------
# Derivations

@dataclass(frozen=True)
class Derivation:
    """One rule application: its label, the typed node, assigned type, premises."""

    rule: str
    node: sx.Expression | sx.Transaction | sx.Program
    type: sx.LinearType | None
    children: tuple["Derivation", ...] = ()

    @property
    def subject(self) -> str:
        """The typed node in concrete syntax."""
        return render(self.node)


@dataclass(frozen=True)
class TypedJudgment:
    program: sx.Program
    interface_types: tuple[sx.LinearType, ...]
    derivation: Derivation


# ---------------------------------------------------------------------------
# Unification

@dataclass(frozen=True)
class _TVar(sx.LinearType):
    """A type not yet determined by the flow. Internal to checking."""

    id: int
    negated: bool = False

    def __str__(self):
        return f"T{self.id}" + ("^" if self.negated else "")


class _UnifyError(Exception):
    pass


class _Unifier:
    def __init__(self, default_unit: str):
        self.subst: dict[int, sx.LinearType] = {}
        self.created: list[int] = []
        self.default_unit = default_unit
        self._next = 0

    def fresh(self) -> _TVar:
        self._next += 1
        self.created.append(self._next)
        return _TVar(self._next)

    def resolve(self, t: sx.LinearType) -> sx.LinearType:
        if isinstance(t, _TVar):
            bound = self.subst.get(t.id)
            if bound is None:
                return t
            resolved = self.resolve(bound)
            return sx.dual(resolved) if t.negated else resolved
        match t:
            case sx.Atom():
                return t
            case sx.Tensor(l, r):
                return sx.Tensor(self.resolve(l), self.resolve(r))
            case sx.Par(l, r):
                return sx.Par(self.resolve(l), self.resolve(r))
            case sx.With(l, r):
                return sx.With(self.resolve(l), self.resolve(r))
            case sx.Plus(l, r):
                return sx.Plus(self.resolve(l), self.resolve(r))
            case sx.OfCourse(b):
                return sx.OfCourse(self.resolve(b))
            case sx.WhyNot(b):
                return sx.WhyNot(self.resolve(b))
        raise TypeError(f"not a LinearType: {t!r}")

    def _bind(self, var: _TVar, t: sx.LinearType):
        value = sx.dual(t) if var.negated else t
        if isinstance(value, _TVar) and value.id == var.id:
            if value.negated:
                raise _UnifyError("a type cannot be its own dual")
            return
        if any(type(n) is _TVar and n.id == var.id for n in sx.walk(value)):
            raise _UnifyError("cyclic type")
        self.subst[var.id] = value

    def unify(self, a: sx.LinearType, b: sx.LinearType):
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, _TVar):
            self._bind(a, b)
            return
        if isinstance(b, _TVar):
            self._bind(b, a)
            return
        if type(a) is not type(b):
            raise _UnifyError(f"{render(a)} vs {render(b)}")
        match a, b:
            case (sx.Atom(), sx.Atom()):
                raise _UnifyError(f"{render(a)} vs {render(b)}")
            case (sx.OfCourse(x), sx.OfCourse(y)) | (sx.WhyNot(x), sx.WhyNot(y)):
                self.unify(x, y)
            case _:
                self.unify(a.left, b.left)  # type: ignore[union-attr]
                self.unify(a.right, b.right)  # type: ignore[union-attr]

    def default_leftovers(self):
        """Bind every still-free variable to the default currency atom."""
        fallback = sx.Atom(self.default_unit)
        for var_id in self.created:
            if self.resolve(_TVar(var_id)) == _TVar(var_id):
                self.subst[var_id] = fallback


# ---------------------------------------------------------------------------
# The checking scope

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
        self.declared = [
            unifier.fresh() if t is None else t for t in declared
        ]
        self.commits: dict[sx.Address, list[sx.LinearType]] = {}
        self.census: dict[sx.Address, list[str]] = {}
        self._run_census()

    # -- linearity census ----------------------------------------------------

    def _run_census(self):
        for address, tag in sx.surface_occurrences(self.program):
            self.census.setdefault(address, []).append(tag)
        for address, tags in self.census.items():
            if len(tags) == 2:
                continue
            if len(tags) == 1 and tags[0] == sx.ENTRY:
                continue
            raise NonLinearAddressError(address.render(), len(tags), span=self.program.span)

    # -- occurrence table ---------------------------------------------------

    def _learn(self, address, t, span):
        known = self.commits.setdefault(address, [])
        if len(known) >= len(self.census[address]):
            raise TypeMismatchError(
                f"address {address.render()} has more typed occurrences than uses", span
            )
        if known:
            try:
                self.unifier.unify(t, sx.dual(known[0]))
            except _UnifyError as err:
                raise TypeMismatchError(
                    f"occurrences of {address.render()} must have dual types: {err}", span
                ) from None
        known.append(t)

    # -- driver ---------------------------------------------------------------

    def run(self) -> tuple[list[sx.LinearType], Derivation]:
        entry_derivs = []
        for entry, declared in zip(self.program.interface, self.declared):
            _, deriv = self._type_expr(entry, declared)
            entry_derivs.append(deriv)
        txn_derivs = [self._type_txn(txn) for txn in self.program.pending]
        types = [self.unifier.resolve(t) for t in self.declared]
        derivation = Derivation(
            "Program", self.program, None, tuple(entry_derivs + txn_derivs)
        )
        return types, derivation

    def _type_txn(self, txn) -> Derivation:
        lt, ld = self._type_expr(txn.left, None)
        try:
            _, rd = self._type_expr(txn.right, sx.dual(lt))
        except _UnifyError as err:
            raise TypeMismatchError(
                f"transaction joins non-dual types: {err}", txn.span
            ) from None
        return Derivation("Cut", txn, lt, (ld, rd))

    # -- expression typing ------------------------------------------------------

    def _want(self, expected, cls, span, what):
        """Force ``expected`` into shape ``cls``, returning the child slots."""
        arity = 1 if cls in (sx.OfCourse, sx.WhyNot) else 2
        if expected is None:
            slots = tuple(self.unifier.fresh() for _ in range(arity))
            return cls(*slots), slots
        resolved = self.unifier.resolve(expected)
        if isinstance(resolved, _TVar):
            slots = tuple(self.unifier.fresh() for _ in range(arity))
            self.unifier.unify(resolved, cls(*slots))
            return cls(*slots), slots
        if not isinstance(resolved, cls):
            raise TypeMismatchError(
                f"{what} cannot have type {render(resolved)}", span
            )
        if arity == 1:
            return resolved, (resolved.body,)
        return resolved, (resolved.left, resolved.right)

    def _match_expected(self, expected, actual, span):
        if expected is None:
            return
        try:
            self.unifier.unify(expected, actual)
        except _UnifyError as err:
            raise TypeMismatchError(f"expected type does not fit: {err}", span) from None

    def _type_expr(self, e, expected) -> tuple[sx.LinearType, Derivation]:
        match e:
            case sx.Addr(address):
                t = expected if expected is not None else self.unifier.fresh()
                self._learn(address, t, e.span)
                return t, Derivation("Axiom", e, t)
            case sx.Unit(unit):
                t = sx.Atom(unit)
                self._match_expected(expected, t, e.span)
                return t, Derivation("Literal", e, t)
            case sx.Dual(sx.Unit(unit)):
                t = sx.Atom(unit, True)
                self._match_expected(expected, t, e.span)
                return t, Derivation("Literal", e, t)
            case sx.Dual():
                raise TypeMismatchError("dual marker survives only on literals", e.span)
            case sx.Iso(left, right):
                out, (lw, rw) = self._want(expected, sx.Tensor, e.span, "an isolation")
                _, ld = self._type_expr(left, lw)
                _, rd = self._type_expr(right, rw)
                return out, Derivation("Tensor", e, out, (ld, rd))
            case sx.Conn(left, right):
                out, (lw, rw) = self._want(expected, sx.Par, e.span, "a connection")
                _, ld = self._type_expr(left, lw)
                _, rd = self._type_expr(right, rw)
                return out, Derivation("Par", e, out, (ld, rd))
            case sx.Store(inner):
                out, (bw,) = self._want(expected, sx.WhyNot, e.span, "storage")
                _, deriv = self._type_expr(inner, bw)
                return out, Derivation("Storage", e, out, (deriv,))
            case sx.Dispose():
                out, _ = self._want(expected, sx.WhyNot, e.span, "disposal")
                return out, Derivation("Disposal", e, out)
            case sx.Contract(left, right):
                out, _ = self._want(expected, sx.WhyNot, e.span, "contraction")
                _, ld = self._type_expr(left, out)
                _, rd = self._type_expr(right, out)
                return out, Derivation("Contraction", e, out, (ld, rd))
            case sx.Inl(inner):
                out, (lw, _) = self._want(expected, sx.Plus, e.span, "a selection")
                _, deriv = self._type_expr(inner, lw)
                return out, Derivation("Left", e, out, (deriv,))
            case sx.Inr(inner):
                out, (_, rw) = self._want(expected, sx.Plus, e.span, "a selection")
                _, deriv = self._type_expr(inner, rw)
                return out, Derivation("Right", e, out, (deriv,))
            case sx.Choose():
                return self._type_choose(e, expected)
            case sx.Bang():
                return self._type_bang(e, expected)
        raise TypeMismatchError(f"cannot type {type(e).__name__}", getattr(e, "span", None))

    # -- boxes -------------------------------------------------------------------

    def _binder_split(self, box):
        """Context binders for a box; an arity that does not line up is
        reported by what is wrong with it."""
        binders = sx.context_binders(box)
        if binders is not None:
            return binders
        if isinstance(box, sx.Choose):
            width = len(box.left.interface)
            if width == 0 or len(box.right.interface) != width:
                raise BranchContextMismatchError(
                    "menu branches must expose the same, non-empty interface", box.span
                )
            raise TypeMismatchError(
                f"menu binds {len(box.bound)} address(es) for branches of width {width}",
                box.span,
            )
        width = len(box.body.interface)
        if width == 0:
            raise TypeMismatchError("replication body must expose a principal port", box.span)
        raise TypeMismatchError(
            f"replication binds {len(box.bound)} address(es) for a body of width {width}",
            box.span,
        )

    def _context_expectations(self, binders):
        # A binder's partner occurrence (the conclusion's context entry)
        # carries the same type as the branch's own context entry; only the
        # binder-list occurrence itself is dual.
        out = []
        for x in binders:
            known = self.commits.get(x)
            out.append(known[0] if known else self.unifier.fresh())
        return out

    def _check_branch(self, branch, declared):
        scope = _Scope(branch, declared, self.unifier)
        return scope.run()

    def _type_choose(self, box, expected):
        binders = self._binder_split(box)
        out, (lw, rw) = self._want(expected, sx.With, box.span, "a menu")
        ctx = self._context_expectations(binders)
        left_types, left_deriv = self._check_branch(box.left, [lw] + ctx)
        # The right branch gets its own slots; requiring the two context
        # vectors to agree is a distinct, reportable failure.
        right_ctx = [self.unifier.fresh() for _ in binders]
        right_types, right_deriv = self._check_branch(box.right, [rw] + right_ctx)
        for left_g, right_g in zip(left_types[1:], right_types[1:]):
            try:
                self.unifier.unify(left_g, right_g)
            except _UnifyError:
                raise BranchContextMismatchError(
                    "menu branches disagree on their shared context: "
                    f"({', '.join(render(self.unifier.resolve(t)) for t in left_types[1:])}) vs "
                    f"({', '.join(render(self.unifier.resolve(t)) for t in right_types[1:])})",
                    box.span,
                ) from None
        for x, g in zip(binders, left_types[1:]):
            self._learn(x, sx.dual(g), box.span)
        return out, Derivation("With", box, out, (left_deriv, right_deriv))

    def _type_bang(self, box, expected):
        binders = self._binder_split(box)
        out, (bw,) = self._want(expected, sx.OfCourse, box.span, "replication")
        ctx = self._context_expectations(binders)
        types, deriv = self._check_branch(box.body, [bw] + ctx)
        for g in types[1:]:
            resolved = self.unifier.resolve(g)
            if isinstance(resolved, _TVar):
                self.unifier.unify(resolved, sx.WhyNot(self.unifier.fresh()))
            elif not isinstance(resolved, sx.WhyNot):
                raise PromotionContextError(
                    f"replication context must be ?-typed, found {render(resolved)}",
                    box.span,
                )
        for x, g in zip(binders, types[1:]):
            self._learn(x, sx.dual(g), box.span)
        return out, Derivation("Replication", box, out, (deriv,))


# ---------------------------------------------------------------------------
# Public API

def _resolve_derivation(deriv: Derivation, unifier: _Unifier) -> Derivation:
    t = None if deriv.type is None else unifier.resolve(deriv.type)
    return Derivation(
        deriv.rule,
        deriv.node,
        t,
        tuple(_resolve_derivation(c, unifier) for c in deriv.children),
    )


def check(
    program: sx.Program,
    declared,
    *,
    default_unit: str = DEFAULT_UNIT,
) -> TypedJudgment:
    """Check ``program`` against the declared interface types.

    Raises a :class:`TypeCheckError` subclass when no derivation exists.
    """
    unifier = _Unifier(default_unit)
    scope = _Scope(program, list(declared), unifier)
    try:
        types, derivation = scope.run()
    except _UnifyError as err:
        raise TypeMismatchError(str(err), program.span) from None
    unifier.default_leftovers()
    types = [unifier.resolve(t) for t in types]
    if any(isinstance(n, _TVar) for t in types for n in sx.walk(t)):
        raise TypeMismatchError("could not resolve all interface types", program.span)
    return TypedJudgment(
        program, tuple(types), _resolve_derivation(derivation, unifier)
    )


# -- expression-level checking against an explicit context --------------------


@dataclass
class _Binding:
    expr: sx.Expression
    type: sx.LinearType
    consumed: bool = False


class TypeContext:
    """An ordered, linearly consumed list of expression/type bindings."""

    def __init__(self, bindings=()):
        self._bindings = [_Binding(e, t) for e, t in bindings]

    def __len__(self):
        return len(self._bindings)

    def __iter__(self):
        return iter((b.expr, b.type) for b in self._bindings)

    def copy(self) -> "TypeContext":
        out = TypeContext()
        out._bindings = [_Binding(b.expr, b.type, b.consumed) for b in self._bindings]
        return out

    def consume(self, expr) -> sx.LinearType | None:
        for binding in self._bindings:
            if not binding.consumed and binding.expr == expr:
                binding.consumed = True
                return binding.type
        return None

    def residual(self) -> "TypeContext":
        return TypeContext(
            (b.expr, b.type) for b in self._bindings if not b.consumed
        )

    def fully_consumed(self) -> bool:
        return all(b.consumed for b in self._bindings)


def check_expression(
    e: sx.Expression,
    context: TypeContext,
    expected: sx.LinearType | None = None,
    *,
    default_unit: str = DEFAULT_UNIT,
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
    ports: list[sx.Expression] = []
    declared: list[sx.LinearType | None] = [expected]

    def cut_out(node):
        bound = ctx.consume(node)
        if bound is None and isinstance(node, (sx.Choose, sx.Bang)):
            # Typed on its own: its context binders get open partner ports.
            binders = [sx.Addr(x) for x in sx.binder_sites(node)]
            box = sx.Program((node, *binders), ())
            judgment = check(box, [None] * len(box.interface), default_unit=default_unit)
            bound = judgment.interface_types[0]
        if bound is not None:
            ports.append(sx.Addr(sx.Address(f"port{len(ports)}")))
            declared.append(sx.dual(bound))
            return ports[-1]
        if isinstance(node, sx.Addr):
            raise TypeMismatchError(
                f"address {node.address.render()} is not bound in the context", node.span
            )
        if isinstance(node, sx.Dual):
            return node  # a demand literal is one leaf of the typing rules
        return sx.rebuild(node, [cut_out(kid) for kid in sx.children(node)])

    body = cut_out(e)
    unifier = _Unifier(default_unit)
    try:
        types, _ = _Scope(sx.Program((body, *ports), ()), declared, unifier).run()
    except _UnifyError as err:
        raise TypeMismatchError(str(err), e.span) from None
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
    """
    root = judgment.derivation
    if root.rule != "Program":
        return False
    n = len(judgment.program.interface)
    if len(root.children) != n + len(judgment.program.pending):
        return False
    entry_types = tuple(child.type for child in root.children[:n])
    if entry_types != judgment.interface_types:
        return False
    return all(_replay_node(child) for child in root.children)


def _replay_node(node: Derivation) -> bool:
    rule, t, kids = node.rule, node.type, node.children
    if rule == "Axiom" or rule == "Literal":
        return t is not None and not kids
    if rule == "Tensor":
        return (
            len(kids) == 2
            and isinstance(t, sx.Tensor)
            and t == sx.Tensor(kids[0].type, kids[1].type)
            and all(map(_replay_node, kids))
        )
    if rule == "Par":
        return (
            len(kids) == 2
            and isinstance(t, sx.Par)
            and t == sx.Par(kids[0].type, kids[1].type)
            and all(map(_replay_node, kids))
        )
    if rule == "Storage":
        return (
            len(kids) == 1
            and isinstance(t, sx.WhyNot)
            and t.body == kids[0].type
            and _replay_node(kids[0])
        )
    if rule == "Disposal":
        return isinstance(t, sx.WhyNot) and not kids
    if rule == "Contraction":
        return (
            len(kids) == 2
            and isinstance(t, sx.WhyNot)
            and kids[0].type == t
            and kids[1].type == t
            and all(map(_replay_node, kids))
        )
    if rule == "Left":
        return (
            len(kids) == 1
            and isinstance(t, sx.Plus)
            and t.left == kids[0].type
            and _replay_node(kids[0])
        )
    if rule == "Right":
        return (
            len(kids) == 1
            and isinstance(t, sx.Plus)
            and t.right == kids[0].type
            and _replay_node(kids[0])
        )
    if rule == "With":
        if len(kids) != 2 or not isinstance(t, sx.With):
            return False
        left, right = kids
        if left.rule != "Program" or right.rule != "Program":
            return False
        return (
            t == sx.With(_principal_type(left), _principal_type(right))
            and all(map(_replay_node, left.children))
            and all(map(_replay_node, right.children))
        )
    if rule == "Replication":
        if len(kids) != 1 or not isinstance(t, sx.OfCourse):
            return False
        body = kids[0]
        if body.rule != "Program":
            return False
        return t == sx.OfCourse(_principal_type(body)) and all(
            map(_replay_node, body.children)
        )
    if rule == "Cut":
        if len(kids) != 2:
            return False
        lt, rt = kids[0].type, kids[1].type
        return (
            lt is not None
            and rt is not None
            and rt == sx.dual(lt)
            and t == lt
            and all(map(_replay_node, kids))
        )
    if rule == "Program":
        return all(map(_replay_node, node.children))
    return False


def _principal_type(program_node: Derivation) -> sx.LinearType | None:
    if not program_node.children:
        return None
    return program_node.children[0].type

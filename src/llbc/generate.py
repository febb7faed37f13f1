"""Random well-typed programs, types, and chains for testing.

Programs are assembled the way derivations are: every expression is built
together with its type, every address is introduced as a fresh pair of
dual-typed occurrences, and pending transactions only ever cut two
independently built fragments. The result is well typed by construction;
the test suites still run every generated program through ``check`` as a
gate.

Box branches are generated closed (no dangling ports), so opening a menu
or reading a replication box never exposes an unconnected wire; this keeps
every reduct of a generated program well typed too.
"""
from __future__ import annotations

import random

from . import syntax as sx
from .syntax import dual
from .units import DEFAULT_UNITS


def _groundable(t: sx.LinearType) -> bool:
    """Can a closed, box-free expression of this type be written?"""
    match t:
        case sx.Atom():
            return True
        case sx.Tensor(left, right) | sx.Par(left, right):
            return _groundable(left) and _groundable(right)
        case sx.Plus(left, right):
            return _groundable(left) or _groundable(right)
        case sx.WhyNot():
            return True  # disposal fits any ?A
        case _:
            return False


_UNITS = tuple(sorted(DEFAULT_UNITS))


class GenConfig(sx.Node):
    DEFAULTS = {
        "max_type_depth": 3,
        "max_expr_depth": 6,
        # Weight of picking an exponential cut at top level; raise it to
        # exercise the Read/Dispose/Copy rules densely.
        "exponential_bias": 0.25,
        "max_cuts": 3,
        "max_ports": 2,
        "max_context": 2,
        "max_internal_cuts": 2,
        # Nesting bound for contractions; each level doubles the copies a
        # replication box spawns, so order-enumeration corpora keep this at 1.
        "max_contract_depth": 2,
    }
    __slots__ = dict.fromkeys(DEFAULTS, sx.DATA)


class GeneratedProgram(sx.Node):
    __slots__ = {"program": sx.DATA, "declared": sx.DATA}


class _Fragment(sx.Node):
    __slots__ = {"expr": sx.DATA, "sides": sx.DATA}
    DEFAULTS = {"sides": ()}


class ProgramGenerator:
    def __init__(self, seed: int = 0, config: GenConfig | None = None):
        self.rng = random.Random(seed)
        self.config = config or GenConfig()
        self._counter = 0
        self._contract_budget = self.config.max_contract_depth

    # -- names and types -----------------------------------------------------

    def fresh(self, stem: str = "g") -> sx.Address:
        self._counter += 1
        return sx.Address(f"{stem}{self._counter}")

    def unit(self) -> str:
        return self.rng.choice(_UNITS)

    def random_type(self, depth: int | None = None, groundable: bool = False) -> sx.LinearType:
        depth = self.config.max_type_depth if depth is None else depth
        atom = sx.Atom(self.unit(), self.rng.random() < 0.3)
        if depth <= 0:
            return atom
        choices = ["atom", "atom", "tensor", "par", "plus", "whynot"]
        if not groundable:
            choices += ["with", "ofcourse"]
        kind = self.rng.choice(choices)
        sub = lambda: self.random_type(depth - 1, groundable)
        match kind:
            case "atom":
                return atom
            case "tensor":
                return sx.Tensor(sub(), sub())
            case "par":
                return sx.Par(sub(), sub())
            case "plus":
                left, right = sub(), sub()
                if groundable and not (_groundable(left) or _groundable(right)):
                    return atom
                return sx.Plus(left, right)
            case "with":
                return sx.With(sub(), sub())
            case "ofcourse":
                return sx.OfCourse(sub())
            case "whynot":
                return sx.WhyNot(sub())
        raise AssertionError(kind)

    # -- closed expressions ----------------------------------------------------

    def grounded(self, t: sx.LinearType, depth: int) -> sx.Expression:
        match t:
            case sx.Atom(unit, negated):
                lit = sx.Unit(unit)
                return sx.Dual(lit) if negated else lit
            case sx.Tensor(left, right):
                return sx.Iso(self.grounded(left, depth - 1), self.grounded(right, depth - 1))
            case sx.Par(left, right):
                return sx.Conn(self.grounded(left, depth - 1), self.grounded(right, depth - 1))
            case sx.Plus(left, right):
                options = []
                if _groundable(left):
                    options.append(("inl", left))
                if _groundable(right):
                    options.append(("inr", right))
                side, sub = self.rng.choice(options)
                inner = self.grounded(sub, depth - 1)
                return sx.Inl(inner) if side == "inl" else sx.Inr(inner)
            case sx.WhyNot(body):
                roll = self.rng.random()
                if depth > 0 and roll < 0.4 and _groundable(body):
                    return sx.Store(self.grounded(body, depth - 1))
                if depth > 0 and roll < 0.55 and self._contract_budget > 0:
                    self._contract_budget -= 1
                    try:
                        return sx.Contract(
                            self.grounded(t, depth - 1), self.grounded(t, depth - 1)
                        )
                    finally:
                        self._contract_budget += 1
                return sx.Dispose()
        raise ValueError(f"type is not groundable: {t!r}")

    # -- typed fragments ---------------------------------------------------------

    def expr_of_type(
        self, t: sx.LinearType, depth: int, ports_allowed: bool
    ) -> _Fragment:
        """A fragment whose expression has type ``t``.

        ``sides`` lists addresses that still need their partner occurrence
        placed at the same program level, each with the type that partner
        occurrence carries.
        """
        rng = self.rng
        if ports_allowed and (depth <= 0 or rng.random() < 0.2):
            a = self.fresh("x")
            return _Fragment(sx.Addr(a), sides=((a, dual(t)),))
        if not ports_allowed and depth <= 0 and _groundable(t):
            return _Fragment(self.grounded(t, 1))
        match t:
            case sx.Atom():
                if _groundable(t) and (not ports_allowed or rng.random() < 0.7):
                    return _Fragment(self.grounded(t, 0))
                a = self.fresh("x")
                return _Fragment(sx.Addr(a), sides=((a, dual(t)),))
            case sx.Tensor(left, right):
                lf = self.expr_of_type(left, depth - 1, ports_allowed)
                rf = self.expr_of_type(right, depth - 1, ports_allowed)
                return _Fragment(sx.Iso(lf.expr, rf.expr), lf.sides + rf.sides)
            case sx.Par(left, right):
                lf = self.expr_of_type(left, depth - 1, ports_allowed)
                rf = self.expr_of_type(right, depth - 1, ports_allowed)
                return _Fragment(sx.Conn(lf.expr, rf.expr), lf.sides + rf.sides)
            case sx.Plus(left, right):
                if rng.random() < 0.5:
                    inner = self.expr_of_type(left, depth - 1, ports_allowed)
                    return _Fragment(sx.Inl(inner.expr), inner.sides)
                inner = self.expr_of_type(right, depth - 1, ports_allowed)
                return _Fragment(sx.Inr(inner.expr), inner.sides)
            case sx.WhyNot(body):
                roll = rng.random()
                if roll < 0.45:
                    inner = self.expr_of_type(body, depth - 1, ports_allowed)
                    return _Fragment(sx.Store(inner.expr), inner.sides)
                if roll < 0.7 and depth > 0 and self._contract_budget > 0:
                    self._contract_budget -= 1
                    try:
                        lf = self.expr_of_type(t, depth - 1, ports_allowed)
                        rf = self.expr_of_type(t, depth - 1, ports_allowed)
                    finally:
                        self._contract_budget += 1
                    return _Fragment(sx.Contract(lf.expr, rf.expr), lf.sides + rf.sides)
                return _Fragment(sx.Dispose())
            case sx.With(left, right):
                return self._menu(left, right, depth, ports_allowed)
            case sx.OfCourse(body):
                return self._server(body, depth, ports_allowed)
        raise AssertionError(f"unhandled type {t!r}")

    def _context_types(self, depth: int, ports_allowed: bool, exponential: bool):
        if not ports_allowed:
            return []
        count = self.rng.randrange(0, self.config.max_context + 1)
        out = []
        for _ in range(count):
            g = self.random_type(max(depth - 1, 0), groundable=True)
            out.append(sx.WhyNot(g) if exponential else g)
        return out

    def _menu(self, left, right, depth, ports_allowed) -> _Fragment:
        ctx = self._context_types(depth, ports_allowed, exponential=False)
        p = self.branch_program(left, ctx, depth - 1)
        q = self.branch_program(right, ctx, depth - 1)
        binders = [self.fresh("m") for _ in ctx]
        if self.rng.random() < 0.3:
            # The inert placeholder form seen in genesis/burn menus.
            bound = (self.fresh("spnd"), *binders)
        else:
            bound = tuple(binders)
        return _Fragment(
            sx.Choose(tuple(bound), p, q),
            sides=tuple(zip(binders, ctx)),
        )

    def _server(self, body, depth, ports_allowed) -> _Fragment:
        ctx = self._context_types(depth, ports_allowed, exponential=True)
        p = self.branch_program(body, ctx, depth - 1)
        binders = [self.fresh("s") for _ in ctx]
        return _Fragment(
            sx.Bang(tuple(binders), p),
            sides=tuple(zip(binders, ctx)),
        )

    def branch_program(self, principal, ctx_types, depth) -> sx.Program:
        depth = max(depth, 0)
        main = self.expr_of_type(principal, depth, ports_allowed=False)
        assert not main.sides
        interface = [main.expr]
        pending = []
        for g in ctx_types:
            frag = self.expr_of_type(g, max(depth - 1, 0), ports_allowed=False)
            assert not frag.sides
            interface.append(frag.expr)
        for _ in range(self.rng.randrange(0, self.config.max_internal_cuts + 1)):
            pending.extend(self._internal_cut(max(depth - 1, 0)))
        self.rng.shuffle(pending)
        return sx.Program(tuple(interface), tuple(pending))

    def _internal_cut(self, depth) -> list[sx.Transaction]:
        u = self.random_type(max(depth, 0), groundable=True)
        left = self.expr_of_type(u, depth, ports_allowed=False)
        right = self.expr_of_type(dual(u), depth, ports_allowed=False)
        if self.rng.random() < 0.4:
            a = self.fresh("v")
            return [
                sx.Transaction(sx.Addr(a), right.expr),
                sx.Transaction(sx.Addr(a), left.expr),
            ]
        return [sx.Transaction(left.expr, right.expr)]

    # -- whole programs ------------------------------------------------------------

    def typed_program(self) -> GeneratedProgram:
        rng = self.rng
        cfg = self.config
        depth = cfg.max_expr_depth
        cuts = rng.randrange(1, cfg.max_cuts + 1)
        ports = rng.randrange(0, cfg.max_ports + 1)
        entries: list[tuple[sx.Expression, sx.LinearType]] = []
        pending: list[sx.Transaction] = []
        pool: list[tuple[sx.Address, sx.LinearType, int]] = []

        def stash(frag: _Fragment, budget: int):
            pool.extend((a, u, budget) for a, u in frag.sides)

        for _ in range(cuts):
            if rng.random() < cfg.exponential_bias:
                t: sx.LinearType = sx.OfCourse(self.random_type(depth=2))
            else:
                t = self.random_type()
            lf = self.expr_of_type(t, depth, ports_allowed=True)
            rf = self.expr_of_type(dual(t), depth, ports_allowed=True)
            pending.append(sx.Transaction(lf.expr, rf.expr))
            stash(lf, depth - 1)
            stash(rf, depth - 1)
        for _ in range(ports):
            t = self.random_type()
            frag = self.expr_of_type(t, depth - 1, ports_allowed=True)
            entries.append((frag.expr, t))
            stash(frag, depth - 2)

        while pool:
            a, u, budget = pool.pop()
            if budget <= 0 or rng.random() < 0.6:
                entries.append((sx.Addr(a), u))
                continue
            frag = self.expr_of_type(dual(u), budget, ports_allowed=True)
            pending.append(sx.Transaction(sx.Addr(a), frag.expr))
            stash(frag, budget - 1)

        rng.shuffle(entries)
        rng.shuffle(pending)
        program = sx.Program(
            tuple(e for e, _ in entries), tuple(pending)
        )
        return GeneratedProgram(program, tuple(t for _, t in entries))


# ---------------------------------------------------------------------------
# Random chains

class ChainGenerator:
    def __init__(self, seed: int = 0, units: tuple[str, ...] = ("btc", "satoshi")):
        self.rng = random.Random(seed)
        self.units = units
        self._counter = 0

    def fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}Addr{self._counter}"

    def chain(self, height: int, transfers_per_block: int = 2, prefix: str = "c"):
        from . import chains as ch

        blocks = []
        count = max(4, transfers_per_block * 2)
        addresses = [sx.Address(self.fresh_name(prefix)) for _ in range(count)]
        for _ in range(height):
            transfers = []
            for _ in range(self.rng.randrange(1, transfers_per_block + 1)):
                source, target = self.rng.sample(addresses, 2)
                amount, unit = self.rng.randrange(1, 9), self.rng.choice(self.units)
                transfers.append(ch.Transfer(source, target, amount, unit))
            blocks.append(ch.Block(tuple(transfers)))
        return ch.Chain(tuple(blocks))

    def isolated_chains(self, count: int, height: int):
        return [self.chain(height, prefix=f"z{i}_") for i in range(count)]

"""Small-step execution of pending transactions.

The machine rewrites the pending list of a program; the interface never
changes. A pending transaction is a cut, and each rule eliminates one.
The kinds of a transaction's two sides, in either order, fix the local
rule that fires on it: ``_LOCAL`` has one entry per pair of kinds.

* ``Pair`` splits an isolation cut against a connection into two cuts.
* ``Left``/``Right`` open a menu with the branch a selection picked,
  inlining the branch's own transactions and wiring its context to the
  menu's binders; the other branch's units are discarded.
* ``Read`` opens a replication box against a storage request, likewise
  keeping the body's in-flight transactions.
* ``Dispose`` drops a replication box, disposing its bound context and
  burning its units.
* ``Copy`` duplicates a replication box against a contraction, renaming
  the copies with left/right freshness marks; its units are duplicated.

The opening rules fire only when the box's context binders line up with
its branches. ``Transaction`` fuses two transactions over a mediating
address that is a whole side of both, when its two occurrences are those
sides or one of the two is a self-loop ``txn(x, x)`` (``_fusable``). The
mediator is the first whole side of the left one that the right one has.

``normalize`` always fires the leftmost redex (ties broken in
``RULE_ORDER``), so it is a pure function of its input. Fuel bounds the
run; well-typed programs always finish within it or the type checker was
wrong.

``find_redexes`` and ``step`` are the reference one-step interface: each
call looks at the whole program. ``normalize`` instead keeps an
incremental redex index (``_RedexIndex``) and fires the same redexes in
the same order, so its ``--trace`` lines are byte-identical to a
``find_redexes(p)[0]``/``step`` loop. Untraced, the cost per step grows
only logarithmically with the length of the pending list.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import combinations, count

from . import syntax as sx
from .errors import FuelExhausted, NotInLedgerForm
from .parser import render


class StepEffect:
    """Unit accounting: literals burned with a disposed box, discarded with
    an unselected branch, or duplicated by a copy."""

    __slots__ = ("burned", "discarded", "duplicated")

    def __init__(self):
        self.burned, self.discarded, self.duplicated = Counter(), Counter(), Counter()


# ---------------------------------------------------------------------------
# The local rules

class _Rule(sx.Node):
    """A local rule: its name; whether the box's context binders must line
    up; ``residue(head, other)``, the transactions that replace the cut;
    and the :class:`StepEffect` field, ``account``, that takes the units of
    the head's field ``part``."""

    __slots__ = dict.fromkeys("name aligned residue account part".split(), sx.DATA)
    DEFAULTS = {"account": None, "part": None}


def _split(iso: sx.Iso, conn: sx.Conn) -> list[sx.Transaction]:
    return [sx.Transaction(iso.left, conn.left), sx.Transaction(iso.right, conn.right)]


def _open(box, branch: sx.Program, other: sx.Expression) -> list[sx.Transaction]:
    """``branch`` (a menu branch or a box body) cut against what ``other``
    carries, then its own transactions, then its context joined to the
    box's binders."""
    binders = sx.context_binders(box)
    return [
        sx.Transaction(branch.interface[0], other.inner),
        *branch.pending,
        *(sx.Transaction(sx.Addr(x), e) for x, e in zip(binders, branch.interface[1:])),
    ]


def _dispose(box: sx.Bang, _) -> list[sx.Transaction]:
    return [sx.Transaction(sx.Addr(x), sx.Dispose()) for x in box.bound]


def _copy(box: sx.Bang, contract: sx.Contract) -> list[sx.Transaction]:
    residue = [
        sx.Transaction(
            sx.Addr(x), sx.Contract(sx.Addr(x.extended(sx.LEFT)), sx.Addr(x.extended(sx.RIGHT)))
        )
        for x in box.bound
    ]
    residue.append(sx.Transaction(sx.rename(box, sx.LEFT), contract.left))
    residue.append(sx.Transaction(sx.rename(box, sx.RIGHT), contract.right))
    return residue


# Keyed by the kinds of the head (the isolation or the box) and the other side.
_LOCAL = {
    (sx.Iso, sx.Conn): _Rule("Pair", False, _split),
    (sx.Choose, sx.Inl): _Rule(
        "Left", True, lambda menu, inl: _open(menu, menu.left, inl), "discarded", "right"
    ),
    (sx.Choose, sx.Inr): _Rule(
        "Right", True, lambda menu, inr: _open(menu, menu.right, inr), "discarded", "left"
    ),
    (sx.Bang, sx.Store): _Rule("Read", True, lambda box, store: _open(box, box.body, store)),
    (sx.Bang, sx.Dispose): _Rule("Dispose", False, _dispose, "burned", "body"),
    (sx.Bang, sx.Contract): _Rule("Copy", False, _copy, "duplicated", "body"),
}

RULE_ORDER = ("Transaction", *(rule.name for rule in _LOCAL.values()))
_PRIORITY = {name: i for i, name in enumerate(RULE_ORDER)}


def _match_local(txn: sx.Transaction):
    """``(rule, head, other)`` for the local rule that fires on ``txn``,
    trying both orientations; None if there is none."""
    for head, other in ((txn.left, txn.right), (txn.right, txn.left)):
        rule = _LOCAL.get((type(head), type(other)))
        if rule is not None and not (rule.aligned and sx.context_binders(head) is None):
            return rule, head, other
    return None


def _rewrite(match, effect: StepEffect) -> list[sx.Transaction]:
    """Fire a ``_match_local`` match: the transactions that replace the
    cut, in pending order. The units the rule moves are added to
    ``effect``."""
    rule, head, other = match
    if rule.account is not None:
        getattr(effect, rule.account).update(sx.unit_multiset(getattr(head, rule.part)))
    return rule.residue(head, other)


# ---------------------------------------------------------------------------
# The Transaction rule

def _bare(txn: sx.Transaction) -> tuple[sx.Address, ...]:
    """The addresses that are a whole side of ``txn``, left side first."""
    return tuple(side.address for side in (txn.left, txn.right) if type(side) is sx.Addr)


def _fusable(bi: tuple, bj: tuple, address: sx.Address, occurrences: int) -> bool:
    """Whether two transactions with whole sides ``bi`` and ``bj`` (see
    ``_bare``), both holding ``address``, may fuse over it, given its
    surface-occurrence count. The mediator's two occurrences being those
    two whole sides is what linearity gives on typed programs; a self-loop
    ``txn(x, x)`` arises when a spend deliberately re-uses an address for a
    coin that stays put."""
    return (
        (len(bi) == 2 and bi[0] == bi[1])
        or (len(bj) == 2 and bj[0] == bj[1])
        or (occurrences == 2 and bi.count(address) + bj.count(address) == 2)
    )


def _fuse(ti: sx.Transaction, tj: sx.Transaction, bi: tuple, bj: tuple):
    """``ti`` and ``tj``, with whole sides ``bi`` and ``bj``, joined over
    the first of ``bi`` that is in ``bj``; None when they share none."""
    mediator = next((address for address in bi if address in bj), None)
    if mediator is None:
        return None

    def other(txn):
        right = txn.right
        return txn.left if type(right) is sx.Addr and right.address == mediator else right

    return sx.Transaction(other(ti), other(tj))


def _mediator_pairs(p: sx.Program):
    """Eligible (i, j) pairs for the Transaction rule (see ``_fusable``)."""
    occurrences: dict[sx.Address, int] = {}
    for address, _ in sx.surface_occurrences(p):
        occurrences[address] = occurrences.get(address, 0) + 1
    bare = [_bare(txn) for txn in p.pending]
    holders: dict[sx.Address, set[int]] = {}
    for i, sides in enumerate(bare):
        for address in sides:
            holders.setdefault(address, set()).add(i)
    return {
        (i, j)
        for address, where in holders.items()
        for i, j in combinations(sorted(where), 2)
        if _fusable(bare[i], bare[j], address, occurrences.get(address, 0))
    }


# ---------------------------------------------------------------------------
# One step at a time

class Redex(sx.Node):
    """A rule match: its kind, the pending index it fires at, and, for the
    Transaction rule, the index of the second transaction involved."""

    __slots__ = {"kind": sx.DATA, "pos": sx.DATA, "partner": sx.DATA}
    DEFAULTS = {"partner": None}

    def sort_key(self):
        return (self.pos, _PRIORITY[self.kind], -1 if self.partner is None else self.partner)


def find_redexes(p: sx.Program) -> list[Redex]:
    """Every position where a rule can fire, in the deterministic order
    ``normalize`` uses."""
    out = []
    for i, txn in enumerate(p.pending):
        match = _match_local(txn)
        if match is not None:
            out.append(Redex(match[0].name, i))
    out.extend(Redex("Transaction", i, j) for i, j in _mediator_pairs(p))
    out.sort(key=Redex.sort_key)
    return out


def step_with_effect(p: sx.Program, r: Redex) -> tuple[sx.Program, StepEffect]:
    pending = list(p.pending)
    effect = StepEffect()
    if r.kind == "Transaction":
        if r.partner is None or not (0 <= r.pos < r.partner < len(pending)):
            raise ValueError(f"not a Transaction redex of {render(p)}: {r}")
        ti, tj = pending[r.pos], pending[r.partner]
        fused = _fuse(ti, tj, _bare(ti), _bare(tj))
        if fused is None:
            raise ValueError(f"transactions {r.pos} and {r.partner} share no mediator")
        residue = [fused]
        del pending[r.partner]
    else:
        match = _match_local(pending[r.pos])
        if match is None or match[0].name != r.kind:
            raise ValueError(f"redex {r} does not match {render(pending[r.pos])}")
        residue = _rewrite(match, effect)
    pending[r.pos : r.pos + 1] = residue
    return sx.Program(p.interface, tuple(pending), span=p.span), effect


def step(p: sx.Program, r: Redex) -> sx.Program:
    """Fire one redex. ``r`` must come from ``find_redexes(p)``."""
    return step_with_effect(p, r)[0]


# ---------------------------------------------------------------------------
# Normalization

class TraceStep(sx.Node):
    __slots__ = {"index": sx.DATA, "redex": sx.DATA, "program": sx.DATA}

    def line(self) -> str:
        return f"{self.index} {self.redex.kind} {self.redex.pos} {render(self.program)}"


class NormalizeResult(sx.Node):
    __slots__ = dict.fromkeys("result steps trace burned discarded duplicated".split(), sx.DATA)


DEFAULT_FUEL = 10**6


class _RedexIndex:
    """The pending list of a program under normalization, indexed so that
    each step finds the leftmost redex without rescanning the program.

    ``live`` maps labels to transactions. A label is a tuple of ints that
    sorts like the transaction's pending position and stays fixed while the
    transaction lives: the residue of a local rule fired at ``L`` is
    labelled ``L + (0,)``, ``L + (1,)``, ..., which sorts between ``L``'s
    neighbours, and a fusion keeps the left transaction's label. Positions
    are ranks among the live labels, computed only for a trace line or a
    program.

    ``sides`` holds each live label's ``_bare`` tuple, taken once when its
    transaction enters, and ``bare`` the labels holding each address as a
    whole side. With ``occurrences``, the surface-occurrence count per
    address over the interface and the pending list, they decide the
    Transaction rule (``_fusable``).

    ``heap`` holds candidate redexes keyed ``(label, rule priority,
    partner label)``, the order of ``Redex.sort_key``. A local entry
    carries its ``_match_local`` match; a pair entry carries its partner
    and the address it was queued under. An entry is checked only when it
    reaches the top, and dropped if one of its transactions is gone or its
    mediator's count has moved. Every redex of the current program has an
    entry: a redex depends only on its transactions and on its mediator's
    count, and each step re-examines the transactions it produced and the
    addresses whose count it changed.
    """

    def __init__(self, p: sx.Program):
        self.interface = p.interface
        self.span = p.span
        self.live: dict[tuple[int, ...], sx.Transaction] = {}
        self.sides: dict[tuple[int, ...], tuple[sx.Address, ...]] = {}
        self.bare: dict[sx.Address, set[tuple[int, ...]]] = {}
        self.occurrences: dict[sx.Address, int] = {}
        self.heap: list = []
        self.tiebreak = count()
        for entry in p.interface:
            for address in sx.surface_addresses(entry):
                self.occurrences[address] = self.occurrences.get(address, 0) + 1
        self._replace([], [((i,), txn) for i, txn in enumerate(p.pending)])

    def leftmost(self):
        """The heap entry of the leftmost redex, or None in normal form."""
        heap, live, sides, occurrences = self.heap, self.live, self.sides, self.occurrences
        while heap:
            label, _, other, _, txn, partner, address = heap[0]
            if live.get(label) is txn and (
                partner is None
                or live.get(other) is partner
                and _fusable(sides[label], sides[other], address, occurrences.get(address, 0))
            ):
                return heap[0]
            heapq.heappop(heap)
        return None

    def redex(self, entry) -> Redex:
        """``entry`` as find_redexes would report it, with positions."""
        label, priority, partner_label, _, _, partner, _ = entry
        order = sorted(self.live)
        partner_pos = None if partner is None else bisect_left(order, partner_label)
        return Redex(RULE_ORDER[priority], bisect_left(order, label), partner_pos)

    def fire(self, entry, effect: StepEffect) -> None:
        """Fire the entry ``leftmost`` returned; its units go to ``effect``."""
        heapq.heappop(self.heap)
        label, _, other, _, txn, partner, match = entry
        if partner is None:
            residue = _rewrite(match, effect)
            self._replace([(label, txn)], [(label + (k,), t) for k, t in enumerate(residue)])
        else:
            fused = _fuse(txn, partner, self.sides[label], self.sides[other])
            self._replace([(label, txn), (other, partner)], [(label, fused)])

    def program(self) -> sx.Program:
        pending = tuple(self.live[label] for label in sorted(self.live))
        return sx.Program(self.interface, pending, span=self.span)

    def _replace(self, removed, added):
        """Swap the ``removed`` (label, transaction) pairs for the ``added``
        ones, then queue every redex that may have appeared."""
        live, sides, bare, occurrences = self.live, self.sides, self.bare, self.occurrences
        for label, _ in removed:
            del live[label]
            for address in sides.pop(label):
                bare[address].discard(label)
        for label, txn in added:
            live[label] = txn
            sides[label] = whole = _bare(txn)
            for address in whole:
                bare.setdefault(address, set()).add(label)

        # Occurrence counts change only by the sides that are not carried
        # over as the very same object, so only those are walked.
        gone = [side for _, txn in removed for side in (txn.left, txn.right)]
        delta: dict[sx.Address, int] = {}
        for _, txn in added:
            for side in (txn.left, txn.right):
                for k, old in enumerate(gone):
                    if old is side:
                        del gone[k]
                        break
                else:
                    for address in sx.surface_addresses(side):
                        delta[address] = delta.get(address, 0) + 1
        for side in gone:
            for address in sx.surface_addresses(side):
                delta[address] = delta.get(address, 0) - 1
        changed = [address for address, d in delta.items() if d]
        for address in changed:
            occurrences[address] = occurrences.get(address, 0) + delta[address]

        fresh = {label for label, _ in added}
        for label, txn in added:
            match = _match_local(txn)
            if match is not None:
                key = (label, _PRIORITY[match[0].name], (), next(self.tiebreak))
                heapq.heappush(self.heap, (*key, txn, None, match))
            for address in sides[label]:
                for other in bare[address]:
                    # Pairs of two fresh transactions are queued once.
                    if other != label and not (other in fresh and other < label):
                        self._queue_pair(address, label, other)
        for address in changed:
            stale = [label for label in bare.get(address, ()) if label not in fresh]
            for label, other in combinations(stale, 2):
                self._queue_pair(address, label, other)

    def _queue_pair(self, address, label, other):
        if other < label:
            label, other = other, label
        if _fusable(self.sides[label], self.sides[other], address, self.occurrences.get(address, 0)):
            key = (label, 0, other, next(self.tiebreak))
            heapq.heappush(self.heap, (*key, self.live[label], self.live[other], address))


def normalize(
    p: sx.Program, fuel: int = DEFAULT_FUEL, *, trace: bool = False
) -> NormalizeResult:
    """Fire the leftmost redex until none remains or fuel runs out.

    Raises :class:`FuelExhausted` (carrying the last state) if the program
    does not reach a normal form within ``fuel`` steps.
    """
    if fuel < 0:
        raise ValueError("fuel must be non-negative")
    index = _RedexIndex(p)
    steps = 0
    lines: list[TraceStep] = []
    effect = StepEffect()
    while True:
        entry = index.leftmost()
        if entry is None:
            accounts = (effect.burned, effect.discarded, effect.duplicated)
            return NormalizeResult(index.program(), steps, tuple(lines) if trace else None, *accounts)
        if steps >= fuel:
            raise FuelExhausted(index.program(), steps)
        redex = index.redex(entry) if trace else None
        index.fire(entry, effect)
        steps += 1
        if trace:
            lines.append(TraceStep(steps, redex, index.program()))


# ---------------------------------------------------------------------------
# Ledger read-back

class Ledger(sx.Node):
    """An address-to-currency assignment plus the units routed to disposal,
    as sorted ``(unit, count)`` pairs."""

    __slots__ = {"balances": sx.DATA, "burned": sx.DATA}

    def balances_dict(self) -> dict[sx.Address, Counter]:
        return {a: Counter(dict(units)) for a, units in self.balances}

    def burned_dict(self) -> Counter:
        return Counter(dict(self.burned))

    def total_units(self) -> Counter:
        out: Counter = Counter()
        for _, units in self.balances:
            out.update(dict(units))
        out.update(dict(self.burned))
        return out

    def to_json_dict(self) -> dict:
        return {
            "balances": {
                address.render(): {unit: count for unit, count in sorted(units)}
                for address, units in self.balances
            },
            "burned": {unit: count for unit, count in sorted(self.burned)},
        }


def _unit_tree(e: sx.Expression) -> Counter | None:
    """The multiset of a pure ``*``-tree of unit literals, else None."""
    out: Counter = Counter()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, sx.Unit):
            out[node.unit] += 1
        elif isinstance(node, sx.Iso):
            stack.append(node.right)
            stack.append(node.left)
        else:
            return None
    return out


def readback_ledger(p: sx.Program) -> Ledger:
    """Project a program to its ledger, when it is in ledger form.

    Every pending transaction must assign a unit tree to an address,
    dispose an address, or dispose a unit tree (burning it); transaction
    sides may come in either order. Raises :class:`NotInLedgerForm` at the
    first transaction that does not fit.
    """
    balances: defaultdict[sx.Address, Counter] = defaultdict(Counter)
    burned: Counter = Counter()
    # Literals are immutable and may be shared between transactions (see
    # chains.chain_to_program): each is walked once, its uses are counted
    # per owner (None: burned), and its units are weighed once at the end.
    # The key is id(), not the node: hashing a node walks all of it.
    trees: dict[int, Counter | None] = {}
    uses: Counter = Counter()
    for i, txn in enumerate(p.pending):
        for head, other in ((txn.left, txn.right), (txn.right, txn.left)):
            if isinstance(head, sx.Addr) and isinstance(other, sx.Dispose):
                balances[head.address]  # an empty balance
                break
            if isinstance(head, (sx.Addr, sx.Dispose)):
                key = id(other)
                if key not in trees:
                    trees[key] = _unit_tree(other)
                if trees[key] is not None:
                    uses[head.address if isinstance(head, sx.Addr) else None, key] += 1
                    break
        else:
            raise NotInLedgerForm(i, txn)
    for (owner, key), times in uses.items():
        account = burned if owner is None else balances[owner]
        for unit, count in trees[key].items():
            account[unit] += count * times
    return Ledger(
        tuple(
            (address, tuple(sorted(balances[address].items())))
            for address in sorted(balances)
        ),
        tuple(sorted(burned.items())),
    )

"""Small-step execution of pending transactions.

The machine rewrites the pending list of a program; the interface never
changes. Seven rules fire on transactions:

* ``Transaction`` fuses two transactions joined by a mediating address.
* ``Pair`` splits an isolation cut against a connection into two cuts.
* ``Left``/``Right`` open a menu with the branch a selection picked,
  inlining the branch's own transactions and wiring its context to the
  menu's bound addresses.
* ``Read`` opens a replication box against a storage request, likewise
  keeping the body's in-flight transactions.
* ``Dispose`` drops a replication box, disposing its bound context.
* ``Copy`` duplicates a replication box against a contraction, renaming
  the two copies with left/right freshness marks.

A transaction joins its two sides symmetrically, so every rule matches
with the sides in either order. ``normalize`` always fires the leftmost
redex (ties broken in the rule order above), so it is a pure function of
its input. Fuel bounds the run; well-typed programs always finish within
it or the type checker was wrong.

``find_redexes`` and ``step`` are the reference one-step interface: each
call looks at the whole program. ``normalize`` instead keeps an
incremental redex index (see ``_RedexIndex``) and, after each step, looks
only at the transactions the step produced and the addresses whose
occurrence count it changed. It fires the same redexes in the same
leftmost order, so its ``--trace`` lines are byte-identical to a
``find_redexes(p)[0]``/``step`` loop. Untraced, the cost per step grows
only logarithmically with the length of the pending list.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import count

from . import syntax as sx
from .errors import FuelExhausted, NotInLedgerForm
from .parser import render

RULE_ORDER = ("Transaction", "Pair", "Left", "Right", "Read", "Dispose", "Copy")
_PRIORITY = {name: i for i, name in enumerate(RULE_ORDER)}


class Redex(sx.Node):
    """A rule match: its kind, the pending index it fires at, and, for the
    Transaction rule, the index of the second transaction involved."""

    __slots__ = {"kind": sx.DATA, "pos": sx.DATA, "partner": sx.DATA}
    DEFAULTS = {"partner": None}

    def sort_key(self):
        return (self.pos, _PRIORITY[self.kind], -1 if self.partner is None else self.partner)


# ---------------------------------------------------------------------------
# Matching

def _oriented(txn: sx.Transaction):
    """Yield (box-or-left, other, flipped) in both orientations."""
    yield txn.left, txn.right, False
    yield txn.right, txn.left, True


_OPENING_RULE = {sx.Inl: "Left", sx.Inr: "Right", sx.Store: "Read"}


def _match_local(txn: sx.Transaction) -> tuple[str, bool] | None:
    for head, other, flipped in _oriented(txn):
        match head, other:
            case (sx.Iso(), sx.Conn()):
                return ("Pair", flipped)
            case (sx.Choose(), sx.Inl() | sx.Inr()) | (sx.Bang(), sx.Store()):
                if sx.context_binders(head) is not None:
                    return (_OPENING_RULE[type(other)], flipped)
            case (sx.Bang(), sx.Dispose()):
                return ("Dispose", flipped)
            case (sx.Bang(), sx.Contract()):
                return ("Copy", flipped)
    return None


def _is_loop(txn: sx.Transaction) -> bool:
    return (
        isinstance(txn.left, sx.Addr)
        and isinstance(txn.right, sx.Addr)
        and txn.left.address == txn.right.address
    )


def _bare_sides(txn: sx.Transaction, address: sx.Address) -> int:
    count = 0
    if isinstance(txn.left, sx.Addr) and txn.left.address == address:
        count += 1
    if isinstance(txn.right, sx.Addr) and txn.right.address == address:
        count += 1
    return count


def _whole_sides(txn: sx.Transaction) -> set[sx.Address]:
    """The addresses that are a whole side of ``txn``."""
    return {side.address for side in (txn.left, txn.right) if isinstance(side, sx.Addr)}


def _fusable(
    ti: sx.Transaction, tj: sx.Transaction, address: sx.Address, occurrences: int
) -> bool:
    """Whether two transactions that both have ``address`` as a whole side
    may fuse over it, given its surface-occurrence count.

    The mediator must either account for both of its occurrences as whole
    sides of the two transactions, or one of the two transactions is a
    self-loop ``txn(x, x)`` being absorbed into the other. The first
    condition is what linearity gives on typed programs; the second arises
    when a spend deliberately re-uses an address for a coin that stays put.
    """
    return (
        _is_loop(ti)
        or _is_loop(tj)
        or (occurrences == 2 and _bare_sides(ti, address) + _bare_sides(tj, address) == 2)
    )


def _mediator_pairs(p: sx.Program):
    """Eligible (i, j) pairs for the Transaction rule (see ``_fusable``)."""
    occurrences: dict[sx.Address, int] = {}
    for address, _ in sx.surface_occurrences(p):
        occurrences[address] = occurrences.get(address, 0) + 1
    sides: dict[sx.Address, list[int]] = {}
    for i, txn in enumerate(p.pending):
        for side in (txn.left, txn.right):
            if isinstance(side, sx.Addr):
                sides.setdefault(side.address, []).append(i)
    pairs: set[tuple[int, int]] = set()
    for address, where in sides.items():
        indices = sorted(set(where))
        if len(indices) < 2:
            continue
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                i, j = indices[a], indices[b]
                if _fusable(p.pending[i], p.pending[j], address, occurrences.get(address, 0)):
                    pairs.add((i, j))
    return pairs


def find_redexes(p: sx.Program) -> list[Redex]:
    """Every position where a rule can fire, in the deterministic order
    ``normalize`` uses."""
    out = []
    for i, txn in enumerate(p.pending):
        matched = _match_local(txn)
        if matched is not None:
            out.append(Redex(matched[0], i))
    for i, j in _mediator_pairs(p):
        out.append(Redex("Transaction", i, j))
    out.sort(key=Redex.sort_key)
    return out


# ---------------------------------------------------------------------------
# Stepping

class StepEffect:
    """Unit accounting for one step: literals burned with a disposed box,
    discarded with an unselected branch, or duplicated by a copy."""

    __slots__ = ("burned", "discarded", "duplicated")

    def __init__(self):
        self.burned, self.discarded, self.duplicated = Counter(), Counter(), Counter()


def _fuse(ti: sx.Transaction, tj: sx.Transaction, address: sx.Address) -> sx.Transaction:
    def other(txn):
        if _is_loop(txn):
            return txn.left
        if isinstance(txn.left, sx.Addr) and txn.left.address == address:
            return txn.right
        return txn.left

    return sx.Transaction(other(ti), other(tj))


def _mediator_of(ti: sx.Transaction, tj: sx.Transaction) -> sx.Address | None:
    for side in (ti.left, ti.right):
        if isinstance(side, sx.Addr) and _bare_sides(tj, side.address):
            return side.address
    return None


def _rewrite(
    kind: str, txn: sx.Transaction, partner: sx.Transaction | None = None
) -> tuple[list[sx.Transaction], StepEffect]:
    """Fire rule ``kind`` on ``txn`` (fused with ``partner`` for the
    Transaction rule): the transactions that take their place, in pending
    order, and the step's unit accounting. The caller has checked that the
    rule matches."""
    effect = StepEffect()
    if kind == "Transaction":
        return [_fuse(txn, partner, _mediator_of(txn, partner))], effect

    flipped = _match_local(txn)[1]
    head = txn.right if flipped else txn.left
    other = txn.left if flipped else txn.right

    if kind == "Pair":
        residue = [
            sx.Transaction(head.left, other.left),
            sx.Transaction(head.right, other.right),
        ]
    elif kind in ("Left", "Right"):
        branch = head.left if kind == "Left" else head.right
        dropped = head.right if kind == "Left" else head.left
        residue = [sx.Transaction(branch.interface[0], other.inner)]
        residue.extend(branch.pending)
        residue.extend(
            sx.Transaction(sx.Addr(x), e)
            for x, e in zip(sx.context_binders(head), branch.interface[1:])
        )
        effect.discarded.update(sx.unit_multiset(dropped))
    elif kind == "Read":
        body = head.body
        residue = [sx.Transaction(body.interface[0], other.inner)]
        residue.extend(body.pending)
        residue.extend(
            sx.Transaction(sx.Addr(x), e) for x, e in zip(head.bound, body.interface[1:])
        )
    elif kind == "Dispose":
        residue = [sx.Transaction(sx.Addr(x), sx.Dispose()) for x in head.bound]
        effect.burned.update(sx.unit_multiset(head.body))
    elif kind == "Copy":
        left_box = sx.rename(head, sx.LEFT)
        right_box = sx.rename(head, sx.RIGHT)
        residue = [
            sx.Transaction(
                sx.Addr(x),
                sx.Contract(sx.Addr(x.extended(sx.LEFT)), sx.Addr(x.extended(sx.RIGHT))),
            )
            for x in head.bound
        ]
        residue.append(sx.Transaction(left_box, other.left))
        residue.append(sx.Transaction(right_box, other.right))
        effect.duplicated.update(sx.unit_multiset(head.body))
    else:
        raise ValueError(f"unknown rule {kind}")
    return residue, effect


def step_with_effect(p: sx.Program, r: Redex) -> tuple[sx.Program, StepEffect]:
    pending = list(p.pending)
    if r.kind == "Transaction":
        if r.partner is None or not (0 <= r.pos < r.partner < len(pending)):
            raise ValueError(f"not a Transaction redex of {render(p)}: {r}")
        ti, tj = pending[r.pos], pending[r.partner]
        if _mediator_of(ti, tj) is None:
            raise ValueError(f"transactions {r.pos} and {r.partner} share no mediator")
        residue, effect = _rewrite(r.kind, ti, tj)
        del pending[r.partner]
    else:
        txn = pending[r.pos]
        matched = _match_local(txn)
        if matched is None or matched[0] != r.kind:
            raise ValueError(f"redex {r} does not match {render(txn)}")
        residue, effect = _rewrite(r.kind, txn)
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

    ``occurrences`` counts surface occurrences per address over the
    interface and the pending list, and ``bare`` holds, per address, the
    labels of the transactions that have it as a whole side. Together they
    decide the Transaction rule (``_fusable``).

    ``heap`` holds candidate redexes keyed ``(label, rule priority,
    partner label)``, the order of ``Redex.sort_key``. An entry is checked
    only when it reaches the top, and dropped if one of its transactions is
    gone or its mediator's count has moved. Every redex of the current
    program has an entry: a redex depends only on its transactions and on
    its mediator's count, and each step re-examines the transactions it
    produced and the addresses whose count it changed.
    """

    def __init__(self, p: sx.Program):
        self.interface = p.interface
        self.span = p.span
        self.live: dict[tuple[int, ...], sx.Transaction] = {}
        self.occurrences: dict[sx.Address, int] = {}
        self.bare: dict[sx.Address, set[tuple[int, ...]]] = {}
        self.heap: list = []
        self.tiebreak = count()
        for entry in p.interface:
            for address in sx.surface_addresses(entry):
                self.occurrences[address] = self.occurrences.get(address, 0) + 1
        self._replace([], [((i,), txn) for i, txn in enumerate(p.pending)])

    def leftmost(self):
        """The heap entry of the leftmost redex, or None in normal form."""
        heap, live = self.heap, self.live
        while heap:
            label, _, partner_label, _, txn, partner, address = heap[0]
            if live.get(label) is txn and (
                partner is None
                or (
                    live.get(partner_label) is partner
                    and _fusable(txn, partner, address, self.occurrences.get(address, 0))
                )
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

    def fire(self, entry) -> StepEffect:
        """Fire the entry ``leftmost`` returned."""
        heapq.heappop(self.heap)
        label, priority, partner_label, _, txn, partner, _ = entry
        residue, effect = _rewrite(RULE_ORDER[priority], txn, partner)
        if partner is None:
            self._replace([(label, txn)], [(label + (k,), t) for k, t in enumerate(residue)])
        else:
            self._replace([(label, txn), (partner_label, partner)], [(label, residue[0])])
        return effect

    def program(self) -> sx.Program:
        pending = tuple(self.live[label] for label in sorted(self.live))
        return sx.Program(self.interface, pending, span=self.span)

    def _replace(self, removed, added):
        """Swap the ``removed`` (label, transaction) pairs for the ``added``
        ones, then queue every redex that may have appeared."""
        live, bare, occurrences = self.live, self.bare, self.occurrences
        for label, txn in removed:
            del live[label]
            for address in _whole_sides(txn):
                bare[address].discard(label)
        for label, txn in added:
            live[label] = txn
            for address in _whole_sides(txn):
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
            matched = _match_local(txn)
            if matched is not None:
                heapq.heappush(
                    self.heap,
                    (label, _PRIORITY[matched[0]], (), next(self.tiebreak), txn, None, None),
                )
            for address in _whole_sides(txn):
                for other in bare[address]:
                    # Pairs of two fresh transactions are queued once.
                    if other != label and not (other in fresh and other < label):
                        self._queue_pair(address, label, other)
        for address in changed:
            stale = [label for label in bare.get(address, ()) if label not in fresh]
            for a in range(len(stale)):
                for b in range(a + 1, len(stale)):
                    self._queue_pair(address, stale[a], stale[b])

    def _queue_pair(self, address, label, other):
        if other < label:
            label, other = other, label
        ti, tj = self.live[label], self.live[other]
        if _fusable(ti, tj, address, self.occurrences.get(address, 0)):
            heapq.heappush(self.heap, (label, 0, other, next(self.tiebreak), ti, tj, address))


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
    burned: Counter = Counter()
    discarded: Counter = Counter()
    duplicated: Counter = Counter()
    while True:
        entry = index.leftmost()
        if entry is None:
            return NormalizeResult(
                index.program(),
                steps,
                tuple(lines) if trace else None,
                burned,
                discarded,
                duplicated,
            )
        if steps >= fuel:
            raise FuelExhausted(index.program(), steps)
        redex = index.redex(entry) if trace else None
        effect = index.fire(entry)
        steps += 1
        burned.update(effect.burned)
        discarded.update(effect.discarded)
        duplicated.update(effect.duplicated)
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
    # chains.chain_to_program), so each is walked once. The key is id(),
    # not the node: hashing a node walks all of it.
    trees: dict[int, Counter | None] = {}

    def unit_tree(node: sx.Expression) -> Counter | None:
        key = id(node)
        if key not in trees:
            trees[key] = _unit_tree(node)
        return trees[key]

    for i, txn in enumerate(p.pending):
        done = False
        for head, other, _flipped in _oriented(txn):
            if isinstance(head, sx.Addr):
                if isinstance(other, sx.Dispose):
                    balances[head.address]  # an empty balance
                    done = True
                    break
                units = unit_tree(other)
                if units is not None:
                    balances[head.address].update(units)
                    done = True
                    break
            elif isinstance(head, sx.Dispose):
                units = unit_tree(other)
                if units is not None:
                    burned.update(units)
                    done = True
                    break
        if not done:
            raise NotInLedgerForm(i, txn)
    return Ledger(
        tuple(
            (address, tuple(sorted(balances[address].items())))
            for address in sorted(balances)
        ),
        tuple(sorted(burned.items())),
    )

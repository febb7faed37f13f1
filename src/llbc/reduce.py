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

``normalize`` runs on an incremental redex index (``_RedexIndex``), so
untraced, its cost per step grows only logarithmically with the length of
the pending list. ``find_redexes`` and ``step`` read a fresh index of the
program: the redexes in the order ``normalize`` would take them, and one
of them fired. ``step`` rejects a redex that is not in ``find_redexes(p)``.
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
# The kinds of side some local rule takes: a transaction with a side of any
# other kind, such as an address, matches none.
_LOCAL_KINDS = frozenset(kind for kinds in _LOCAL for kind in kinds)


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

def _fusable(bi: tuple, bj: tuple, key, occurrences: int) -> bool:
    """Whether two transactions with whole-side keys ``bi`` and ``bj``
    (left side first), both holding ``key``, may fuse over it, given its
    surface-occurrence count. Those two sides being its only occurrences
    is what linearity gives on typed programs; a self-loop ``txn(x, x)``
    re-uses an address for a coin that stays put."""
    return (
        (len(bi) == 2 and bi[0] == bi[1])
        or (len(bj) == 2 and bj[0] == bj[1])
        or (occurrences == 2 and bi.count(key) + bj.count(key) == 2)
    )


def _fuse(ti: sx.Transaction, tj: sx.Transaction, bi: tuple, bj: tuple):
    """``(mediator, fused, its whole-side keys)`` for ``ti`` and ``tj``,
    with whole-side keys ``bi`` and ``bj`` (as for ``_fusable``), joined
    over the first of ``bi`` in ``bj``; None if there is none. Each keeps,
    as the same object, its side that is not the mediator (the left if
    both are)."""
    for mediator in bi:
        if mediator in bj:
            break
    else:
        return None
    kept, whole = [], ()
    for txn, sides in ((ti, bi), (tj, bj)):
        if type(txn.right) is sx.Addr and sides[-1] == mediator:
            kept.append(txn.left)
            whole += sides[:-1]
        else:
            kept.append(txn.right)
            whole += sides[1:]
    return mediator, sx.Transaction(*kept), whole


# ---------------------------------------------------------------------------
# One step at a time

class Redex(sx.Node):
    """A rule match: its kind, the pending index it fires at, and, for the
    Transaction rule, the index of the second transaction involved."""

    __slots__ = {"kind": sx.DATA, "pos": sx.DATA, "partner": sx.DATA}
    DEFAULTS = {"partner": None}


def find_redexes(p: sx.Program) -> list[Redex]:
    """Every position where a rule can fire, in the deterministic order
    ``normalize`` uses: the redexes of a fresh index of ``p``."""
    return [redex for redex, _ in _RedexIndex(p).redexes()]


def step_with_effect(p: sx.Program, r: Redex) -> tuple[sx.Program, StepEffect]:
    """Fire ``r``, which must be in ``find_redexes(p)``: the next program
    and the units the step moved."""
    index = _RedexIndex(p)
    for redex, entry in index.redexes():
        if redex == r:
            effect = StepEffect()
            index.fire(entry, effect)
            return index.program(), effect
    raise ValueError(f"{r} is not a redex of {render(p)}")


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


class _Live:
    """A transaction in the index: label, node, whole-side keys, alive
    flag. A fusion may put the fused transaction in the left record."""

    __slots__ = ("label", "txn", "sides", "alive")

    def __init__(self, label, txn, sides):
        self.label, self.txn, self.sides, self.alive = label, txn, sides, True


class _RedexIndex:
    """The pending list of a program under normalization, indexed so that
    each step finds the leftmost redex without rescanning the program. A
    fresh index also lists every redex of its program (``redexes``).

    ``live`` holds a record (``_Live``) per transaction, labelled by a
    tuple of ints that sorts like its pending position and stays fixed:
    the residue of a local rule fired at ``L`` is labelled ``L + (0,)``,
    ``L + (1,)``, ..., between ``L``'s neighbours, and a fusion keeps the
    left label. Positions are ranks in the sorted live labels, computed
    only for ``redex`` and a program. Each address gets an int key on
    first sight; ``occurrences`` (surface-occurrence counts) and ``bare``
    (the records holding the address as a whole side) are keyed by it. One
    walk per transaction (``_keys``) reads both.

    ``heap`` holds candidate redexes keyed ``(label, rule priority,
    partner label)``, the order ``find_redexes`` reports, with their
    records and local match or pair key: a match for a transaction whose
    two side kinds both occur in ``_LOCAL``, a pair for two records that
    share a whole-side key. An entry is checked when it reaches the top,
    and dropped if a record is dead or the pair does not fuse; a pair
    sharing two keys, or a self-loop's, may be queued twice. Every redex has
    an entry: a redex depends only on its transactions and its mediator's
    count, and each step queues the redexes of the records it changes and
    the pairs over each key whose count moved.

    A fusion keeps the other sides as the same objects, so it moves only
    the mediator's count, by two, and hashes no address. If the fused
    transaction has a whole side, no mediator among them, and is no
    self-loop, it takes the left record's place, and that record keeps its
    other whole side and the entries over it; only the partner's whole
    side is new to it. Neither of the two was a self-loop then, so the
    two sides were the mediator's only occurrences: the record's entries
    over it are stale. Any other step retires the records it removes and
    enters new ones; a local rule recounts the addresses that leave and
    enter.
    """

    def __init__(self, p: sx.Program):
        self.interface, self.span = p.interface, p.span
        self.live: set[_Live] = set()
        self.keys: dict[sx.Address, int] = {}
        self.occurrences: dict[int, int] = defaultdict(int)
        self.bare: dict[int, set[_Live]] = defaultdict(set)
        self.heap: list = []
        self.tiebreak = count()
        self._keys(p.interface, self.occurrences, 1)
        records = [
            _Live((position,), txn, self._keys((txn.left, txn.right), self.occurrences, 1))
            for position, txn in enumerate(p.pending)
        ]
        self._enter((), records, ())

    def leftmost(self):
        """Pop the heap entry of the leftmost redex; None in normal form."""
        heap, occurrences = self.heap, self.occurrences
        while heap:
            top = heapq.heappop(heap)
            record, partner, key = top[4], top[5], top[6]
            if record.alive and (
                partner is None
                or partner.alive
                and _fusable(record.sides, partner.sides, key, occurrences[key])
            ):
                return top
        return None

    def redexes(self) -> list[tuple[Redex, tuple]]:
        """Each redex with an entry that fires it, in key order: one per
        valid heap entry key, the one ``leftmost`` would pop first. Drains
        a copy of the heap through ``leftmost``, which pops in key order."""
        heap, self.heap, valid = self.heap, self.heap[:], {}
        while (entry := self.leftmost()) is not None:
            valid.setdefault(entry[:3], entry)
        self.heap = heap
        order = sorted(record.label for record in self.live)
        return [(self.redex(entry, order), entry) for entry in valid.values()]

    def redex(self, entry, order: list[tuple]) -> Redex:
        """``entry`` as find_redexes would report it, with positions read
        off ``order``, the sorted live labels."""
        label, priority, partner_label, _, _, partner, _ = entry
        partner_pos = None if partner is None else bisect_left(order, partner_label)
        return Redex(RULE_ORDER[priority], bisect_left(order, label), partner_pos)

    def fire(self, entry, effect: StepEffect) -> None:
        """Fire a valid entry; its units go to ``effect``."""
        label, _, _, _, record, partner, match = entry
        if partner is None:
            self._replace((record,), label, _rewrite(match, effect))
            return
        mediator, fused, sides = _fuse(record.txn, partner.txn, record.sides, partner.sides)
        self.occurrences[mediator] -= 2
        if sides and mediator not in sides and (len(sides) == 1 or sides[0] != sides[1]):
            # In place: ``sides`` is the record's other whole side, if it
            # has one, then the partner's.
            self.bare[mediator].discard(record)
            gained = sides[len(record.sides) - 1 :]
            record.txn, record.sides = fused, sides
            self._enter((partner,), (), (mediator,), [(record, gained)])
        else:
            self._enter((record, partner), [_Live(label, fused, sides)], (mediator,))

    def program(self) -> sx.Program:
        pending = tuple(r.txn for r in sorted(self.live, key=lambda r: r.label))
        return sx.Program(self.interface, pending, span=self.span)

    def _keys(self, sides, counts: dict, sign: int) -> tuple[int, ...]:
        """Add ``sign`` to ``counts`` at the key of each surface address of
        the expressions ``sides``, giving an address its key on first sight,
        and return the keys of the sides that are an address, left side
        first. An address side is read in one step."""
        keys = self.keys
        whole = []
        for side in sides:
            if type(side) is sx.Addr:
                key = keys.setdefault(side.address, len(keys))
                counts[key] += sign
                whole.append(key)
            else:
                for address in sx.surface_addresses(side):
                    counts[keys.setdefault(address, len(keys))] += sign
        return tuple(whole)

    def _replace(self, removed, label, residue):
        """Swap the ``removed`` records for records of the ``residue``
        transactions, labelled ``label + (0,)``, ``label + (1,)``, ...,
        moving the occurrence counts by the addresses that leave and enter."""
        delta: dict[int, int] = defaultdict(int)
        for record in removed:
            self._keys((record.txn.left, record.txn.right), delta, -1)
        new = [
            _Live(label + (k,), t, self._keys((t.left, t.right), delta, 1))
            for k, t in enumerate(residue)
        ]
        changed = [key for key, d in delta.items() if d]
        for key in changed:
            self.occurrences[key] += delta[key]
        self._enter(removed, new, changed)

    def _enter(self, removed, records, changed, gained=()):
        """Retire the ``removed`` records, queue the pairs already there
        over each ``changed`` key, then make ``records`` live one by one,
        queueing their redexes. ``gained`` lists ``(record, keys)`` for a
        live record that now holds ``keys`` as whole sides too: its pairs
        over them are queued."""
        live, bare, heap, tiebreak = self.live, self.bare, self.heap, self.tiebreak
        for record in removed:
            record.alive = False
            live.remove(record)
            for key in record.sides:
                bare[key].discard(record)
        pairs = []
        for key in changed:
            for record, other in combinations(bare[key], 2):
                pairs.append((key, record, other))
        entering = [*gained]
        for record in records:
            txn = record.txn
            if type(txn.left) in _LOCAL_KINDS and type(txn.right) in _LOCAL_KINDS:
                match = _match_local(txn)
                if match is not None:
                    entry = (record.label, _PRIORITY[match[0].name], (), next(tiebreak))
                    heapq.heappush(heap, (*entry, record, None, match))
            entering.append((record, record.sides))
        for record, keys in entering:
            for key in keys:
                for other in bare[key]:
                    pairs.append((key, record, other))
            for key in keys:
                bare[key].add(record)
        live.update(records)
        for key, record, other in pairs:
            if other.label < record.label:
                record, other = other, record
            heapq.heappush(heap, (record.label, 0, other.label, next(tiebreak), record, other, key))


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
        redex = index.redex(entry, sorted(r.label for r in index.live)) if trace else None
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
    for node in sx.walk(e, lambda node: sx.children(node) if type(node) is sx.Iso else ()):
        if type(node) is sx.Unit:
            out[node.unit] += 1
        elif type(node) is not sx.Iso:
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
    # Transactions and literals are immutable and may be shared (see
    # chains.chain_to_program): each distinct transaction is classified
    # once and counted as often as it occurs, each literal is walked once,
    # its uses are counted per owner (None: burned), and its units are
    # weighed once at the end. The keys are id(), not nodes: hashing a
    # node walks all of it.
    occurs = Counter(map(id, p.pending))
    trees: dict[int, Counter | None] = {}
    uses: Counter = Counter()
    for txn_key, txn in dict(zip(map(id, p.pending), p.pending)).items():
        for head, other in ((txn.left, txn.right), (txn.right, txn.left)):
            if isinstance(head, sx.Addr) and isinstance(other, sx.Dispose):
                balances[head.address]  # an empty balance
                break
            if isinstance(head, (sx.Addr, sx.Dispose)):
                key = id(other)
                if key not in trees:
                    trees[key] = _unit_tree(other)
                if trees[key] is not None:
                    uses[head.address if isinstance(head, sx.Addr) else None, key] += occurs[txn_key]
                    break
        else:
            raise NotInLedgerForm(next(i for i, t in enumerate(p.pending) if t is txn), txn)
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

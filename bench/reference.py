"""Expected answers computed without the llbc code under test.

Programs are walked by node kind name and attribute, chains are handled as
the plain JSON payloads the benchmark generated, and ledgers are folded
directly. None of this calls into ``llbc``; the ops' outputs are compared
against it.
"""
from __future__ import annotations

from collections import Counter

_LEAVES = ("Addr", "Unit", "Dispose")
_UNARY = ("Dual", "Inl", "Inr", "Store")
_BINARY = ("Iso", "Conn", "Contract", "Transaction")


def _kind(node) -> str:
    return type(node).__name__


def children(node) -> tuple:
    kind = _kind(node)
    if kind in _LEAVES:
        return ()
    if kind in _UNARY:
        return (node.inner,)
    if kind in _BINARY or kind == "Choose":
        return (node.left, node.right)
    if kind == "Bang":
        return (node.body,)
    if kind == "Program":
        return tuple(node.interface) + tuple(node.pending)
    raise TypeError(f"not a syntax node: {node!r}")


def walk(node):
    """Every node under ``node``, box bodies included, without recursion."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(children(current))


def node_count(program) -> int:
    return sum(1 for _ in walk(program))


def units(program) -> Counter:
    """Currency literals anywhere in the program, dual or not."""
    return Counter(n.unit for n in walk(program) if _kind(n) == "Unit")


def conserved(initial, final, burned, discarded, duplicated) -> bool:
    """``units(initial) - burned - discarded + duplicated == units(final)``."""
    expected = Counter(units(initial))
    expected.subtract(burned)
    expected.subtract(discarded)
    expected.update(duplicated)
    actual = units(final)
    keys = set(expected) | set(actual)
    return all(expected[k] == actual[k] for k in keys)


# ---------------------------------------------------------------------------
# Address occurrences outside boxes

def _box_binders(box) -> tuple:
    """Binders that stand for a box's context: a menu whose bound list is
    as long as its branch interface carries an inert placeholder first."""
    if _kind(box) == "Bang":
        return tuple(box.bound)
    width = len(box.left.interface)
    if width and len(box.bound) == width:
        return tuple(box.bound[1:])
    return tuple(box.bound)


def surface(expr):
    """Addresses occurring in ``expr`` without entering a box body, each
    with whether it is a bare ``Addr`` or a box binder."""
    stack = [expr]
    while stack:
        e = stack.pop()
        kind = _kind(e)
        if kind == "Addr":
            yield e.address, "addr"
        elif kind in ("Choose", "Bang"):
            for binder in _box_binders(e):
                yield binder, "binder"
        else:
            stack.extend(children(e))


def surface_counts(program) -> Counter:
    out: Counter = Counter()
    for expr in _top_expressions(program):
        for address, _ in surface(expr):
            out[address] += 1
    return out


def _top_expressions(program):
    yield from program.interface
    for txn in program.pending:
        yield txn.left
        yield txn.right


def twice_used_address(program):
    """An address with exactly two bare occurrences outside boxes and no
    binder occurrence, or None. A third occurrence makes it non-linear."""
    bare: Counter = Counter()
    binders = set()
    for expr in _top_expressions(program):
        for address, how in surface(expr):
            if how == "addr":
                bare[address] += 1
            else:
                binders.add(address)
    for address in sorted(bare):
        if bare[address] == 2 and address not in binders:
            return address
    return None


# ---------------------------------------------------------------------------
# Normal forms: the seven rules of the README, matched without the reducer

def _menu_fits(box, branch) -> bool:
    width = len(branch.interface)
    if width == 0 or len(box.left.interface) != len(box.right.interface):
        return False
    return len(box.bound) in (width, width - 1)


def _local_redex(txn) -> bool:
    for head, other in ((txn.left, txn.right), (txn.right, txn.left)):
        h, o = _kind(head), _kind(other)
        if h == "Iso" and o == "Conn":
            return True
        if h == "Choose" and o == "Inl" and _menu_fits(head, head.left):
            return True
        if h == "Choose" and o == "Inr" and _menu_fits(head, head.right):
            return True
        if h == "Bang" and o == "Store" and len(head.bound) == len(head.body.interface) - 1:
            return True
        if h == "Bang" and o in ("Dispose", "Contract"):
            return True
    return False


def _bare(side):
    return side.address if _kind(side) == "Addr" else None


def has_redex(program) -> bool:
    """Whether any rule can fire: a local rule on one transaction, or a
    fusion of two transactions through a mediating address that occurs
    exactly twice, both times as a whole side, or through a self-loop."""
    if any(_local_redex(txn) for txn in program.pending):
        return True
    counts = surface_counts(program)
    where: dict = {}
    for i, txn in enumerate(program.pending):
        for side in (txn.left, txn.right):
            address = _bare(side)
            if address is not None:
                where.setdefault(address, set()).add(i)
    for address, indices in where.items():
        if len(indices) < 2:
            continue
        txns = [program.pending[i] for i in indices]
        loops = any(_bare(t.left) is not None and _bare(t.left) == _bare(t.right) for t in txns)
        if loops or counts[address] == 2:
            return True
    return False


# ---------------------------------------------------------------------------
# Ledger form

def _unit_tree(expr) -> Counter | None:
    out: Counter = Counter()
    stack = [expr]
    while stack:
        e = stack.pop()
        kind = _kind(e)
        if kind == "Unit":
            out[e.unit] += 1
        elif kind == "Iso":
            stack.extend((e.left, e.right))
        else:
            return None
    return out


def ledger_of(program):
    """``(balances, burned)`` keyed by address, or None when some pending
    transaction neither assigns a literal tree to an address, disposes an
    address, nor burns a literal tree."""
    balances: dict = {}
    burned: Counter = Counter()
    for txn in program.pending:
        for head, other in ((txn.left, txn.right), (txn.right, txn.left)):
            if _kind(head) == "Addr":
                if _kind(other) == "Dispose":
                    balances.setdefault(head.address, Counter())
                    break
                tree = _unit_tree(other)
                if tree is not None:
                    balances.setdefault(head.address, Counter()).update(tree)
                    break
            elif _kind(head) == "Dispose":
                tree = _unit_tree(other)
                if tree is not None:
                    burned.update(tree)
                    break
        else:
            return None
    return balances, burned


# ---------------------------------------------------------------------------
# Scripts

def pipeline_ledger(k: int) -> dict:
    """The forwarding pipeline delivers its ``k`` satoshi to ``a0``."""
    return {"balances": {"a0": {"satoshi": k}}, "burned": {}}


def pipeline_normal_forms(k: int) -> tuple[str, str]:
    """The one-transaction normal form, in either orientation."""
    coins = f"{k} . satoshi"
    return f"(a0){{ txn(a0, {coins}) }}", f"(a0){{ txn({coins}, a0) }}"


# ---------------------------------------------------------------------------
# Chains, as ``{"blocks": [{"transfers": [{"from", "to", "amount", "unit"}]}]}``

def chain_addresses(payload) -> set[str]:
    return {
        name
        for block in payload["blocks"]
        for t in block["transfers"]
        for name in (t["from"], t["to"])
    }


def shared_addresses(left, right) -> set[str]:
    return chain_addresses(left) & chain_addresses(right)


def blockwise_disjoint(left, right) -> bool:
    return all(
        not (chain_addresses({"blocks": [a]}) & chain_addresses({"blocks": [b]}))
        for a, b in zip(left["blocks"], right["blocks"])
    )


def zipped(left, right) -> dict:
    """Blocks of equal height concatenated, the shorter chain padded with
    empty blocks at its newest end."""
    a, b = left["blocks"], right["blocks"]
    pad = [{"transfers": []}] * abs(len(a) - len(b))
    if len(a) < len(b):
        a = pad + a
    else:
        b = pad + b
    return {
        "blocks": [
            {"transfers": x["transfers"] + y["transfers"]} for x, y in zip(a, b)
        ]
    }


def prefixed(payload, tag: str) -> dict:
    return {
        "blocks": [
            {
                "transfers": [
                    dict(t, **{"from": tag + t["from"], "to": tag + t["to"]})
                    for t in block["transfers"]
                ]
            }
            for block in payload["blocks"]
        ]
    }


def composed(left, right) -> dict:
    """What composing two chains must give: the plain zip when their
    address spaces are disjoint, else the zip after prefixing "0"/"1"."""
    if shared_addresses(left, right):
        return zipped(prefixed(left, "0"), prefixed(right, "1"))
    return zipped(left, right)


def chain_balances(payload) -> dict:
    """Each recipient's received amounts, folded over every transfer."""
    out: dict = {}
    for block in payload["blocks"]:
        for t in block["transfers"]:
            units_at = out.setdefault(t["to"], {})
            units_at[t["unit"]] = units_at.get(t["unit"], 0) + t["amount"]
    return out

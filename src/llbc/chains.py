"""Composing whole block chains by zipping their blocks.

A chain is an ordered list of blocks, newest first; a block is a list of
transfers ``from --amount unit--> to``. Two chains whose entire address
spaces are disjoint can be combined blockwise with a glorified zip
(``compose_verify``): the networks maintaining them never interacted, so
interleaving same-height blocks is safe. Disjointness of same-height
blocks alone is *not* enough; the weak check is exposed separately as
``blockwise_isolated`` so the distinction can be demonstrated.

``compose_rewire`` takes the other route: it forces isolation by
injectively prefixing the two address spaces ("0" and "1") before
zipping, which makes any pair of chains composable.

The JSON file format is
``{"blocks": [{"transfers": [{"from", "to", "amount", "unit"}]}]}``,
blocks newest first, and round-trips bit-exactly through ``chain_to_json``.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import syntax as sx
from .errors import HeightMismatch, IsolationError, LimitError
from .units import check_unit


class Transfer(sx.Node):
    __slots__ = {"source": sx.DATA, "target": sx.DATA, "amount": sx.DATA, "unit": sx.DATA}

    def _check(self):
        if self.source == self.target:
            raise ValueError("a transfer must move funds between distinct addresses")
        if not isinstance(self.amount, int) or isinstance(self.amount, bool) or self.amount <= 0:
            raise ValueError(f"transfer amount must be a positive integer: {self.amount!r}")
        check_unit(self.unit)
        if self.source.path or self.target.path:
            raise ValueError("chain addresses are plain names without freshness marks")


class Block(sx.Node):
    __slots__ = {"transfers": sx.DATA}


class Chain(sx.Node):
    """Blocks ordered newest first (height N down to genesis)."""

    __slots__ = {"blocks": sx.DATA}

    @property
    def height(self) -> int:
        return len(self.blocks)


def addresses(value: Chain | Block) -> frozenset[sx.Address]:
    blocks = (value,) if isinstance(value, Block) else value.blocks
    sources = {t.source for block in blocks for t in block.transfers}
    return frozenset(sources | {t.target for block in blocks for t in block.transfers})


def isolated(c1: Chain, c2: Chain) -> bool:
    """True when the entire address spaces are disjoint."""
    return not (addresses(c1) & addresses(c2))


def blockwise_isolated(c1: Chain, c2: Chain) -> bool:
    """The deliberately weak check: same-height blocks are pairwise disjoint.

    This does not make composition safe; spends in an early block of one
    chain may touch addresses a later block of the other chain also uses.
    """
    if c1.height != c2.height:
        raise HeightMismatch(c1.height, c2.height)
    for b1, b2 in zip(c1.blocks, c2.blocks):
        left = {a for t in b1.transfers for a in (t.source, t.target)}
        for t in b2.transfers:
            if t.source in left or t.target in left:
                return False
    return True


def _padded(c1: Chain, c2: Chain) -> tuple[Chain, Chain]:
    """Align at the genesis end, padding the shorter chain with empty
    blocks at the newest end."""
    if c1.height == c2.height:
        return c1, c2
    pad = abs(c1.height - c2.height)
    empties = (Block(()),) * pad
    if c1.height < c2.height:
        return Chain(empties + c1.blocks), c2
    return c1, Chain(empties + c2.blocks)


def _zip_blocks(c1: Chain, c2: Chain) -> Chain:
    return Chain(
        tuple(Block(b1.transfers + b2.transfers) for b1, b2 in zip(c1.blocks, c2.blocks))
    )


def compose_verify(c1: Chain, c2: Chain) -> Chain:
    """Zip two chains after verifying their address spaces are isolated.

    Raises :class:`IsolationError` naming every shared address otherwise.
    """
    c1, c2 = _padded(c1, c2)
    shared = addresses(c1) & addresses(c2)
    if shared:
        raise IsolationError(shared)
    return _zip_blocks(c1, c2)


class RewireResult(sx.Node):
    __slots__ = {"chain": sx.DATA, "left_map": sx.DATA, "right_map": sx.DATA}

    def left_dict(self) -> dict[sx.Address, sx.Address]:
        return dict(self.left_map)

    def right_dict(self) -> dict[sx.Address, sx.Address]:
        return dict(self.right_map)


def _prefix_chain(chain: Chain, tag: str) -> tuple[Chain, tuple[tuple[sx.Address, sx.Address], ...]]:
    mapping = {a: sx.Address(tag + a.name) for a in sorted(addresses(chain))}
    # Renaming keeps every transfer valid: only its addresses change, and
    # the mapping is injective onto plain names.
    rewired = Chain(
        tuple(
            Block(
                tuple(
                    Transfer.trusted(mapping[t.source], mapping[t.target], t.amount, t.unit)
                    for t in block.transfers
                )
            )
            for block in chain.blocks
        )
    )
    return rewired, tuple(sorted(mapping.items()))


def compose_rewire(c1: Chain, c2: Chain) -> RewireResult:
    """Zip two chains after forcing isolation by prefixing the first
    chain's addresses with "0" and the second's with "1"."""
    c1, c2 = _padded(c1, c2)
    left, left_map = _prefix_chain(c1, "0")
    right, right_map = _prefix_chain(c2, "1")
    return RewireResult(_zip_blocks(left, right), left_map, right_map)


# ---------------------------------------------------------------------------
# JSON round trip

# The fixed layout json.dumps(payload, indent=2, sort_keys=True) gives a
# chain, written directly: the indenting encoder is CPython's pure-Python
# one, which costs several times more than this per transfer.
_TRANSFER_JSON = (
    '        {\n'
    '          "amount": %d,\n'
    '          "from": %s,\n'
    '          "to": %s,\n'
    '          "unit": %s\n'
    '        }'
)


def _json_list(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def chain_to_json(chain: Chain) -> str:
    """The chain as JSON with sorted keys and two-space indent, byte for
    byte what ``json.dumps(..., indent=2, sort_keys=True)`` writes."""
    quote = encode_basestring_ascii
    blocks = []
    for block in chain.blocks:
        # A transfer's addresses carry no freshness path: name is render().
        transfers = [
            _TRANSFER_JSON % (t.amount, quote(t.source.name), quote(t.target.name), quote(t.unit))
            for t in block.transfers
        ]
        blocks.append('    {\n      "transfers": ' + _json_list(transfers, "      ") + "\n    }")
    return '{\n  "blocks": ' + _json_list(blocks, "  ") + "\n}\n"


_TRANSFER_FIELDS = itemgetter("from", "to", "amount", "unit")


def _transfer_fields(raw) -> tuple:
    """The from, to, amount and unit of a decoded transfer object."""
    if not isinstance(raw, dict):
        raise ValueError(f"a transfer must be an object, not {type(raw).__name__}")
    try:
        fields = _TRANSFER_FIELDS(raw)
    except KeyError as err:
        raise ValueError(f"a transfer needs a {err} field") from None
    source, target, _, unit = fields
    if not (type(source) is str and type(target) is str and type(unit) is str):
        # The usual case takes one test; this names the first field at fault.
        for key, value in (("from", source), ("to", target), ("unit", unit)):
            if not isinstance(value, str):
                raise ValueError(f"transfer field {key!r} must be a string, not {type(value).__name__}")
    return fields


# Arrays and objects nest at most this deep in a chain file; a chain
# nests five levels. The JSON decoder recurses once per level and has no
# depth setting, so deeper input is refused before it runs.
MAX_JSON_NESTING = 100
_NOT_BRACKETS = bytes(b for b in range(256) if b not in b"[]{}")
_SQUARE = bytes.maketrans(b"{}", b"[]")


def _check_nesting(text: str) -> None:
    """Raise :class:`LimitError` when ``text`` may nest deeper than
    ``MAX_JSON_NESTING``: keep only its brackets, inside strings too, all
    made square, and delete every innermost ``[]``, one level per pass. An
    opening bracket left unmatched counts as one more level."""
    brackets = text.encode("ascii", "ignore").translate(_SQUARE, _NOT_BRACKETS)
    depth = 0
    while depth <= MAX_JSON_NESTING and b"[]" in brackets:
        brackets = brackets.replace(b"[]", b"")
        depth += 1
    if depth + brackets.count(b"[") > MAX_JSON_NESTING:
        raise LimitError(f"chain JSON nests deeper than {MAX_JSON_NESTING} levels")


def chain_from_json(text: str) -> Chain:
    """Load a chain. Input nested deeper than ``MAX_JSON_NESTING`` raises
    :class:`LimitError`; anything else that is not a valid chain raises
    ValueError, naming the block and transfer index when it lies inside
    one. Each distinct address name and unit is validated once per call,
    and equal addresses are one object; a transfer is then built after
    the checks that depend on it alone, in the order and with the
    messages of the checking ``Transfer`` constructor."""
    _check_nesting(text)
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("blocks"), list):
        raise ValueError("chain JSON must be an object with a 'blocks' array")
    address = sx.Interned()
    units: set[str] = set()
    blocks = []
    for i, raw_block in enumerate(payload["blocks"]):
        if not isinstance(raw_block, dict):
            raise ValueError(f"block {i}: a block must be an object, not {type(raw_block).__name__}")
        raw_transfers = raw_block.get("transfers", [])
        if not isinstance(raw_transfers, list):
            raise ValueError(f"block {i}: 'transfers' must be an array")
        transfers = []
        for j, raw in enumerate(raw_transfers):
            try:
                source, target, amount, unit = _transfer_fields(raw)
                source, target = address[source], address[target]
                if source is target or type(amount) is not int or amount <= 0:
                    Transfer(source, target, amount, unit)  # raises the constructor's error
                if unit not in units:
                    check_unit(unit)
                    units.add(unit)
                transfers.append(Transfer.trusted(source, target, amount, unit))
            except ValueError as err:
                raise ValueError(f"block {i}, transfer {j}: {err}") from None
        blocks.append(Block(tuple(transfers)))
    return Chain(tuple(blocks))


def load_chain(path: str) -> Chain:
    with open(path, "r", encoding="utf-8") as handle:
        return chain_from_json(handle.read())


# ---------------------------------------------------------------------------
# Bridge into the scripting calculus

def chain_to_program(chain: Chain) -> sx.Program:
    """Encode a chain as a program assigning each transfer's amount to its
    recipient, genesis-style: the interface lists the receiving addresses
    and each transfer becomes one pending assignment. Syntax nodes are
    immutable values, so each recipient is one node, shared by the interface
    and its assignments, and transfers of equal amount and unit share one
    literal."""
    literals: dict[tuple[int, str], sx.Expression] = {}
    recipients: dict[sx.Address, sx.Addr] = {}
    interface = []
    pending = []
    for block in chain.blocks:
        for t in block.transfers:
            key = (t.amount, t.unit)
            literal = literals.get(key)
            if literal is None:
                literal = literals[key] = sx.amount_literal(t.amount, t.unit)
            recipient = recipients.get(t.target)
            if recipient is None:
                recipient = recipients[t.target] = sx.Addr(t.target)
            interface.append(recipient)
            pending.append(sx.Transaction(recipient, literal))
    return sx.Program(tuple(interface), tuple(pending))

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
from dataclasses import dataclass

from . import syntax as sx
from .errors import HeightMismatch, IsolationError
from .units import is_valid_unit


@dataclass(frozen=True)
class Transfer:
    source: sx.Address
    target: sx.Address
    amount: int
    unit: str

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("a transfer must move funds between distinct addresses")
        if not isinstance(self.amount, int) or self.amount <= 0:
            raise ValueError(f"transfer amount must be a positive integer: {self.amount!r}")
        if not is_valid_unit(self.unit):
            raise ValueError(f"invalid currency unit token: {self.unit!r}")
        if self.source.path or self.target.path:
            raise ValueError("chain addresses are plain names without freshness marks")


@dataclass(frozen=True)
class Block:
    transfers: tuple[Transfer, ...]


@dataclass(frozen=True)
class Chain:
    """Blocks ordered newest first (height N down to genesis)."""

    blocks: tuple[Block, ...]

    @property
    def height(self) -> int:
        return len(self.blocks)


def addresses(value: Chain | Block) -> frozenset[sx.Address]:
    if isinstance(value, Block):
        out = set()
        for t in value.transfers:
            out.add(t.source)
            out.add(t.target)
        return frozenset(out)
    result: set[sx.Address] = set()
    for block in value.blocks:
        result |= addresses(block)
    return frozenset(result)


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
    return all(
        not (addresses(b1) & addresses(b2)) for b1, b2 in zip(c1.blocks, c2.blocks)
    )


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


@dataclass(frozen=True)
class RewireResult:
    chain: Chain
    left_map: tuple[tuple[sx.Address, sx.Address], ...]
    right_map: tuple[tuple[sx.Address, sx.Address], ...]

    def left_dict(self) -> dict[sx.Address, sx.Address]:
        return dict(self.left_map)

    def right_dict(self) -> dict[sx.Address, sx.Address]:
        return dict(self.right_map)


def _prefix_chain(chain: Chain, tag: str) -> tuple[Chain, tuple[tuple[sx.Address, sx.Address], ...]]:
    mapping = {a: sx.Address(tag + a.name) for a in sorted(addresses(chain))}
    rewired = Chain(
        tuple(
            Block(
                tuple(
                    Transfer(mapping[t.source], mapping[t.target], t.amount, t.unit)
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

def chain_to_json(chain: Chain) -> str:
    payload = {
        "blocks": [
            {
                "transfers": [
                    {
                        "from": t.source.render(),
                        "to": t.target.render(),
                        "amount": t.amount,
                        "unit": t.unit,
                    }
                    for t in block.transfers
                ]
            }
            for block in chain.blocks
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def chain_from_json(text: str) -> Chain:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "blocks" not in payload:
        raise ValueError("chain JSON must be an object with a 'blocks' array")
    blocks = []
    for raw_block in payload["blocks"]:
        transfers = []
        for raw in raw_block.get("transfers", ()):
            transfers.append(
                Transfer(
                    sx.Address(raw["from"]),
                    sx.Address(raw["to"]),
                    raw["amount"],
                    raw["unit"],
                )
            )
        blocks.append(Block(tuple(transfers)))
    return Chain(tuple(blocks))


def load_chain(path: str) -> Chain:
    with open(path, "r", encoding="utf-8") as handle:
        return chain_from_json(handle.read())


# ---------------------------------------------------------------------------
# Bridge into the scripting calculus

def _amount_chain(amount: int, unit: str) -> sx.Expression:
    expr: sx.Expression = sx.Unit(unit)
    for _ in range(amount - 1):
        expr = sx.Iso(expr, sx.Unit(unit))
    return expr


def chain_to_program(chain: Chain) -> sx.Program:
    """Encode a chain as a program assigning each transfer's amount to its
    recipient, genesis-style: the interface lists the receiving addresses
    and each transfer becomes one pending assignment."""
    interface = []
    pending = []
    for block in chain.blocks:
        for t in block.transfers:
            interface.append(sx.Addr(t.target))
            pending.append(sx.Transaction(sx.Addr(t.target), _amount_chain(t.amount, t.unit)))
    return sx.Program(tuple(interface), tuple(pending))

"""Chain composition: isolation, zipping, rewiring, JSON, and the bridge
into the scripting calculus."""
import hashlib
import json
import random
import re
import runpy
from collections import Counter

import pytest

import llbc
from llbc import chains as ch
from llbc import parser
from llbc import reduce as rd
from llbc import syntax as sx
from llbc import units
from llbc.errors import HeightMismatch, IsolationError, LimitError, NotInLedgerForm
from llbc.generate import ChainGenerator

from helpers import DEMOS, count_calls

A = sx.Address


def transfer(source, target, amount, unit="btc"):
    return ch.Transfer(A(source), A(target), amount, unit)


def reference_json(chain):
    """The chain file as the standard library's indenting encoder writes it."""
    payload = {
        "blocks": [
            {
                "transfers": [
                    {"from": t.source.render(), "to": t.target.render(), "amount": t.amount, "unit": t.unit}
                    for t in block.transfers
                ]
            }
            for block in chain.blocks
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_VALID = {"from": "a", "to": "b", "amount": 1, "unit": "btc"}


def _changed(**changes):
    """The valid transfer object with fields changed; ``...`` drops one."""
    raw = {**_VALID, **changes}
    return {key: value for key, value in raw.items() if value is not ...}


# Every check of a loaded transfer, in order, with its exact message, as
# the loader gave them when it built each transfer through the checking
# constructor. A transfer's fields are checked first, then the name of
# ``from``, the name of ``to``, distinctness, the amount and the unit.
_LOADER_ERRORS = [
    ([5], "block 1, transfer 0: a transfer must be an object, not int"),
    (["a"], "block 1, transfer 0: a transfer must be an object, not str"),
    ([None], "block 1, transfer 0: a transfer must be an object, not NoneType"),
    ([_changed(unit=...)], "block 1, transfer 0: a transfer needs a 'unit' field"),
    ([_changed(**{"from": ...})], "block 1, transfer 0: a transfer needs a 'from' field"),
    ([_changed(to=..., amount=...)], "block 1, transfer 0: a transfer needs a 'to' field"),
    ([_changed(**{"from": 7})], "block 1, transfer 0: transfer field 'from' must be a string, not int"),
    ([_changed(to=["b"])], "block 1, transfer 0: transfer field 'to' must be a string, not list"),
    ([_changed(unit=1)], "block 1, transfer 0: transfer field 'unit' must be a string, not int"),
    ([_changed(**{"from": "12", "to": "12"})], "block 1, transfer 0: invalid address name: '12'"),
    ([_changed(**{"from": "a-b"})], "block 1, transfer 0: invalid address name: 'a-b'"),
    ([_changed(to="1")], "block 1, transfer 0: invalid address name: '1'"),
    ([_changed(to="a")], "block 1, transfer 0: a transfer must move funds between distinct addresses"),
    ([_changed(to="a", amount=0)], "block 1, transfer 0: a transfer must move funds between distinct addresses"),
    ([_changed(amount=True)], "block 1, transfer 0: transfer amount must be a positive integer: True"),
    ([_changed(amount=1.0)], "block 1, transfer 0: transfer amount must be a positive integer: 1.0"),
    ([_changed(amount=0)], "block 1, transfer 0: transfer amount must be a positive integer: 0"),
    ([_changed(amount=-3)], "block 1, transfer 0: transfer amount must be a positive integer: -3"),
    ([_changed(amount="1")], "block 1, transfer 0: transfer amount must be a positive integer: '1'"),
    ([_changed(amount=None)], "block 1, transfer 0: transfer amount must be a positive integer: None"),
    ([_changed(unit="b-t-c")], "block 1, transfer 0: invalid currency unit token: 'b-t-c'"),
    ([_changed(unit="")], "block 1, transfer 0: invalid currency unit token: ''"),
    ([_changed(unit="12", amount=0)], "block 1, transfer 0: transfer amount must be a positive integer: 0"),
    ([_changed(memo="x")], None),
    ([_VALID, _VALID, _changed(unit="no way")], "block 1, transfer 2: invalid currency unit token: 'no way'"),
    (
        [_VALID, _changed(unit="satoshi"), _changed(to="a")],
        "block 1, transfer 2: a transfer must move funds between distinct addresses",
    ),
    ([_changed(unit="_")], "block 1, transfer 0: invalid currency unit token: '_'"),
    ([_changed(unit="txn")], "block 1, transfer 0: invalid currency unit token: 'txn'"),
    ([_changed(unit="choose")], "block 1, transfer 0: invalid currency unit token: 'choose'"),
    ([_changed(unit="inl")], "block 1, transfer 0: invalid currency unit token: 'inl'"),
    ([_changed(unit="inr")], "block 1, transfer 0: invalid currency unit token: 'inr'"),
    *(
        ([_changed(**{field: word})], f"block 1, transfer 0: invalid address name: {word!r}")
        for field in ("from", "to")
        for word in ("_", "txn", "choose", "inl", "inr")
    ),
    # Field values that cannot key a table, after block 0 has made the
    # names a and b and the unit btc known.
    ([_changed(unit=["btc"])], "block 1, transfer 0: transfer field 'unit' must be a string, not list"),
    ([_changed(unit={"x": 1})], "block 1, transfer 0: transfer field 'unit' must be a string, not dict"),
    ([_changed(amount=[1])], "block 1, transfer 0: transfer amount must be a positive integer: [1]"),
    ([_changed(**{"from": ["a"]})], "block 1, transfer 0: transfer field 'from' must be a string, not list"),
    ([_changed(to={})], "block 1, transfer 0: transfer field 'to' must be a string, not dict"),
]


def _ledger_programs():
    """``chain_to_program`` of generated chains, each followed by a copy
    with extra transactions in shuffled order: shared literals burned on
    either side, recipients disposed, sides swapped and a literal of two
    units assigned, plus an address that is only disposed."""
    rng = random.Random(11)
    mixed = sx.Iso(sx.Unit("btc"), sx.Iso(sx.Unit("satoshi"), sx.Unit("btc")))
    for seed in range(6):
        program = ch.chain_to_program(ChainGenerator(seed).chain(40 + 30 * seed, transfers_per_block=3))
        yield program
        pending = list(program.pending)
        for txn in program.pending:
            roll = rng.randrange(6)
            if roll == 0:
                pending.append(sx.Transaction(sx.Dispose(), txn.right))
            elif roll == 1:
                pending.append(sx.Transaction(txn.right, sx.Dispose()))
            elif roll == 2:
                pending.append(sx.Transaction(txn.left, sx.Dispose()))
            elif roll == 3:
                pending.append(sx.Transaction(txn.right, txn.left))
            elif roll == 4:
                pending.append(sx.Transaction(txn.left, mixed))
        pending.append(sx.Transaction(sx.Addr(A(f"idle{seed}")), sx.Dispose()))
        pending.append(sx.Transaction(sx.Dispose(), mixed))
        rng.shuffle(pending)
        yield sx.Program(program.interface, tuple(pending))


# sha256 of the ledgers' reprs, one a line, from the read-back that
# updated a Counter once per transaction.
_LEDGER_DIGEST = "f54cd85bbfc389e778119adea1f851556ea910ac0c81c54849e41f6b7b217ab5"


@pytest.fixture
def safe_pair():
    c1 = ch.Chain(
        (
            ch.Block((transfer("1AliceAddr", "1AllanAddr", 5),)),
            ch.Block((transfer("2BobAddr", "2BettyAddr", 7),)),
        )
    )
    c2 = ch.Chain(
        (
            ch.Block((transfer("1BobAddr", "1BettyAddr", 7),)),
            ch.Block((transfer("2AliceAddr", "2AllanAddr", 5),)),
        )
    )
    return c1, c2


@pytest.fixture
def counterexample_pair():
    c1 = ch.Chain(
        (
            ch.Block((transfer("1AliceAddr", "1AllanAddr", 5),)),
            ch.Block((transfer("1BobAddr", "1BettyAddr", 7),)),
        )
    )
    c2 = ch.Chain(
        (
            ch.Block((transfer("1BobAddr", "1BettyAddr", 7),)),
            ch.Block((transfer("1AliceAddr", "1AllanAddr", 5),)),
        )
    )
    return c1, c2


class TestAddresses:
    def test_safe_first_chain(self, safe_pair):
        c1, _ = safe_pair
        assert ch.addresses(c1) == {
            A("1AliceAddr"),
            A("1AllanAddr"),
            A("2BobAddr"),
            A("2BettyAddr"),
        }

    def test_empty_chain(self):
        assert ch.addresses(ch.Chain(())) == frozenset()

    def test_order_insensitive(self, safe_pair):
        c1, _ = safe_pair
        reversed_chain = ch.Chain(tuple(reversed(c1.blocks)))
        assert ch.addresses(reversed_chain) == ch.addresses(c1)


class TestIsolation:
    def test_safe_pair_isolated(self, safe_pair):
        assert ch.isolated(*safe_pair)

    def test_counterexample_not_isolated(self, counterexample_pair):
        assert not ch.isolated(*counterexample_pair)

    def test_empty_chain_isolated_from_anything(self, safe_pair):
        assert ch.isolated(safe_pair[0], ch.Chain(()))

    def test_counterexample_is_blockwise_isolated(self, counterexample_pair):
        # The weak check passes exactly where the strong one fails.
        assert ch.blockwise_isolated(*counterexample_pair)
        assert not ch.isolated(*counterexample_pair)

    def test_safe_pair_blockwise(self, safe_pair):
        assert ch.blockwise_isolated(*safe_pair)

    def test_shared_address_at_equal_height(self):
        c1 = ch.Chain((ch.Block((transfer("a", "b", 1),)),))
        c2 = ch.Chain((ch.Block((transfer("a", "c", 1),)),))
        assert not ch.blockwise_isolated(c1, c2)

    def test_blockwise_needs_equal_heights(self, safe_pair):
        c1, _ = safe_pair
        with pytest.raises(HeightMismatch):
            ch.blockwise_isolated(c1, ch.Chain(c1.blocks[:1]))

    def test_isolated_implies_blockwise(self):
        generator = ChainGenerator(seed=10)
        witnessed_strict = False
        for i in range(200):
            c1 = generator.chain(3, prefix=f"a{i}_")
            c2 = generator.chain(3, prefix=f"b{i}_")
            if ch.isolated(c1, c2):
                assert ch.blockwise_isolated(c1, c2)
        # and the converse fails on the counterexample family
        cex1 = ch.Chain(
            (
                ch.Block((transfer("p", "q", 1),)),
                ch.Block((transfer("r", "s", 1),)),
            )
        )
        cex2 = ch.Chain(
            (
                ch.Block((transfer("r", "s", 1),)),
                ch.Block((transfer("p", "q", 1),)),
            )
        )
        assert ch.blockwise_isolated(cex1, cex2) and not ch.isolated(cex1, cex2)


class TestComposeVerify:
    def test_safe_pair_zips(self, safe_pair):
        combined = ch.compose_verify(*safe_pair)
        assert combined.height == 2
        assert combined.blocks[0].transfers == (
            transfer("1AliceAddr", "1AllanAddr", 5),
            transfer("1BobAddr", "1BettyAddr", 7),
        )
        assert combined.blocks[1].transfers == (
            transfer("2BobAddr", "2BettyAddr", 7),
            transfer("2AliceAddr", "2AllanAddr", 5),
        )

    def test_counterexample_rejected_naming_all_shared(self, counterexample_pair):
        with pytest.raises(IsolationError) as err:
            ch.compose_verify(*counterexample_pair)
        assert err.value.shared == {
            A("1AliceAddr"),
            A("1AllanAddr"),
            A("1BobAddr"),
            A("1BettyAddr"),
        }

    def test_empty_identity(self, safe_pair):
        c1, _ = safe_pair
        padded_empty = ch.Chain((ch.Block(()), ch.Block(())))
        assert ch.compose_verify(c1, padded_empty) == c1

    def test_unequal_heights_pad_at_newest_end(self, safe_pair):
        c1, _ = safe_pair
        shorter = ch.Chain((ch.Block((transfer("zX", "zY", 1),)),))
        combined = ch.compose_verify(c1, shorter)
        assert combined.height == 2
        # the shorter chain's single block aligns at the genesis end
        assert transfer("zX", "zY", 1) in combined.blocks[1].transfers
        assert combined.blocks[0].transfers == c1.blocks[0].transfers

    def test_transfer_conservation(self, safe_pair):
        combined = ch.compose_verify(*safe_pair)
        total = sum(len(b.transfers) for b in combined.blocks)
        assert total == sum(
            len(b.transfers) for c in safe_pair for b in c.blocks
        )

    def test_commutative_up_to_block_reordering(self, safe_pair):
        ab = ch.compose_verify(*safe_pair)
        ba = ch.compose_verify(safe_pair[1], safe_pair[0])
        for block_ab, block_ba in zip(ab.blocks, ba.blocks):
            assert sorted(map(repr, block_ab.transfers)) == sorted(
                map(repr, block_ba.transfers)
            )

    def test_associative_on_isolated_triples(self):
        generator = ChainGenerator(seed=20)
        for i in range(50):
            a, b, c = generator.isolated_chains(3, height=2)
            left = ch.compose_verify(ch.compose_verify(a, b), c)
            right = ch.compose_verify(a, ch.compose_verify(b, c))
            assert left == right


class TestComposeRewire:
    def test_counterexample_becomes_safe(self, counterexample_pair):
        rewired = ch.compose_rewire(*counterexample_pair)
        chain = rewired.chain
        assert chain.blocks[0].transfers == (
            transfer("01AliceAddr", "01AllanAddr", 5),
            transfer("11BobAddr", "11BettyAddr", 7),
        )
        assert chain.blocks[1].transfers == (
            transfer("01BobAddr", "01BettyAddr", 7),
            transfer("11AliceAddr", "11AllanAddr", 5),
        )

    def test_images_are_isolated(self, counterexample_pair):
        rewired = ch.compose_rewire(*counterexample_pair)
        left_image = set(rewired.left_dict().values())
        right_image = set(rewired.right_dict().values())
        assert not (left_image & right_image)

    def test_prefixing_injective(self, counterexample_pair):
        rewired = ch.compose_rewire(*counterexample_pair)
        for mapping in (rewired.left_dict(), rewired.right_dict()):
            assert len(set(mapping.values())) == len(mapping)

    def test_agrees_with_verify_on_isolated_inputs(self, safe_pair):
        # Oracle: invert the rewiring map and compare against plain zip.
        rewired = ch.compose_rewire(*safe_pair)
        inverse = {v: k for mapping in (rewired.left_dict(), rewired.right_dict())
                   for k, v in mapping.items()}
        undone = ch.Chain(
            tuple(
                ch.Block(
                    tuple(
                        ch.Transfer(inverse[t.source], inverse[t.target], t.amount, t.unit)
                        for t in block.transfers
                    )
                )
                for block in rewired.chain.blocks
            )
        )
        assert undone == ch.compose_verify(*safe_pair)

    @pytest.mark.parametrize("pair", ["demos", "generated"])
    def test_rewired_transfers_pass_the_checks(self, pair):
        # compose_rewire builds its transfers without re-running Transfer's
        # checks; rebuilding each through the checking constructor must
        # succeed and give the same chain.
        if pair == "demos":
            chains = [ch.load_chain(str(DEMOS / f"cex{i}.json")) for i in (1, 2)]
        else:
            # Two generators with one seed draw the same address names.
            chains = [ChainGenerator(seed=40).chain(60), ChainGenerator(seed=40).chain(45)]
            assert not ch.isolated(*chains)
        rewired = ch.compose_rewire(*chains).chain
        checked = ch.Chain(
            tuple(
                ch.Block(tuple(ch.Transfer(t.source, t.target, t.amount, t.unit) for t in block.transfers))
                for block in rewired.blocks
            )
        )
        assert checked == rewired
        assert sum(len(b.transfers) for b in rewired.blocks) == sum(
            len(b.transfers) for c in chains for b in c.blocks
        )

    def test_never_raises_on_shared_addresses(self):
        generator = ChainGenerator(seed=30)
        for i in range(100):
            c1 = generator.chain(2, prefix="shared_")
            # reversing the block order re-uses the same addresses, the
            # heart of the counterexample family
            c2 = ch.Chain(tuple(reversed(c1.blocks)))
            assert not ch.isolated(c1, c2)
            rewired = ch.compose_rewire(c1, c2)
            left = {a for a in ch.addresses(rewired.chain) if a.name.startswith("0")}
            right = {a for a in ch.addresses(rewired.chain) if a.name.startswith("1")}
            assert not (left & right)


def _ways(chain):
    """``chain`` made five ways: as given, loaded from its JSON, rebuilt
    through the checking constructors from fresh addresses, copied with
    ``replace`` and composed with the empty chain. Loading and composing
    attach the address set their maker knew; the other copies work it out
    on first use."""
    built = ch.Chain(
        tuple(
            ch.Block(tuple(ch.Transfer(A(t.source.name), A(t.target.name), t.amount, t.unit) for t in block.transfers))
            for block in chain.blocks
        )
    )
    return [
        chain,
        ch.chain_from_json(ch.chain_to_json(chain)),
        built,
        chain.replace(blocks=chain.blocks),
        ch.compose_verify(chain, ch.Chain(())),
    ]


def _outcomes(x, y) -> list:
    """What the chain layer says of ``x`` alone and of ``x`` beside ``y``."""
    program = ch.chain_to_program(x)
    out = [ch.addresses(x), ch.chain_to_json(x), program, rd.readback_ledger(program)]
    out += [ch.isolated(x, y), ch.blockwise_isolated(x, y)]
    try:
        out.append(ch.chain_to_json(ch.compose_verify(x, y)))
    except IsolationError as err:
        out.append(err.shared)
    rewired = ch.compose_rewire(x, y)
    out += [rewired.left_map, rewired.right_map, ch.chain_to_json(rewired.chain), ch.addresses(rewired.chain)]
    return out


class TestAddressSets:
    """A chain keeps its address set outside its fields: chains loaded,
    built, copied and composed agree on everything the chain layer
    computes, and the set never shows in equality, hash or repr."""

    @pytest.mark.parametrize("height", [0, 1, 17, 120])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_way_of_making_a_chain_agrees(self, seed, height):
        generator = ChainGenerator(seed, units=("btc", "satoshi", "unit_7"))
        left, right, third = (generator.chain(height, 1 + seed % 3, prefix=p) for p in ("l", "r", "z"))
        sharing = ChainGenerator(seed + 50).chain(height, prefix="l")
        cases = [
            left,
            right,
            sharing,
            ch.compose_verify(ch.compose_verify(left, right), third),
            ch.compose_rewire(ch.compose_rewire(left, sharing).chain, right).chain,
        ]
        ways = [_ways(chain) for chain in cases]
        for k, (chain, made) in enumerate(zip(cases, ways)):
            expected = frozenset(a for block in chain.blocks for t in block.transfers for a in (t.source, t.target))
            assert all(ch.addresses(x) == expected for x in made)
            assert all(x == chain and hash(x) == hash(chain) and repr(x) == repr(chain) for x in made)
            for partners in (made, ways[(k + 1) % len(cases)]):
                # Way j of x meets way j + 1 of its partner.
                first = _outcomes(made[0], partners[0])
                for j, x in enumerate(made):
                    assert _outcomes(x, partners[(j + 1) % len(partners)]) == first

    def test_the_set_is_not_a_field(self):
        loaded = ch.chain_from_json('{"blocks": [{"transfers": [{"from": "a", "to": "b", "amount": 1, "unit": "btc"}]}]}')
        built = ch.Chain((ch.Block((transfer("a", "b", 1),)),))
        assert ch.Chain.__match_args__ == ("blocks",)
        assert repr(loaded) == repr(built) == f"Chain(blocks={built.blocks!r})"
        assert loaded == built and hash(loaded) == hash(built)
        assert ch.addresses(loaded) == ch.addresses(built) == {A("a"), A("b")}
        with pytest.raises(AttributeError):
            loaded._addresses = frozenset()


class TestJson:
    def test_round_trip_values(self, safe_pair):
        for chain in safe_pair:
            assert ch.chain_from_json(ch.chain_to_json(chain)) == chain

    def test_round_trip_bytes(self, safe_pair):
        text = ch.chain_to_json(safe_pair[0])
        assert ch.chain_to_json(ch.chain_from_json(text)) == text

    def test_schema_shape(self, safe_pair):
        payload = json.loads(ch.chain_to_json(safe_pair[0]))
        assert set(payload) == {"blocks"}
        first = payload["blocks"][0]["transfers"][0]
        assert set(first) == {"from", "to", "amount", "unit"}

    def test_writer_matches_json_dumps(self):
        # The direct writer against the indenting encoder it replaces, on
        # chains with empty blocks, padding and rewired names.
        generator = ChainGenerator(seed=5)
        chains = [ch.Chain(()), ch.Chain((ch.Block(()),))]
        for i in range(60):
            width = 1 + i % 3
            left = generator.chain(i % 9, transfers_per_block=width, prefix=f"l{i}_")
            right = generator.chain((i * 7) % 13, transfers_per_block=width, prefix=f"r{i}_")
            leading = ch.Chain((ch.Block(()),) * (1 + i % 2) + left.blocks)
            chains += [
                left,
                leading,
                ch.compose_verify(left, right),
                ch.compose_rewire(left, left).chain,
                ch.compose_rewire(leading, right).chain,
            ]
        assert len(chains) >= 300
        for chain in chains:
            assert ch.chain_to_json(chain) == reference_json(chain)

    def test_demo_output_unchanged(self, capsys, monkeypatch):
        demo = str(DEMOS / "compose_chains.py")
        runpy.run_path(demo, run_name="__main__")
        written = capsys.readouterr().out
        monkeypatch.setattr(llbc, "chain_to_json", reference_json)
        runpy.run_path(demo, run_name="__main__")
        assert written == capsys.readouterr().out

    def test_loaded_addresses_are_interned(self):
        chain = ch.chain_from_json(ch.chain_to_json(ChainGenerator(seed=4).chain(20)))
        by_name = {}
        for block in chain.blocks:
            for t in block.transfers:
                for address in (t.source, t.target):
                    assert by_name.setdefault(address.name, address) is address
        assert len(by_name) < 40

    def test_bool_amount_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            transfer("a", "b", True)

    def test_freshness_path_rejected(self):
        with pytest.raises(ValueError, match="without freshness marks"):
            ch.Transfer(A("a", ("l",)), A("b"), 1, "btc")

    @pytest.mark.parametrize(
        "payload, msg",
        [
            ({"blocks": {}}, "'blocks' array"),
            ({"blocks": [{"transfers": {}}]}, "block 0: 'transfers' must be an array"),
            ({"blocks": [{}, {"transfers": [7]}]}, "block 1, transfer 0: a transfer must be an object, not int"),
            ({"blocks": [{"transfers": [{"to": "b", "amount": 1, "unit": "btc"}]}]}, "needs a 'from' field"),
            ({"blocks": [{"transfers": [{"from": "a", "to": "b", "amount": 1, "unit": 5}]}]}, "'unit' must be a string, not int"),
            ({"blocks": [{"transfers": [{"from": "a", "to": "b", "amount": "1", "unit": "btc"}]}]}, "positive integer: '1'"),
            ({"blocks": [{"transfers": [{"from": "a", "to": "b", "amount": True, "unit": "btc"}]}]}, "block 0, transfer 0: transfer amount must be a positive integer: True"),
            ({"blocks": [{"transfers": [{"from": "a b", "to": "b", "amount": 1, "unit": "btc"}]}]}, "invalid address name"),
        ],
    )
    def test_wrong_shape_names_its_place(self, payload, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            ch.chain_from_json(json.dumps(payload))

    @pytest.mark.parametrize("depth", [ch.MAX_JSON_NESTING, ch.MAX_JSON_NESTING + 1])
    def test_nesting_limit(self, depth):
        # ``depth`` levels: the outer object, then arrays.
        text = '{"blocks": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"
        if depth > ch.MAX_JSON_NESTING:
            with pytest.raises(LimitError, match="nests deeper than"):
                ch.chain_from_json(text)
        else:
            with pytest.raises(ValueError, match="a block must be an object, not list"):
                ch.chain_from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"blocks": [], "x": "' + "[" * 101 + '"}',  # brackets in strings count
            "[" * 60 + "{" * 60,  # unclosed brackets count as levels
        ],
    )
    def test_nesting_limit_counts_every_bracket(self, text):
        with pytest.raises(LimitError):
            ch.chain_from_json(text)

    def test_brackets_balanced_in_strings_are_harmless(self):
        chain = ch.chain_from_json('{"blocks": [], "note": "' + "[]" * 500 + '"}')
        assert chain == ch.Chain(())

    @pytest.mark.parametrize("transfers, msg", _LOADER_ERRORS)
    def test_loader_messages(self, transfers, msg):
        # The first block is valid, so every message names block 1.
        text = json.dumps({"blocks": [{"transfers": [_VALID]}, {"transfers": transfers}]})
        if msg is None:
            assert ch.chain_from_json(text).height == 2
        else:
            with pytest.raises(ValueError) as caught:
                ch.chain_from_json(text)
            assert str(caught.value) == msg

    def test_loaded_chain_equals_checked_rebuild(self):
        # The loader builds transfers without running Transfer's check;
        # rebuilding each one through the checking constructor, from fresh
        # addresses, must give the same chain.
        generator = ChainGenerator(seed=12, units=("btc", "satoshi", "doge", "unit_7"))
        chains = [generator.chain(i * 7, transfers_per_block=1 + i % 3, prefix=f"p{i}_") for i in range(30)]
        chains += [ch.compose_rewire(chains[5], chains[9]).chain, ch.Chain((ch.Block(()),) * 3)]
        for chain in chains:
            loaded = ch.chain_from_json(ch.chain_to_json(chain))
            checked = ch.Chain(
                tuple(
                    ch.Block(
                        tuple(
                            ch.Transfer(A(t.source.name), A(t.target.name), t.amount, t.unit)
                            for t in block.transfers
                        )
                    )
                    for block in loaded.blocks
                )
            )
            assert loaded == checked == chain

    def test_validation(self):
        with pytest.raises(ValueError):
            ch.chain_from_json('{"blocks": [{"transfers": [{"from": "a", "to": "a", "amount": 1, "unit": "btc"}]}]}')
        with pytest.raises(ValueError):
            ch.chain_from_json('{"blocks": [{"transfers": [{"from": "a", "to": "b", "amount": 0, "unit": "btc"}]}]}')
        with pytest.raises(ValueError):
            ch.chain_from_json('[]')


class TestLoaderWork:
    """What loading a chain checks, counted through wrappers rather than
    timed: each distinct address name and unit is matched once, and
    Transfer's own check never runs."""

    def test_each_distinct_name_and_unit_is_matched_once(self, monkeypatch):
        chain = ChainGenerator(seed=8, units=("btc", "satoshi", "doge")).chain(300, transfers_per_block=3)
        text = ch.chain_to_json(chain)
        matched = []
        name_re = units.NAME_RE

        class Counting:
            def match(self, string):
                matched.append(string)
                return name_re.match(string)

        checks = []
        transfer_check = ch.Transfer._check

        def counting_check(self):
            checks.append(self)
            transfer_check(self)

        monkeypatch.setattr(units, "NAME_RE", Counting())
        monkeypatch.setattr(sx, "NAME_RE", Counting())
        monkeypatch.setattr(ch.Transfer, "_check", counting_check)
        loaded = ch.chain_from_json(text)
        names = {a.name for a in ch.addresses(loaded)}
        used_units = {t.unit for block in loaded.blocks for t in block.transfers}
        assert Counter(matched) == Counter(names) + Counter(used_units)
        assert len(matched) == len(names) + len(used_units) == len(names) + 3
        assert len(matched) * 20 < sum(len(block.transfers) for block in loaded.blocks)
        assert checks == []
        # The wrappers see what the checking constructor does.
        transfer("a", "b", 1)
        assert matched[-3:] == ["a", "b", "btc"] and len(checks) == 1

    def test_trusted_without_a_check_is_the_constructor(self):
        transfers = (transfer("a", "b", 2), transfer("b", "c", 3, "satoshi"))
        assert ch.Block.trusted is ch.Block and ch.Chain.trusted is ch.Chain
        for cls, values in (
            (ch.Block, (transfers,)),
            (ch.Chain, ((ch.Block(transfers), ch.Block(())),)),
            (sx.Addr, (A("a"),)),
            (sx.Iso, (sx.Unit("btc"), sx.Unit("satoshi"))),
        ):
            trusted, built = cls.trusted(*values), cls(*values)
            assert type(trusted) is cls and trusted == built
            assert repr(trusted) == repr(built)

    def test_trusted_with_a_check_skips_only_the_check(self):
        source, target = A("a"), A("b")
        assert ch.Transfer.trusted(source, target, 4, "btc") == ch.Transfer(source, target, 4, "btc")
        unchecked = ch.Transfer.trusted(source, source, 0, "no unit")
        assert (unchecked.source, unchecked.amount, unchecked.unit) == (source, 0, "no unit")
        assert sx.Address.trusted("x") == sx.Address("x") and sx.Address.trusted("x").path == ()


def _address_hashes(left, right) -> dict[str, int]:
    """``Address.__hash__`` calls made by each chain-layer call on a pair,
    composed by verify when isolated and else by rewire."""
    counts = {}
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, sx.Address, "__hash__")

        def counted(function, *args):
            before = len(calls)
            try:
                result = function(*args)
            except IsolationError:
                result = None
            counts[function.__name__] = len(calls) - before
            return result

        counted(ch.isolated, left, right)
        counted(ch.blockwise_isolated, left, right)
        combined = counted(ch.compose_verify, left, right)
        rewired = counted(ch.compose_rewire, left, right)
        program = counted(ch.chain_to_program, combined or rewired.chain)
        counted(rd.readback_ledger, program)
        counted(hash, A("probe"))
    assert counts.pop("hash") == 1  # the wrapper sees every call
    return counts


class TestChainLayerWork:
    """What the chain layer hashes, counted rather than timed: on loaded
    chains, a chain's address set and name-keyed tables leave no
    ``Address.__hash__`` call that grows with the number of transfers."""

    @pytest.mark.parametrize("shared", [False, True], ids=["isolated", "shared"])
    def test_address_hashes_do_not_grow_with_height(self, shared):
        counts = []
        for height in (500, 2000):
            if shared:
                left, right = ChainGenerator(1).chain(height), ChainGenerator(2).chain(height)
            else:
                generator = ChainGenerator(1)
                left, right = generator.chain(height, prefix="l"), generator.chain(height, prefix="r")
            left, right = (ch.chain_from_json(ch.chain_to_json(c)) for c in (left, right))
            assert ch.isolated(left, right) is not shared
            counts.append(_address_hashes(left, right))
        assert counts[0] == counts[1]


class TestBridge:
    def test_program_round_trips_through_text(self):
        # A loaded chain's program prints as a script that reads back as
        # the same program, with the chain's own units registered.
        chains = [
            ChainGenerator(seed, units=("btc", "satoshi", "unit_7")).chain(height, 1 + seed % 3)
            for seed in range(4)
            for height in (0, 1, 7, 25, 60)
        ]
        chains += [ch.chain_from_json(path.read_text()) for path in sorted(DEMOS.glob("*.json"))]
        assert len(chains) == 24
        for chain in chains:
            program = ch.chain_to_program(chain)
            used = {t.unit for block in chain.blocks for t in block.transfers}
            assert parser.parse_program(parser.render(program), units.DEFAULT_UNITS | used) == program

    def test_single_transfer(self):
        chain = ch.Chain((ch.Block((transfer("1AliceAddr", "1AllanAddr", 5),)),))
        program = ch.chain_to_program(chain)
        assert parser.render(program) == "(1AllanAddr){ txn(1AllanAddr, 5 . btc) }"

    def test_readback_matches_direct_fold(self, safe_pair):
        # Oracle: fold the transfers directly into balances.
        for chain in safe_pair:
            expected = {}
            for block in chain.blocks:
                for t in block.transfers:
                    expected.setdefault(t.target.render(), {})
                    expected[t.target.render()][t.unit] = (
                        expected[t.target.render()].get(t.unit, 0) + t.amount
                    )
            ledger = rd.readback_ledger(ch.chain_to_program(chain))
            assert ledger.to_json_dict()["balances"] == expected

    def test_composed_encoding_is_union(self, safe_pair):
        combined_program = ch.chain_to_program(ch.compose_verify(*safe_pair))
        parts = [ch.chain_to_program(c) for c in safe_pair]
        union_interface = sorted(
            parser.render(e) for p in parts for e in p.interface
        )
        union_pending = sorted(parser.render(t) for p in parts for t in p.pending)
        assert sorted(parser.render(e) for e in combined_program.interface) == union_interface
        assert sorted(parser.render(t) for t in combined_program.pending) == union_pending

    def test_deep_amount_round_trip(self):
        # The amount becomes a *-chain of literals as deep as the amount.
        chain = ch.Chain((ch.Block((transfer("a", "b", 100_000),)),))
        outcome = rd.normalize(ch.chain_to_program(chain))
        ledger = rd.readback_ledger(outcome.result)
        assert ledger.to_json_dict() == {"balances": {"b": {"btc": 100_000}}, "burned": {}}

    def test_literals_past_the_cap_are_refused_before_they_are_built(self, monkeypatch):
        built = count_calls(monkeypatch, sx, "amount_literal")
        chain = ch.Chain((ch.Block((transfer("a", "b", sx.MAX_LITERALS + 1),)),))
        with pytest.raises(LimitError, match=f"more than {sx.MAX_LITERALS} units"):
            ch.chain_to_program(chain)
        assert built == []
        assert parser.MAX_LITERALS is sx.MAX_LITERALS

    def test_the_cap_counts_each_distinct_literal_once(self):
        two = ch.Chain((ch.Block((transfer("a", "b", 60_000), transfer("c", "d", 60_000, "satoshi"))),))
        with pytest.raises(LimitError):
            ch.chain_to_program(two)
        many = ch.Chain(tuple(ch.Block((transfer("a", "b", 5),)) for _ in range(10_000)))
        program = ch.chain_to_program(many)
        assert len(program.pending) == 10_000 and len({id(txn) for txn in program.pending}) == 1
        assert rd.readback_ledger(program).to_json_dict()["balances"] == {"b": {"btc": 50_000}}

    def test_equal_assignments_share_one_transaction(self):
        chain = ChainGenerator(seed=5).chain(1000)
        program = ch.chain_to_program(chain)
        assignments = {(t.target.name, t.amount, t.unit) for block in chain.blocks for t in block.transfers}
        assert len({id(txn) for txn in program.pending}) == len(assignments) < len(program.pending) // 10
        assert all(entry is txn.left for entry, txn in zip(program.interface, program.pending))
        unshared = sx.Program(program.interface, tuple(sx.Transaction(t.left, t.right) for t in program.pending))
        assert program == unshared and parser.render(program) == parser.render(unshared)

    def test_accumulates_repeat_recipients(self):
        chain = ch.Chain(
            (
                ch.Block((transfer("a", "c", 2), transfer("b", "c", 3))),
            )
        )
        ledger = rd.readback_ledger(ch.chain_to_program(chain))
        assert ledger.to_json_dict()["balances"]["c"] == {"btc": 5}

    def test_equal_amounts_share_one_literal(self):
        chain = ChainGenerator(seed=3).chain(2000)
        program = ch.chain_to_program(chain)
        pairs = {(t.amount, t.unit) for block in chain.blocks for t in block.transfers}
        isos = set()
        for txn in program.pending:
            stack = [txn.right]
            while stack:
                node = stack.pop()
                if isinstance(node, sx.Iso) and id(node) not in isos:
                    isos.add(id(node))
                    stack += [node.left, node.right]
        total = sum(t.amount for block in chain.blocks for t in block.transfers)
        assert len(isos) == sum(amount - 1 for amount, _ in pairs)
        assert len(isos) * 50 < total
        assert len({id(txn.right) for txn in program.pending}) == len(pairs)

    def test_readback_digest(self):
        ledgers = [rd.readback_ledger(p) for p in _ledger_programs()]
        assert any(ledger.burned for ledger in ledgers)
        assert any(units == () for ledger in ledgers for _, units in ledger.balances)
        text = "\n".join(repr(ledger) for ledger in ledgers)
        assert hashlib.sha256(text.encode()).hexdigest() == _LEDGER_DIGEST

    def test_shared_literal_counts_once_per_transaction(self):
        literal = sx.Iso(sx.Unit("btc"), sx.Unit("btc"))
        program = sx.Program(
            (sx.Addr(A("a")), sx.Addr(A("b"))),
            (
                sx.Transaction(sx.Addr(A("a")), literal),
                sx.Transaction(literal, sx.Addr(A("b"))),
                sx.Transaction(sx.Addr(A("a")), literal),
                sx.Transaction(sx.Dispose(), literal),
                sx.Transaction(literal, sx.Dispose()),
            ),
        )
        assert rd.readback_ledger(program).to_json_dict() == {
            "balances": {"a": {"btc": 4}, "b": {"btc": 2}},
            "burned": {"btc": 4},
        }

    def test_repeated_transaction_out_of_ledger_form_names_its_first_place(self):
        bad = sx.Transaction(sx.Addr(A("a")), sx.Addr(A("b")))
        good = sx.Transaction(sx.Addr(A("c")), sx.Unit("btc"))
        program = sx.Program((sx.Addr(A("c")),), (good, bad, good, bad))
        with pytest.raises(NotInLedgerForm) as caught:
            rd.readback_ledger(program)
        assert caught.value.index == 1 and caught.value.transaction is bad

    def test_shared_transactions_normalize_like_unshared_ones(self):
        # The bridged assignments sit among transactions that do reduce, so
        # each trace line renders them; a copy of the program with one
        # transaction object per position must give the same lines.
        rng = random.Random("shared transactions")
        for seed in range(3):
            bridged = ch.chain_to_program(ChainGenerator(seed).chain(40))
            splits = parser.parse_program(
                "(" + " * ".join(f"o{k} * p{k}" for k in range(20)) + "){ "
                + "; ".join(f"txn({2 + k % 4} . btc, o{k} # p{k})" for k in range(20))
                + " }"
            )
            pending = [*bridged.pending, *splits.pending]
            rng.shuffle(pending)
            shared = sx.Program(bridged.interface + splits.interface, tuple(pending))
            unshared = shared.replace(pending=tuple(sx.Transaction(t.left, t.right) for t in pending))
            assert len({id(t) for t in shared.pending}) < len({id(t) for t in unshared.pending})
            runs = [rd.normalize(p, trace=True) for p in (shared, unshared)]
            lines = [[step.line() for step in run.trace] for run in runs]
            assert lines[0] == lines[1] and len(lines[0]) >= 20
            assert runs[0].result == runs[1].result
            assert rd.readback_ledger(runs[0].result) == rd.readback_ledger(runs[1].result)

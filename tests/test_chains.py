"""Chain composition: isolation, zipping, rewiring, JSON, and the bridge
into the scripting calculus."""
import json

import pytest

from llbc import chains as ch
from llbc import parser
from llbc import reduce as rd
from llbc import syntax as sx
from llbc.errors import HeightMismatch, IsolationError
from llbc.generate import ChainGenerator

A = sx.Address


def transfer(source, target, amount, unit="btc"):
    return ch.Transfer(A(source), A(target), amount, unit)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            ch.chain_from_json('{"blocks": [{"transfers": [{"from": "a", "to": "a", "amount": 1, "unit": "btc"}]}]}')
        with pytest.raises(ValueError):
            ch.chain_from_json('{"blocks": [{"transfers": [{"from": "a", "to": "b", "amount": 0, "unit": "btc"}]}]}')
        with pytest.raises(ValueError):
            ch.chain_from_json('[]')


class TestBridge:
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

    def test_accumulates_repeat_recipients(self):
        chain = ch.Chain(
            (
                ch.Block((transfer("a", "c", 2), transfer("b", "c", 3))),
            )
        )
        ledger = rd.readback_ledger(ch.chain_to_program(chain))
        assert ledger.to_json_dict()["balances"]["c"] == {"btc": 5}

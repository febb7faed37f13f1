"""Reduction rules, normalization, ledger read-back, and unit accounting."""
import pytest

from llbc import parser
from llbc import reduce as rd
from llbc import syntax as sx
from llbc import typecheck as tc
from llbc.errors import FuelExhausted, NotInLedgerForm
from llbc.generate import ProgramGenerator

from helpers import (
    SPEND_NORMAL_FORM,
    all_normal_forms,
    small_corpus,
    spend_example_m2,
    spend_program,
)


def pending(src):
    return parser.parse_program(src)


class TestFindRedexes:
    def test_transaction_mediator(self):
        p = pending("(a, b){ txn(a, x); txn(x, b) }")
        redexes = rd.find_redexes(p)
        assert redexes == [rd.Redex("Transaction", 0, 1)]

    def test_normal_form_has_none(self):
        p = pending("(x){ txn(x, satoshi) }")
        assert rd.find_redexes(p) == []

    def test_pair(self):
        p = pending("(){ txn(a * b, c # d) }")
        assert rd.find_redexes(p) == [rd.Redex("Pair", 0)]

    def test_pair_flipped_orientation(self):
        p = pending("(){ txn(c # d, a * b) }")
        assert rd.find_redexes(p) == [rd.Redex("Pair", 0)]

    def test_mediator_requires_two_occurrences(self):
        # x also sits in the interface, so fusing would be unsound.
        p = pending("(x){ txn(a, x); txn(x, b) }")
        kinds = {r.kind for r in rd.find_redexes(p)}
        assert "Transaction" not in kinds

    def test_self_loop_absorbable(self):
        p = pending("(x){ txn(x, x); txn(x, satoshi) }")
        assert rd.Redex("Transaction", 0, 1) in rd.find_redexes(p)

    def test_pair_over_two_addresses_is_one_redex(self):
        # Both a and b could mediate; the pair is still listed once.
        p = pending("(){ txn(a, b); txn(b, a) }")
        assert rd.find_redexes(p) == [rd.Redex("Transaction", 0, 1)]

    def test_leftmost_order(self):
        p = pending("(){ txn(a * b, c # d); txn(e, x); txn(x, f) }")
        redexes = rd.find_redexes(p)
        assert redexes[0] == rd.Redex("Pair", 0)
        assert redexes[1] == rd.Redex("Transaction", 1, 2)


class TestStepGolden:
    def test_transaction(self):
        p = pending("(a, b){ txn(a, x); txn(x, b) }")
        out = rd.step(p, rd.Redex("Transaction", 0, 1))
        assert parser.render(out) == "(a, b){ txn(a, b) }"

    def test_pair(self):
        p = pending("(){ txn(a * b, c # d) }")
        out = rd.step(p, rd.Redex("Pair", 0))
        assert parser.render(out) == "(){ txn(a, c); txn(b, d) }"

    def test_left_selection(self):
        p = pending(
            "(m){ txn(choose(m){ (satoshi, btc){ txn(x, doge); txn(x, doge^) };"
            " (satoshi^, btc){} }, inl(satoshi^)) }"
        )
        out = rd.step(p, rd.Redex("Left", 0))
        assert parser.render(out) == (
            "(m){ txn(satoshi, satoshi^); txn(x, doge); txn(x, doge^); txn(m, btc) }"
        )

    def test_right_selection(self):
        p = pending(
            "(m){ txn(choose(m){ (satoshi, btc){} ; (satoshi^, btc){} }, inr(satoshi)) }"
        )
        out = rd.step(p, rd.Redex("Right", 0))
        assert parser.render(out) == "(m){ txn(satoshi^, satoshi); txn(m, btc) }"

    def test_left_drops_placeholder(self):
        p = pending(
            "(){ txn(choose(spnd){ (satoshi){ txn(a, btc); txn(a, btc^) };"
            " (satoshi){} }, inl(satoshi^)) }"
        )
        out = rd.step(p, rd.Redex("Left", 0))
        # the placeholder binder vanishes; the branch body is inlined
        assert parser.render(out) == (
            "(){ txn(satoshi, satoshi^); txn(a, btc); txn(a, btc^) }"
        )

    def test_read_retains_body_transactions(self):
        p = pending(
            "(s){ txn(!(s){ (satoshi, ?btc){ txn(y, doge); txn(y, doge^) } },"
            " ?satoshi^) }"
        )
        out = rd.step(p, rd.Redex("Read", 0))
        assert parser.render(out) == (
            "(s){ txn(satoshi, satoshi^); txn(y, doge); txn(y, doge^); txn(s, ?btc) }"
        )

    def test_dispose_emits_one_txn_per_binder(self):
        p = pending("(s1, s2){ txn(!(s1, s2){ (satoshi, ?btc, ?doge){} }, _) }")
        out = rd.step(p, rd.Redex("Dispose", 0))
        assert parser.render(out) == "(s1, s2){ txn(s1, _); txn(s2, _) }"

    def test_copy_renames_both_boxes(self):
        p = pending("(s){ txn(!(s){ (satoshi, ?btc){} }, e1 @ e2) }")
        out = rd.step(p, rd.Redex("Copy", 0))
        assert parser.render(out) == (
            "(s){ txn(s, s.l @ s.r); "
            "txn(!(s.l){ (satoshi, ?btc){} }, e1); "
            "txn(!(s.r){ (satoshi, ?btc){} }, e2) }"
        )

    def test_left_with_menu_on_the_right(self):
        # A selection residue can place the menu on either side of a cut.
        p = pending("(){ txn(inl(satoshi^), choose(){ (satoshi){}; (btc){} }) }")
        assert rd.find_redexes(p) == [rd.Redex("Left", 0)]
        out = rd.step(p, rd.Redex("Left", 0))
        assert parser.render(out) == "(){ txn(satoshi, satoshi^) }"

    def test_read_with_box_on_the_right(self):
        p = pending("(){ txn(?satoshi^, !(){ (satoshi){} }) }")
        assert rd.find_redexes(p) == [rd.Redex("Read", 0)]
        out = rd.step(p, rd.Redex("Read", 0))
        assert parser.render(out) == "(){ txn(satoshi, satoshi^) }"

    def test_interface_never_changes(self):
        generator = ProgramGenerator(seed=5)
        for _ in range(40):
            program = generator.typed_program().program
            for redex in rd.find_redexes(program):
                stepped = rd.step(program, redex)
                assert stepped.interface == program.interface


class TestStepRejects:
    def test_transactions_sharing_an_address_used_four_times(self):
        # txn(a, x) and txn(x, b) share x, but x also sits twice in the
        # self-loop: only the loop's pairs are redexes.
        p = pending("(a, b){ txn(a, x); txn(x, b); txn(x, x) }")
        assert rd.find_redexes(p) == [rd.Redex("Transaction", 0, 2), rd.Redex("Transaction", 1, 2)]
        with pytest.raises(ValueError):
            rd.step(p, rd.Redex("Transaction", 0, 1))

    @pytest.mark.parametrize(
        "redex",
        [
            rd.Redex("Pair", 0),
            rd.Redex("Transaction", 0),
            rd.Redex("Transaction", 1, 0),
            rd.Redex("Transaction", 0, 2),
            rd.Redex("Left", 5),
        ],
    )
    def test_anything_not_listed(self, redex):
        p = pending("(a, b){ txn(a, x); txn(x, b) }")
        assert redex not in rd.find_redexes(p)
        with pytest.raises(ValueError):
            rd.step_with_effect(p, redex)


class TestNormalize:
    def test_worked_spend_example(self):
        result = rd.normalize(spend_program(), fuel=100)
        assert result.steps <= 100
        assert parser.render(result.result) == SPEND_NORMAL_FORM

    def test_normal_form_is_fixed_point(self):
        nf = rd.normalize(spend_program(), fuel=100).result
        again = rd.normalize(nf, fuel=100)
        assert again.steps == 0
        assert again.result == nf

    def test_deterministic(self):
        program = spend_program()
        first = rd.normalize(program, fuel=100, trace=True)
        second = rd.normalize(program, fuel=100, trace=True)
        assert first.result == second.result
        assert [t.line() for t in first.trace] == [t.line() for t in second.trace]

    def test_fuel_exhaustion_carries_state(self):
        with pytest.raises(FuelExhausted) as err:
            rd.normalize(spend_program(), fuel=2)
        assert err.value.steps == 2
        assert isinstance(err.value.state, sx.Program)
        assert rd.find_redexes(err.value.state)

    def test_negative_fuel_rejected(self):
        with pytest.raises(ValueError, match="fuel must be non-negative"):
            rd.normalize(spend_program(), fuel=-1)

    def test_trace_format(self):
        result = rd.normalize(spend_program(), fuel=100, trace=True)
        first = result.trace[0]
        assert first.line().startswith("1 Left 0 (bddr1 * bddr2 * addr3)")

    def test_m2_spend_all_orders_converge(self):
        # Oracle: exhaustive enumeration of every reduction order.
        normal_forms, _states = all_normal_forms(spend_example_m2())
        assert normal_forms
        base = normal_forms[0]
        for other in normal_forms[1:]:
            assert sx.alpha_equivalent(base, other)
        expected = parser.parse_program("(bddr1 * addr2){ txn(bddr1, satoshi); txn(addr2, satoshi) }")
        assert sx.alpha_equivalent(base, expected)


class TestAccounting:
    def test_pair_and_transaction_preserve_units(self):
        p = pending("(){ txn(2 . satoshi, x # y); txn(x, satoshi^); txn(y, satoshi^) }")
        before = sx.unit_multiset(p)
        result = rd.normalize(p, fuel=50)
        assert sx.unit_multiset(result.result) == before
        assert not result.burned and not result.discarded and not result.duplicated

    def test_left_discards_unselected_branch(self):
        result = rd.normalize(spend_program(), fuel=100)
        assert dict(result.discarded) == {}  # burn branch holds no units
        p = pending(
            "(){ txn(choose(){ (satoshi){}; (2 . btc){} }, inl(satoshi^)) }"
        )
        outcome = rd.normalize(p, fuel=50)
        assert dict(outcome.discarded) == {"btc": 2}

    def test_dispose_burns_box_units(self):
        p = pending("(){ txn(!(){ (3 . satoshi){} }, _) }")
        outcome = rd.normalize(p, fuel=50)
        assert dict(outcome.burned) == {"satoshi": 3}
        assert outcome.result == sx.Program((), ())

    def test_copy_duplicates_box_units(self):
        p = pending("(){ txn(!(){ (satoshi){} }, ?satoshi^ @ ?satoshi^) }")
        outcome = rd.normalize(p, fuel=50)
        assert dict(outcome.duplicated) == {"satoshi": 1}

    def test_accounting_identity_on_corpus(self):
        # deep-units(initial) - burned - discarded + duplicated == deep-units(final)
        generator = ProgramGenerator(seed=77)
        for _ in range(80):
            program = generator.typed_program().program
            before = sx.unit_multiset(program)
            outcome = rd.normalize(program, fuel=4 * sx.node_count(program) ** 2)
            expected = before.copy()
            expected.subtract(outcome.burned)
            expected.subtract(outcome.discarded)
            expected.update(outcome.duplicated)
            assert +expected == +sx.unit_multiset(outcome.result)


class TestLedger:
    def test_genesis_m3(self):
        genesis = pending(
            "(addr1 * addr2 * addr3)"
            "{ txn(addr1, satoshi); txn(addr2, satoshi); txn(addr3, satoshi) }"
        )
        ledger = rd.readback_ledger(genesis)
        assert ledger.to_json_dict() == {
            "balances": {
                "addr1": {"satoshi": 1},
                "addr2": {"satoshi": 1},
                "addr3": {"satoshi": 1},
            },
            "burned": {},
        }

    def test_empty_program(self):
        assert rd.readback_ledger(pending("(){}")).to_json_dict() == {
            "balances": {},
            "burned": {},
        }

    def test_post_spend_ledger(self):
        result = rd.normalize(spend_program(), fuel=100)
        ledger = rd.readback_ledger(result.result)
        assert ledger.to_json_dict() == {
            "balances": {
                "addr3": {"satoshi": 1},
                "bddr1": {"satoshi": 1},
                "bddr2": {"satoshi": 1},
            },
            "burned": {},
        }

    def test_disposal_yields_empty_balance(self):
        ledger = rd.readback_ledger(pending("(addr1){ txn(addr1, _) }"))
        assert ledger.to_json_dict()["balances"] == {"addr1": {}}

    def test_burned_units(self):
        ledger = rd.readback_ledger(pending("(){ txn(2 . satoshi, _) }"))
        assert ledger.to_json_dict() == {"balances": {}, "burned": {"satoshi": 2}}

    def test_unit_trees_of_any_shape(self):
        ledger = rd.readback_ledger(pending("(x){ txn(x, satoshi * (btc * btc)) }"))
        assert ledger.to_json_dict()["balances"]["x"] == {"btc": 2, "satoshi": 1}

    def test_not_in_ledger_form(self):
        with pytest.raises(NotInLedgerForm) as err:
            rd.readback_ledger(pending("(x, y){ txn(x, y) }"))
        assert err.value.index == 0

    def test_conservation_genesis_to_ledger(self):
        program = spend_program()
        before = sx.unit_multiset(program)
        outcome = rd.normalize(program, fuel=100)
        ledger = rd.readback_ledger(outcome.result)
        total = ledger.total_units()
        total.update(outcome.burned)
        total.update(outcome.discarded)
        total.subtract(outcome.duplicated)
        assert +total == +before


class TestDiamond:
    def test_small_corpus_all_orders_converge(self):
        checked = 0
        for generated in small_corpus(seed=31, count=60):
            if len(rd.find_redexes(generated.program)) > 3:
                continue
            if sx.node_count(generated.program) > 120:
                continue
            checked += 1
            normal_forms, _ = all_normal_forms(generated.program, max_states=50_000)
            base = normal_forms[0]
            for other in normal_forms[1:]:
                assert sx.alpha_equivalent(base, other), parser.render(generated.program)
        assert checked >= 25


class TestTermination:
    def test_fuel_bound_on_corpus(self):
        generator = ProgramGenerator(seed=404)
        for _ in range(120):
            generated = generator.typed_program()
            tc.check(generated.program, generated.declared)
            fuel = 4 * sx.node_count(generated.program) ** 2
            outcome = rd.normalize(generated.program, fuel=fuel)
            assert rd.find_redexes(outcome.result) == []

"""``normalize``'s incremental redex index against the one-step interface.

The reference reducer is the plain loop ``normalize`` documents: fire
``find_redexes(p)[0]`` with ``step_with_effect`` until no redex is left.
The index must reproduce it exactly: the same trace lines and redexes,
the same unit accounting, the same result, and the same state when fuel
runs out.
"""
import random
import time
from collections import Counter

import pytest

from llbc import chains as ch
from llbc import parser
from llbc import reduce as rd
from llbc import syntax as sx
from llbc.errors import FuelExhausted
from llbc.generate import GenConfig, ProgramGenerator

from helpers import DEMOS, spend_program


def reference_normalize(p, fuel):
    steps = 0
    trace = []
    burned, discarded, duplicated = Counter(), Counter(), Counter()
    while True:
        redexes = rd.find_redexes(p)
        if not redexes:
            return rd.NormalizeResult(p, steps, tuple(trace), burned, discarded, duplicated)
        if steps >= fuel:
            raise FuelExhausted(p, steps)
        p, effect = rd.step_with_effect(p, redexes[0])
        steps += 1
        burned.update(effect.burned)
        discarded.update(effect.discarded)
        duplicated.update(effect.duplicated)
        trace.append(rd.TraceStep(steps, redexes[0], p))


def outcome(reducer, p, fuel):
    try:
        return reducer(p, fuel), None
    except FuelExhausted as err:
        return None, err


def assert_same_run(p, fuel, lines=True):
    expected, expected_err = outcome(reference_normalize, p, fuel)
    got, got_err = outcome(lambda q, f: rd.normalize(q, f, trace=True), p, fuel)
    source = parser.render(p)
    if expected_err is not None:
        assert got_err is not None, source
        assert got_err.steps == expected_err.steps, source
        assert got_err.state == expected_err.state, source
        return
    assert got_err is None, source
    # Equal steps (index, redex, program) render to equal trace lines;
    # comparing them skips rendering every intermediate program twice.
    assert got.trace == expected.trace, source
    if lines:
        assert [t.line() for t in got.trace] == [t.line() for t in expected.trace], source
    assert got.steps == expected.steps
    assert got.result == expected.result, source
    assert got.burned == expected.burned
    assert got.discarded == expected.discarded
    assert got.duplicated == expected.duplicated


def pipeline(n, k, rng):
    """``(a0){ txn(a0, x1); ...; txn(xn, k.satoshi) }``, pending shuffled."""
    txns = ["txn(a0, x1)"]
    txns.extend(f"txn(x{i}, x{i + 1})" for i in range(1, n))
    txns.append(f"txn(x{n}, {k}.satoshi)")
    rng.shuffle(txns)
    return parser.parse_program(f"(a0){{ {'; '.join(txns)} }}")


def generated(seed, count, bias):
    generator = ProgramGenerator(seed=seed, config=GenConfig(exponential_bias=bias))
    return [generator.typed_program().program for _ in range(count)]


class TestDifferential:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
    def test_shuffled_pipelines(self, n):
        rng = random.Random(f"pipeline/{n}")
        for _ in range(3):
            p = pipeline(n, rng.randrange(1, 6), rng)
            assert_same_run(p, rd.DEFAULT_FUEL)
            assert_same_run(p, 3)

    @pytest.mark.parametrize("bias", [0.25, 0.8])
    def test_generated_programs(self, bias):
        for p in generated(seed=2024, count=500, bias=bias):
            assert_same_run(p, rd.DEFAULT_FUEL, lines=False)
            assert_same_run(p, 3, lines=False)

    def test_demos(self):
        scripts = sorted(DEMOS.glob("*.llbc"))
        assert scripts
        for path in scripts:
            p, _ = parser.parse_script(path.read_text(encoding="utf-8"))
            assert_same_run(p, rd.DEFAULT_FUEL)
            assert_same_run(p, 3)

    def test_bridged_chain_with_shared_literals(self):
        # chain_to_program shares one literal between transfers of equal
        # amount and unit. Forwarding each recipient into a connection
        # fuses those literals into new transactions and splits them, so
        # one literal object, and its parts, sit in many transactions.
        rng = random.Random("bridged")
        transfers = [
            ch.Transfer(
                sx.Address(f"s{k}"), sx.Address(f"t{k}"), rng.randrange(1, 6), rng.choice(("btc", "satoshi"))
            )
            for k in range(90)
        ]
        chain = ch.Chain(tuple(ch.Block(tuple(transfers[k : k + 3])) for k in range(0, 90, 3)))
        bridged = ch.chain_to_program(chain)
        assert len({id(txn.right) for txn in bridged.pending}) <= 10
        assert_same_run(bridged, rd.DEFAULT_FUEL)
        forwards = [
            sx.Transaction(
                sx.Addr(sx.Address(f"t{k}")),
                sx.Conn(sx.Addr(sx.Address(f"o{k}")), sx.Addr(sx.Address(f"p{k}"))),
            )
            for k in range(90)
        ]
        pending = list(bridged.pending) + forwards
        rng.shuffle(pending)
        interface = tuple(sx.Addr(sx.Address(f"{x}{k}")) for k in range(90) for x in "op")
        p = sx.Program(interface, tuple(pending))
        assert_same_run(p, rd.DEFAULT_FUEL)
        assert_same_run(p, 100)
        assert rd.normalize(p).steps > 90


def trace_of(src):
    result = rd.normalize(parser.parse_program(src), trace=True)
    return [(t.redex.kind, t.redex.pos, t.redex.partner) for t in result.trace], result


class TestIndexEdgeCases:
    def test_residue_enables_a_redex_left_of_the_fired_one(self):
        # The Pair at 1 exposes y as a whole side, which makes (0, 1) a
        # mediator pair: the next redex sits left of the one that fired.
        src = "(a, c, d, z){ txn(a, y); txn(y * z, c # d) }"
        steps, result = trace_of(src)
        assert steps == [("Pair", 1, None), ("Transaction", 0, 1)]
        assert parser.render(result.result) == "(a, c, d, z){ txn(a, c); txn(z, d) }"
        assert_same_run(parser.parse_program(src), rd.DEFAULT_FUEL)

    def test_count_drop_enables_an_untouched_pair_to_the_left(self):
        # b occurs four times, so txn(b, c) and txn(b, d) cannot fuse. The
        # pair at (2, 3) is eligible over a, but _mediator_of fuses it over
        # b, which leaves b with two occurrences: (0, 1) becomes a redex
        # although neither of its transactions changed.
        src = "(c, d){ txn(b, c); txn(b, d); txn(b, a); txn(a, b) }"
        assert rd.find_redexes(parser.parse_program(src)) == [rd.Redex("Transaction", 2, 3)]
        steps, result = trace_of(src)
        assert steps == [("Transaction", 2, 3), ("Transaction", 0, 1)]
        assert parser.render(result.result) == "(c, d){ txn(c, d); txn(a, a) }"
        assert_same_run(parser.parse_program(src), rd.DEFAULT_FUEL)

    def test_count_rise_retires_a_queued_pair(self):
        # (1, 2) is a mediator pair at the start, but the Read at 0 fires
        # first and exposes a third occurrence of x from the box body, so
        # the queued pair must not fire.
        src = "(a, b){ txn(!(){ (satoshi){ txn(x, btc) } }, ?satoshi^); txn(a, x); txn(x, b) }"
        p = parser.parse_program(src)
        assert rd.find_redexes(p) == [rd.Redex("Read", 0), rd.Redex("Transaction", 1, 2)]
        steps, result = trace_of(src)
        assert steps == [("Read", 0, None)]
        assert rd.find_redexes(result.result) == []
        assert_same_run(p, rd.DEFAULT_FUEL)

    def test_self_loop_absorption(self):
        src = "(a){ txn(x, x); txn(a, x) }"
        steps, result = trace_of(src)
        assert steps == [("Transaction", 0, 1)]
        assert parser.render(result.result) == "(a){ txn(x, a) }"
        assert_same_run(parser.parse_program(src), rd.DEFAULT_FUEL)

    def test_address_seen_three_times_drops_to_two(self):
        # x sits in three transactions (four occurrences, one a self-loop).
        # Absorbing the loop leaves exactly two whole-side occurrences, so
        # the two remaining transactions then fuse over x.
        src = "(a, b){ txn(a, x); txn(x, b); txn(x, x) }"
        p = parser.parse_program(src)
        assert rd.Redex("Transaction", 0, 1) not in rd.find_redexes(p)
        steps, result = trace_of(src)
        assert steps == [("Transaction", 0, 2), ("Transaction", 0, 1)]
        assert parser.render(result.result) == "(a, b){ txn(a, b) }"
        assert_same_run(p, rd.DEFAULT_FUEL)

    def test_ties_at_one_position(self):
        # A local rule needs two non-address sides and the Transaction rule
        # a whole-address side, so a Transaction redex and a local redex
        # never share a position; the key's rule priority only has to agree
        # with find_redexes, which the differential runs check. Along the
        # reference runs of a corpus no position ever carries both kinds.
        for p in generated(seed=99, count=40, bias=0.8):
            for state in [p] + [t.program for t in reference_normalize(p, 10**6).trace]:
                kinds: dict[int, set] = {}
                for r in rd.find_redexes(state):
                    kinds.setdefault(r.pos, set()).add(r.kind == "Transaction")
                assert all(len(both) == 1 for both in kinds.values())
        # Transaction redexes at one position are ordered by partner.
        loops = parser.parse_program("(a, b){ txn(x, x); txn(x, a); txn(x, b) }")
        assert rd.find_redexes(loops)[:2] == [
            rd.Redex("Transaction", 0, 1),
            rd.Redex("Transaction", 0, 2),
        ]
        steps, _ = trace_of("(a, b){ txn(x, x); txn(x, a); txn(x, b) }")
        assert steps[0] == ("Transaction", 0, 1)
        assert_same_run(loops, rd.DEFAULT_FUEL)

    def test_fuel_runs_out_mid_run_in_pending_order(self):
        # The spend example interleaves local residues with fusions.
        cases = [(pipeline(40, 2, random.Random(7)), (0, 1, 17, 39)), (spend_program(), range(6))]
        for p, fuels in cases:
            for fuel in fuels:
                with pytest.raises(FuelExhausted) as err:
                    rd.normalize(p, fuel=fuel)
                assert err.value.steps == fuel
                with pytest.raises(FuelExhausted) as expected:
                    reference_normalize(p, fuel)
                assert err.value.state == expected.value.state


class TestScaling:
    def test_normalize_grows_linearly_on_pipelines(self):
        # Linear growth gives a ratio of about 8 from n=200 to n=1600; a
        # reducer that rescans the pending list every step gives about 64.
        def best_of_three(n):
            p = pipeline(n, 3, random.Random(f"scaling/{n}"))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                result = rd.normalize(p)
                times.append(time.perf_counter() - start)
                assert result.steps == n
            return min(times)

        small, large = best_of_three(200), best_of_three(1600)
        assert large / small < 24, (small, large)

"""Acceptance suite.

Each test implements one acceptance criterion end to end at its stated
tolerance (all tolerances are exact; the domain is discrete) and prints a
single PASS line on success. Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they go by.
"""
import json
import time
from collections import Counter

import pytest

from llbc import chains as ch
from llbc import parser
from llbc import reduce as rd
from llbc import syntax as sx
from llbc import typecheck as tc
from llbc.cli import main as cli_main
from llbc.errors import FuelExhausted, IsolationError
from llbc.generate import ChainGenerator, GenConfig, ProgramGenerator

from helpers import DEMOS, SPEND_NORMAL_FORM, all_normal_forms, small_corpus

GOLDEN_SPEND_LEDGER_JSON = """{
  "balances": {
    "addr3": {
      "satoshi": 1
    },
    "bddr1": {
      "satoshi": 1
    },
    "bddr2": {
      "satoshi": 1
    }
  },
  "burned": {}
}"""

def _accounted_run(program, fuel):
    before = sx.unit_multiset(program)
    outcome = rd.normalize(program, fuel=fuel)
    after = sx.unit_multiset(outcome.result)
    return before, outcome, after


def _conserved(before, outcome, after) -> bool:
    expected = before.copy()
    expected.subtract(outcome.burned)
    expected.subtract(outcome.discarded)
    expected.update(outcome.duplicated)
    # Signed counts, zeros dropped: a run that burns units it never had
    # leaves a negative count, which unary + would drop.
    return {u: n for u, n in expected.items() if n} == {u: n for u, n in after.items() if n}


@pytest.fixture(scope="module")
def spend_run():
    program, _ = parser.parse_script((DEMOS / "spend.llbc").read_text())
    return _accounted_run(program, fuel=100)


@pytest.fixture(scope="module")
def termination_suite():
    """The 1000-program run shared by criteria 4 and 7."""
    start = time.perf_counter()
    plain = ProgramGenerator(seed=1001, config=GenConfig(max_expr_depth=6))
    exponential = ProgramGenerator(
        seed=2002, config=GenConfig(max_expr_depth=6, exponential_bias=0.9)
    )
    stats = {
        "total": 1000,
        "fuel_failures": 0,
        "exercising": 0,
        "connectives": Counter(),
        "runs": [],
    }
    for index in range(stats["total"]):
        generator = exponential if index % 5 == 0 else plain
        generated = generator.typed_program()
        tc.check(generated.program, generated.declared)
        for t in generated.declared:
            _count_type_connectives(t, stats["connectives"])
        fuel = 4 * sx.node_count(generated.program) ** 2
        before = sx.unit_multiset(generated.program)
        try:
            outcome = rd.normalize(generated.program, fuel=fuel, trace=True)
        except FuelExhausted:
            stats["fuel_failures"] += 1
            continue
        after = sx.unit_multiset(outcome.result)
        stats["runs"].append((before, outcome, after))
        kinds = {step.redex.kind for step in outcome.trace or ()}
        if kinds & {"Copy", "Read", "Dispose"}:
            stats["exercising"] += 1
    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_1_worked_example_golden(capsys, spend_run):
    start = time.perf_counter()
    program, _ = parser.parse_script((DEMOS / "spend.llbc").read_text())
    outcome = rd.normalize(program, fuel=100)

    assert outcome.steps <= 100
    expected_nf = parser.parse_program(SPEND_NORMAL_FORM)
    assert sx.alpha_equivalent(outcome.result, expected_nf)

    ledger = rd.readback_ledger(outcome.result)
    rendered = json.dumps(ledger.to_json_dict(), indent=2, sort_keys=True)
    assert rendered == GOLDEN_SPEND_LEDGER_JSON  # byte-exact

    # and through the command line, as the criterion phrases it
    code = cli_main(["ledger", str(DEMOS / "spend.llbc"), "--run"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == GOLDEN_SPEND_LEDGER_JSON

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 worked-example golden run: PASS "
        f"({outcome.steps} steps, {elapsed:.3f}s)"
    )


def test_criterion_2_safe_composition_golden(tmp_path, capsys):
    start = time.perf_counter()
    out_path = tmp_path / "combined.json"
    code = cli_main(
        [
            "compose", "--mode", "verify",
            str(DEMOS / "safe1.json"), str(DEMOS / "safe2.json"),
            "-o", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    combined = ch.load_chain(str(out_path))
    expected = [
        [("1AliceAddr", "1AllanAddr", 5, "btc"), ("1BobAddr", "1BettyAddr", 7, "btc")],
        [("2BobAddr", "2BettyAddr", 7, "btc"), ("2AliceAddr", "2AllanAddr", 5, "btc")],
    ]
    actual = [
        [(t.source.render(), t.target.render(), t.amount, t.unit) for t in block.transfers]
        for block in combined.blocks
    ]
    assert actual == expected
    verify_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    code = cli_main(
        [
            "compose", "--mode", "rewire",
            str(DEMOS / "cex1.json"), str(DEMOS / "cex2.json"),
            "-o", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    rewired = ch.load_chain(str(out_path))
    expected_rewired = [
        [("01AliceAddr", "01AllanAddr", 5, "btc"), ("11BobAddr", "11BettyAddr", 7, "btc")],
        [("01BobAddr", "01BettyAddr", 7, "btc"), ("11AliceAddr", "11AllanAddr", 5, "btc")],
    ]
    actual_rewired = [
        [(t.source.render(), t.target.render(), t.amount, t.unit) for t in block.transfers]
        for block in rewired.blocks
    ]
    assert actual_rewired == expected_rewired
    rewire_elapsed = time.perf_counter() - start

    assert verify_elapsed < 1.0 and rewire_elapsed < 1.0
    print(
        f"\nACCEPTANCE 2 safe composition golden: PASS "
        f"(verify {verify_elapsed:.3f}s, rewire {rewire_elapsed:.3f}s)"
    )


def test_criterion_3_counterexample_rejection(capsys):
    cex1 = ch.load_chain(str(DEMOS / "cex1.json"))
    cex2 = ch.load_chain(str(DEMOS / "cex2.json"))
    with pytest.raises(IsolationError) as err:
        ch.compose_verify(cex1, cex2)
    assert err.value.shared == {
        sx.Address("1AliceAddr"),
        sx.Address("1AllanAddr"),
        sx.Address("1BobAddr"),
        sx.Address("1BettyAddr"),
    }

    code = cli_main(
        ["compose", "--mode", "verify", str(DEMOS / "cex1.json"), str(DEMOS / "cex2.json")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(
        "ERROR kind=isolation shared=1AliceAddr,1AllanAddr,1BettyAddr,1BobAddr"
    )

    code = cli_main(
        ["compose", "--check-blockwise", str(DEMOS / "cex1.json"), str(DEMOS / "cex2.json")]
    )
    captured = capsys.readouterr()
    assert code == 0
    verdict = json.loads(captured.out)
    assert verdict["blockwise_isolated"] is True
    assert verdict["isolated"] is False
    print("\nACCEPTANCE 3 counterexample rejection: PASS "
          "(blockwise-isolated true, isolated false)")


def test_criterion_4_termination_suite(termination_suite):
    stats = termination_suite
    assert stats["fuel_failures"] == 0
    assert stats["exercising"] >= 100
    for connective in ("Tensor", "Par", "With", "Plus", "OfCourse", "WhyNot", "Atom"):
        assert stats["connectives"][connective] > 0, f"corpus never used {connective}"
    assert stats["elapsed"] < 60.0
    print(
        f"\nACCEPTANCE 4 termination suite: PASS "
        f"({stats['total']} programs, {stats['exercising']} exercising "
        f"Copy/Read/Dispose, 0 fuel failures, {stats['elapsed']:.1f}s)"
    )


def test_criterion_5_confluence_at_desk_scale():
    corpus = small_corpus(seed=5005, count=200, max_pending=8)
    assert len(corpus) == 200
    enumerated = 0
    for generated in corpus:
        assert len(generated.program.pending) <= 8
        tc.check(generated.program, generated.declared)
        normal_forms, _ = all_normal_forms(generated.program, max_states=200_000)
        assert normal_forms, parser.render(generated.program)
        base = normal_forms[0]
        for other in normal_forms[1:]:
            assert sx.alpha_equivalent(base, other), parser.render(generated.program)
        enumerated += 1
    print(
        f"\nACCEPTANCE 5 confluence at desk scale: PASS "
        f"({enumerated} programs, all reduction orders converge)"
    )


def test_criterion_6_subject_reduction():
    corpus = small_corpus(seed=5005, count=200, max_pending=8)
    edges_checked = 0
    for generated in corpus:
        judgment = tc.check(generated.program, generated.declared)
        seen = {parser.render(generated.program)}
        stack = [generated.program]
        while stack:
            state = stack.pop()
            for redex in rd.find_redexes(state):
                successor = rd.step(state, redex)
                again = tc.check(successor, generated.declared)
                assert again.interface_types == judgment.interface_types
                edges_checked += 1
                key = parser.render(successor)
                if key not in seen:
                    seen.add(key)
                    stack.append(successor)
    print(
        f"\nACCEPTANCE 6 subject reduction: PASS "
        f"({edges_checked} reduction steps re-checked)"
    )


def test_criterion_7_algebraic_laws(spend_run, termination_suite):
    # dual involution on 10^4 random types
    generator = ProgramGenerator(seed=7007)
    for _ in range(10_000):
        t = generator.random_type(depth=4)
        assert sx.dual(sx.dual(t)) == t

    # parser round trip on 10^4 random programs
    quick = ProgramGenerator(
        seed=7117,
        config=GenConfig(
            max_type_depth=2, max_expr_depth=3, max_cuts=2, max_ports=1,
            max_context=1, max_internal_cuts=1,
        ),
    )
    for _ in range(10_000):
        program = quick.typed_program().program
        assert parser.parse_program(parser.render(program)) == program

    # compose commutativity and associativity on 10^3 isolated triples
    chain_gen = ChainGenerator(seed=7227)
    for _ in range(1_000):
        a, b, c = chain_gen.isolated_chains(3, height=2)
        ab = ch.compose_verify(a, b)
        ba = ch.compose_verify(b, a)
        for block_ab, block_ba in zip(ab.blocks, ba.blocks):
            assert Counter(block_ab.transfers) == Counter(block_ba.transfers)
        assert ch.compose_verify(ab, c) == ch.compose_verify(a, ch.compose_verify(b, c))

    # conservation across every normalize run in criteria 1 and 4
    runs = [spend_run] + termination_suite["runs"]
    for before, outcome, after in runs:
        assert _conserved(before, outcome, after)
    print(
        f"\nACCEPTANCE 7 algebraic laws: PASS "
        f"(10^4 dual involutions, 10^4 round trips, 10^3 compose triples, "
        f"conservation over {len(runs)} normalize runs)"
    )


def _count_type_connectives(t, out):
    out[type(t).__name__] += 1
    match t:
        case sx.Tensor(l, r) | sx.Par(l, r) | sx.With(l, r) | sx.Plus(l, r):
            _count_type_connectives(l, out)
            _count_type_connectives(r, out)
        case sx.OfCourse(b) | sx.WhyNot(b):
            _count_type_connectives(b, out)

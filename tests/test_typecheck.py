"""Typing rules, linearity, cut duality, and derivation replay."""
import hashlib
import random
from collections import Counter

import pytest

from llbc import parser
from llbc import syntax as sx
from llbc import typecheck as tc
from llbc.errors import (
    BranchContextMismatchError,
    NonLinearAddressError,
    PromotionContextError,
    TypeCheckError,
    TypeMismatchError,
)
from llbc.generate import GenConfig, ProgramGenerator

from helpers import SPEND_TYPES, spend_program


def check_src(program_src, *type_srcs):
    return tc.check(
        parser.parse_program(program_src),
        [parser.parse_type(t) for t in type_srcs],
    )


class TestAxiom:
    def test_address_pair(self):
        judgment = check_src("(x, x){}", "(satoshi * btc)^", "satoshi * btc")
        assert [c.rule for c in judgment.derivation.children] == ["Axiom", "Axiom"]
        assert parser.render(judgment.interface_types[0]) == "satoshi^ # btc^"

    def test_mismatched_pair_rejected(self):
        with pytest.raises(TypeMismatchError):
            check_src("(x, x){}", "satoshi", "satoshi")

    def test_single_port(self):
        judgment = check_src("(x){}", "?satoshi")
        assert judgment.interface_types == (sx.WhyNot(sx.Atom("satoshi")),)


class TestGenesis:
    # Oracle: the two-coin genesis has exactly the derivation
    #   Program[ Tensor[Axiom, Axiom], Cut[Axiom, Literal], Cut[Axiom, Literal] ]
    # built by hand from the rules before the checker existed.
    def test_genesis_m2_derivation(self):
        judgment = check_src(
            "(addr1 * addr2){ txn(addr1, satoshi); txn(addr2, satoshi) }",
            "satoshi * satoshi",
        )
        root = judgment.derivation
        assert [c.rule for c in root.children] == ["Tensor", "Cut", "Cut"]
        tensor = root.children[0]
        assert [c.rule for c in tensor.children] == ["Axiom", "Axiom"]
        for cut in root.children[1:]:
            assert [c.rule for c in cut.children] == ["Axiom", "Literal"]
            # the assignment cuts a demand for one satoshi against the coin
            assert parser.render(cut.type) == "satoshi^"
        assert tc.replay(judgment)

    def test_genesis_wrong_type_rejected(self):
        with pytest.raises(TypeMismatchError):
            check_src(
                "(addr1 * addr2){ txn(addr1, satoshi); txn(addr2, satoshi) }",
                "satoshi * btc",
            )


class TestLinearity:
    def test_triple_use_rejected(self):
        with pytest.raises(NonLinearAddressError) as err:
            check_src("(x){ txn(x, satoshi); txn(x, satoshi) }", "satoshi")
        assert err.value.count == 3

    def test_dangling_pending_address_rejected(self):
        with pytest.raises(NonLinearAddressError):
            check_src("(){ txn(x, satoshi) }")

    def test_unbalanced_binder_rejected(self):
        # A context binder with no partner occurrence is an unconnected wire.
        with pytest.raises(NonLinearAddressError):
            check_src(
                "(){ txn(choose(m){ (satoshi, btc){}; (satoshi, btc){} },"
                " inl(satoshi^)) }"
            )

    def test_cut_consumes_both_occurrences(self):
        judgment = check_src("(){ txn(x, satoshi); txn(x, satoshi^) }")
        assert judgment.interface_types == ()

    def test_accepted_programs_count_two_uses_per_address(self):
        # The invariant, asserted by counting rather than trusted: every
        # free address of an accepted program occurs exactly twice, or
        # once inside an interface entry.
        generator = ProgramGenerator(seed=888)
        for _ in range(60):
            generated = generator.typed_program()
            tc.check(generated.program, generated.declared)
            counts = Counter()
            entry_tagged = set()
            for address, tag in sx.surface_occurrences(generated.program):
                counts[address] += 1
                if tag == sx.ENTRY:
                    entry_tagged.add(address)
            for address, count in counts.items():
                assert count == 2 or (count == 1 and address in entry_tagged)


class TestCutDuality:
    def test_accepted_cuts_are_dual(self):
        generator = ProgramGenerator(seed=99)
        for _ in range(60):
            generated = generator.typed_program()
            judgment = tc.check(generated.program, generated.declared)
            n = len(generated.program.interface)
            for cut in judgment.derivation.children[n:]:
                assert cut.rule == "Cut"
                left, right = cut.children
                assert right.type == sx.dual(left.type)

    def test_non_dual_cut_rejected(self):
        with pytest.raises(TypeMismatchError):
            check_src("(){ txn(satoshi, btc) }")

    def test_unit_literal_axiom(self):
        judgment = check_src("(){ txn(x, satoshi); txn(x, satoshi^) }")
        cut = judgment.derivation.children[0]
        kinds = {c.rule for c in cut.children}
        assert "Literal" in kinds


class TestAdditives:
    def test_menu_against_selection(self):
        judgment = check_src(
            "(){ txn(choose(){ (satoshi){}; (btc){} }, inl(satoshi^)) }"
        )
        cut = judgment.derivation.children[0]
        assert parser.render(cut.type) == "satoshi & btc"

    def test_branch_context_mismatch(self):
        with pytest.raises(BranchContextMismatchError):
            check_src(
                "(m){ txn(choose(m){ (satoshi, btc){}; (satoshi, doge){} },"
                " inl(satoshi^)) }",
                "btc",
            )

    def test_menu_with_context(self):
        judgment = check_src(
            "(m){ txn(choose(m){ (satoshi, btc){}; (doge, btc){} }, inr(doge^)) }",
            "btc",
        )
        assert judgment.interface_types == (sx.Atom("btc"),)

    def test_joint_resolution_of_selection_against_menu(self):
        # Neither side determines the cut type alone; together they do:
        # the menu pins the selection's payload, the selection pins the
        # menu's absent summand.
        judgment = check_src(
            "(){ txn(choose(){ (inr(satoshi)){}; (doge){} },"
            " inl(choose(){ (btc^){}; (satoshi^){} })) }"
        )
        cut = judgment.derivation.children[0]
        assert parser.render(cut.type) == "(btc + satoshi) & doge"


class TestExponentials:
    def test_replication_against_storage(self):
        judgment = check_src("(){ txn(!(){ (satoshi){} }, ?satoshi^) }")
        assert parser.render(judgment.derivation.children[0].type) == "!satoshi"

    def test_replication_against_disposal(self):
        check_src("(){ txn(!(){ (satoshi){} }, _) }")

    def test_replication_against_contraction(self):
        check_src("(){ txn(!(){ (satoshi){} }, ?satoshi^ @ ?satoshi^) }")

    def test_promotion_context_must_be_whynot(self):
        with pytest.raises(PromotionContextError):
            check_src(
                "(s){ txn(!(s){ (satoshi, btc){} }, ?satoshi^) }",
                "btc",
            )

    def test_promotion_context_accepted(self):
        judgment = check_src(
            "(s){ txn(!(s){ (satoshi, ?btc){} }, ?satoshi^) }",
            "?btc",
        )
        assert judgment.interface_types == (sx.WhyNot(sx.Atom("btc")),)


class TestWorkedExample:
    def test_spend_checks(self):
        judgment = tc.check(spend_program(), [parser.parse_type(SPEND_TYPES)])
        assert parser.render(judgment.interface_types[0]) == "satoshi * satoshi * satoshi"
        cut = judgment.derivation.children[1]
        # genesis branch typed as three coins, burn branch as three sinks
        assert parser.render(cut.type) == (
            "satoshi * satoshi * satoshi & ?satoshi * ?satoshi * ?satoshi"
        )

    def test_spend_replay(self):
        judgment = tc.check(spend_program(), [parser.parse_type(SPEND_TYPES)])
        assert tc.replay(judgment)


class TestDerivationReplay:
    def test_replay_generated(self):
        generator = ProgramGenerator(seed=123)
        for _ in range(80):
            generated = generator.typed_program()
            judgment = tc.check(generated.program, generated.declared)
            assert tc.replay(judgment)

    def test_replay_detects_tampering(self):
        judgment = check_src("(x){ txn(x, satoshi) }", "satoshi")
        bad = tc.TypedJudgment(
            judgment.program,
            (sx.Atom("btc"),),
            judgment.derivation,
        )
        assert not tc.replay(bad)


class TestDerivationOnFirstRead:
    """``check`` builds the derivation tree when it is first read."""

    def test_read_twice_is_one_object(self):
        judgment = check_src("(addr1 * addr2){ txn(addr1, satoshi); txn(addr2, satoshi) }",
                             "satoshi * satoshi")
        first = judgment.derivation
        assert isinstance(first, tc.Derivation)
        assert judgment.derivation is first

    def test_read_after_other_checks_is_the_same_tree(self):
        generator = ProgramGenerator(seed=77)
        programs = [generator.typed_program() for _ in range(40)]
        unread = [tc.check(g.program, g.declared) for g in programs]
        for g in programs:  # more checks, each with its own unifier
            tc.check(g.program, g.declared).derivation
        for g, judgment in zip(programs, unread):
            fresh = tc.check(g.program, g.declared)
            assert judgment.derivation == fresh.derivation
            assert tc.replay(judgment)

    def test_equality_hash_and_repr_see_the_tree(self):
        source, types = "(x){ txn(x, satoshi) }", "satoshi"
        left, right = check_src(source, types), check_src(source, types)
        assert left == right and hash(left) == hash(right)
        assert "Derivation(rule='Program'" in repr(check_src(source, types))
        assert left != tc.TypedJudgment(left.program, left.interface_types, None)

    def test_hand_built_judgment_replays(self):
        program = parser.parse_program("(x){ txn(x, satoshi) }")
        x, coin = program.pending[0].left, program.pending[0].right
        derivation = tc.Derivation("Program", program, None, (
            tc.Derivation("Axiom", program.interface[0], sx.Atom("satoshi")),
            tc.Derivation("Cut", program.pending[0], sx.Atom("satoshi", True), (
                tc.Derivation("Axiom", x, sx.Atom("satoshi", True)),
                tc.Derivation("Literal", coin, sx.Atom("satoshi")),
            )),
        ))
        judgment = tc.TypedJudgment(program, (sx.Atom("satoshi"),), derivation)
        assert judgment.derivation is derivation
        assert tc.replay(judgment)
        assert judgment == check_src("(x){ txn(x, satoshi) }", "satoshi")


class TestDeclaredTypes:
    def test_arity_mismatch(self):
        with pytest.raises(TypeMismatchError):
            check_src("(x, y){}", "satoshi")

    def test_declared_types_are_mandatory_for_ports(self):
        # Without annotations the two open ports default deterministically
        # rather than being inferred.
        p = parser.parse_program("(x){}")
        judgment = tc.check(p, [parser.parse_type("btc")])
        assert judgment.interface_types == (sx.Atom("btc"),)


class TestCheckExpression:
    def test_isolation_splits_context(self):
        a, b = parser.parse_expression("a"), parser.parse_expression("b")
        ctx = tc.TypeContext([(a, parser.parse_type("satoshi")), (b, parser.parse_type("btc"))])
        t, residual = tc.check_expression(sx.Iso(a, b), ctx)
        assert parser.render(t) == "satoshi * btc"
        assert len(residual.residual()) == 0

    def test_selection_needs_declared_summand(self):
        a = parser.parse_expression("a")
        ctx = tc.TypeContext([(a, parser.parse_type("satoshi"))])
        t, _ = tc.check_expression(
            sx.Inl(a), ctx, parser.parse_type("satoshi + btc")
        )
        assert parser.render(t) == "satoshi + btc"
        with pytest.raises(TypeCheckError):
            tc.check_expression(sx.Inl(a), ctx)

    def test_contraction(self):
        t_expr = parser.parse_expression("t")
        u_expr = parser.parse_expression("u")
        ctx = tc.TypeContext(
            [(t_expr, parser.parse_type("?satoshi")), (u_expr, parser.parse_type("?satoshi"))]
        )
        t, residual = tc.check_expression(parser.parse_expression("t @ u"), ctx)
        assert parser.render(t) == "?satoshi"
        assert residual.fully_consumed()

    def test_contraction_fills_a_hole_from_the_other_operand(self):
        # Both operands are typed at one ?-type, so the disposal's open body
        # type is the other operand's.
        b = parser.parse_expression("b")
        ctx = tc.TypeContext([(b, parser.parse_type("?btc"))])
        t, residual = tc.check_expression(parser.parse_expression("_ @ b"), ctx)
        assert parser.render(t) == "?btc"
        assert residual.fully_consumed()

    def test_box_is_typed_on_its_own(self):
        # The menu's context binder m gets an open partner port.
        box = parser.parse_expression("choose(m){ (satoshi, btc){}; (satoshi, btc){} }")
        t, _ = tc.check_expression(box, tc.TypeContext())
        assert parser.render(t) == "satoshi & satoshi"

    def test_demand_literal_is_one_leaf(self):
        unit = parser.parse_expression("satoshi")
        ctx = tc.TypeContext([(unit, parser.parse_type("btc"))])
        t, residual = tc.check_expression(parser.parse_expression("satoshi^"), ctx)
        assert parser.render(t) == "satoshi^"
        assert len(residual.residual()) == 1

    def test_residual_context(self):
        a, b = parser.parse_expression("a"), parser.parse_expression("b")
        ctx = tc.TypeContext([(a, parser.parse_type("satoshi")), (b, parser.parse_type("btc"))])
        t, residual = tc.check_expression(a, ctx)
        assert parser.render(t) == "satoshi"
        assert [parser.render(ty) for _, ty in residual.residual()] == ["btc"]

    def test_unbound_address_rejected(self):
        with pytest.raises(TypeCheckError):
            tc.check_expression(parser.parse_expression("a"), tc.TypeContext())


def _tensor(n, unit="satoshi"):
    t = sx.Atom(unit)
    for _ in range(n - 1):
        t = sx.Tensor(t, sx.Atom(unit))
    return t


def _literal(n, unit="satoshi"):
    e = sx.Unit(unit)
    for _ in range(n - 1):
        e = sx.Iso(e, sx.Unit(unit))
    return e


class TestDeep:
    """Checking, replay and expression checking are linear and iterative."""

    N = 100000

    def test_deep_judgment_replays(self):
        program = sx.Program((sx.Addr(sx.Address("a")),), (
            sx.Transaction(sx.Addr(sx.Address("a")), _literal(self.N)),
        ))
        declared = _tensor(self.N)
        judgment = tc.check(program, [declared])
        assert judgment.interface_types[0] is declared
        assert tc.replay(judgment)
        tampered = tc.TypedJudgment(program, (_tensor(self.N, "btc"),), judgment.derivation)
        assert not tc.replay(tampered)

    def test_deep_literal_against_a_context(self):
        a = parser.parse_expression("a")
        ctx = tc.TypeContext([(a, parser.parse_type("btc"))])
        t, residual = tc.check_expression(sx.Iso(a, _literal(20000)), ctx)
        assert t.left == sx.Atom("btc")
        assert parser.render(t.right) == " * ".join(["satoshi"] * 20000)
        assert residual.fully_consumed()

    @pytest.mark.parametrize("n", [3000, N])
    def test_deep_literal_bound_in_the_context(self, n):
        # Every sub-node of the n-fold literal is looked up among the
        # bindings, which hold the (n-1)-fold literal: its left operand.
        ctx = tc.TypeContext([(_literal(n - 1), sx.Atom("btc"))])
        t, residual = tc.check_expression(_literal(n), ctx)
        assert t == sx.Tensor(sx.Atom("btc"), sx.Atom("satoshi"))
        assert residual.fully_consumed()


def _pinned_corpus(count=300, seed=606):
    """Generated programs: half at a raised exponential bias; of each three,
    one as generated, one with a transaction dropped, one with its first
    declared type dualised."""
    plain = ProgramGenerator(seed=seed)
    biased = ProgramGenerator(seed=seed + 1, config=GenConfig(exponential_bias=0.8))
    rng = random.Random(seed)
    for i in range(count):
        generated = (biased if i % 2 else plain).typed_program()
        program, declared = generated.program, list(generated.declared)
        if i % 3 == 1 and program.pending:
            k = rng.randrange(len(program.pending))
            program = sx.Program(program.interface, program.pending[:k] + program.pending[k + 1 :])
        elif i % 3 == 2 and declared:
            declared[0] = sx.dual(declared[0])
        yield program, declared


def _outcome(program, declared):
    """The interface types and every derivation node's rule, subject and
    type, pre-order; or the error's kind, message and span."""
    try:
        judgment = tc.check(program, declared)
    except TypeCheckError as err:
        return ("error", err.kind, err.message, str(err.span))
    nodes, stack = [], [judgment.derivation]
    while stack:
        node = stack.pop()
        rendered = None if node.type is None else parser.render(node.type)
        nodes.append((node.rule, node.subject, rendered))
        stack.extend(reversed(node.children))
    return ("ok", tuple(parser.render(t) for t in judgment.interface_types), tuple(nodes))


class TestPinnedBehaviour:
    """The checker's observable behaviour, pinned by values recorded before
    its unifier became a union-find: interface types, error kind, message
    (with its ``T<n>`` names) and span, every derivation node, and the order
    in which holes default to satoshi."""

    def test_generated_programs_digest(self):
        digest = hashlib.sha256()
        outcomes = Counter()
        for program, declared in _pinned_corpus():
            outcome = _outcome(program, declared)
            outcomes[outcome[0]] += 1
            digest.update(repr(outcome).encode())
        assert outcomes == {"ok": 136, "error": 164}
        assert digest.hexdigest() == (
            "39e4275cb76111288a721fd6f66d0f9304b91acee39d1e04b7ebb735fb93e8b4"
        )

    @pytest.mark.parametrize(
        "source, types, address, clash, span",
        [
            # Operands are unified left to right: the left mismatch is reported.
            ("(x, x){}", ["satoshi * btc", "(btc * satoshi)^"], "x", "btc^ vs satoshi^", "1:5"),
            (
                "(x, y){ txn(x, y) }",
                ["satoshi * (btc # doge)", "satoshi^ # (ampere * doge^)"],
                "y",
                "btc vs ampere^",
                "1:16",
            ),
            ("(){ txn(x, ?x) }", [], "x", "cyclic type", "1:13"),
            ("(){ txn(x, inl(x)) }", [], "x", "cyclic type", "1:16"),
            ("(){ txn(x, x * y); txn(y, satoshi) }", [], "x", "cyclic type", "1:12"),
            ("(a){ txn(a, x @ x) }", [None], "x", "?T3 vs !T3^", "1:17"),
        ],
    )
    def test_error_messages(self, source, types, address, clash, span):
        program = parser.parse_program(source)
        declared = [None if t is None else parser.parse_type(t) for t in types]
        with pytest.raises(TypeMismatchError) as err:
            tc.check(program, declared)
        assert err.value.message == f"occurrences of {address} must have dual types: {clash}"
        assert str(err.value.span) == span

    def test_holes_default_in_creation_order(self):
        program = parser.parse_program(
            "(a, b, c, d, e, h){ txn(a, b); txn(c, _); txn(d, inl(satoshi)); "
            "txn(inr(f), e); txn(f, g); txn(g, h) }"
        )
        judgment = tc.check(program, [None] * 6)
        assert [parser.render(t) for t in judgment.interface_types] == [
            "satoshi^", "satoshi", "?satoshi", "satoshi + satoshi", "satoshi + satoshi^", "satoshi",
        ]
        cuts = [node for node in judgment.derivation.children if node.rule == "Cut"]
        assert [
            [parser.render(node.type)] + [parser.render(kid.type) for kid in node.children]
            for node in cuts
        ] == [
            ["satoshi", "satoshi", "satoshi^"],
            ["!satoshi^", "!satoshi^", "?satoshi"],
            ["satoshi^ & satoshi^", "satoshi^ & satoshi^", "satoshi + satoshi"],
            ["satoshi + satoshi^", "satoshi + satoshi^", "satoshi^ & satoshi"],
            ["satoshi", "satoshi", "satoshi^"],
            ["satoshi", "satoshi", "satoshi^"],
        ]
        assert tc.replay(judgment)


class TestUnifier:
    def test_path_compression_keeps_polarity(self):
        # v0 = v1^, v1 = v2, v2 = v3^, v3 = v4: one chain of four links.
        unifier = tc._Unifier("satoshi")
        v = [unifier.fresh() for _ in range(5)]
        for i, flip in enumerate((True, False, True, False)):
            unifier.unify(v[i], unifier.neg(v[i + 1]) if flip else v[i + 1])
        expected = ["satoshi", "satoshi^", "satoshi^", "satoshi", "satoshi"]
        unifier.head(v[0])  # compresses the whole chain
        unifier.default_leftovers()
        assert [parser.render(unifier.resolve(var)) for var in v] == expected

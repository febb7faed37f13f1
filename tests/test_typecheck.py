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

from helpers import (
    SPEND_TYPES,
    constructed_pipeline,
    count_calls,
    linear_program,
    pipeline,
    spend_program,
)


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

    @pytest.mark.parametrize(
        "src, address, count, end",
        [
            # Recorded before bare sides were counted on a fast path: y
            # first occurs inside a compound side, ahead of x's first, bare
            # occurrence, and both occur three times; the census reports
            # the first address in occurrence order.
            ("(z){ txn(y * z, x); txn(x, y); txn(x, y) }", "y", 3, 42),
            ("(a, b){ txn(a, x); txn(b # (w * y), x); txn(y, w); txn(x, y); txn(y, x) }", "x", 4, 73),
        ],
    )
    def test_first_non_linear_address_in_occurrence_order(self, src, address, count, end):
        p = parser.parse_program(src)
        with pytest.raises(NonLinearAddressError) as err:
            tc.check(p, [None] * len(p.interface))
        assert str(err.value) == f"address {address} occurs {count} time(s)"
        assert (err.value.address, err.value.count) == (address, count)
        assert err.value.span == sx.SourceSpan(0, end, 1, 1)

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


class TestWorkGate:
    """The axiom and literal rules take a leaf side directly: on shuffled
    pipelines, ``check`` starts ``sx.fold`` only for the one side that is
    a ``*``-chain of literals, and not at all when that side is a single
    literal."""

    @pytest.mark.parametrize("n", [200, 1600])
    @pytest.mark.parametrize("build", ["parsed", "constructed"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_no_fold_for_a_leaf_side(self, n, build, k, monkeypatch):
        rng = random.Random(f"work/{n}")
        p = pipeline(n, k, rng) if build == "parsed" else constructed_pipeline(n, k, rng)
        declared = [parser.parse_type(" * ".join(["satoshi"] * k))]
        folds = count_calls(monkeypatch, sx, "fold")
        judgment = tc.check(p, declared)
        assert len(folds) == (k > 1)
        assert judgment.interface_types == tuple(declared)


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

    def test_replay_rejects_a_malformed_root(self):
        judgment = check_src("(x){ txn(x, satoshi) }", "satoshi")
        root = judgment.derivation
        for bad_root in (
            tc.Derivation("Cut", root.node, None, root.children),
            tc.Derivation("Program", root.node, None, root.children[:1]),
        ):
            bad = tc.TypedJudgment(judgment.program, judgment.interface_types, bad_root)
            assert not tc.replay(bad)


_S, _B = sx.Atom("satoshi"), sx.Atom("btc")
_X = sx.Addr(sx.Address("x"))


def _leaf(t):
    return tc.Derivation("Axiom", _X, t)


def _branch(t):
    """A box premise: a program whose principal port has type ``t``."""
    return tc.Derivation("Program", sx.Program((_X,), ()), None, (_leaf(t),))


def _cut(t):
    """A cut concluding ``t``: a typed node whose first premise has type
    ``t``, as a branch's principal port would."""
    return tc.Derivation("Cut", sx.Transaction(_X, _X), t, (_leaf(t), _leaf(sx.dual(t))))


# One accepted node per shaped and box rule, and the cut: (type, premises).
_SOUND_NODES = {
    "Tensor": (sx.Tensor(_S, _B), (_leaf(_S), _leaf(_B))),
    "Par": (sx.Par(_S, _B), (_leaf(_S), _leaf(_B))),
    "Storage": (sx.WhyNot(_S), (_leaf(_S),)),
    "Disposal": (sx.WhyNot(_S), ()),
    "Contraction": (sx.WhyNot(_S), (_leaf(sx.WhyNot(_S)), _leaf(sx.WhyNot(_S)))),
    "Left": (sx.Plus(_S, _B), (_leaf(_S),)),
    "Right": (sx.Plus(_S, _B), (_leaf(_B),)),
    "With": (sx.With(_S, _B), (_branch(_S), _branch(_B))),
    "Replication": (sx.OfCourse(_S), (_branch(_S),)),
    "Cut": (_S, (_leaf(_S), _leaf(sx.dual(_S)))),
}

# Premises taken from the wrong part of the conclusion.
_WRONG_SLOT = {
    "Tensor": (_leaf(_B), _leaf(_S)),
    "Par": (_leaf(_B), _leaf(_S)),
    "Storage": (_leaf(sx.WhyNot(_S)),),
    "Contraction": (_leaf(_S), _leaf(_S)),
    "Left": (_leaf(_B),),
    "Right": (_leaf(_S),),
    "With": (_branch(_B), _branch(_S)),
    "Replication": (_branch(sx.OfCourse(_S)),),
}

# The premise kinds swapped: a program where a typed node belongs, or the
# reverse.
_WRONG_PREMISE_KIND = {
    "Tensor": (_branch(_S), _leaf(_B)),
    "Par": (_leaf(_S), _branch(_B)),
    "Storage": (_branch(_S),),
    "Contraction": (_branch(sx.WhyNot(_S)), _leaf(sx.WhyNot(_S))),
    "Left": (_branch(_S),),
    "Right": (_branch(_B),),
    "With": (_cut(_S), _branch(_B)),
    "Replication": (_cut(_S),),
    "Cut": (_branch(_S), _leaf(sx.dual(_S))),
}


def _replays(rule, t, premises):
    """``replay`` on a judgment whose one derivation node under the root is
    ``rule`` concluding ``t`` from ``premises``."""
    node = tc.Derivation(rule, _X, t, premises)
    if rule == "Cut":
        program = sx.Program((), (sx.Transaction(_X, _X),))
        return tc.replay(tc.TypedJudgment(program, (), tc.Derivation("Program", program, None, (node,))))
    program = sx.Program((_X,), ())
    return tc.replay(tc.TypedJudgment(program, (t,), tc.Derivation("Program", program, None, (node,))))


class TestReplayVerdicts:
    """``replay`` on single hand-built rule applications: each rule's sound
    node is accepted, and each way of breaking it is rejected."""

    @pytest.mark.parametrize("rule", sorted(_SOUND_NODES))
    def test_sound_node_accepted(self, rule):
        assert _replays(rule, *_SOUND_NODES[rule])

    @pytest.mark.parametrize("rule", sorted(set(_SOUND_NODES) - {"Cut"}))
    def test_wrong_connective_rejected(self, rule):
        t, premises = _SOUND_NODES[rule]
        flipped = sx.DUAL_CONNECTIVE[type(t)](*sx.children(t))
        assert not _replays(rule, flipped, premises)

    @pytest.mark.parametrize("rule", sorted(_SOUND_NODES))
    def test_wrong_premise_count_rejected(self, rule):
        t, premises = _SOUND_NODES[rule]
        assert not _replays(rule, t, premises + (_leaf(_S),))
        if premises:
            assert not _replays(rule, t, premises[:-1])

    @pytest.mark.parametrize("rule", sorted(_WRONG_SLOT))
    def test_premise_from_the_wrong_slot_rejected(self, rule):
        assert not _replays(rule, _SOUND_NODES[rule][0], _WRONG_SLOT[rule])

    def test_cut_concludes_its_left_side(self):
        assert not _replays("Cut", sx.dual(_S), _SOUND_NODES["Cut"][1])

    @pytest.mark.parametrize("rule", sorted(_WRONG_PREMISE_KIND))
    def test_wrong_premise_kind_rejected(self, rule):
        assert not _replays(rule, _SOUND_NODES[rule][0], _WRONG_PREMISE_KIND[rule])

    def test_cut_of_non_dual_sides_rejected(self):
        assert not _replays("Cut", _S, (_leaf(_S), _leaf(_S)))
        assert not _replays("Cut", _S, (_leaf(_S), _leaf(sx.dual(_B))))


class TestBoxErrors:
    """The two errors a well-shaped box can raise, exactly."""

    @pytest.mark.parametrize(
        "source, types, message, span",
        [
            (
                "(m){ txn(choose(m){ (satoshi, btc){}; (satoshi, doge){} }, inl(satoshi^)) }",
                ["btc"],
                "(btc) vs (doge)",
                "1:10",
            ),
            (
                "(m, n){ txn(choose(m, n){ (satoshi, btc, doge * btc){};"
                " (satoshi, doge, btc # btc){} }, inl(satoshi^)) }",
                [None, None],
                "(btc, doge * btc) vs (doge, btc # btc)",
                "1:13",
            ),
            (
                "(m){ txn(choose(m){ (satoshi, btc){};"
                " (satoshi, x * y){ txn(x, inl(doge)); txn(y, _) } }, inl(satoshi^)) }",
                [None],
                "(btc) vs ((doge + T9) * ?T11)",
                "1:10",
            ),
        ],
    )
    def test_menu_branches_disagree(self, source, types, message, span):
        program = parser.parse_program(source)
        with pytest.raises(BranchContextMismatchError) as err:
            tc.check(program, [None if t is None else parser.parse_type(t) for t in types])
        assert err.value.kind == "branch-context-mismatch"
        assert err.value.message == f"menu branches disagree on their shared context: {message}"
        assert str(err.value.span) == span

    @pytest.mark.parametrize(
        "source, types, found, span",
        [
            ("(s){ txn(!(s){ (satoshi, btc){} }, ?satoshi^) }", ["btc"], "btc", "1:10"),
            (
                "(s, t){ txn(!(s, t){ (satoshi, ?btc, btc * doge){} }, ?satoshi^) }",
                [None, None],
                "btc * doge",
                "1:13",
            ),
            ("(s){ txn(!(s){ (satoshi, x){ txn(x, inl(btc)) } }, ?satoshi^) }", [None], "btc + T5", "1:10"),
        ],
    )
    def test_replication_context_not_whynot(self, source, types, found, span):
        program = parser.parse_program(source)
        with pytest.raises(PromotionContextError) as err:
            tc.check(program, [None if t is None else parser.parse_type(t) for t in types])
        assert err.value.kind == "non-exponential-promotion-context"
        assert err.value.message == f"replication context must be ?-typed, found {found}"
        assert str(err.value.span) == span


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


class TestUntypableNodes:
    """Nodes no typing rule covers: a dual marker off a literal, and a
    node that is not an expression."""

    def test_dual_marker_on_an_address(self):
        program = sx.Program((sx.Dual(sx.Addr(sx.Address("a"))),), ())
        with pytest.raises(TypeMismatchError, match="^dual marker survives only on literals$"):
            tc.check(program, [sx.Atom("satoshi")])

    def test_foreign_node(self):
        program = sx.Program((sx.Atom("satoshi"),), ())
        with pytest.raises(TypeMismatchError, match="^cannot type Atom$"):
            tc.check(program, [sx.Atom("satoshi")])


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

    def test_ports_are_declared_without_building_a_dual(self, monkeypatch):
        # Each consumed binding's port is declared at the unifier's
        # constant-time dual of its type, not at a rebuilt one.
        a, b = parser.parse_expression("a"), parser.parse_expression("b")
        ctx = tc.TypeContext(
            [(a, parser.parse_type("satoshi * btc")), (b, parser.parse_type("?btc"))]
        )
        duals = count_calls(monkeypatch, sx, "dual")
        t, residual = tc.check_expression(parser.parse_expression("a # b"), ctx)
        assert duals == []
        assert parser.render(t) == "satoshi * btc # ?btc"
        assert residual.fully_consumed()


# ``check_expression`` cases: the expression, its context bindings and the
# expected type (None: unconstrained), all in concrete syntax.
_EXPRESSION_CASES = [
    ("a * b", [("a", "satoshi"), ("b", "btc")], None),
    ("inl(a)", [("a", "satoshi")], "satoshi + btc"),
    ("inl(a)", [("a", "satoshi")], None),
    ("t @ u", [("t", "?satoshi"), ("u", "?satoshi")], None),
    ("_ @ b", [("b", "?btc")], None),
    ("choose(m){ (satoshi, btc){}; (satoshi, btc){} }", [], None),
    ("satoshi^", [("satoshi", "btc")], None),
    ("a", [("a", "satoshi"), ("b", "btc")], None),
    ("a", [], None),
    ("a # b", [("a", "satoshi * btc"), ("b", "?btc")], None),
]


class TestUnifyOnlyWhereItCanFail:
    """``unify`` runs only where a unification can fail: a free variable
    forced into a shape is linked to a node over fresh variables directly,
    and each place that calls ``unify`` names its own failure."""

    def test_fresh_shapes_bind_without_unify(self, monkeypatch):
        # x's first occurrence is a free variable that the literal's n - 1
        # isolations shape one tensor at a time, with no unify. What
        # unifies: the n literal leaves, x's second occurrence, and a's.
        n = 1000
        program = parser.parse_program(f"(a){{ txn(x, {n}.satoshi); txn(x, a) }}")
        unifies = count_calls(monkeypatch, tc._Unifier, "unify")
        occurs = count_calls(monkeypatch, tc._Unifier, "_occurs")
        judgment = tc.check(program, [_tensor(n)])
        assert judgment.interface_types == (_tensor(n),)
        assert len(unifies) <= n + 2
        assert len(occurs) <= n + 1

    def test_no_unify_error_escapes(self, monkeypatch):
        # With every unification failing, checking still ends in a
        # TypeCheckError (or a judgment): no internal error leaves it.
        def refuse(self, a, b, negated=False):
            raise tc._UnifyError("refused")

        monkeypatch.setattr(tc._Unifier, "unify", refuse)
        refused = 0
        plain = ProgramGenerator(seed=1919)
        biased = ProgramGenerator(seed=1920, config=GenConfig(exponential_bias=0.8))
        for i in range(200):
            generated = (biased if i % 2 else plain).typed_program()
            try:
                tc.check(generated.program, generated.declared)
            except TypeCheckError as err:
                refused += "refused" in err.message
        for source, bindings, expected in _EXPRESSION_CASES:
            context = tc.TypeContext(
                (parser.parse_expression(e), parser.parse_type(t)) for e, t in bindings
            )
            try:
                tc.check_expression(
                    parser.parse_expression(source),
                    context,
                    None if expected is None else parser.parse_type(expected),
                )
            except TypeCheckError as err:
                refused += "refused" in err.message
        assert refused >= 200

    def test_accepted_judgments_hold_no_variable(self):
        # Every interface type left open: holes are defaulted before a
        # judgment is built, so neither its interface types nor its
        # derivation's types hold a T<n>.
        plain = ProgramGenerator(seed=2121)
        biased = ProgramGenerator(seed=2122, config=GenConfig(exponential_bias=0.8))
        for i in range(300):
            program = (biased if i % 2 else plain).typed_program().program
            judgment = tc.check(program, [None] * len(program.interface))
            types = [*judgment.interface_types]
            types += [node.type for node in sx.walk(judgment.derivation) if node.type is not None]
            assert not any(type(node) is tc._TVar for t in types for node in sx.walk(t))


    def test_each_occurrence_is_learned_at_most_once(self, monkeypatch):
        # Every scope learns an address's type at most as many times as its
        # census counted the address, and exactly as many on an accepted
        # program, so no occurrence is ever typed beyond its uses.
        counted, learned = {}, {}
        make, learn = tc._Scope.__init__, tc._Scope._learn

        def census(scope, *args):
            make(scope, *args)
            counted[id(scope)] = Counter({a: use[0] for a, use in scope.uses.items()})
            learned[id(scope)] = Counter()

        def typed(scope, address, t, span):
            learned[id(scope)][address] += 1
            assert learned[id(scope)][address] <= counted[id(scope)][address]
            return learn(scope, address, t, span)

        monkeypatch.setattr(tc._Scope, "__init__", census)
        monkeypatch.setattr(tc._Scope, "_learn", typed)
        rng = random.Random(4243)
        linear = [linear_program(rng, rng.randrange(3), rng.randrange(1, 5)) for _ in range(600)]
        outcomes = Counter()
        for program, declared in [
            *_pinned_corpus(count=200, seed=4242),
            *((p, [None] * len(p.interface)) for p in linear),
        ]:
            counted.clear()
            learned.clear()
            try:
                tc.check(program, declared)
            except TypeCheckError:
                outcomes["error"] += 1
                continue
            outcomes["ok"] += 1
            assert counted == learned
        assert outcomes["ok"] > 200 and outcomes["error"] > 200


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
            # x's type is found cyclic only through y's bound variable.
            ("(){ txn(x, ?y); txn(y, ?x) }", [], "x", "cyclic type", "1:25"),
            # The menu's three context slots: each branch links two of them
            # as duals, and so does txn(x1, x3), so x3's type must be its
            # own dual while no shape is known for it.
            (
                "(x2, choose(x1, x2, x3){ (p, a, a, p){}; (q, q, b, b){} }){ txn(x1, x3) }",
                [None, None],
                "x3",
                "a type cannot be its own dual",
                "1:69",
            ),
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
    def test_resolutions_share_the_memo(self):
        # A Cut's type and its left premise's type are one unresolved type;
        # resolved through the memo ``check`` shares, they are one object.
        program = parser.parse_program("(){ txn(x * y, z); txn(z, u # v); txn(x, u); txn(y, v) }")
        cuts = tc.check(program, []).derivation.children
        assert [cut.rule for cut in cuts] == ["Cut"] * 4
        for cut in cuts:
            assert cut.type is cut.children[0].type

    def test_path_compression_keeps_polarity(self):
        # v0 = v1^, v1 = v2, v2 = v3^, v3 = v4: one chain of four links.
        unifier = tc._Unifier()
        v = [unifier.fresh() for _ in range(5)]
        for i, flip in enumerate((True, False, True, False)):
            unifier.unify(v[i], unifier.neg(v[i + 1]) if flip else v[i + 1])
        expected = ["satoshi", "satoshi^", "satoshi^", "satoshi", "satoshi"]
        unifier.head(v[0])  # compresses the whole chain
        unifier.default_leftovers()
        assert [parser.render(unifier.resolve(var)) for var in v] == expected

    @pytest.mark.parametrize("size", [1, 6, 60, 400])
    def test_shown_is_the_cut_rendering(self, size):
        # shown writes only the head of a type, chasing variables as it
        # goes; it must agree with resolving the whole type and cutting its
        # rendering.
        rng = random.Random(size)
        unifier = tc._Unifier()
        leaves = [sx.Atom("satoshi"), sx.Atom("btc", True), unifier.fresh()]
        kinds = [sx.Tensor, sx.Par, sx.With, sx.Plus, sx.OfCourse, sx.WhyNot]
        top = leaves[0]
        for _ in range(size):
            node, slots = unifier.shaped(rng.choice(kinds))
            chained = rng.randrange(len(slots))
            for i, slot in enumerate(slots):
                value = top if i == chained else rng.choice(leaves)
                unifier.unify(slot, unifier.neg(value) if rng.random() < 0.3 else value)
            top = node

        def cut(text):
            return text if len(text) <= tc.MAX_SHOWN_TYPE else text[: tc.MAX_SHOWN_TYPE - 3] + "..."

        for negated in (False, True):
            whole = parser.render(unifier.resolve(top, negated))
            assert unifier.shown(top, negated) == cut(whole)
        assert (len(whole) > tc.MAX_SHOWN_TYPE) == (size >= 400)

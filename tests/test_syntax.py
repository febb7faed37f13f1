"""Core model: duality, desugaring, renaming, and address analysis."""
import time

import pytest
from hypothesis import given, strategies as st

from llbc import parser
from llbc import reduce
from llbc import syntax as sx
from llbc import typecheck as tc
from llbc.errors import DualityError, NonLinearAddressError, TypeCheckError

sat = sx.Atom("satoshi")
btc = sx.Atom("btc")


def types(max_depth=8):
    atoms = st.builds(
        sx.Atom,
        st.sampled_from(["satoshi", "btc", "ampere", "doge"]),
        st.booleans(),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(sx.Tensor, sub, sub),
            st.builds(sx.Par, sub, sub),
            st.builds(sx.With, sub, sub),
            st.builds(sx.Plus, sub, sub),
            st.builds(sx.OfCourse, sub),
            st.builds(sx.WhyNot, sub),
        ),
        max_leaves=2 ** max_depth,
    )


class TestDual:
    def test_atom_flips_polarity(self):
        assert sx.dual(sx.Tensor(sat, sat)) == sx.Par(
            sx.Atom("satoshi", True), sx.Atom("satoshi", True)
        )

    def test_exponential(self):
        assert sx.dual(sx.OfCourse(sat)) == sx.WhyNot(sx.Atom("satoshi", True))

    def test_connective_swaps(self):
        assert isinstance(sx.dual(sx.With(sat, btc)), sx.Plus)
        assert isinstance(sx.dual(sx.Plus(sat, btc)), sx.With)
        assert isinstance(sx.dual(sx.Par(sat, btc)), sx.Tensor)

    @given(types())
    def test_involution(self, t):
        assert sx.dual(sx.dual(t)) == t

    def test_deep_type(self):
        deep = sat
        for _ in range(20000 - 1):
            deep = sx.Tensor(deep, sat)
        flipped = sx.dual(deep)
        assert parser.render(flipped) == " # ".join(["satoshi^"] * 20000)
        assert parser.render(sx.dual(flipped)) == parser.render(deep)

    def test_expression_is_not_a_type(self):
        with pytest.raises(TypeError):
            sx.dual(sx.Unit("btc"))


class TestDualizeExpr:
    def test_identity_on_addresses(self):
        x = sx.Addr(sx.Address("x"))
        assert sx.dualize_expr(x) == x

    def test_swaps_isolation_and_connection(self):
        e = parser.parse_expression("a * b")
        assert parser.render(sx.dualize_expr(e)) == "a # b"

    def test_unit_becomes_demand(self):
        assert sx.dualize_expr(sx.Unit("btc")) == sx.Dual(sx.Unit("btc"))

    def test_involution_on_dualizable(self):
        for source in ("a # b", "a * (b # c)", "satoshi", "x"):
            e = parser.parse_expression(source)
            assert sx.dualize_expr(sx.dualize_expr(e)) == e

    @pytest.mark.parametrize("source", ["inl(a)", "?a", "_", "a @ b"])
    def test_rejected_forms(self, source):
        with pytest.raises(DualityError):
            sx.dualize_expr(parser.parse_expression(source))

    def test_rejected_on_boxes(self):
        box = parser.parse_expression("choose(x){ (a){}; (b){} }")
        with pytest.raises(DualityError):
            sx.dualize_expr(box)

    @pytest.mark.parametrize(
        "source, form",
        [("a * inl(?b) # ?c", "Inl"), ("?a * inl(b)", "Store"), ("a # (b * (c @ d))", "Contract")],
    )
    def test_error_names_the_leftmost_outermost_form(self, source, form):
        with pytest.raises(DualityError, match=f"not defined on {form} expressions"):
            sx.dualize_expr(parser.parse_expression(source))

    def test_deep_literal(self):
        demand = parser.parse_expression("20000 . satoshi^")
        assert type(demand) is sx.Conn
        assert parser.render(demand) == " # ".join(["satoshi^"] * 20000)
        assert parser.render(sx.dualize_expr(demand)) == "20000 . satoshi"


class TestDesugar:
    def test_simple_obligation(self):
        e = sx.desugar_obligation(
            sx.Addr(sx.Address("x")), sx.Addr(sx.Address("y"))
        )
        assert parser.render(e) == "x # y"

    def test_isolated_operand(self):
        e = parser.parse_expression("(a * b) -o c")
        assert parser.render(e) == "a # b # c"
        assert e == sx.Conn(
            sx.Conn(sx.Addr(sx.Address("a")), sx.Addr(sx.Address("b"))),
            sx.Addr(sx.Address("c")),
        )

    def test_nested_obligations(self):
        e = parser.parse_expression("x -o (y -o z)")
        assert parser.render(e) == "x # (y # z)"

    def test_introduces_no_new_addresses(self):
        left = parser.parse_expression("a * (b # c)")
        right = parser.parse_expression("d")
        out = sx.desugar_obligation(left, right)
        assert sx.free_addresses(out) == sx.free_addresses(left) | sx.free_addresses(right)


class TestRename:
    def test_single_step(self):
        x = sx.Address("x")
        assert sx.rename(x, "l") == sx.Address("x", ("l",))
        assert sx.rename(x, "l") != x
        assert sx.rename(x, "l") != sx.rename(x, "r")

    def test_only_the_two_sides_extend_a_path(self):
        with pytest.raises(ValueError, match="invalid freshness path"):
            sx.Address("a", ("x",))
        with pytest.raises(ValueError, match="freshness side must be 'l' or 'r'"):
            sx.Address("a").extended("x")
        with pytest.raises(ValueError, match="freshness side must be 'l' or 'r'"):
            sx.rename(parser.parse_expression("a * b"), "x")

    def test_structural(self):
        t = parser.parse_program("(){ txn(a, b * c) }").pending[0]
        renamed = sx.rename(t, "r")
        assert parser.render(renamed) == "txn(a.r, b.r * c.r)"

    def test_two_step_paths_pairwise_distinct(self):
        # Oracle: enumerate every address reachable in at most two renames
        # and require them pairwise distinct.
        x = sx.Address("x")
        reached = [x]
        for first in ("l", "r"):
            one = sx.rename(x, first)
            reached.append(one)
            for second in ("l", "r"):
                reached.append(sx.rename(one, second))
        assert len(set(reached)) == len(reached)

    def test_preserves_shape(self):
        p = parser.parse_program(
            "(a * b){ txn(choose(x){ (c){}; (d){} }, inl(a)); txn(b, satoshi) }"
        )
        renamed = sx.rename(p, "l")
        assert sx.node_count(renamed) == sx.node_count(p)
        assert len(renamed.interface) == len(p.interface)
        assert all(
            type(x) is type(y) for x, y in zip(renamed.pending, p.pending)
        )

    def test_injective_on_addresses(self):
        p = parser.parse_program("(a, b){ txn(a, c); txn(c, b) }")
        before = sx.free_addresses(p)
        after = sx.free_addresses(sx.rename(p, "r"))
        assert len(after) == len(before)
        assert after == {sx.rename(a, "r") for a in before}


class TestFreeAddresses:
    def test_bare_interface(self):
        p = parser.parse_program("(x){}")
        assert sx.free_addresses(p) == {sx.Address("x")}

    def test_binders_are_visible_but_scope_branches(self):
        p = parser.parse_program(
            "(){ txn(choose(x){ (a, q){}; (b, q2){} }, inl(y)) }"
        )
        free = sx.free_addresses(p)
        # The context binder x and the payload y are free; branch-internal
        # names are not.
        assert sx.Address("x") in free
        assert sx.Address("y") in free
        assert sx.Address("a") in free and sx.Address("q") in free
        # Branch names shadowed by the binder do not leak.
        shadowing = parser.parse_program(
            "(){ txn(choose(x){ (a, x){}; (b, x){} }, inl(y)) }"
        )
        assert sx.Address("a") in sx.free_addresses(shadowing)

    def test_placeholder_binder_is_inert(self):
        p = parser.parse_program("(){ txn(choose(spnd){ (a){}; (b){} }, inl(y)) }")
        free = sx.free_addresses(p)
        assert sx.Address("spnd") not in free
        assert free == {sx.Address("a"), sx.Address("b"), sx.Address("y")}

    def test_genesis_m3(self):
        genesis = parser.parse_program(
            "(addr1 * addr2 * addr3)"
            "{ txn(addr1, satoshi); txn(addr2, satoshi); txn(addr3, satoshi) }"
        )
        assert sx.free_addresses(genesis) == {
            sx.Address("addr1"),
            sx.Address("addr2"),
            sx.Address("addr3"),
        }


class TestAlphaEquivalence:
    def test_fresh_paths_relabel(self):
        a = parser.parse_program("(x){ txn(x.l, satoshi) }")
        b = parser.parse_program("(x){ txn(x.r, satoshi) }")
        assert sx.alpha_equivalent(a, b)

    def test_base_names_must_match(self):
        a = parser.parse_program("(x){ txn(y, satoshi) }")
        b = parser.parse_program("(x){ txn(z, satoshi) }")
        assert not sx.alpha_equivalent(a, b)

    def test_relabelling_must_be_bijective(self):
        a = parser.parse_program("(){ txn(x.l, x.r) }")
        b = parser.parse_program("(){ txn(x.l, x.l) }")
        assert not sx.alpha_equivalent(a, b)

    def test_pending_order_insensitive(self):
        a = parser.parse_program("(x, y){ txn(x, satoshi); txn(y, btc) }")
        b = parser.parse_program("(x, y){ txn(y, btc); txn(x, satoshi) }")
        assert sx.alpha_equivalent(a, b)

    def test_transaction_sides_symmetric(self):
        a = parser.parse_program("(x){ txn(x, satoshi) }")
        b = parser.parse_program("(x){ txn(satoshi, x) }")
        assert sx.alpha_equivalent(a, b)

    def test_interface_order_sensitive(self):
        a = parser.parse_program("(x, y){}")
        b = parser.parse_program("(y, x){}")
        assert not sx.alpha_equivalent(a, b)

    @pytest.mark.parametrize("n", [400, 100000])
    def test_deep_literal_against_itself(self, n):
        p = parser.parse_program(f"(a){{ txn(a, {n}.satoshi) }}")
        assert sx.alpha_equivalent(p, p)
        q = parser.parse_program(f"(a){{ txn({n - 1}.satoshi * btc, a) }}")
        assert not sx.alpha_equivalent(p, q)

    def test_reversed_pending_list(self):
        # Every transaction has its own key, and the match is one pass.
        txns = [
            parser.parse_program(f"(){{ txn(a{i}.l, x{i} # satoshi) }}").pending[0]
            for i in range(2000)
        ]
        a = sx.Program((), tuple(txns))
        b = sx.Program((), tuple(reversed(txns)))
        start = time.perf_counter()
        assert sx.alpha_equivalent(a, b)
        assert time.perf_counter() - start < 5
        relabelled = sx.Program((), (sx.rename(txns[0], sx.RIGHT), *txns[1:]))
        assert sx.alpha_equivalent(a, relabelled)
        broken = sx.Program((), (txns[1], *txns[1:]))
        assert not sx.alpha_equivalent(a, broken)

    def test_backtracks_over_an_orientation(self):
        # x.l and x.r are interchangeable in the first transaction alone, but
        # only one choice lets the second one match.
        a = parser.parse_program("(){ txn(x.l, x.r); txn(x.l.l, x.l) }")
        b = parser.parse_program("(){ txn(x.l, x.r); txn(x.l.l, x.r) }")
        assert sx.alpha_equivalent(a, b)
        x = sx.Address("x")
        l, r, ll = x.extended("l"), x.extended("r"), x.extended("l").extended("l")
        assert sx._relabelling(a, b) == {l: r, r: l, ll: ll}


class TestCounting:
    def test_unit_multiset_counts_through_boxes(self):
        p = parser.parse_program(
            "(){ txn(choose(x){ (satoshi){}; (2 . satoshi){} }, inl(btc)) }"
        )
        counts = sx.unit_multiset(p)
        assert counts == {"satoshi": 3, "btc": 1}

    def test_node_count_positive(self):
        p = parser.parse_program("(x){ txn(x, satoshi) }")
        assert sx.node_count(p) == 5  # program, txn, interface addr, txn addr, unit


class TestTraversal:
    # Every expression form, every type connective, a menu, a replication
    # box, transactions and programs.
    ALL_FORMS = (
        "(a, inl(b) * inr(c), ?d @ e, _){ txn(f # g, h^); txn(satoshi^, i); "
        "txn(choose(m){ (j){}; (k){} }, !(n){ (p, n){ txn(p, 2 . btc) } }) }"
    )
    ALL_TYPES = "(!satoshi # ?btc^) * (satoshi & btc + btc)"

    def test_every_node_kind_rebuilds(self):
        kinds = {
            cls
            for cls in vars(sx).values()
            if isinstance(cls, type)
            and issubclass(cls, (sx.Expression, sx.LinearType, sx.Transaction, sx.Program))
            and cls not in (sx.Expression, sx.LinearType)
        }
        roots = (parser.parse_program(self.ALL_FORMS), parser.parse_type(self.ALL_TYPES))
        seen = set()
        for root in roots:
            for node in sx.walk(root):
                seen.add(type(node))
                assert sx.rebuild(node, sx.children(node)) == node
        assert seen == kinds

    def test_deep_literal(self):
        literal = parser.parse_expression("100000 . satoshi")
        assert sx.node_count(literal) == 2 * 100000 - 1
        assert sx.unit_multiset(literal) == {"satoshi": 100000}
        assert sx.free_addresses(literal) == frozenset()
        txn = sx.Transaction(sx.Addr(sx.Address("a")), literal)
        renamed = sx.rename(txn, sx.LEFT)
        assert renamed.left.address == sx.Address("a", (sx.LEFT,))
        assert sx.node_count(renamed) == sx.node_count(txn)

    def test_unpartnered_binder_in_interface_rejected(self):
        # The box's context binder m is an occurrence of the enclosing
        # program with no partner there.
        p = parser.parse_program("(choose(m){ (satoshi, btc){}; (satoshi, btc){} }){}")
        with pytest.raises(NonLinearAddressError):
            tc.check(p, [parser.parse_type("satoshi & satoshi")])
        occurrences = list(sx.surface_occurrences(p))
        assert occurrences == [(sx.Address("m"), sx.BINDER)]


def _iso_chain(n, last="satoshi"):
    """An n-deep left spine of isolations whose deepest literal is ``last``."""
    e = sx.Unit(last)
    for _ in range(n - 1):
        e = sx.Iso(e, sx.Unit("satoshi"))
    return e


class TestNode:
    """The immutable node base: generated constructors and repr, iterative
    equality and hashing, no assignment."""

    N = 100000

    def test_deep_equality_and_hash(self):
        a, b = _iso_chain(self.N), _iso_chain(self.N)
        assert a == b and hash(a) == hash(b)
        differs = _iso_chain(self.N, last="btc")
        assert a != differs
        assert hash(a) != hash(differs)
        assert len({a, b, differs}) == 2

    def test_span_is_outside_equality_and_repr(self):
        span = sx.SourceSpan(0, 1, 1, 1)
        assert sx.Unit("btc", span=span) == sx.Unit("btc")
        assert hash(sx.Unit("btc", span=span)) == hash(sx.Unit("btc"))
        assert repr(sx.Unit("btc", span=span)) == "Unit(unit='btc')"
        assert repr(sx.Atom("btc")) == "Atom(unit='btc', negated=False)"

    def test_constructors_and_match_args_keep_field_order(self):
        assert sx.Choose.__match_args__ == ("bound", "left", "right", "span")
        assert sx.Address("a", path=("l",)) == sx.Address("a", ("l",))
        assert sx.Iso(left=sx.Unit("btc"), right=sx.Dispose()) == sx.Iso(sx.Unit("btc"), sx.Dispose())
        with pytest.raises(TypeError):
            sx.Iso(sx.Unit("btc"))

    def test_assignment_raises(self):
        node = sx.Iso(sx.Unit("btc"), sx.Dispose())
        with pytest.raises(AttributeError):
            node.left = sx.Dispose()
        with pytest.raises(AttributeError):
            del node.right
        assert node.left == sx.Unit("btc")

    def test_replace_checks_like_a_constructor(self):
        box = parser.parse_expression("!(x, y){ (a, b, c){} }")
        assert box.replace(bound=(sx.Address("z"), sx.Address("y"))).body is box.body
        with pytest.raises(ValueError):
            box.replace(bound=(sx.Address("x"), sx.Address("x")))

    def test_trusted_skips_the_check(self):
        with pytest.raises(ValueError):
            sx.SourceSpan(2, 1, 1, 1)
        span = sx.SourceSpan.trusted(2, 1, 1, 1)
        assert (span.begin, span.end) == (2, 1)
        assert sx.Address("a").extended(sx.LEFT) == sx.Address("a", (sx.LEFT,))

    @pytest.mark.parametrize("word", ["_", "txn", "choose", "inl", "inr"])
    def test_address_refuses_words_no_script_can_write(self, word):
        # ``_`` reads as a disposal and the keywords as syntax, so neither
        # can be an address.
        with pytest.raises(ValueError, match="invalid address name"):
            sx.Address(word)

    def test_addresses_order_by_name_then_path(self):
        addresses = [sx.Address("b"), sx.Address("a", ("r",)), sx.Address("a"), sx.Address("a", ("l",))]
        assert [a.render() for a in sorted(addresses)] == ["a", "a.l", "a.r", "b"]
        assert sx.Address("a", ("r",)) >= sx.Address("a", ("l",)) > sx.Address("a")
        with pytest.raises(TypeError):
            sx.Address("a") < 1

    def test_leaves_compare_by_class_and_data(self):
        assert sx.Atom("btc") == sx.Atom("btc", span=sx.SourceSpan(0, 3, 1, 1))
        assert hash(sx.Atom("btc")) == hash(sx.Atom("btc"))
        assert sx.Atom("btc") != sx.Atom("btc", True)
        assert sx.Atom("btc") != sx.Unit("btc") and sx.Unit("btc") != sx.Atom("btc")
        assert sx.Dispose() == sx.Dispose() and len({sx.Dispose(), sx.Dispose()}) == 1


class TestAlphaTransitivity:
    # A box body's pending list is a multiset at every level, not only at
    # the top: B reorders both levels of A, C only the box body.
    A = "(){ txn(u, !(){ (x, y){ txn(x, satoshi); txn(y, btc) } }); txn(v, satoshi) }"
    B = "(){ txn(v, satoshi); txn(u, !(){ (x, y){ txn(y, btc); txn(x, satoshi) } }) }"
    C = "(){ txn(u, !(){ (x, y){ txn(y, btc); txn(x, satoshi) } }); txn(v, satoshi) }"

    @pytest.mark.parametrize("left, right", [("A", "C"), ("C", "B"), ("A", "B"), ("B", "A")])
    def test_nested_pending_reorderings(self, left, right):
        a = parser.parse_program(getattr(self, left))
        b = parser.parse_program(getattr(self, right))
        assert sx.alpha_equivalent(a, b)

    def test_box_binders_go_through_the_bijection(self):
        a = parser.parse_program("(x.l){ txn(!(x.l){ (a, y){} }, ?satoshi) }")
        b = parser.parse_program("(x.r){ txn(!(x.r){ (a, y){} }, ?satoshi) }")
        c = parser.parse_program("(x.r){ txn(!(x.l){ (a, y){} }, ?satoshi) }")
        assert sx.alpha_equivalent(a, b)
        assert not sx.alpha_equivalent(a, c)


class TestBoxArity:
    """One rule decides a box's context binders; the reducer fires a box
    only when it holds, and the checker reports what is wrong otherwise."""

    @pytest.mark.parametrize(
        "source, binders, verdict",
        [
            ("(){ txn(choose(p){ (a){}; (b){} }, inl(satoshi)) }", (), None),
            ("(){ txn(choose(){ (a){}; (b){} }, inl(satoshi)) }", (), None),
            ("(x){ txn(choose(p, x){ (a, y){}; (b, z){} }, inl(satoshi)) }", ("x",), None),
            ("(x){ txn(choose(x){ (a, y){}; (b, z){} }, inl(satoshi)) }", ("x",), None),
            ("(x){ txn(choose(x){ (a, y){}; (b){} }, inl(satoshi)) }", None,
             "branch-context-mismatch: menu branches must expose the same, non-empty interface"),
            ("(){ txn(choose(){ (){}; (){} }, inl(satoshi)) }", None,
             "branch-context-mismatch: menu branches must expose the same, non-empty interface"),
            ("(p){ txn(choose(p){ (a){}; (){} }, inl(satoshi)) }", None,
             "branch-context-mismatch: menu branches must expose the same, non-empty interface"),
            ("(x, w){ txn(choose(x, w){ (a){}; (b){} }, inl(satoshi)) }", None,
             "type-mismatch: menu binds 2 address(es) for branches of width 1"),
            ("(){ txn(!(){ (a){} }, ?satoshi) }", (), None),
            ("(x){ txn(!(x){ (a, y){} }, ?satoshi) }", ("x",), None),
            ("(x){ txn(!(x){ (a){} }, ?satoshi) }", None,
             "type-mismatch: replication binds 1 address(es) for a body of width 1"),
            ("(){ txn(!(){ (){} }, ?satoshi) }", None,
             "type-mismatch: replication body must expose a principal port"),
        ],
    )
    def test_rule_reducer_and_checker_agree(self, source, binders, verdict):
        program = parser.parse_program(source)
        box = program.pending[0].left
        found = sx.context_binders(box)
        assert (None if found is None else tuple(a.render() for a in found)) == binders
        assert bool(reduce.find_redexes(program)) == (binders is not None)
        try:
            tc.check(program, [None] * len(program.interface))
        except TypeCheckError as err:
            assert f"{err.kind}: {err.message}" == verdict
        else:
            assert verdict is None

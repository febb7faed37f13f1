"""Concrete syntax: golden parses, precedence, spans, and round trips."""
import gc
import hashlib
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings

import hypothesis.strategies as st

from llbc import parser
from llbc import syntax as sx
from llbc.errors import LimitError, ParseError
from llbc.generate import ProgramGenerator

from helpers import count_calls


class TestProgramGolden:
    def test_genesis_m2(self):
        p = parser.parse_program(
            "(addr1 * addr2){ txn(addr1, satoshi); txn(addr2, satoshi) }"
        )
        assert len(p.interface) == 1
        assert p.interface[0] == sx.Iso(
            sx.Addr(sx.Address("addr1")), sx.Addr(sx.Address("addr2"))
        )
        assert len(p.pending) == 2
        assert p.pending[0] == sx.Transaction(
            sx.Addr(sx.Address("addr1")), sx.Unit("satoshi")
        )

    def test_burn_m1(self):
        p = parser.parse_program("(addr1){ txn(addr1, _) }")
        assert p.pending[0] == sx.Transaction(sx.Addr(sx.Address("addr1")), sx.Dispose())

    def test_empty(self):
        p = parser.parse_program("(){}")
        assert p == sx.Program((), ())

    def test_comments_and_whitespace(self):
        p = parser.parse_program(
            """
            // genesis with one coin
            ( addr1 ) {
              txn(addr1, satoshi) // assignment
            }
            """
        )
        assert len(p.pending) == 1

    def test_trailing_semicolon(self):
        p = parser.parse_program("(x){ txn(x, satoshi); }")
        assert len(p.pending) == 1


class TestExpressionSyntax:
    @pytest.mark.parametrize(
        "source, rendered",
        [
            ("a * b * c", "a * b * c"),  # left associative
            ("a * (b * c)", "a * (b * c)"),
            ("a # b # c", "a # b # c"),
            ("a * b # c", "a * b # c"),  # * binds tighter than #
            ("(a # b) * c", "(a # b) * c"),
            ("a @ b @ c", "a @ b @ c"),
            ("?a @ b", "?a @ b"),
            ("inl(a * b)", "inl(a * b)"),
            ("?(a # b)", "?(a # b)"),
            ("3 . satoshi", "3 . satoshi"),
            ("satoshi * satoshi * satoshi", "3 . satoshi"),
            ("satoshi * btc", "satoshi * btc"),
            ("satoshi^", "satoshi^"),
        ],
    )
    def test_precedence_round_trip(self, source, rendered):
        e = parser.parse_expression(source)
        assert parser.render(e) == rendered
        assert parser.parse_expression(parser.render(e)) == e

    def test_obligation_desugars(self):
        e = parser.parse_expression("a * b -o c")
        assert parser.render(e) == "a # b # c"

    def test_obligation_right_associative(self):
        assert parser.parse_expression("x -o y -o z") == parser.parse_expression(
            "x -o (y -o z)"
        )

    def test_unit_chain_is_left_assoc_isolation(self):
        assert parser.parse_expression("3 . btc") == parser.parse_expression(
            "(btc * btc) * btc"
        )

    def test_postfix_dual_eliminates(self):
        assert parser.parse_expression("(a * b)^") == parser.parse_expression("a # b")
        assert parser.parse_expression("x^") == parser.parse_expression("x")
        assert parser.parse_expression("satoshi^^") == parser.parse_expression("satoshi")

    def test_freshness_suffix(self):
        e = parser.parse_expression("x.l.r")
        assert e == sx.Addr(sx.Address("x", ("l", "r")))
        assert parser.render(e) == "x.l.r"

    def test_boxes(self):
        e = parser.parse_expression("!(x, y){ (a, ?b, ?c){} }")
        assert isinstance(e, sx.Bang)
        assert e.bound == (sx.Address("x"), sx.Address("y"))
        m = parser.parse_expression("choose(x){ (a){}; (b){} }")
        assert isinstance(m, sx.Choose)


class TestTypeSyntax:
    def test_tensor(self):
        assert parser.parse_type("satoshi * satoshi") == sx.Tensor(
            sx.Atom("satoshi"), sx.Atom("satoshi")
        )

    def test_lollipop_desugars(self):
        t = parser.parse_type("satoshi -o btc")
        assert t == sx.Par(sx.Atom("satoshi", True), sx.Atom("btc"))

    def test_exponential_additive(self):
        t = parser.parse_type("!(satoshi + btc)")
        assert t == sx.OfCourse(sx.Plus(sx.Atom("satoshi"), sx.Atom("btc")))

    @pytest.mark.parametrize(
        "source, rendered",
        [
            ("satoshi * btc # doge", "satoshi * btc # doge"),
            ("satoshi # (btc * doge)", "satoshi # btc * doge"),
            ("(satoshi # btc) * doge", "(satoshi # btc) * doge"),
            ("satoshi & btc + doge", "satoshi & btc + doge"),
            ("(satoshi + btc) & doge", "(satoshi + btc) & doge"),
            ("!?satoshi^", "!?satoshi^"),
            ("(satoshi * btc)^", "satoshi^ # btc^"),
            ("satoshi * (btc # doge)", "satoshi * (btc # doge)"),
        ],
    )
    def test_round_trip(self, source, rendered):
        t = parser.parse_type(source)
        assert parser.render(t) == rendered
        assert parser.parse_type(parser.render(t)) == t

    def test_deep_types_render(self):
        n = 100000
        right = sx.Atom("satoshi")
        for _ in range(n - 1):
            right = sx.Tensor(sx.Atom("satoshi"), right)
        assert parser.render(right) == "satoshi * (" * (n - 2) + "satoshi * satoshi" + ")" * (n - 2)
        assert parser.render(sx.WhyNot(right)).startswith("?(satoshi * (satoshi")

    def test_render_reads_a_dual(self):
        rng = random.Random(3)
        atoms = [sx.Atom("satoshi"), sx.Atom("btc", True)]
        kinds = [sx.Tensor, sx.Par, sx.With, sx.Plus, sx.OfCourse, sx.WhyNot]
        for _ in range(200):
            t = rng.choice(atoms)
            for _ in range(rng.randrange(12)):
                kind = rng.choice(kinds)
                other = rng.choice(atoms)
                if kind in (sx.OfCourse, sx.WhyNot):
                    t = kind(t)
                else:
                    t = kind(other, t) if rng.random() < 0.5 else kind(t, other)
            assert parser.render(t, True) == parser.render(sx.dual(t))

    def test_render_stops_past_its_limit(self):
        deep = sx.Atom("satoshi")
        for _ in range(20000):
            deep = sx.Tensor(deep, sx.Atom("satoshi"))
        whole = parser.render(deep, True)
        head = parser.render(deep, True, limit=1000)
        assert 1000 < len(head) < 1100 and whole.startswith(head)
        short = parser.parse_type("!(satoshi + btc)")
        assert parser.render(short, limit=len("!(satoshi + btc)")) == "!(satoshi + btc)"
        # An expression stops too: alternating units leave no sugar to
        # shorten the chain.
        chain = sx.Unit("satoshi")
        for i in range(20000):
            chain = sx.Iso(chain, sx.Unit("btc" if i % 2 == 0 else "satoshi"))
        head = parser.render(chain, limit=1000)
        assert 1000 < len(head) < 1100 and parser.render(chain).startswith(head)

    def test_dual_is_negation_normal(self):
        t = parser.parse_type("(satoshi * (btc & doge))^")
        assert t == sx.Par(
            sx.Atom("satoshi", True), sx.Plus(sx.Atom("btc", True), sx.Atom("doge", True))
        )


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "(", "(x){", "(x){ txn(x) }", "(x){ txn(x, ) }", "x * ", "choose(x){ (a){} }",
            "(x){ foo(x, y) }", "3 . unknownunit", "satoshi.l", "!x", "5 @",
        ],
    )
    def test_malformed_input(self, source):
        with pytest.raises(ParseError):
            parser.parse_program(source) if source.startswith("(") else parser.parse_expression(source)

    def test_error_has_span(self):
        try:
            parser.parse_program("(x){ txn(x satoshi) }")
        except ParseError as err:
            assert err.span is not None
            assert err.span.line == 1
            assert err.expected
        else:
            pytest.fail("expected a parse error")

    def test_keyword_not_address(self):
        with pytest.raises(ParseError):
            parser.parse_expression("txn")

    def test_duplicate_binders(self):
        with pytest.raises(ParseError):
            parser.parse_expression("choose(x, x){ (a, b){}; (c, d){} }")

    def test_spans_attached(self):
        p = parser.parse_program("(x){ txn(x, satoshi) }")
        assert p.span is not None
        assert p.pending[0].span is not None
        assert p.pending[0].left.span is not None


def _nested(form, depth):
    """``form`` nested ``depth`` times around an innermost operand."""
    opening, leaf, closing = form
    return opening * depth + leaf + closing * depth


_NESTINGS = {
    "parentheses": (parser.parse_expression, ("(", "a", ")")),
    "type parentheses": (parser.parse_type, ("(", "satoshi", ")")),
    "selections": (parser.parse_expression, ("inl(", "a", ")")),
    "obligations": (parser.parse_expression, ("a -o ", "a", "")),
    "type implications": (parser.parse_type, ("satoshi -o ", "satoshi", "")),
    "boxes": (parser.parse_expression, ("!(){ (", "a", "){} }")),
}


class TestNestingLimit:
    """Operands nest at most ``MAX_NESTING`` levels; deeper input is one
    ``LimitError``, never a ``RecursionError``."""

    @pytest.mark.parametrize("name", _NESTINGS)
    def test_deep_nesting_is_a_limit_error(self, name):
        parse, form = _NESTINGS[name]
        parse(_nested(form, parser.MAX_NESTING // 2))
        for depth in (parser.MAX_NESTING + 1, 100000):
            with pytest.raises(LimitError) as caught:
                parse(_nested(form, depth))
            assert caught.value.kind == "limit"

    def test_limit_is_exact_for_parentheses(self):
        # The outermost operand is the first level.
        deepest = _nested(("(", "a", ")"), parser.MAX_NESTING - 1)
        assert parser.parse_expression(deepest) == sx.Addr(sx.Address("a"))
        with pytest.raises(LimitError) as caught:
            parser.parse_expression("(" + deepest + ")")
        assert str(caught.value.span) == f"1:{parser.MAX_NESTING + 1}"

    def test_literals_of_one_parse_are_capped(self):
        # The cap counts every N . unit of one parse, and the error sits at
        # the integer that crosses it.
        limit = parser.MAX_LITERALS
        assert sx.node_count(parser.parse_expression(f"{limit}.satoshi")) == 2 * limit - 1
        source = f"(a, b){{ txn(a, {limit - 5}.satoshi); txn(b, 6.btc) }}"
        with pytest.raises(LimitError) as caught:
            parser.parse_program(source)
        assert caught.value.kind == "limit"
        assert str(caught.value.span) == f"1:{source.index('6.btc') + 1}"
        for digits in ("1234567890", "9" * 5000):
            with pytest.raises(LimitError) as caught:
                parser.parse_expression(f"{digits}.satoshi")
            assert str(caught.value.span) == "1:1"
        # Each parse counts afresh.
        for _ in range(2):
            parser.parse_expression(f"{limit // 2}.satoshi * {limit // 2}.btc")

    def test_prefix_runs_do_not_nest(self):
        n = 100000
        stored = parser.parse_expression("?" * n + "a")
        assert sx.node_count(stored) == n + 1
        assert parser.render(stored) == "?" * n + "a"
        banged = parser.parse_type("!?" * (n // 2) + "satoshi")
        assert parser.render(banged) == "!?" * (n // 2) + "satoshi"


class TestSugarSpines:
    @pytest.mark.parametrize(
        "source, rendered",
        [
            # Recorded from the renderer that walked each spine at every node.
            ("satoshi * satoshi * btc * btc", "2 . satoshi * btc * btc"),
            ("btc * satoshi * satoshi", "btc * satoshi * satoshi"),
            ("3 . satoshi * (2 . btc)", "3 . satoshi * 2 . btc"),
            ("a * satoshi * satoshi", "a * satoshi * satoshi"),
            ("2 . satoshi * 2 . satoshi", "2 . satoshi * 2 . satoshi"),
            ("satoshi * (satoshi * satoshi)", "satoshi * 2 . satoshi"),
            ("(a * satoshi) # 2 . btc * satoshi", "a * satoshi # 2 . btc * satoshi"),
            ("3 . satoshi * a * 2 . btc", "3 . satoshi * a * 2 . btc"),
        ],
    )
    def test_sugar(self, source, rendered):
        assert parser.render(parser.parse_expression(source)) == rendered

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("spines", [1, 2])
    def test_each_spine_is_examined_once(self, n, spines, monkeypatch):
        # The counted twin of the wall-clock test below: ``spines`` spines
        # ``a * satoshi * ... * satoshi`` of n ``*`` nodes in all, joined by
        # ``#``. Each is examined by one call, which records each of its
        # ``*`` nodes once.
        def spine(length):
            e = sx.Addr(sx.Address("a"))
            for _ in range(length):
                e = sx.Iso(e, sx.Unit("satoshi"))
            return e

        e = spine(n) if spines == 1 else sx.Conn(spine(n // 2), spine(n // 2))
        calls = count_calls(monkeypatch, parser, "_sugar_spine")
        text = parser.render(e)
        assert text.count(" * satoshi") == n
        assert len(calls) == spines
        assert len({id(sugar) for _, sugar in calls}) == 1
        assert len(calls[0][1]) == n

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_long_spine_render_work_is_counted(self, n, monkeypatch):
        # The counted gate beside the wall-clock one below: on
        # ``a * satoshi * ... * satoshi`` render takes each of the 2n + 1
        # nodes once and writes each of its 2n + 1 pieces once.
        e = sx.Addr(sx.Address("a"))
        for _ in range(n):
            e = sx.Iso(e, sx.Unit("satoshi"))
        expected = "a" + " * satoshi" * n
        bounded, writes, taken = parser._bounded, [], []

        def counted_writer(out, limit):
            write = bounded(out, limit)

            def counted(text):
                writes.append(text)
                write(text)

            return counted

        def chase(node, neg):
            taken.append(node)
            return node, neg

        monkeypatch.setattr(parser, "_bounded", counted_writer)
        assert parser.render(e, chase=chase, limit=len(expected)) == expected
        assert len(taken) == len(writes) == 2 * n + 1
        assert len({id(node) for node in taken}) == 2 * n + 1

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_long_spine_sugar_loop_is_counted(self, n):
        # The loop that decides which ``*`` nodes print as ``N . unit``:
        # the lines run in ``_sugar_spine``'s frames, counted by a tracer
        # local to those frames, grow linearly with the spine (6n + 5).
        e = sx.Addr(sx.Address("a"))
        for _ in range(n):
            e = sx.Iso(e, sx.Unit("satoshi"))
        code, lines = parser._sugar_spine.__code__, []

        def local(frame, event, arg):
            if event == "line":
                lines.append(frame.f_lineno)
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            text = parser.render(e)
        finally:
            sys.settrace(previous)
        assert text == "a" + " * satoshi" * n
        assert 0 < len(lines) <= 8 * n + 16

    def test_long_spine_renders_in_linear_time(self):
        # ``a * satoshi * ... * satoshi`` is no ``N . unit`` at any level;
        # finding that out must not re-walk the spine below each node.
        def best_time(n):
            e = sx.Addr(sx.Address("a"))
            for _ in range(n):
                e = sx.Iso(e, sx.Unit("satoshi"))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                text = parser.render(e)
                best = min(best, time.perf_counter() - start)
            assert text == "a" + " * satoshi" * n
            return best

        small, large = best_time(2000), best_time(8000)
        # Linear gives a ratio near 4; re-walking each spine gives 16.
        assert large / small < 8


class TestScripts:
    def test_type_header(self):
        program, declared = parser.parse_script(
            "-- types: satoshi, ?btc # doge\n(x, y){}"
        )
        assert declared == [
            parser.parse_type("satoshi"),
            parser.parse_type("?btc # doge"),
        ]
        assert len(program.interface) == 2

    def test_no_header(self):
        program, declared = parser.parse_script("(x){}")
        assert declared is None

    def test_header_preserves_spans(self):
        program, _ = parser.parse_script("-- types: satoshi\n(x){ txn(x, satoshi) }")
        assert program.pending[0].span.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parser.parse_script("-- nope\n(x){}")

    def test_custom_units(self):
        units = frozenset({"satoshi", "gil"})
        p = parser.parse_program("(x){ txn(x, gil) }", units)
        assert p.pending[0].right == sx.Unit("gil")
        with pytest.raises(ParseError):
            parser.parse_type("gil")  # not in the default registry


class TestRoundTripProperty:
    def test_generated_programs_round_trip(self):
        generator = ProgramGenerator(seed=314)
        for _ in range(300):
            program = generator.typed_program().program
            text = parser.render(program)
            assert parser.parse_program(text) == program

    def test_genesis_m3_round_trip(self):
        source = (
            "(addr1 * addr2 * addr3)"
            "{ txn(addr1, satoshi); txn(addr2, satoshi); txn(addr3, satoshi) }"
        )
        p = parser.parse_program(source)
        assert parser.parse_program(parser.render(p)) == p

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_seeds_round_trip(self, seed):
        generated = ProgramGenerator(seed=seed).typed_program()
        text = parser.render(generated.program)
        assert parser.parse_program(text) == generated.program
        for t in generated.declared:
            assert parser.parse_type(parser.render(t)) == t


def _span_list(value):
    """``Kind begin-end line:col`` for every node under ``value``, pre-order;
    ``Kind -`` for a node without a span."""
    out = []
    for node in sx.walk(value):
        span = node.span
        out.append(f"{type(node).__name__} -" if span is None else
                   f"{type(node).__name__} {span.begin}-{span.end} {span}")
    return out


_PARSE = {
    "expr": parser.parse_expression,
    "type": parser.parse_type,
    "program": parser.parse_program,
}


class TestExactSpans:
    @pytest.mark.parametrize(
        "sort, source, spans",
        [
            ("expr", "a * b # c",
             ["Conn 0-9 1:1", "Iso 0-5 1:1", "Addr 0-1 1:1", "Addr 4-5 1:5", "Addr 8-9 1:9"]),
            ("expr", "?x @ y",
             ["Contract 0-6 1:1", "Store 0-2 1:1", "Addr 1-2 1:2", "Addr 5-6 1:6"]),
            ("expr", "a -o b", ["Conn 0-6 1:1", "Addr 0-1 1:1", "Addr 5-6 1:6"]),
            ("expr", "(a * satoshi)^",
             ["Conn 1-12 1:2", "Addr 1-2 1:2", "Dual 5-12 1:6", "Unit 5-12 1:6"]),
            ("expr", "2 . btc", ["Iso 0-7 1:1", "Unit 0-7 1:1", "Unit 0-7 1:1"]),
            ("expr", "x.l.r", ["Addr 0-5 1:1"]),
            ("expr", "choose(x){ (a){}; (b){} }",
             ["Choose 0-25 1:1", "Program 11-16 1:12", "Addr 12-13 1:13",
              "Program 18-23 1:19", "Addr 19-20 1:20"]),
            ("program", "(a){\n  txn(a, satoshi)\n}",
             ["Program 0-24 1:1", "Addr 1-2 1:2", "Transaction 7-22 2:3",
              "Addr 11-12 2:7", "Unit 14-21 2:10"]),
            # Compound types carry no span; atoms do, until dualized.
            ("type", "!satoshi * btc^", ["Tensor -", "OfCourse -", "Atom 1-8 1:2", "Atom -"]),
        ],
    )
    def test_compound_spans(self, sort, source, spans):
        assert _span_list(_PARSE[sort](source)) == spans

    @pytest.mark.parametrize(
        "sort, source, message, span",
        [
            ("program", "(", "expected an expression, found 'end of input'", "1-1 1:2"),
            ("program", "(x){ txn(x) }", "expected COMMA, found ')'", "10-11 1:11"),
            ("program", "(a){ foo(a, b) }", "expected txn, found 'foo'", "5-8 1:6"),
            ("program", "(x){ txn(x, $) }", "unsupported character '$'", "12-13 1:13"),
            ("expr", "x * ", "expected an expression, found 'end of input'", "4-4 1:5"),
            ("expr", "a // comment\n  # ", "expected an expression, found 'end of input'", "17-17 2:5"),
            ("expr", "inl(b) -o a", "dual is not defined on Inl expressions", "0-6 1:1"),
            ("expr", "_^", "dual is not defined on Dispose expressions", "1-2 1:2"),
            ("expr", "3 . unknownunit", "unknown currency unit 'unknownunit'", "4-15 1:5"),
            ("expr", "0 . btc", "unit multiplier must be positive", "0-1 1:1"),
            ("expr", "satoshi.l", "freshness suffix is not allowed on a currency unit", "7-8 1:8"),
            ("expr", "!x", "expected '(' after '!'", "1-2 1:2"),
            ("expr", "a + b", "unexpected trailing input '+'", "2-3 1:3"),
            ("expr", "txn", "'txn' is a keyword", "0-3 1:1"),
            ("expr", "a\n  -b", "unsupported character '-'", "4-5 2:3"),
            ("expr", "choose(x, x){ (a, b){}; (c, d){} }",
             "bound addresses must be pairwise distinct", "12-13 1:13"),
            ("expr", "².satoshi", "invalid address name: '²'", "0-1 1:1"),
            ("type", "satoshi -o", "expected a type, found 'end of input'", "10-10 1:11"),
            ("type", "satoshi @ btc", "unexpected trailing input '@'", "8-9 1:9"),
            ("type", "foo", "unknown currency unit 'foo'", "0-3 1:1"),
        ],
    )
    def test_error_message_and_span(self, sort, source, message, span):
        with pytest.raises(ParseError) as caught:
            _PARSE[sort](source)
        err = caught.value
        assert err.message == message
        assert f"{err.span.begin}-{err.span.end} {err.span}" == span

    def test_decimal_digits_of_any_script_count(self):
        # "١" (ARABIC-INDIC DIGIT ONE) is a decimal digit that int() reads.
        assert parser.parse_expression("١.satoshi") == sx.Unit("satoshi")


class TestScriptHeaderInPlace:
    def test_declared_types_keep_their_position(self):
        _, declared = parser.parse_script("\n-- types: btc, !satoshi\n(a, b){}")
        assert _span_list(declared[0]) == ["Atom 11-14 2:11"]
        assert _span_list(declared[1]) == ["OfCourse -", "Atom 17-24 2:17"]

    @pytest.mark.parametrize(
        "source, message, span",
        [
            ("\n\n-- types: foo\n(a){}", "unknown currency unit 'foo'", "3:11"),
            ("-- types: satoshi, (btc", "expected RPAREN, found 'end of input'", "1:24"),
            ("-- types: satoshi,\n(a){}", "expected a type, found 'end of input'", "1:19"),
            ("-- types: satoshi btc\n(a){}", "unexpected trailing input 'btc'", "1:19"),
        ],
    )
    def test_header_errors_point_into_the_header(self, source, message, span):
        with pytest.raises(ParseError) as caught:
            parser.parse_script(source)
        assert caught.value.message == message
        assert str(caught.value.span) == span

    def test_empty_header(self):
        assert parser.parse_script("-- types:\n(){}")[1] == []
        assert parser.parse_script("-- types:   \r\n(){}")[1] == []


class TestTokenize:
    @pytest.mark.parametrize(
        "source, tokens",
        [
            ("a * b",
             [("IDENT", "a", 0, 1, 1, 1), ("STAR", "*", 2, 3, 1, 3), ("IDENT", "b", 4, 5, 1, 5),
              ("EOF", "", 5, 5, 1, 6)]),
            ("(x){ txn(x, 3 . satoshi) } // comment\n",
             [("LPAREN", "(", 0, 1, 1, 1), ("IDENT", "x", 1, 2, 1, 2), ("RPAREN", ")", 2, 3, 1, 3),
              ("LBRACE", "{", 3, 4, 1, 4), ("IDENT", "txn", 5, 8, 1, 6), ("LPAREN", "(", 8, 9, 1, 9),
              ("IDENT", "x", 9, 10, 1, 10), ("COMMA", ",", 10, 11, 1, 11), ("INT", "3", 12, 13, 1, 13),
              ("DOT", ".", 14, 15, 1, 15), ("IDENT", "satoshi", 16, 23, 1, 17),
              ("RPAREN", ")", 23, 24, 1, 24), ("RBRACE", "}", 25, 26, 1, 26),
              ("EOF", "", 38, 38, 2, 1)]),
            ("a\r\n\t-o b",
             [("IDENT", "a", 0, 1, 1, 1), ("LOLLI", "-o", 4, 6, 2, 2), ("IDENT", "b", 7, 8, 2, 5),
              ("EOF", "", 8, 8, 2, 6)]),
            ("// only a comment", [("EOF", "", 17, 17, 1, 18)]),
            # A superscript is a word character but not a decimal digit.
            ("\t\ty\n\n  ²",
             [("IDENT", "y", 2, 3, 1, 3), ("IDENT", "²", 7, 8, 3, 3), ("EOF", "", 8, 8, 3, 4)]),
            ("١.satoshi",
             [("INT", "١", 0, 1, 1, 1), ("DOT", ".", 1, 2, 1, 2), ("IDENT", "satoshi", 2, 9, 1, 3),
              ("EOF", "", 9, 9, 1, 10)]),
            ("", [("EOF", "", 0, 0, 1, 1)]),
            ("!(s){ (_, ?btc){} }^&+@#",
             [("BANG", "!", 0, 1, 1, 1), ("LPAREN", "(", 1, 2, 1, 2), ("IDENT", "s", 2, 3, 1, 3),
              ("RPAREN", ")", 3, 4, 1, 4), ("LBRACE", "{", 4, 5, 1, 5), ("LPAREN", "(", 6, 7, 1, 7),
              ("UNDER", "_", 7, 8, 1, 8), ("COMMA", ",", 8, 9, 1, 9), ("QUERY", "?", 10, 11, 1, 11),
              ("IDENT", "btc", 11, 14, 1, 12), ("RPAREN", ")", 14, 15, 1, 15),
              ("LBRACE", "{", 15, 16, 1, 16), ("RBRACE", "}", 16, 17, 1, 17),
              ("RBRACE", "}", 18, 19, 1, 19), ("CARET", "^", 19, 20, 1, 20), ("AMP", "&", 20, 21, 1, 21),
              ("PLUS", "+", 21, 22, 1, 22), ("AT", "@", 22, 23, 1, 23), ("HASH", "#", 23, 24, 1, 24),
              ("EOF", "", 24, 24, 1, 25)]),
            ("x.l.r;\n-o-o",
             [("IDENT", "x", 0, 1, 1, 1), ("DOT", ".", 1, 2, 1, 2), ("IDENT", "l", 2, 3, 1, 3),
              ("DOT", ".", 3, 4, 1, 4), ("IDENT", "r", 4, 5, 1, 5), ("SEMI", ";", 5, 6, 1, 6),
              ("LOLLI", "-o", 7, 9, 2, 1), ("LOLLI", "-o", 9, 11, 2, 3), ("EOF", "", 11, 11, 2, 5)]),
        ],
    )
    def test_kind_text_and_position(self, source, tokens):
        assert parser.tokenize(source) == tokens

    def test_unsupported_character(self):
        with pytest.raises(ParseError) as caught:
            parser.tokenize("a\n $")
        err = caught.value
        assert (err.message, f"{err.span.begin}-{err.span.end} {err.span}") == (
            "unsupported character '$'", "3-4 2:2"
        )


# Characters a mutation inserts: every token's first character, blanks,
# a comment opener, and characters the lexer rejects or reads oddly.
_MUTATION_ALPHABET = "(){},;*#@^?!&+._-o/ \n\t\r0123456789xlrtnsatoshibtc$²١"


def _mutants(text, rng, count):
    """``count`` variants of ``text``, each with one random edit: a deleted,
    inserted or replaced character, a repeated slice, or a cut-off end."""
    out = []
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(1, 12))
        edit = rng.randrange(5)
        if edit == 0:
            out.append(text[:i] + text[i + 1 :])
        elif edit == 1:
            out.append(text[:i] + rng.choice(_MUTATION_ALPHABET) + text[i:])
        elif edit == 2:
            out.append(text[:i] + rng.choice(_MUTATION_ALPHABET) + text[i + 1 :])
        elif edit == 3:
            out.append(text[:j] + text[i:])
        else:
            out.append(text[:i])
    return out


def _pinned_scripts(count=150, seed=808):
    """Generated scripts with their type headers, as the bench writes them,
    each followed by four mutants of itself."""
    rng = random.Random(seed)
    generator = ProgramGenerator(seed=seed)
    for _ in range(count):
        generated = generator.typed_program()
        types = ", ".join(parser.render(t) for t in generated.declared)
        text = f"-- types: {types}\n{parser.render(generated.program)}\n"
        yield text
        yield from _mutants(text, rng, 4)


def _parse_outcome(text):
    """The AST and declared types with every node's span, or the error's
    class, kind, message, span and expected token kinds."""
    try:
        program, declared = parser.parse_script(text)
    except ParseError as err:
        span = "-" if err.span is None else f"{err.span.begin}-{err.span.end} {err.span}"
        return ("error", type(err).__name__, err.kind, err.message, span, sorted(err.expected))
    return (
        "ok",
        repr(program),
        repr(declared),
        _span_list(program),
        [_span_list(t) for t in declared or ()],
    )


class TestPinnedParse:
    """Parser output pinned by a digest recorded before tokens became
    tuples: the AST, every node's span, and every error's class, kind,
    message and span, over generated scripts and mutants of them."""

    def test_generated_and_mutated_scripts_digest(self):
        digest = hashlib.sha256()
        outcomes = Counter()
        for text in _pinned_scripts():
            outcome = _parse_outcome(text)
            outcomes[outcome[0]] += 1
            digest.update(repr(outcome).encode())
        assert outcomes == {"ok": 305, "error": 445}
        assert digest.hexdigest() == (
            "00fbe927fe4388b935b24474af2b4e84187677ea4f3a2c09e2b408bf8cb0d19e"
        )


def _addresses(program):
    """Every Address object in ``program``: occurrences and box binders."""
    out = []
    for node in sx.walk(program):
        if type(node) is sx.Addr:
            out.append(node.address)
        elif type(node) in (sx.Choose, sx.Bang):
            out.extend(node.bound)
    return out


class TestInterning:
    """Each parse interns its addresses: equal addresses are one object
    within it and share nothing with any other parse."""

    SCRIPT = (
        "-- types: satoshi\n"
        "(a){ txn(a, x); txn(x, !(y, x.l){ (z, y, x.l){ txn(z, y.r); txn(y.r, x.l) } });"
        " txn(choose(q, y){ (q, y){ txn(q, x.l) }; (q, y){ txn(q, _) } }, x.l) }"
    )

    def test_equal_addresses_in_one_parse_are_one_object(self):
        program, _ = parser.parse_script(self.SCRIPT)
        found = _addresses(program)
        by_value: dict = {}
        for address in found:
            by_value.setdefault(address, set()).add(id(address))
        assert len(found) > len(by_value) > 5
        assert all(len(ids) == 1 for ids in by_value.values())

    def test_two_parses_share_no_address(self):
        first, _ = parser.parse_script(self.SCRIPT)
        second, _ = parser.parse_script(self.SCRIPT)
        assert first == second
        assert not {id(a) for a in _addresses(first)} & {id(a) for a in _addresses(second)}
        assert {id(a) for a in _addresses(parser.parse_expression("x.l @ x.l"))}.isdisjoint(
            id(a) for a in _addresses(first)
        )

    def test_no_table_outlives_its_parse(self):
        def live_addresses():
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is sx.Address)

        before = live_addresses()
        for k in range(50):
            parser.parse_script(f"(a{k}){{ txn(a{k}, b{k}); txn(b{k}, c{k}.l) }}")
        assert live_addresses() - before <= 0

    # Recorded before addresses were interned: message, span begin, end,
    # line and column.
    BAD_ADDRESSES = [
        ("(café){}", "invalid address name: 'café'", 1, 5, 1, 2),
        ("(a){ txn(a, x²) }", "invalid address name: 'x²'", 12, 14, 1, 13),
        ("(a){ txn(a, b);\n  txn(b, naïve.l.r) }", "invalid address name: 'naïve'", 25, 30, 2, 10),
        ("(a, b){ txn(a, ok); txn(ok, b); txn(ü, ü) }", "invalid address name: 'ü'", 36, 37, 1, 37),
        ("(a){ txn(!(x, é){ (y){} }, a) }", "invalid address name: 'é'", 14, 15, 1, 15),
        ("(a){ txn(choose(ß){ (){}; (){} }, a) }", "invalid address name: 'ß'", 16, 17, 1, 17),
        ("-- types: satoshi\n(a){ txn(a, b); txn(b, ñ.r) }", "invalid address name: 'ñ'", 41, 42, 2, 24),
    ]

    @pytest.mark.parametrize("text, message, begin, end, line, column", BAD_ADDRESSES)
    def test_bad_address_errors_are_unchanged(self, text, message, begin, end, line, column):
        with pytest.raises(ParseError) as err:
            parser.parse_script(text)
        span = err.value.span
        assert (str(err.value), span.begin, span.end, span.line, span.column) == (
            message, begin, end, line, column
        )

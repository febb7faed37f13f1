"""The redex index against the rescanning one-step oracle.

``find_redexes``, ``step`` and ``normalize`` all read ``_RedexIndex``. The
oracle (``scan_redexes`` and ``scan_step_with_effect`` in ``helpers``)
rescans the whole program at every step. The reference reducer is the
plain loop ``normalize`` documents, run on the oracle: fire its first
redex until no redex is left. The index must reproduce it exactly: the
same trace lines and redexes, the same unit accounting, the same result,
and the same state when fuel runs out. Along that run, ``find_redexes``
must list the oracle's redexes, and ``step_with_effect`` must fire each
of them as the oracle does.
"""
import hashlib
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

from helpers import (
    DEMOS,
    constructed_pipeline,
    count_calls,
    pipeline,
    scan_redexes,
    scan_step_with_effect,
    spend_program,
)


def reference_normalize(p, fuel):
    steps = 0
    trace = []
    burned, discarded, duplicated = Counter(), Counter(), Counter()
    while True:
        redexes = scan_redexes(p)
        if not redexes:
            return rd.NormalizeResult(p, steps, tuple(trace), burned, discarded, duplicated)
        if steps >= fuel:
            raise FuelExhausted(p, steps)
        p, effect = scan_step_with_effect(p, redexes[0])
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


def accounts(effect):
    return effect.burned, effect.discarded, effect.duplicated


def assert_every_redex(p) -> int:
    """Along the oracle's leftmost run from ``p``, ``find_redexes`` lists
    the oracle's redexes at every state, and ``step_with_effect`` fires
    each of them as the oracle does: the same program and the same three
    accounts. Returns the number of (state, redex) steps checked."""
    checked = 0
    while True:
        redexes = scan_redexes(p)
        assert rd.find_redexes(p) == redexes, parser.render(p)
        successors = []
        for redex in redexes:
            got, got_effect = rd.step_with_effect(p, redex)
            expected, effect = scan_step_with_effect(p, redex)
            assert got == expected, (parser.render(p), redex)
            assert accounts(got_effect) == accounts(effect), (parser.render(p), redex)
            successors.append(expected)
        if not successors:
            return checked
        checked += len(successors)
        p = successors[0]


def uninterned(p):
    """``p`` with every address occurrence and binder a fresh ``Address``."""

    def fresh(address):
        return sx.Address(address.name, address.path)

    def rebuilt(node, kids):
        if type(node) is sx.Addr:
            return sx.Addr(fresh(node.address), span=node.span)
        if type(node) in (sx.Choose, sx.Bang):
            node = node.replace(bound=tuple(map(fresh, node.bound)))
        return sx.rebuild(node, kids)

    return sx.fold(p, rebuilt)


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


class TestAddressIdentity:
    """The index keys addresses by value: runs over programs whose equal
    addresses are distinct objects match the one-step reference exactly."""

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_constructed_pipelines(self, n):
        rng = random.Random(f"constructed/{n}")
        for _ in range(3):
            p = constructed_pipeline(n, rng.randrange(1, 6), rng)
            found = [node.address for node in sx.walk(p) if type(node) is sx.Addr]
            assert len({id(a) for a in found}) == len(found) > len(set(found))
            for fuel in (rd.DEFAULT_FUEL, 0, 1, n // 2, n - 1):
                assert_same_run(p, fuel)

    def test_copy_heavy_programs(self):
        # Copy renames a box's addresses with .l/.r marks, so those
        # addresses are born mid-run, one object per occurrence.
        copying = 0
        for p in generated(seed=7, count=300, bias=0.9):
            q = uninterned(p)
            assert q == p
            kinds = {t.redex.kind for t in rd.normalize(q, trace=True).trace}
            if "Copy" not in kinds:
                continue
            copying += 1
            for fuel in (rd.DEFAULT_FUEL, 1, 3, 8):
                assert_same_run(q, fuel, lines=False)
        assert copying >= 20

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_self_loops(self, n):
        rng = random.Random(f"loops/{n}")
        for _ in range(3):
            loops = rng.sample(range(1, n + 1), max(1, n // 4))
            p = constructed_pipeline(n, 2, rng, loops)
            for fuel in (rd.DEFAULT_FUEL, 0, 2, n // 2, n):
                assert_same_run(p, fuel)
            steps = rd.normalize(p).steps
            assert steps >= n
            assert_same_run(p, steps - 1)
        for src in (
            "(a, b){ txn(x, x); txn(a, x); txn(x, b) }",
            "(a, b){ txn(a, x); txn(x, b); txn(x, x) }",
            "(a){ txn(x, x); txn(x, x); txn(a, x) }",
            "(a, b){ txn(y, y); txn(a, x); txn(x, y); txn(y, b) }",
        ):
            p = uninterned(parser.parse_program(src))
            for fuel in (rd.DEFAULT_FUEL, 0, 1, 2):
                assert_same_run(p, fuel)


def work_pipeline(n, build):
    rng = random.Random(f"work/{n}")
    return pipeline(n, 3, rng) if build == "parsed" else constructed_pipeline(n, 3, rng)


class TestWorkGate:
    """Deterministic work counts of the index on shuffled pipelines. After
    the index is built, a pure fusion run walks no side, and each fusion
    queues at most two heap entries. While it is built, only the interface
    entries and sides that are not an address are walked, and no
    transaction with an address side is matched against the local rules."""

    @pytest.mark.parametrize("n", [200, 1600])
    @pytest.mark.parametrize("build", ["parsed", "constructed"])
    def test_fusion_runs(self, n, build, monkeypatch):
        p = work_pipeline(n, build)
        walks = count_calls(monkeypatch, sx, "surface_addresses")
        pushes = count_calls(monkeypatch, rd.heapq, "heappush")
        rd._RedexIndex(p)  # the build normalize repeats, counted on its own
        walked, pushed = len(walks), len(pushes)
        result = rd.normalize(p)
        assert result.steps == n
        assert len(walks) - 2 * walked == 0
        assert len(pushes) - pushed <= n + 2 * result.steps, len(pushes) - pushed

    @pytest.mark.parametrize("n", [200, 1600])
    @pytest.mark.parametrize("build", ["parsed", "constructed"])
    def test_index_build_walks_only_compound_sides(self, n, build, monkeypatch):
        p = work_pipeline(n, build)
        walks = count_calls(monkeypatch, sx, "surface_addresses")
        rd._RedexIndex(p)
        sides = [*p.interface, *(side for t in p.pending for side in (t.left, t.right))]
        compound = [side for side in sides if type(side) is not sx.Addr]
        # The one literal side, once; an address is read without a walk.
        assert len(compound) == 1
        assert [args[0] for args in walks] == compound

    @pytest.mark.parametrize("n", [200, 1600])
    @pytest.mark.parametrize("build", ["parsed", "constructed"])
    def test_no_local_match_on_an_address_side(self, n, build, monkeypatch):
        p = work_pipeline(n, build)
        matched = count_calls(monkeypatch, rd, "_match_local")
        assert rd.normalize(p).steps == n
        assert len(matched) == 0

    def test_local_matches_only_without_an_address_side(self, monkeypatch):
        matched = count_calls(monkeypatch, rd, "_match_local")
        fired = 0
        for p in generated(seed=31, count=60, bias=0.6):
            result = rd.normalize(p, trace=True)
            fired += sum(step.redex.kind != "Transaction" for step in result.trace)
        assert fired > 0
        assert len(matched) >= fired
        for (txn,) in matched:
            assert type(txn.left) is not sx.Addr and type(txn.right) is not sx.Addr


def _pinned_record(p, fuel):
    try:
        r = rd.normalize(p, fuel, trace=True)
    except FuelExhausted as err:
        return ("fuel", err.steps, parser.render(err.state))
    return (
        "ok",
        [t.line() for t in r.trace],
        parser.render(r.result),
        sorted(r.burned.items()),
        sorted(r.discarded.items()),
        sorted(r.duplicated.items()),
    )


class TestPinnedRuns:
    """``normalize``'s observable runs, pinned by a digest recorded before
    the local rules moved into one table. The differential above compares
    two reducers that share that table, so it cannot see a wrong entry;
    this digest can: trace lines, the three accounts and the result at
    full fuel, and the state ``FuelExhausted`` carries at fuel 3."""

    def test_runs_digest(self):
        programs = generated(seed=4242, count=300, bias=0.25)
        programs += generated(seed=4243, count=300, bias=0.8)
        for path in sorted(DEMOS.glob("*.llbc")):
            programs.append(parser.parse_script(path.read_text(encoding="utf-8"))[0])
        rng = random.Random("pinned-pipelines")
        programs += [pipeline(n, rng.randrange(1, 6), rng) for n in (1, 2, 3, 10, 50, 200)]
        digest = hashlib.sha256()
        outcomes = Counter()
        for p in programs:
            for fuel in (rd.DEFAULT_FUEL, 3):
                record = _pinned_record(p, fuel)
                outcomes[record[0]] += 1
                digest.update(repr(record).encode())
        assert outcomes == {"ok": 806, "fuel": 410}
        assert digest.hexdigest() == (
            "35bb7d5ec552a367469d8f9425d82828768a8905c2aabc80a09bedf7ae3c32af"
        )


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
        # pair at (2, 3) is eligible over a, but fuses over b, the first
        # whole side of txn(b, a) that txn(a, b) has, which leaves b with
        # two occurrences: (0, 1) becomes a redex although neither of its
        # transactions changed.
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

    @pytest.mark.parametrize("seed", range(4))
    def test_random_address_graphs(self, seed):
        # A fused transaction may take over its left record in place, so
        # every entry left in the queue must stay right about the records
        # it names.
        for p in random_address_graphs(seed):
            for fuel in (rd.DEFAULT_FUEL, 1, 2, 4):
                assert_same_run(p, fuel)


def random_address_graphs(seed):
    """Untyped programs over a few addresses: addresses held by three or
    more sides, self-loops, fusions that leave a self-loop or keep the
    mediator, and Pair cuts between them."""
    rng = random.Random(f"graphs/{seed}")
    names = [sx.Address(f"a{i}") for i in range(6)]

    def side():
        roll = rng.random()
        if roll < 0.7:
            return sx.Addr(rng.choice(names))
        if roll < 0.8:
            return sx.Unit("satoshi")
        kind = sx.Iso if roll < 0.9 else sx.Conn
        return kind(sx.Addr(rng.choice(names)), sx.Addr(rng.choice(names)))

    for _ in range(300):
        txns = [sx.Transaction(side(), side()) for _ in range(rng.randrange(1, 10))]
        yield sx.Program((), tuple(txns))


class TestEveryRedex:
    """The differential above follows leftmost runs only; here every redex
    of every state on them is listed and fired by both reducers."""

    @pytest.mark.parametrize("bias", [0.25, 0.8])
    def test_generated_programs(self, bias):
        checked = sum(assert_every_redex(p) for p in generated(seed=2024, count=300, bias=bias))
        assert checked > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_address_graphs(self, seed):
        checked = sum(assert_every_redex(p) for p in random_address_graphs(seed))
        assert checked > 0

    def test_pipelines_and_demos(self):
        rng = random.Random("every-redex")
        programs = [pipeline(40, 3, rng), constructed_pipeline(20, 2, rng, loops=(3, 7, 11))]
        for path in sorted(DEMOS.glob("*.llbc")):
            programs.append(parser.parse_script(path.read_text(encoding="utf-8"))[0])
        for p in programs:
            assert assert_every_redex(p) >= rd.normalize(p).steps


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

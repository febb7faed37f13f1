"""Shared test utilities: the worked spend example, corpus and pipeline
builders, a call counter for work gates, and the brute-force
reduction-order oracle."""
from __future__ import annotations

import pathlib

from llbc import parser, reduce as rd
from llbc import syntax as sx
from llbc.generate import GenConfig, ProgramGenerator

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"

SPEND_SOURCE = """
(bddr1 * bddr2 * addr3){
  txn(
    choose(spnd){
      (addr1 * addr2 * addr3){ txn(addr1, satoshi); txn(addr2, satoshi); txn(addr3, satoshi) };
      (addr1 * addr2 * addr3){ txn(addr1, _); txn(addr2, _); txn(addr3, _) }
    },
    inl(bddr1 * bddr2 -o addr3)
  )
}
"""

SPEND_TYPES = "satoshi * satoshi * satoshi"

SPEND_NORMAL_FORM = (
    "(bddr1 * bddr2 * addr3)"
    "{ txn(bddr1, satoshi); txn(bddr2, satoshi); txn(addr3, satoshi) }"
)


def spend_program():
    return parser.parse_program(SPEND_SOURCE)


def spend_example_m2():
    """The two-coin instance: spend one coin to bddr1, keep one at addr2."""
    return parser.parse_program(
        """
        (bddr1 * addr2){
          txn(
            choose(spnd){
              (addr1 * addr2){ txn(addr1, satoshi); txn(addr2, satoshi) };
              (addr1 * addr2){ txn(addr1, _); txn(addr2, _) }
            },
            inl(bddr1 -o addr2)
          )
        }
        """
    )


def count_calls(monkeypatch, owner, name) -> list[tuple]:
    """Wrap ``owner.name`` for the rest of the test so that each call
    appends its positional arguments to the list returned."""
    original = getattr(owner, name)
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def pipeline(n, k, rng):
    """``(a0){ txn(a0, x1); ...; txn(xn, k.satoshi) }``, pending shuffled."""
    txns = ["txn(a0, x1)"]
    txns.extend(f"txn(x{i}, x{i + 1})" for i in range(1, n))
    txns.append(f"txn(x{n}, {k}.satoshi)")
    rng.shuffle(txns)
    return parser.parse_program(f"(a0){{ {'; '.join(txns)} }}")


def constructed_pipeline(n, k, rng, loops=()):
    """``pipeline`` built with constructors, with a self-loop ``txn(xi, xi)``
    added for each ``i`` in ``loops``: every occurrence of an address is its
    own ``Address`` object."""

    def addr(name):
        return sx.Addr(sx.Address(name))

    txns = [sx.Transaction(addr("a0"), addr("x1"))]
    txns += [sx.Transaction(addr(f"x{i}"), addr(f"x{i + 1}")) for i in range(1, n)]
    txns.append(sx.Transaction(addr(f"x{n}"), sx.amount_literal(k, "satoshi")))
    txns += [sx.Transaction(addr(f"x{i}"), addr(f"x{i}")) for i in loops]
    rng.shuffle(txns)
    return sx.Program((addr("a0"),), tuple(txns))


def canonical_key(program) -> str:
    """A state key insensitive to pending order and transaction orientation.

    Every rule matches a transaction with its sides in either order and
    rewrites in place, so two states that differ only in how residues were
    interleaved, or in which way a fusion happened to orient a transaction,
    have futures that correspond step for step. Collapsing them keeps the
    order enumeration exhaustive while pruning the combinatorial blow-up of
    interleavings.
    """
    txns = sorted(
        "|".join(sorted((parser.render(t.left), parser.render(t.right))))
        for t in program.pending
    )
    ports = ",".join(parser.render(e) for e in program.interface)
    return f"({ports})[{';'.join(txns)}]"


def all_normal_forms(program, max_states: int = 200_000):
    """Every normal form reachable under any reduction order, one
    representative per equivalence class of states (see canonical_key)."""
    seen = {canonical_key(program)}
    stack = [program]
    normals = {}
    visited = 0
    while stack:
        state = stack.pop()
        visited += 1
        if visited > max_states:
            raise RuntimeError(f"state budget exceeded ({max_states})")
        redexes = rd.find_redexes(state)
        if not redexes:
            normals.setdefault(parser.render(state), state)
            continue
        for redex in redexes:
            successor = rd.step(state, redex)
            key = canonical_key(successor)
            if key not in seen:
                seen.add(key)
                stack.append(successor)
    return list(normals.values()), visited


def reduction_edges(program, max_states: int = 200_000):
    """All (state, redex, successor) edges of the reduction graph, one
    source state per canonical class."""
    seen = {canonical_key(program)}
    stack = [program]
    edges = []
    while stack:
        state = stack.pop()
        if len(edges) > max_states:
            raise RuntimeError(f"edge budget exceeded ({max_states})")
        for redex in rd.find_redexes(state):
            successor = rd.step(state, redex)
            edges.append((state, redex, successor))
            key = canonical_key(successor)
            if key not in seen:
                seen.add(key)
                stack.append(successor)
    return edges


def small_corpus(seed: int, count: int, max_pending: int = 8, max_nodes: int = 90):
    """Well-typed programs small enough for exhaustive order enumeration."""
    config = GenConfig(
        max_type_depth=2,
        max_expr_depth=3,
        max_cuts=2,
        max_ports=1,
        max_context=1,
        max_internal_cuts=1,
        max_contract_depth=1,
    )
    generator = ProgramGenerator(seed=seed, config=config)
    out = []
    while len(out) < count:
        generated = generator.typed_program()
        if len(generated.program.pending) <= max_pending and (
            sx.node_count(generated.program) <= max_nodes
        ):
            out.append(generated)
    return out

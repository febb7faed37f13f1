"""Shared test utilities: the worked spend example, corpus and pipeline
builders, random linear programs, a call counter for work gates, the
brute-force reduction-order search, and the rescanning one-step reducer
that checks the redex index."""
from __future__ import annotations

import pathlib
from itertools import combinations

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


# The forms ``linear_program`` builds around one or two operands.
_WRAPS = {
    "iso": (sx.Iso, 2), "conn": (sx.Conn, 2), "contract": (sx.Contract, 2),
    "store": (sx.Store, 1), "inl": (sx.Inl, 1), "inr": (sx.Inr, 1),
}


def linear_program(rng, width: int, depth: int) -> sx.Program:
    """A random program, typable or not, in which every address occurs
    twice at its own level: interface entries, transaction sides and the
    context binders (up to three per box) pair up at random. Box bodies
    are such programs in turn; a level left with an odd number of sites
    disposes one more. A box whose binders pair among themselves is
    replaced by a disposal."""
    sites: list[list] = []  # one cell per address occurrence, named below

    def site():
        sites.append([None])
        return sites[-1]

    def expr(d):
        kind = rng.choice(["addr"] * 3 + [*_WRAPS] + ["dispose", "unit", "choose", "choose", "bang"])
        if d <= 0 or kind == "addr":
            return site()
        if kind in _WRAPS:
            cls, arity = _WRAPS[kind]
            return (cls, *(expr(d - 1) for _ in range(arity)))
        if kind == "dispose":
            return sx.Dispose()
        if kind == "unit":
            return sx.Unit(rng.choice(("satoshi", "btc")))
        binders = [site() for _ in range(rng.randrange(4))]
        branches = 2 if kind == "choose" else 1
        bodies = [linear_program(rng, 1 + len(binders), d - 1) for _ in range(branches)]
        return (sx.Choose if kind == "choose" else sx.Bang, binders, *bodies)

    interface = [expr(depth) for _ in range(width)]
    pending = [(expr(depth), expr(depth)) for _ in range(rng.randrange(4))]
    if len(sites) % 2:
        pending.append((site(), sx.Dispose()))
    rng.shuffle(sites)
    for i in range(0, len(sites), 2):
        sites[i][0] = sites[i + 1][0] = sx.Address(f"a{rng.getrandbits(40)}")

    def build(e):
        if type(e) is list:
            return sx.Addr(e[0])
        if type(e) is not tuple:
            return e
        cls, *parts = e
        if cls is sx.Choose or cls is sx.Bang:
            bound = tuple(cell[0] for cell in parts[0])
            return cls(bound, *parts[1:]) if len(set(bound)) == len(bound) else sx.Dispose()
        return cls(*map(build, parts))

    pending = tuple(sx.Transaction(build(left), build(right)) for left, right in pending)
    return sx.Program(tuple(map(build, interface)), pending)


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


# ---------------------------------------------------------------------------
# The rescanning one-step reducer: an oracle for ``reduce._RedexIndex``.
# Each call looks at the whole program. It shares the local rule table and
# the Transaction rule's condition and fusion with ``llbc.reduce``, but
# finds its redexes by a scan of its own.

def _bare(txn: sx.Transaction) -> tuple[sx.Address, ...]:
    """The addresses that are a whole side of ``txn``, left side first."""
    return tuple(side.address for side in (txn.left, txn.right) if type(side) is sx.Addr)


def _mediator_pairs(p: sx.Program):
    """Eligible (i, j) pairs for the Transaction rule (see ``_fusable``)."""
    occurrences: dict[sx.Address, int] = {}
    for address, _ in sx.surface_occurrences(p):
        occurrences[address] = occurrences.get(address, 0) + 1
    bare = [_bare(txn) for txn in p.pending]
    holders: dict[sx.Address, set[int]] = {}
    for i, sides in enumerate(bare):
        for address in sides:
            holders.setdefault(address, set()).add(i)
    return {
        (i, j)
        for address, where in holders.items()
        for i, j in combinations(sorted(where), 2)
        if rd._fusable(bare[i], bare[j], address, occurrences.get(address, 0))
    }


def _sort_key(r: rd.Redex):
    return (r.pos, rd._PRIORITY[r.kind], -1 if r.partner is None else r.partner)


def scan_redexes(p: sx.Program) -> list[rd.Redex]:
    """Every position where a rule can fire, in the deterministic order
    ``normalize`` uses."""
    out = []
    for i, txn in enumerate(p.pending):
        match = rd._match_local(txn)
        if match is not None:
            out.append(rd.Redex(match[0].name, i))
    out.extend(rd.Redex("Transaction", i, j) for i, j in _mediator_pairs(p))
    out.sort(key=_sort_key)
    return out


def scan_step_with_effect(p: sx.Program, r: rd.Redex) -> tuple[sx.Program, rd.StepEffect]:
    pending = list(p.pending)
    effect = rd.StepEffect()
    if r.kind == "Transaction":
        if r.partner is None or not (0 <= r.pos < r.partner < len(pending)):
            raise ValueError(f"not a Transaction redex of {parser.render(p)}: {r}")
        ti, tj = pending[r.pos], pending[r.partner]
        fusion = rd._fuse(ti, tj, _bare(ti), _bare(tj))
        if fusion is None:
            raise ValueError(f"transactions {r.pos} and {r.partner} share no mediator")
        residue = [fusion[1]]
        del pending[r.partner]
    else:
        match = rd._match_local(pending[r.pos])
        if match is None or match[0].name != r.kind:
            raise ValueError(f"redex {r} does not match {parser.render(pending[r.pos])}")
        residue = rd._rewrite(match, effect)
    pending[r.pos : r.pos + 1] = residue
    return sx.Program(p.interface, tuple(pending), span=p.span), effect

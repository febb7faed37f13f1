"""The random program generator is itself gated by the checker."""
import hashlib
from collections import Counter

from llbc import syntax as sx
from llbc import typecheck as tc
from llbc.generate import ChainGenerator, GenConfig, ProgramGenerator

from llbc import chains as ch


class TestProgramGenerator:
    def test_all_generated_programs_check(self):
        generator = ProgramGenerator(seed=2024)
        for _ in range(150):
            generated = generator.typed_program()
            judgment = tc.check(generated.program, generated.declared)
            assert judgment.interface_types == tuple(
                generated.declared
            ) or len(judgment.interface_types) == len(generated.declared)

    def test_reproducible(self):
        a = ProgramGenerator(seed=9).typed_program()
        b = ProgramGenerator(seed=9).typed_program()
        assert a.program == b.program
        assert a.declared == b.declared

    def test_connective_coverage(self):
        generator = ProgramGenerator(seed=51)
        seen = Counter()
        for _ in range(200):
            generated = generator.typed_program()
            _count_kinds(generated.program, seen)
        for kind in ("Iso", "Conn", "Choose", "Inl", "Inr", "Store", "Dispose",
                     "Contract", "Bang", "Unit", "Addr"):
            assert seen[kind] > 0, f"never generated {kind}"

    def test_exponential_bias_raises_exponential_rate(self):
        plain = ProgramGenerator(seed=3)
        biased = ProgramGenerator(seed=3, config=GenConfig(exponential_bias=0.95))
        def bang_rate(generator):
            hits = 0
            for _ in range(80):
                seen = Counter()
                _count_kinds(generator.typed_program().program, seen)
                hits += bool(seen["Bang"])
            return hits
        assert bang_rate(biased) > bang_rate(plain)

    def test_contract_depth_bound(self):
        generator = ProgramGenerator(
            seed=17, config=GenConfig(max_contract_depth=1)
        )
        for _ in range(100):
            generated = generator.typed_program()
            assert _max_contract_nesting(generated.program) <= 1


class TestChainGenerator:
    def test_isolated_chains_are_isolated(self):
        generator = ChainGenerator(seed=1)
        chains = generator.isolated_chains(3, height=2)
        for i in range(len(chains)):
            for j in range(i + 1, len(chains)):
                assert ch.isolated(chains[i], chains[j])

    def test_pinned_chains(self):
        # Recorded before ``chain`` built each name's address only once.
        digest = hashlib.sha256()
        for seed, units in ((0, None), (5, None), (21, ("btc", "doge", "unit_7"))):
            generator = ChainGenerator(seed=seed) if units is None else ChainGenerator(seed, units)
            for height, width, prefix in ((1, 1, "c"), (7, 2, "c"), (60, 5, "z0_"), (200, 3, "q")):
                digest.update(ch.chain_to_json(generator.chain(height, width, prefix)).encode())
            for chain in generator.isolated_chains(3, height=9):
                digest.update(ch.chain_to_json(chain).encode())
        assert digest.hexdigest() == (
            "ed3125306780b048c0a6ad52d9180a4aa195566e1c7b725671b50cbea2ed5b66"
        )


def _count_kinds(value, out):
    out[type(value).__name__] += 1
    match value:
        case sx.Program(interface, pending):
            for e in interface:
                _count_kinds(e, out)
            for t in pending:
                _count_kinds(t, out)
        case sx.Transaction(left, right):
            _count_kinds(left, out)
            _count_kinds(right, out)
        case sx.Iso(l, r) | sx.Conn(l, r) | sx.Contract(l, r):
            _count_kinds(l, out)
            _count_kinds(r, out)
        case sx.Dual(inner) | sx.Inl(inner) | sx.Inr(inner) | sx.Store(inner):
            _count_kinds(inner, out)
        case sx.Choose(_, left, right):
            _count_kinds(left, out)
            _count_kinds(right, out)
        case sx.Bang(_, body):
            _count_kinds(body, out)


def _max_contract_nesting(value) -> int:
    match value:
        case sx.Contract(l, r):
            return 1 + max(_max_contract_nesting(l), _max_contract_nesting(r))
        case sx.Program(interface, pending):
            parts = list(interface) + list(pending)
            return max((_max_contract_nesting(p) for p in parts), default=0)
        case sx.Transaction(left, right):
            return max(_max_contract_nesting(left), _max_contract_nesting(right))
        case sx.Iso(l, r) | sx.Conn(l, r):
            return max(_max_contract_nesting(l), _max_contract_nesting(r))
        case sx.Dual(inner) | sx.Inl(inner) | sx.Inr(inner) | sx.Store(inner):
            return _max_contract_nesting(inner)
        case sx.Choose(_, left, right):
            return max(_max_contract_nesting(left), _max_contract_nesting(right))
        case sx.Bang(_, body):
            return _max_contract_nesting(body)
        case _:
            return 0

"""The benchmark's four workloads.

Each workload makes its inputs from the seed, runs one op per input
through llbc's public functions (or its command line), and checks each
outcome against ``reference``. Inputs fall into size classes; every block
of ops holds each class a fixed number of times, in an order shuffled by
the seed, so a run that stops at a block boundary always has the same mix
and the median and 90th percentile land inside one class.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from llbc import (
    IsolationError,
    NotInLedgerForm,
    TypeCheckError,
    blockwise_isolated,
    chain_from_json,
    chain_to_json,
    chain_to_program,
    check,
    compose_rewire,
    compose_verify,
    find_redexes,
    isolated,
    normalize,
    parse_script,
    readback_ledger,
    render,
    step,
)
from llbc import syntax as sx
from llbc.generate import ChainGenerator, GenConfig, ProgramGenerator
from llbc.parser import tokenize

import reference as ref
from tracing import NULL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = ROOT / "demos"
OUT = Path(__file__).resolve().parent / "out"


def subseed(*parts) -> int:
    """A generator seed derived from ``parts``, the same in every process
    (``hash`` of a string is not)."""
    return random.Random(repr(parts)).getrandbits(32)


@dataclass
class Item:
    cls: str
    label: str
    data: object
    expect: object = None


class Workload:
    """Inputs in size classes, with the op and the check that run on them.

    ``classes`` lists ``(name, ops per block, items)``; a block takes the
    next ``ops per block`` items of each class, round robin.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.classes: list[tuple[str, int, list[Item]]] = []

    def block(self, index: int) -> list[Item]:
        items = []
        for _, weight, pool in self.classes:
            items.extend(pool[(index * weight + j) % len(pool)] for j in range(weight))
        random.Random(f"{self.name}/{self.seed}/{index}").shuffle(items)
        return items

    def warm_up(self):
        item = self.classes[0][2][0]
        self.check(item, self.op(item, NULL), NULL)

    def op(self, item: Item, tr):
        raise NotImplementedError

    def check(self, item: Item, outcome, tr) -> str | None:
        """None when the outcome matches the reference, else why not."""
        raise NotImplementedError

    def extra(self, item: Item, outcome, tr):
        """Traced runs only: measurements outside the timed op."""

    def close(self):
        pass


# ---------------------------------------------------------------------------
# Scripts: parse_script -> check -> normalize -> render -> readback_ledger

def script_op(text: str, tr) -> dict:
    """What ``llbc check``, ``run`` and ``ledger --run`` do, normalizing once."""
    out = {}
    with tr.span("parser.parse_script"):
        program, declared = parse_script(text)
    out["program"] = program
    try:
        with tr.span("typecheck.check"):
            out["judgment"] = check(program, declared or [])
    except TypeCheckError as err:
        out["rejected"] = _detached(err)
        return out
    with tr.span("reduce.normalize"):
        out["result"] = normalize(program)
    with tr.span("parser.render"):
        out["text"] = render(out["result"].result)
    try:
        with tr.span("reduce.readback_ledger"):
            out["ledger"] = readback_ledger(out["result"].result)
    except NotInLedgerForm as err:
        out["ledger"] = _detached(err)
    return out


def _detached(err: Exception) -> Exception:
    """The exception without its traceback. Kept with it, the traceback's
    frames would hold the op's whole working set in a reference cycle
    until the cyclic collector found it."""
    return err.with_traceback(None)


def _derivation_nodes(node) -> int:
    count, stack = 0, [node]
    while stack:
        current = stack.pop()
        count += 1
        stack.extend(current.children)
    return count


class ScriptWorkload(Workload):
    def op(self, item, tr):
        return script_op(item.data, tr)

    def extra(self, item, outcome, tr):
        text = item.data
        tr.count("parser.parse_script.bytes", len(text.encode()))
        body = text[text.index("\n") + 1 :] if text.startswith("--") else text
        with tr.span("parser.tokenize"):
            tokens = tokenize(body)
        tr.count("parser.tokenize.tokens", len(tokens))
        program = outcome["program"]
        tr.count("typecheck.check.nodes", ref.node_count(program))
        if "rejected" in outcome:
            return None
        tr.count("typecheck.derivation_nodes", _derivation_nodes(outcome["judgment"].derivation))
        tr.last("reduce.normalize").size = ref.node_count(program)
        result = outcome["result"]
        tr.count("reduce.normalize.steps", result.steps)
        return self._replay(program, result.result, tr)

    @staticmethod
    def _replay(program, expected, tr) -> str | None:
        """Drive the reducer through the find_redexes/step loop that
        ``normalize`` documents; it must end where ``normalize`` ended."""
        p, peak = program, len(program.pending)
        with tr.span("bench.replay"):
            while True:
                with tr.span("reduce.find_redexes"):
                    redexes = find_redexes(p)
                if not redexes:
                    break
                with tr.span("reduce.step"):
                    p = step(p, redexes[0])
                peak = max(peak, len(p.pending))
        tr.peak("reduce.peak_pending", peak)
        if p != expected:
            return "find_redexes/step loop and normalize reach different programs"
        return None


class PipelineWorkload(ScriptWorkload):
    """Why: one long script per op, where ``normalize`` is about 90% of the
    op and grows quadratically with the length; a redex index or any other
    reducer speed-up shows here first."""

    name = "pipeline"
    # (length, ops per block): the median falls inside n=100 (30-80% of a
    # block), the 90th percentile in the middle of n=200 (80-100%), so both
    # are medians of a class with many samples rather than the tail of one.
    LENGTHS = ((50, 6), (100, 10), (200, 4))
    TINY = ((5, 6), (10, 10), (20, 4))
    PER_CLASS = 3

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        rng = random.Random(f"pipeline/{seed}")
        for n, weight in self.TINY if tiny else self.LENGTHS:
            items = []
            for i in range(self.PER_CLASS):
                k = rng.randrange(2, 10)
                text, header = pipeline_script(n, k, rng)
                items.append(Item(f"n{n}", f"n={n} k={k} #{i}", text, (n, k, header)))
            self.classes.append((f"n{n}", weight, items))

    def check(self, item, outcome, tr):
        n, k, header = item.expect
        if "rejected" in outcome:
            tr.count("typecheck.errors")
            return f"rejected: {outcome['rejected']}"
        types = ", ".join(render(t) for t in outcome["judgment"].interface_types)
        if types != header:
            return f"interface types {types!r}, declared {header!r}"
        result = outcome["result"]
        if result.steps != n:
            return f"{result.steps} steps, expected {n}"
        if outcome["text"] not in ref.pipeline_normal_forms(k):
            return f"normal form {outcome['text']!r}"
        if not ref.conserved(
            outcome["program"], result.result, result.burned, result.discarded, result.duplicated
        ):
            return "units not conserved"
        ledger = outcome["ledger"]
        if isinstance(ledger, Exception):
            tr.count("reduce.errors")
            return f"read-back failed: {ledger}"
        if ledger.to_json_dict() != ref.pipeline_ledger(k):
            return f"ledger {ledger.to_json_dict()}"
        return None


def pipeline_script(n: int, k: int, rng: random.Random) -> tuple[str, str]:
    """``(a0){ txn(a0, x1); ...; txn(xn, k.satoshi) }`` with the pending
    list shuffled, and its type header."""
    txns = ["txn(a0, x1)"]
    txns.extend(f"txn(x{i}, x{i + 1})" for i in range(1, n))
    txns.append(f"txn(x{n}, {k}.satoshi)")
    rng.shuffle(txns)
    header = " * ".join(["satoshi"] * k)
    return f"-- types: {header}\n(a0){{ {'; '.join(txns)} }}\n", header


class CorpusWorkload(ScriptWorkload):
    """Why: many small generated scripts, where parsing and checking are
    most of the op; a share with a raised exponential bias fires Read,
    Dispose and Copy, and a mutated share is rejected by the checker. A
    reducer change that adds per-program set-up cost shows here."""

    name = "corpus"
    # (class, ops per block, exponential bias, node-count range, mutated)
    # By median latency: the first three classes take 30% of a block,
    # "medium" the next 40% (the median), then "exponential", then "large"
    # the top 20% (the 90th percentile in its middle).
    CLASSES = (
        ("small", 4, 0.25, (1, 150), False),
        ("mutated", 1, 0.25, (1, 400), True),
        ("exponential-small", 1, 0.8, (1, 150), False),
        ("medium", 8, 0.25, (150, 400), False),
        ("exponential", 2, 0.8, (150, 400), False),
        ("large", 4, 0.25, (400, 1000), False),
    )
    BLOCKS = 10
    TINY_BLOCKS = 1

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        blocks = self.TINY_BLOCKS if tiny else self.BLOCKS
        for cls, weight, bias, (low, high), mutated in self.CLASSES:
            gen = ProgramGenerator(
                seed=subseed("corpus", seed, cls),
                config=GenConfig(exponential_bias=bias),
            )
            rng = random.Random(f"corpus/{seed}/{cls}")
            items = []
            while len(items) < weight * blocks:
                generated = gen.typed_program()
                program = generated.program
                if not low <= ref.node_count(program) < high:
                    continue
                if mutated:
                    program = _reuse_address(program, rng)
                    if program is None:
                        continue
                text = _script_text(program, generated.declared)
                label = f"{cls} #{len(items)}"
                expect = "reject" if mutated else len(generated.declared)
                items.append(Item(cls, label, text, expect))
            self.classes.append((cls, weight, items))

    def check(self, item, outcome, tr):
        rejected = outcome.get("rejected")
        if item.expect == "reject":
            if rejected is None:
                return "accepted a program that uses an address three times"
            if rejected.kind != "non-linear-address":
                return f"rejected as {rejected.kind}, not non-linear-address"
            tr.count("typecheck.rejected")
            return None
        if rejected is not None:
            tr.count("typecheck.errors")
            return f"rejected a generated well-typed program: {rejected}"
        if len(outcome["judgment"].interface_types) != item.expect:
            return "interface arity differs from the declared types"
        result = outcome["result"]
        if ref.has_redex(result.result):
            return "normal form still has a redex"
        if not ref.conserved(
            outcome["program"], result.result, result.burned, result.discarded, result.duplicated
        ):
            return "units(initial) - burned - discarded + duplicated != units(final)"
        return self._ledger_failure(outcome, ref.ledger_of(result.result), tr)

    def _ledger_failure(self, outcome, expected, tr) -> str | None:
        """``expected`` is ``(balances, burned)`` or None (not ledger form)."""
        got = outcome["ledger"]
        if expected is None:
            if isinstance(got, NotInLedgerForm):
                return None
            tr.count("reduce.errors")
            return "read a ledger back from a program not in ledger form"
        if isinstance(got, Exception):
            tr.count("reduce.errors")
            return f"read-back failed: {got}"
        balances, burned = expected
        if got.balances_dict() != balances or got.burned_dict() != burned:
            return f"ledger {got.to_json_dict()} differs from the direct fold"
        return None


def _script_text(program, declared) -> str:
    types = ", ".join(render(t) for t in declared)
    return f"-- types: {types}\n{render(program)}\n"


def _reuse_address(program, rng):
    """The program with one more transaction on an address it already uses
    twice, or None when it has no such address."""
    address = ref.twice_used_address(program)
    if address is None:
        return None
    pending = list(program.pending)
    pending.insert(
        rng.randrange(len(pending) + 1), sx.Transaction(sx.Addr(address), sx.Unit("satoshi"))
    )
    return sx.Program(program.interface, tuple(pending))


# ---------------------------------------------------------------------------
# Chains: from_json x2 -> isolation -> verify | rewire -> to_json -> to_program -> read-back

def chain_payload(chain) -> dict:
    return {
        "blocks": [
            {
                "transfers": [
                    {"from": t.source.name, "to": t.target.name, "amount": t.amount, "unit": t.unit}
                    for t in block.transfers
                ]
            }
            for block in chain.blocks
        ]
    }


def chain_pair(height: int, shared: bool, seed) -> tuple[dict, dict]:
    """Two chains of one height: disjoint address spaces, or two that
    share half their addresses."""
    if shared:
        left = ChainGenerator(subseed(seed, "left")).chain(height, prefix="c")
        right_gen = ChainGenerator(subseed(seed, "right"))
        right_gen.fresh_name("c")
        right_gen.fresh_name("c")
        right = right_gen.chain(height, prefix="c")
    else:
        gen = ChainGenerator(subseed(seed, "pair"))
        left, right = gen.chain(height, prefix="l"), gen.chain(height, prefix="r")
    return chain_payload(left), chain_payload(right)


class ChainsWorkload(Workload):
    """Why: tall chain pairs, half isolated and half sharing addresses, go
    through JSON, isolation checks, composition and read-back but never
    through the reducer's find or step code: the control for reducer
    changes, and the workload for chain and JSON changes."""

    name = "chains"
    # (class, ops per block, height, shared): the median falls in the
    # middle of height 500 (30-70% of a block), the 90th percentile in the
    # middle of height 2000 (80-100%)
    CLASSES = (
        ("h250-isolated", 3, 250, False),
        ("h250-shared", 3, 250, True),
        ("h500-isolated", 4, 500, False),
        ("h500-shared", 4, 500, True),
        ("h1000-isolated", 1, 1000, False),
        ("h1000-shared", 1, 1000, True),
        ("h2000-isolated", 2, 2000, False),
        ("h2000-shared", 2, 2000, True),
    )
    TINY_SCALE = 25
    PER_CLASS = 2

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        for cls, weight, height, shared in self.CLASSES:
            if tiny:
                height //= self.TINY_SCALE
            items = []
            for i in range(self.PER_CLASS):
                left, right = chain_pair(height, shared, (seed, cls, i))
                transfers = sum(len(b["transfers"]) for c in (left, right) for b in c["blocks"])
                data = (json.dumps(left), json.dumps(right), transfers)
                items.append(Item(cls, f"{cls} #{i}", data, chain_references(left, right)))
            self.classes.append((cls, weight, items))

    def op(self, item, tr):
        left_text, right_text, _ = item.data
        out = {"rejected": None}
        with tr.span("chains.chain_from_json"):
            left = chain_from_json(left_text)
            right = chain_from_json(right_text)
        with tr.span("chains.isolation"):
            out["isolated"] = isolated(left, right)
            out["blockwise"] = blockwise_isolated(left, right)
        try:
            with tr.span("chains.compose_verify"):
                combined = compose_verify(left, right)
        except IsolationError as err:
            out["rejected"] = _detached(err)
            with tr.span("chains.compose_rewire"):
                combined = compose_rewire(left, right).chain
        with tr.span("chains.chain_to_json"):
            out["json"] = chain_to_json(combined)
        with tr.span("chains.chain_to_program"):
            program = chain_to_program(combined)
        with tr.span("reduce.readback_ledger"):
            out["ledger"] = readback_ledger(program)
        return out

    def check(self, item, outcome, tr):
        shared, blockwise, digest, ledger = item.expect
        if outcome["isolated"] != (not shared):
            return f"isolated() says {outcome['isolated']}"
        if outcome["blockwise"] != blockwise:
            return f"blockwise_isolated() says {outcome['blockwise']}"
        rejected = outcome["rejected"]
        if shared:
            if rejected is None:
                return "compose_verify accepted chains that share addresses"
            names = {a.render() for a in rejected.shared}
            if names != shared:
                return f"IsolationError names {sorted(names)}, shared are {sorted(shared)}"
            tr.count("chains.rejected")
        elif rejected is not None:
            tr.count("chains.errors")
            return f"compose_verify refused isolated chains: {rejected}"
        if _json_digest(outcome["json"]) != digest:
            return "composed chain differs from the reference zip"
        if outcome["ledger"].to_json_dict() != ledger:
            return "read-back balances differ from the direct fold"
        return None

    def extra(self, item, outcome, tr):
        tr.count("chains.transfers", item.data[2])


def chain_references(left, right) -> tuple:
    """What composing the pair must give: the shared addresses, the
    blockwise verdict, a digest of the composed chain's JSON value and the
    read-back ledger. Only the digest of the chain is kept, so that the
    benchmark's own data stays small next to what llbc allocates."""
    expected = ref.composed(left, right)
    return (
        ref.shared_addresses(left, right),
        ref.blockwise_disjoint(left, right),
        _json_digest(expected),
        {"balances": ref.chain_balances(expected), "burned": {}},
    )


def _json_digest(value) -> str | None:
    """SHA-256 of a JSON value in canonical form; text is parsed first.
    None when the text is not JSON."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            return None
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The command line, one child process at a time

SPEND_TYPES = "satoshi * satoshi * satoshi"
SPEND_NORMAL_FORM = (
    "(bddr1 * bddr2 * addr3)"
    "{ txn(bddr1, satoshi); txn(bddr2, satoshi); txn(addr3, satoshi) }"
)
GENESIS3 = (
    "(addr1 * addr2 * addr3)"
    "{ txn(addr1, satoshi); txn(addr2, satoshi); txn(addr3, satoshi) }"
)
ONE_SATOSHI_EACH = {"satoshi": 1}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LLBC_UNITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class CliExpect:
    code: int = 0
    kind: str | None = None
    stdout: str | None = None
    json: object = None
    trace: tuple | None = None  # (steps, first rule, rule of every step or None, finals)


class CliWorkload(Workload):
    """Why: real ``python -m llbc.cli`` processes, the only workload that
    pays interpreter start-up and ``import llbc.cli``, over every command,
    expected failures and usage errors."""

    name = "cli"
    PIPELINES = (20, 40)
    CHAIN_HEIGHT = 40
    WEIGHTS = {"check": 4, "run": 3, "ledger": 3, "compose": 6, "fail": 3, "usage": 1}

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.env = child_env()
        self.work = OUT / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"cli/{seed}")
        spend, genesis = str(DEMOS / "spend.llbc"), str(DEMOS / "genesis3.llbc")
        pools: dict[str, list] = {cls: [] for cls in self.WEIGHTS}

        def add(cls, argv, expect):
            pools[cls].append(Item(cls, " ".join(argv), argv, expect))

        spend_ledger = {"bddr1": ONE_SATOSHI_EACH, "bddr2": ONE_SATOSHI_EACH, "addr3": ONE_SATOSHI_EACH}
        genesis_ledger = {f"addr{i}": ONE_SATOSHI_EACH for i in (1, 2, 3)}
        for path in (spend, genesis):
            add("check", ["check", path], CliExpect(stdout=f"well-typed: ({SPEND_TYPES})\n"))
        add("run", ["run", "--trace", spend], CliExpect(trace=(6, "Left", None, (SPEND_NORMAL_FORM,))))
        add("run", ["run", "--trace", genesis], CliExpect(trace=(0, None, None, (GENESIS3,))))
        add("ledger", ["ledger", "--run", spend], CliExpect(json={"balances": spend_ledger, "burned": {}}))
        add("ledger", ["ledger", "--run", genesis], CliExpect(json={"balances": genesis_ledger, "burned": {}}))

        for n in self.PIPELINES:
            k = rng.randrange(2, 10)
            text, header = pipeline_script(n, k, rng)
            path = self._write(f"pipe{n}.llbc", text)
            add("check", ["check", path], CliExpect(stdout=f"well-typed: ({header})\n"))
            finals = ref.pipeline_normal_forms(k)
            add("run", ["run", "--trace", path], CliExpect(trace=(n, "Transaction", "Transaction", finals)))
            add("ledger", ["ledger", "--run", path], CliExpect(json=ref.pipeline_ledger(k)))
            if n == self.PIPELINES[0]:
                add("fail", ["ledger", path], CliExpect(code=1, kind="ledger-form"))

        gen = ProgramGenerator(seed=subseed("cli", seed))
        while True:
            generated = gen.typed_program()
            mutated = _reuse_address(generated.program, rng)
            if mutated is not None:
                break
        path = self._write("mutated.llbc", _script_text(mutated, generated.declared))
        add("fail", ["check", path], CliExpect(code=1, kind="non-linear-address"))

        pairs = {"safe": _demo_pair("safe"), "cex": _demo_pair("cex")}
        for shared in (False, True):
            name = "shared" if shared else "isolated"
            left, right = chain_pair(self.CHAIN_HEIGHT, shared, (seed, "cli", name))
            pairs[name] = (
                left, right,
                self._write(f"{name}-left.json", json.dumps(left)),
                self._write(f"{name}-right.json", json.dumps(right)),
            )
        for name in ("safe", "isolated"):
            left, right, lpath, rpath = pairs[name]
            add("compose", ["compose", "--mode", "verify", lpath, rpath], CliExpect(json=ref.composed(left, right)))
        for name in ("cex", "shared"):
            left, right, lpath, rpath = pairs[name]
            add("compose", ["compose", "--mode", "rewire", lpath, rpath], CliExpect(json=ref.composed(left, right)))
            add("fail", ["compose", "--mode", "verify", lpath, rpath], CliExpect(code=1, kind="isolation"))
        for name in ("cex", "isolated", "shared"):
            left, right, lpath, rpath = pairs[name]
            verdict = {
                "blockwise_isolated": ref.blockwise_disjoint(left, right),
                "isolated": not ref.shared_addresses(left, right),
                "shared": sorted(ref.shared_addresses(left, right)),
            }
            add("compose", ["compose", "--check-blockwise", lpath, rpath], CliExpect(json=verdict))

        safe_left, safe_right = pairs["safe"][2:]
        add("usage", ["compose", safe_left, safe_right], CliExpect(code=2))
        add("usage", [], CliExpect(code=2))
        add("usage", ["check"], CliExpect(code=2))

        for cls, weight in self.WEIGHTS.items():
            pool = pools[cls]
            rng.shuffle(pool)
            self.classes.append((cls, weight, pool))

    def _write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def op(self, item, tr):
        with tr.span(f"cli.{item.cls}"):
            done = subprocess.run(
                [sys.executable, "-m", "llbc.cli", *item.data],
                env=self.env,
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=120,
            )
        return done.returncode, done.stdout, done.stderr

    def check(self, item, outcome, tr):
        code, stdout, stderr = outcome
        want: CliExpect = item.expect
        if code != want.code:
            tr.count("cli.exit_mismatch")
            return f"exit {code}, expected {want.code}; stderr {stderr.strip()[:200]!r}"
        errors = [line for line in stderr.splitlines() if line.startswith("ERROR")]
        if want.kind is None:
            if errors:
                return f"unexpected {errors[0]!r}"
        else:
            if len(errors) != 1 or not errors[0].startswith(f"ERROR kind={want.kind} "):
                return f"expected one ERROR kind={want.kind} line, got {errors!r}"
            if stdout:
                return "stdout written by a failing command"
        if want.stdout is not None and stdout != want.stdout:
            return f"stdout {stdout[:200]!r}"
        if want.json is not None and _json_digest(stdout) != _json_digest(want.json):
            return f"stdout JSON differs from the reference: {stdout[:200]!r}"
        if want.trace is not None:
            return _trace_failure(stdout.splitlines(), *want.trace)
        return None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _trace_failure(lines, steps, first_rule, every_rule, finals) -> str | None:
    if len(lines) != steps + 1:
        return f"{len(lines) - 1} trace lines, expected {steps}"
    for i, line in enumerate(lines[:-1], start=1):
        index, rule = line.split()[:2]
        if index != str(i):
            return f"trace line {i} numbered {index}"
        if (i == 1 and first_rule and rule != first_rule) or (every_rule and rule != every_rule):
            return f"trace line {i} fires {rule}"
    if lines[-1] not in finals:
        return f"final program {lines[-1]!r}"
    return None


def _demo_pair(stem: str):
    paths = [DEMOS / f"{stem}{i}.json" for i in (1, 2)]
    left, right = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
    return left, right, str(paths[0]), str(paths[1])


WORKLOADS = {
    w.name: w for w in (PipelineWorkload, CorpusWorkload, ChainsWorkload, CliWorkload)
}

"""The command line's error surface under fuzzing: whatever the input, a
command ends with exit code 0, 1 or 2, and a failure is one ``ERROR`` line
(exit 1) or a usage message (exit 2), never a traceback. ``cli.main`` runs
in process, so each example costs no interpreter start-up."""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
import hypothesis.strategies as st

from llbc.cli import main

from helpers import DEMOS

SCRIPTS = sorted(DEMOS.glob("*.llbc"))
CHAINS = sorted(DEMOS.glob("*.json"))

# What a mutation inserts: every token's first character, blanks, a
# comment opener, a header dash, JSON punctuation, and characters the
# lexer rejects. One digit only, so a mutated ``N . unit`` stays small.
ALPHABET = "(){},;*#@^?!&+._-o/ \n\t\r7xlrtnsaiochb\"[]:$²١"

# Each argument list runs on one file, named by ``{}``; run and ledger get
# little fuel, since a script that is not well typed may not terminate.
SCRIPT_COMMANDS = (
    ("check", "{}"),
    ("run", "--fuel", "300", "{}"),
    ("run", "--trace", "--fuel", "300", "{}"),
    ("ledger", "{}"),
    ("ledger", "--run", "--fuel", "300", "{}"),
)
CHAIN_COMMANDS = (
    ("compose", "--mode", "verify", "{}", str(DEMOS / "safe1.json")),
    ("compose", "--mode", "rewire", str(DEMOS / "cex1.json"), "{}", "-o", "{}.out"),
    ("compose", "--check-blockwise", "{}", "{}"),
    ("compose", "{}", "{}"),
)


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with up to three edits: a character deleted,
    inserted or replaced, a slice repeated or cut out, or the end cut off."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(1, 40)))
        edit = draw(st.sampled_from(["delete", "insert", "replace", "repeat", "cut", "end"]))
        char = draw(st.sampled_from(ALPHABET))
        text = {
            "delete": lambda: text[:i] + text[i + 1 :],
            "insert": lambda: text[:i] + char + text[i:],
            "replace": lambda: text[:i] + char + text[i + 1 :],
            "repeat": lambda: text[:j] + text[i:],
            "cut": lambda: text[:i] + text[j:],
            "end": lambda: text[:i],
        }[edit]()
    return text


@st.composite
def pipelines(draw):
    """A shuffled forwarding script ``(a0){ txn(a0, x1); ...; txn(xn,
    k.satoshi) }`` with its type header, as the bench writes them."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    txns = ["txn(a0, x1)", *(f"txn(x{i}, x{i + 1})" for i in range(1, n)), f"txn(x{n}, {k}.satoshi)"]
    txns = draw(st.permutations(txns))
    header = " * ".join(["satoshi"] * k)
    return f"-- types: {header}\n(a0){{ {'; '.join(txns)} }}\n"


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    assert "Traceback" not in err
    if code == 0:
        assert "ERROR" not in err
    elif code == 1:
        assert err.startswith("ERROR kind=") and err.count("\n") == 1, err
        assert out == ""
    else:
        assert code == 2 and err.startswith("usage error: ") and "ERROR" not in err, (code, err)


def _each_command(data: bytes, commands):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for command in commands:
            _assert_contract(*_run([arg.replace("{}", str(path)) for arg in command]))


FUZZ = settings(max_examples=250, deadline=None)


class TestCliFuzz:
    @FUZZ
    @given(mutated([p.read_text(encoding="utf-8") for p in SCRIPTS]))
    def test_mutated_demo_scripts(self, text):
        _each_command(text.encode(), SCRIPT_COMMANDS)

    @FUZZ
    @given(mutated([p.read_text(encoding="utf-8") for p in CHAINS]))
    def test_mutated_demo_chains(self, text):
        _each_command(text.encode(), CHAIN_COMMANDS)

    @FUZZ
    @given(st.one_of(pipelines(), pipelines().flatmap(lambda text: mutated([text]))))
    def test_pipeline_scripts(self, text):
        _each_command(text.encode(), SCRIPT_COMMANDS)

    @FUZZ
    @given(st.binary(max_size=300))
    def test_random_bytes(self, data):
        _each_command(data, SCRIPT_COMMANDS + CHAIN_COMMANDS)

"""Command-line contract: exit codes, output determinism, error records."""
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from llbc import chains as ch
from llbc import syntax as sx
from llbc.cli import main

from helpers import DEMOS, REPO, SPEND_NORMAL_FORM


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spend_path():
    return str(DEMOS / "spend.llbc")


class TestCheck:
    def test_well_typed_script(self, capsys, spend_path):
        code, out, err = run_cli(capsys, "check", spend_path)
        assert code == 0
        assert out.strip() == "well-typed: (satoshi * satoshi * satoshi)"
        assert err == ""

    def test_type_error_is_machine_parseable(self, capsys, tmp_path):
        bad = tmp_path / "bad.llbc"
        bad.write_text("-- types: satoshi\n(x){ txn(x, satoshi); txn(x, satoshi) }\n")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert err.startswith("ERROR kind=non-linear-address")
        assert out == ""

    def test_parse_error_has_span(self, capsys, tmp_path):
        bad = tmp_path / "bad.llbc"
        bad.write_text("(x){ txn(x satoshi) }\n")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert err.startswith("ERROR kind=parse span=1:")

    def test_missing_annotations(self, capsys, tmp_path):
        script = tmp_path / "noheader.llbc"
        script.write_text("(x){ txn(x, satoshi) }\n")
        code, _, err = run_cli(capsys, "check", str(script))
        assert code == 1
        assert err == (
            'ERROR kind=type msg="interface types are required; add a \'-- types: ...\' header"\n'
        )

    def test_wide_type_in_a_mismatch_is_cut(self, capsys, tmp_path):
        # The disposal is asked to have a 100000-fold par type, whose full
        # rendering is over a megabyte; the error line shows its head.
        script = tmp_path / "wide.llbc"
        script.write_text("-- types:\n(){ txn(a, 100000.satoshi); txn(a, _) }\n")
        code, out, err = run_cli(capsys, "check", str(script))
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR kind=type-mismatch span=2:36 msg=\"disposal cannot have type ")
        assert err.count("\n") == 1
        assert len(err.encode()) < 4096
        # The line as it was when the whole type was resolved and rendered
        # before the cut.
        shown = ("satoshi^ # " * 100)[:997] + "..."
        assert err == f'ERROR kind=type-mismatch span=2:36 msg="disposal cannot have type {shown}"\n'

    @pytest.mark.parametrize(
        "source, line",
        [
            ("(){ txn(_, satoshi) }\n", 'span=1:12 msg="expected type does not fit: !T1^ vs satoshi"'),
            (
                "(){ txn(inl(satoshi), satoshi) }\n",
                'span=1:23 msg="expected type does not fit: satoshi^ & T2^ vs satoshi"',
            ),
            # An obligation spans its operands, so a mismatch on it has a place.
            (
                "-- types: satoshi\n(p){ txn(p, satoshi -o satoshi) }\n",
                'span=2:13 msg="a connection cannot have type satoshi"',
            ),
        ],
    )
    def test_short_mismatch_line(self, capsys, tmp_path, source, line):
        script = tmp_path / "short.llbc"
        script.write_text(source)
        code, out, err = run_cli(capsys, "check", str(script))
        assert (code, out, err) == (1, "", f"ERROR kind=type-mismatch {line}\n")

    @pytest.mark.parametrize(
        "source",
        [
            "(){ txn(_, satoshi) }\n",
            "(){ txn(inl(satoshi), satoshi) }\n",
            # A deep literal cut against an atom; the census walks it.
            "-- types: satoshi\n(a){ txn(a, 3000.satoshi) }\n",
        ],
    )
    def test_mismatch_is_one_error_line(self, capsys, tmp_path, source):
        script = tmp_path / "mismatch.llbc"
        script.write_text(source)
        code, out, err = run_cli(capsys, "check", str(script))
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR kind=type-mismatch")
        assert err.count("\n") == 1


def _tensor_header(n: int) -> str:
    return " * ".join(["satoshi"] * n)


class TestDeepCheck:
    """Checking is linear in the size of the program and its declared
    types: an N-fold literal cut against an N-fold tensor neither recurses
    nor goes quadratic."""

    @pytest.mark.parametrize("n", [3000, 100000])
    def test_deep_literal_is_well_typed(self, capsys, tmp_path, n):
        script = tmp_path / "deep.llbc"
        script.write_text(f"-- types: {_tensor_header(n)}\n(a){{ txn(a, {n}.satoshi) }}\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", str(script))
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert out == f"well-typed: ({_tensor_header(n)})\n"
        assert err == ""
        # Seconds when linear; a quadratic step would take hours at n=100000.
        assert elapsed < 60

    @pytest.mark.parametrize("n", [3000, 100000])
    def test_deep_literal_against_one_fewer_is_one_error_line(self, capsys, tmp_path, n):
        script = tmp_path / "short.llbc"
        script.write_text(f"-- types: {_tensor_header(n - 1)}\n(a){{ txn(a, {n}.satoshi) }}\n")
        code, out, err = run_cli(capsys, "check", str(script))
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR kind=type-mismatch")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_deep_demand_literal(self, capsys, tmp_path):
        script = tmp_path / "demand.llbc"
        script.write_text(f"-- types: ({_tensor_header(3000)})^\n(a){{ txn(a, 3000.satoshi^) }}\n")
        code, out, err = run_cli(capsys, "check", str(script))
        assert code == 0, err
        assert out == f"well-typed: ({' # '.join(['satoshi^'] * 3000)})\n"


class TestDeepNesting:
    """Input past the parser's limits, nesting deeper than 100 levels or
    literals expanding to more than 100000 units, is one ``kind=limit``
    line at the token that crosses the limit, however far past it goes."""

    @pytest.mark.parametrize("levels", [401, 100000])
    def test_nested_parentheses(self, capsys, tmp_path, levels):
        script = tmp_path / "nested.llbc"
        script.write_text("(" * levels + "a" + ")" * levels + "{}\n")
        code, out, err = run_cli(capsys, "check", str(script))
        assert code == 1
        assert out == ""
        assert err == 'ERROR kind=limit span=1:102 msg="operands nest deeper than 100 levels"\n'

    @pytest.mark.parametrize("command", ["check", "run", "ledger"])
    def test_ten_digit_literal(self, capsys, tmp_path, command):
        # Expanded, 1234567890.satoshi would be billions of nodes.
        script = tmp_path / "huge.llbc"
        script.write_text("-- types: satoshi\n(a){ txn(a, 1234567890.satoshi) }\n")
        code, out, err = run_cli(capsys, command, str(script))
        assert code == 1
        assert out == ""
        assert err == 'ERROR kind=limit span=2:13 msg="unit literals expand to more than 100000 units"\n'


class TestRun:
    def test_prints_normal_form(self, capsys, spend_path):
        code, out, err = run_cli(capsys, "run", spend_path)
        assert code == 0
        assert out.strip() == SPEND_NORMAL_FORM

    def test_trace_lines(self, capsys, spend_path):
        code, out, _ = run_cli(capsys, "run", spend_path, "--trace")
        lines = out.strip().splitlines()
        assert len(lines) == 7  # six steps plus the final program
        assert lines[0].split()[:3] == ["1", "Left", "0"]
        assert lines[-1] == SPEND_NORMAL_FORM

    def test_fuel_exhaustion(self, capsys, spend_path):
        code, out, err = run_cli(capsys, "run", spend_path, "--fuel", "2")
        assert code == 1
        assert err.startswith("ERROR kind=fuel")
        assert "steps=2" in err

    def test_deterministic_output(self, capsys, spend_path):
        _, first, _ = run_cli(capsys, "run", spend_path, "--trace")
        _, second, _ = run_cli(capsys, "run", spend_path, "--trace")
        assert first == second

    def test_deep_literal(self, capsys, tmp_path):
        # A literal is a left-nested *-chain as deep as its amount.
        script = tmp_path / "deep.llbc"
        script.write_text("(a){ txn(a, x); txn(x, 100000.satoshi) }\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 0, err
        assert out.strip() == "(a){ txn(a, 100000 . satoshi) }"

    def test_copy_of_box_holding_deep_literal(self, capsys, tmp_path):
        script = tmp_path / "copy.llbc"
        script.write_text("(s){ txn(!(s){ (3000.satoshi, ?btc){} }, e1 @ e2) }\n")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == 0, err
        assert out.strip() == (
            "(s){ txn(s, s.l @ s.r); "
            "txn(!(s.l){ (3000 . satoshi, ?btc){} }, e1); "
            "txn(!(s.r){ (3000 . satoshi, ?btc){} }, e2) }"
        )


class TestLedger:
    def test_golden_spend_ledger(self, capsys, spend_path):
        code, out, _ = run_cli(capsys, "ledger", spend_path, "--run")
        assert code == 0
        assert json.loads(out) == {
            "balances": {
                "addr3": {"satoshi": 1},
                "bddr1": {"satoshi": 1},
                "bddr2": {"satoshi": 1},
            },
            "burned": {},
        }

    def test_addresses_sorted(self, capsys, tmp_path):
        script = tmp_path / "ledger.llbc"
        script.write_text("(zed, alpha){ txn(zed, satoshi); txn(alpha, btc) }\n")
        code, out, _ = run_cli(capsys, "ledger", str(script))
        assert code == 0
        balances = json.loads(out)["balances"]
        assert list(balances) == sorted(balances)

    def test_not_ledger_form(self, capsys, tmp_path):
        script = tmp_path / "open.llbc"
        script.write_text("(x, y){ txn(x, y) }\n")
        code, _, err = run_cli(capsys, "ledger", str(script))
        assert code == 1
        assert err.startswith("ERROR kind=ledger-form txn=0")

    def test_deep_literal(self, capsys, tmp_path):
        script = tmp_path / "deep.llbc"
        script.write_text("(a){ txn(a, 100000.satoshi) }\n")
        code, out, err = run_cli(capsys, "ledger", str(script), "--run")
        assert code == 0, err
        assert json.loads(out) == {"balances": {"a": {"satoshi": 100000}}, "burned": {}}

    def test_run_accumulates_burned(self, capsys, tmp_path):
        script = tmp_path / "burnbox.llbc"
        script.write_text("(){ txn(!(){ (2 . satoshi){} }, _) }\n")
        code, out, _ = run_cli(capsys, "ledger", str(script), "--run")
        assert code == 0
        assert json.loads(out)["burned"] == {"satoshi": 2}


class TestCompose:
    def test_verify_safe_pair_golden(self, capsys, tmp_path):
        out_path = tmp_path / "combined.json"
        code, out, err = run_cli(
            capsys,
            "compose",
            "--mode",
            "verify",
            str(DEMOS / "safe1.json"),
            str(DEMOS / "safe2.json"),
            "-o",
            str(out_path),
        )
        assert code == 0
        combined = ch.load_chain(str(out_path))
        assert combined.blocks[0].transfers == (
            ch.Transfer(sx.Address("1AliceAddr"), sx.Address("1AllanAddr"), 5, "btc"),
            ch.Transfer(sx.Address("1BobAddr"), sx.Address("1BettyAddr"), 7, "btc"),
        )

    def test_verify_counterexample_errors(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compose",
            "--mode",
            "verify",
            str(DEMOS / "cex1.json"),
            str(DEMOS / "cex2.json"),
        )
        assert code == 1
        assert err.startswith(
            "ERROR kind=isolation shared=1AliceAddr,1AllanAddr,1BettyAddr,1BobAddr"
        )
        assert out == ""

    def test_rewire_counterexample_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compose",
            "--mode",
            "rewire",
            str(DEMOS / "cex1.json"),
            str(DEMOS / "cex2.json"),
        )
        assert code == 0
        combined = ch.chain_from_json(out)
        rendered = [
            (t.source.render(), t.target.render(), t.amount)
            for block in combined.blocks
            for t in block.transfers
        ]
        assert rendered == [
            ("01AliceAddr", "01AllanAddr", 5),
            ("11BobAddr", "11BettyAddr", 7),
            ("01BobAddr", "01BettyAddr", 7),
            ("11AliceAddr", "11AllanAddr", 5),
        ]

    def test_rewire_map_output(self, capsys, tmp_path):
        map_path = tmp_path / "map.json"
        code, _, _ = run_cli(
            capsys,
            "compose",
            "--mode",
            "rewire",
            str(DEMOS / "cex1.json"),
            str(DEMOS / "cex2.json"),
            "--map",
            str(map_path),
        )
        assert code == 0
        mapping = json.loads(map_path.read_text())
        assert mapping["left"]["1AliceAddr"] == "01AliceAddr"
        assert mapping["right"]["1AliceAddr"] == "11AliceAddr"

    def test_check_blockwise_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compose",
            "--check-blockwise",
            str(DEMOS / "cex1.json"),
            str(DEMOS / "cex2.json"),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict == {
            "blockwise_isolated": True,
            "isolated": False,
            "shared": ["1AliceAddr", "1AllanAddr", "1BettyAddr", "1BobAddr"],
        }

    def test_byte_identical_outputs(self, capsys):
        args = ("compose", "--mode", "verify", str(DEMOS / "safe1.json"), str(DEMOS / "safe2.json"))
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "compose", str(DEMOS / "safe1.json"), str(DEMOS / "safe2.json")
        )
        assert code == 2
        assert "usage" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_file_argument(self, capsys):
        code, _, _ = run_cli(capsys, "run")
        assert code == 2

    @pytest.mark.parametrize("command", [["run"], ["ledger", "--run"]])
    @pytest.mark.parametrize("fuel", ["-1", "x"])
    def test_bad_fuel_is_usage_error(self, capsys, spend_path, command, fuel):
        code, out, err = run_cli(capsys, command[0], spend_path, *command[1:], "--fuel", fuel)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: argument --fuel: must be a non-negative integer")
        assert "ERROR" not in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-file.llbc")
        assert code == 1
        assert err.startswith("ERROR kind=io")


class TestUnitsRegistry:
    def test_env_registry_extends_units(self, capsys, tmp_path, monkeypatch):
        registry = tmp_path / "units.txt"
        registry.write_text("gil\n# comment\n")
        script = tmp_path / "gil.llbc"
        script.write_text("(x){ txn(x, gil) }\n")
        monkeypatch.setenv("LLBC_UNITS", str(registry))
        code, out, _ = run_cli(capsys, "ledger", str(script))
        assert code == 0
        assert json.loads(out)["balances"]["x"] == {"gil": 1}

    def test_without_registry_unknown_unit_is_address(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("LLBC_UNITS", raising=False)
        script = tmp_path / "gil.llbc"
        script.write_text("(x){ txn(x, gil) }\n")
        code, _, err = run_cli(capsys, "ledger", str(script))
        # 'gil' lexes as an address, so the program is not in ledger form
        assert code == 1
        assert err.startswith("ERROR kind=ledger-form")

    def test_bad_registry_token_is_an_io_error(self, capsys, tmp_path, monkeypatch):
        registry = tmp_path / "units.txt"
        script = tmp_path / "plain.llbc"
        script.write_text("(x){ txn(x, satoshi) }\n")
        monkeypatch.setenv("LLBC_UNITS", str(registry))
        # A token must be a word a script can write as a unit literal.
        for token in ("no-unit", "_", "txn", "choose", "inl", "inr"):
            registry.write_text(f"gil\n{token}\n")
            code, out, err = run_cli(capsys, "check", str(script))
            assert (code, out) == (1, "")
            assert err == f"ERROR kind=io msg=\"invalid currency unit token: '{token}'\"\n"


class TestInputErrors:
    def test_directory_is_an_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR kind=io msg=")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "source, line",
        [
            # Header errors point into the header line, wherever it sits.
            ("\n\n-- types: foo\n(a){}", "span=3:11 msg=\"unknown currency unit 'foo'\""),
            ("-- types: satoshi, (btc", "span=1:24 msg=\"expected RPAREN, found 'end of input'\""),
            ("-- types: satoshi,\n(a){}", "span=1:19 msg=\"expected a type, found 'end of input'\""),
            ("\n  -- type: x\n(a){}", "span=2:3 msg=\"a '--' line must be a type header of the form '-- types: ...'\""),
            # A superscript digit is not a multiplier: it lexes as a name.
            ("(a){ txn(a, \u00b2.satoshi) }", "span=1:13 msg=\"invalid address name: '\\u00b2'\""),
            # A bound list names addresses, not units or keywords.
            ("(){ txn(!(satoshi){ (a){} }, _) }", "span=1:11 msg=\"'satoshi' cannot be used as a bound address\""),
            ("(){ txn(!(txn){ (a){} }, _) }", "span=1:11 msg=\"'txn' cannot be used as a bound address\""),
        ],
    )
    def test_parse_error_line(self, capsys, tmp_path, source, line):
        script = tmp_path / "bad.llbc"
        script.write_text(source, encoding="utf-8")
        code, _, err = run_cli(capsys, "check", str(script))
        assert code == 1
        assert err == f"ERROR kind=parse {line}\n"

    def test_empty_header_declares_nothing(self, capsys, tmp_path):
        script = tmp_path / "empty.llbc"
        script.write_text("-- types:\n(){}\n")
        code, out, _ = run_cli(capsys, "check", str(script))
        assert code == 0
        assert out == "well-typed: ()\n"

    @pytest.mark.parametrize(
        "blocks, msg",
        [
            (
                [{"transfers": [{"from": "a", "to": "b", "amount": 1}]}],
                "block 0, transfer 0: a transfer needs a 'unit' field",
            ),
            (
                [{"transfers": []}, [{"from": "a", "to": "b", "amount": 1, "unit": "btc"}]],
                "block 1: a block must be an object, not list",
            ),
            (
                [{"transfers": [
                    {"from": "a", "to": "b", "amount": 1, "unit": "btc"},
                    {"from": ["x"], "to": "b", "amount": 1, "unit": "btc"},
                ]}],
                "block 0, transfer 1: transfer field 'from' must be a string, not list",
            ),
        ],
    )
    def test_malformed_chain_is_an_io_error(self, capsys, tmp_path, blocks, msg):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"blocks": blocks}))
        code, out, err = run_cli(
            capsys, "compose", "--mode", "verify", str(bad), str(DEMOS / "safe1.json")
        )
        assert code == 1
        assert out == ""
        assert err == f"ERROR kind=io msg={json.dumps(msg)}\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"blocks": ' + "[" * 100000 + "]" * 100000 + "}",
            '{"blocks": ' + "[" * 100000,
            '{"blocks": [' + '{"transfers": [' * 60 + "]}" * 60 + "]}",
        ],
        ids=["balanced", "unclosed", "alternating"],
    )
    def test_deeply_nested_chain_is_a_limit_error(self, capsys, tmp_path, text):
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        code, out, err = run_cli(
            capsys, "compose", "--mode", "verify", str(deep), str(DEMOS / "safe1.json")
        )
        assert (code, out) == (1, "")
        assert err == (
            f"ERROR kind=limit msg={json.dumps(f'chain JSON nests deeper than {ch.MAX_JSON_NESTING} levels')}\n"
        )


def _child(*args: str) -> subprocess.CompletedProcess:
    """Run Python on ``args`` in a fresh interpreter that imports llbc
    from this checkout."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LLBC_UNITS")}
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=str(REPO), capture_output=True, text=True, timeout=60
    )


def _loaded_modules(code: str) -> dict:
    """Run ``code`` in a fresh interpreter (see :func:`_child`); it prints
    JSON, which is returned."""
    done = _child("-c", code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_RUN_MAIN = """
import json, sys
from llbc import cli
code = cli.main({argv!r})
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""

# The checker, reducer and parser: what ``compose`` and usage errors skip.
_SCRIPT_LAYERS = {"llbc.parser", "llbc.typecheck", "llbc.reduce"}


# ``llbc.__all__`` as it was when the package imported every sub-module
# eagerly: its names and the sub-modules themselves.
PACKAGE_NAMES = [
    "Addr", "Address", "Atom", "Bang", "Block", "BranchContextMismatchError", "Chain",
    "Choose", "Conn", "Contract", "DEFAULT_UNITS", "Dispose", "Dual", "DualityError",
    "Expression", "FuelExhausted", "HeightMismatch", "Inl", "Inr", "Iso", "IsolationError",
    "Ledger", "LinearType", "LlbcError", "NonLinearAddressError", "NormalizeResult",
    "NotInLedgerForm", "OfCourse", "Par", "ParseError", "Plus", "Program",
    "PromotionContextError", "Redex", "RewireResult", "SourceSpan", "Store", "Tensor",
    "Transaction", "Transfer", "TypeCheckError", "TypeContext", "TypeMismatchError",
    "TypedJudgment", "Unit", "WhyNot", "With", "active_units", "addresses",
    "alpha_equivalent", "blockwise_isolated", "chain_from_json", "chain_to_json",
    "chain_to_program", "chains", "check", "check_expression", "compose_rewire",
    "compose_verify", "desugar_obligation", "dual", "dualize_expr", "errors",
    "find_redexes", "free_addresses", "isolated", "load_units", "node_count", "normalize",
    "parse_expression", "parse_program", "parse_script", "parse_type", "parser",
    "readback_ledger", "reduce", "rename", "render", "replay", "step", "syntax",
    "typecheck", "unit_multiset", "units",
]


class TestImports:
    """Each command imports only the layers it uses."""

    def test_cli_import_is_light(self):
        loaded = _loaded_modules("import json, sys, llbc.cli; print(json.dumps(sorted(sys.modules)))")
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded
        assert not _SCRIPT_LAYERS & set(loaded)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["compose", "--mode", "verify", "demos/safe1.json", "demos/safe2.json", "-o", os.devnull], 0),
            (["compose", "--mode", "rewire", "demos/cex1.json", "demos/cex2.json", "-o", os.devnull], 0),
            (["compose", "--check-blockwise", "demos/cex1.json", "demos/cex2.json"], 0),
            (["compose", "demos/safe1.json", "demos/safe2.json"], 2),
            (["check"], 2),
            (["run", "demos/spend.llbc", "--fuel", "-1"], 2),
            ([], 2),
        ],
    )
    def test_compose_and_usage_errors_skip_script_layers(self, argv, code):
        outcome = _loaded_modules(_RUN_MAIN.format(argv=argv))
        assert outcome["code"] == code
        assert not _SCRIPT_LAYERS & set(outcome["modules"])

    def test_check_loads_what_it_uses(self):
        outcome = _loaded_modules(_RUN_MAIN.format(argv=["check", "demos/spend.llbc"]))
        assert outcome["code"] == 0
        assert {"llbc.parser", "llbc.typecheck"} <= set(outcome["modules"])
        assert "llbc.reduce" not in outcome["modules"]

    def test_package_names_resolve_lazily(self):
        outcome = _loaded_modules(
            "import json, llbc\n"
            "missing = [n for n in llbc.__all__ if getattr(llbc, n, None) is None]\n"
            "print(json.dumps({'names': sorted(llbc.__all__), 'missing': missing}))"
        )
        assert outcome["missing"] == []
        assert outcome["names"] == sorted(PACKAGE_NAMES)


# sha256 of each demo script's stdout. The scripts are deterministic, so
# any change to what they print shows here.
_DEMO_DIGESTS = {
    "compose_chains.py": "ce17dc6a385c86aba827a2dd8b38e093085a4eb002ba7ee2f9584d604a26d141",
    "run_spend_example.py": "c8e84b41ac2eff7b0cd5955be0bcf214bc42f24d0ef2e5d1a0d9023be4aa356a",
    "typing_tour.py": "e0b80ccbf035369516d4394518784ffe68071727b2c33057f0879e9735ad7739",
}


class TestDemoScripts:
    """The README's walkthroughs run to the end without a word on stderr
    and print what they always printed."""

    @pytest.mark.parametrize("script", sorted(_DEMO_DIGESTS))
    def test_demo_runs(self, script):
        done = _child(str(DEMOS / script))
        assert (done.returncode, done.stderr) == (0, "")
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == _DEMO_DIGESTS[script]

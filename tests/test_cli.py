"""Command-line contract: exit codes, output determinism, error records."""
import json
import time

import pytest

from llbc import chains as ch
from llbc import syntax as sx
from llbc.cli import main

from helpers import DEMOS, SPEND_NORMAL_FORM


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
        assert err.startswith("ERROR kind=type")

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

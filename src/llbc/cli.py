"""Batch command line: parse, check, run, read ledgers, compose chains.

Exit codes: 0 success, 1 domain error (parse, type, isolation, ...),
2 usage error. Diagnostics go to stderr; every domain error is a single
machine-parseable line ``ERROR kind=<kind> [key=value ...]``. Data goes to
stdout, deterministically: JSON keys are sorted and ledger addresses are
listed lexicographically.
"""
from __future__ import annotations

import argparse
import json
import sys

# Each command imports the layers it uses when it runs, so ``compose`` and
# usage errors never load the parser, checker or reducer.
from .errors import LlbcError, TypeCheckError
from .units import active_units


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fuel(text: str) -> int:
    """A ``--fuel`` value: a non-negative int, else a usage error."""
    try:
        fuel = int(text)
    except ValueError:
        fuel = -1
    if fuel < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return fuel


def _build_parser() -> _Parser:
    parser = _Parser(prog="llbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and type-check a script")
    p_check.add_argument("file")

    p_run = sub.add_parser("run", help="normalize a script and print the result")
    p_run.add_argument("file")
    p_run.add_argument("--fuel", type=_fuel)
    p_run.add_argument("--trace", action="store_true")

    p_ledger = sub.add_parser("ledger", help="read a script back as a ledger (JSON)")
    p_ledger.add_argument("file")
    p_ledger.add_argument("--run", action="store_true", help="normalize first")
    p_ledger.add_argument("--fuel", type=_fuel)

    p_compose = sub.add_parser("compose", help="combine two chains blockwise")
    p_compose.add_argument("chains", nargs=2, metavar="CHAIN.json")
    p_compose.add_argument("--mode", choices=("verify", "rewire"))
    p_compose.add_argument(
        "--check-blockwise",
        action="store_true",
        help="report the weak (blockwise) and strong isolation verdicts",
    )
    p_compose.add_argument("-o", "--output", help="write the combined chain here")
    p_compose.add_argument("--map", dest="map_out", help="write the rewiring map here")
    return parser


def _error_line(kind: str, **fields) -> str:
    parts = [f"ERROR kind={kind}"]
    parts.extend(f"{key}={value}" for key, value in fields.items() if value is not None)
    return " ".join(parts)


def _fail(err: LlbcError) -> int:
    fields = {}
    if err.span is not None:
        fields["span"] = str(err.span)
    if hasattr(err, "shared"):
        fields["shared"] = ",".join(sorted(a.render() for a in err.shared))
    if hasattr(err, "steps"):
        fields["steps"] = err.steps
    if hasattr(err, "index"):
        fields["txn"] = err.index
    fields["msg"] = json.dumps(err.message)
    print(_error_line(err.kind, **fields), file=sys.stderr)
    return 1


def _load_script(path: str):
    from .parser import parse_script

    units = active_units()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_script(text, units)


def _cmd_check(args) -> int:
    from .parser import render
    from .typecheck import check

    program, declared = _load_script(args.file)
    if declared is None:
        if program.interface:
            raise TypeCheckError("interface types are required; add a '-- types: ...' header")
        declared = []
    judgment = check(program, declared)
    types = ", ".join(render(t) for t in judgment.interface_types)
    print(f"well-typed: ({types})")
    return 0


def _cmd_run(args) -> int:
    from .parser import render
    from .reduce import DEFAULT_FUEL, normalize

    program, _ = _load_script(args.file)
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    result = normalize(program, fuel=fuel, trace=args.trace)
    if args.trace and result.trace:
        for entry in result.trace:
            print(entry.line())
    print(render(result.result))
    return 0


def _cmd_ledger(args) -> int:
    from .reduce import DEFAULT_FUEL, normalize, readback_ledger

    program, _ = _load_script(args.file)
    burned_in_run = {}
    if args.run:
        outcome = normalize(program, fuel=DEFAULT_FUEL if args.fuel is None else args.fuel)
        program = outcome.result
        burned_in_run = dict(outcome.burned)
    ledger = readback_ledger(program)
    payload = ledger.to_json_dict()
    for unit, count in burned_in_run.items():
        payload["burned"][unit] = payload["burned"].get(unit, 0) + count
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_compose(args) -> int:
    from . import chains as ch

    left = ch.load_chain(args.chains[0])
    right = ch.load_chain(args.chains[1])
    if args.check_blockwise:
        shared = ch.addresses(left) & ch.addresses(right)
        verdict = {
            "blockwise_isolated": ch.blockwise_isolated(left, right),
            "isolated": not shared,
            "shared": sorted(a.render() for a in shared),
        }
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 0
    if args.mode is None:
        raise _UsageError("compose needs --mode verify|rewire or --check-blockwise")
    if args.mode == "verify":
        combined = ch.compose_verify(left, right)
    else:
        rewired = ch.compose_rewire(left, right)
        combined = rewired.chain
        if args.map_out:
            mapping = {
                "left": {a.render(): b.render() for a, b in rewired.left_map},
                "right": {a.render(): b.render() for a, b in rewired.right_map},
            }
            with open(args.map_out, "w", encoding="utf-8") as handle:
                json.dump(mapping, handle, indent=2, sort_keys=True)
                handle.write("\n")
    text = ch.chain_to_json(combined)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "run": _cmd_run,
    "ledger": _cmd_ledger,
    "compose": _cmd_compose,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except LlbcError as err:
        return _fail(err)
    except (OSError, ValueError) as err:
        print(_error_line("io", msg=json.dumps(str(err))), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

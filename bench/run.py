"""Benchmark for llbc: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the ``cli`` workload reads ``demos/``. Each run is a closed
loop with one client: every op starts when the previous one has ended.
Ops come in blocks (see ``workloads``); a run keeps adding whole blocks
until ``--seconds`` have passed and at least ``MIN_OPS`` ops are done.
Every op is checked against ``reference``; mismatches are printed to
stderr with the op and its input and counted in ``failed``.

With ``--trace 0`` the last stdout line reports, by name and unit:
``throughput_ops_s`` (ops per second of timed op time; every block holds
the same mix, so this is the median over the run's blocks), ``latency_p50_ms``
and ``latency_p90_ms`` (over every op of the run; the sample count is the
``attempted`` field), ``peak_rss_mb`` (``ru_maxrss`` of this process, or of
its children on ``cli``) and ``setup_s`` (import of llbc, input generation
from the seed and one warm-up op, done three to nine times; the median).

With ``--trace 1`` the run is split in two halves, untraced then traced.
The traced half records a span around every call into a layer, keeps the
spans in memory and writes them to ``bench/out/spans-<workload>.jsonl``
at the end; the last stdout line reports the per-layer metrics of
``LAYER_METRICS``. Outside the timed op, the traced half also replays each
normalization through the public ``find_redexes``/``step`` loop (which
must end where ``normalize`` ended) and tokenizes each script body.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up runs at least SETUPS_MIN times and, while under SETUP_BUDGET
# seconds in all, up to SETUPS_MAX times; setup_s is the median.
SETUPS_MIN = 3
SETUPS_MAX = 9
SETUP_BUDGET = 2.0
MIN_OPS = 100
# A run stops adding blocks after this long even below MIN_OPS, so that
# it ends well within its time limit on a slow machine.
MAX_SECONDS = 120.0
STARTUP_SAMPLES = 5

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

LAYER_METRICS = (
    ("reduce.normalize.busy_s", "s"),
    ("reduce.normalize.self_s", "s"),
    ("reduce.normalize.steps", "count"),
    ("reduce.normalize.steps_per_s", "1/s"),
    ("reduce.normalize.growth_exponent", "1"),
    ("reduce.find_redexes.calls", "count"),
    ("reduce.find_redexes.busy_s", "s"),
    ("reduce.step.busy_s", "s"),
    ("reduce.peak_pending", "count"),
    ("reduce.readback_ledger.busy_s", "s"),
    ("reduce.errors", "count"),
    ("typecheck.check.calls", "count"),
    ("typecheck.check.busy_s", "s"),
    ("typecheck.check.nodes_per_s", "1/s"),
    ("typecheck.rejected", "count"),
    ("typecheck.derivation_nodes", "count"),
    ("typecheck.errors", "count"),
    ("parser.parse_script.calls", "count"),
    ("parser.parse_script.busy_s", "s"),
    ("parser.parse_script.bytes_per_s", "B/s"),
    ("parser.tokenize.tokens_per_s", "1/s"),
    ("parser.render.busy_s", "s"),
    ("parser.errors", "count"),
    ("chains.chain_from_json.busy_s", "s"),
    ("chains.chain_to_json.busy_s", "s"),
    ("chains.isolation.busy_s", "s"),
    ("chains.compose_verify.busy_s", "s"),
    ("chains.compose_rewire.busy_s", "s"),
    ("chains.chain_to_program.busy_s", "s"),
    ("chains.transfers_per_s", "1/s"),
    ("chains.rejected", "count"),
    ("chains.errors", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.check.ms", "ms"),
    ("cli.run.ms", "ms"),
    ("cli.ledger.ms", "ms"),
    ("cli.compose.ms", "ms"),
    ("cli.exit_mismatch", "count"),
    ("bench.trace_overhead_frac", "1"),
    ("fail_frac", "1"),
)

_BENCH_MODULES = ("workloads", "reference", "tracing")


def _fresh_import():
    """Import llbc and the benchmark's modules from scratch."""
    for name in list(sys.modules):
        if name == "llbc" or name.startswith("llbc.") or name in _BENCH_MODULES:
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(name: str, seed: int, tiny: bool = False):
    """Import, generate the inputs and warm up, several times over.

    Returns the last workload and the median set-up time.
    """
    times = []
    workload = None
    while len(times) < SETUPS_MIN or (len(times) < SETUPS_MAX and sum(times) < SETUP_BUDGET):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()  # the previous set-up's modules, so they do not add to peak RSS
        start = time.perf_counter()
        workloads = _fresh_import()
        workload = workloads.WORKLOADS[name](seed, tiny=tiny)
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times), len(times)


class Run:
    """Latencies and failures of the ops of one measured phase, and each
    block's throughput (its ops over the time they took)."""

    def __init__(self):
        self.latencies: list[float] = []
        self.block_throughputs: list[float] = []
        self.failed = 0
        self.blocks = 0


def measure(workload, tracer, seconds: float, min_ops: int, first_block: int = 0) -> Run:
    run = Run()
    start = time.perf_counter()
    block = first_block
    while True:
        block_start = len(run.latencies)
        for item in workload.block(block):
            op_id = tracer.op = f"{block}.{len(run.latencies)}"
            began = time.perf_counter()
            try:
                with tracer.span(f"op.{item.cls}"):
                    outcome, error = workload.op(item, tracer), None
            except Exception as exc:  # an op that raises is a failed op, reported below
                outcome, error = None, exc
            run.latencies.append(time.perf_counter() - began)
            if error is not None:
                reason = f"raised {type(error).__name__}: {error}"
                if tracer.enabled:
                    _count_layer_error(tracer, op_id)
            else:
                reason = workload.check(item, outcome, tracer)
                if reason is None and tracer.enabled:
                    reason = workload.extra(item, outcome, tracer)
            if reason is not None:
                run.failed += 1
                print(
                    f"FAIL workload={workload.name} seed={workload.seed} op={op_id} "
                    f"input={item.label!r}: {reason}",
                    file=sys.stderr,
                )
        block_latencies = run.latencies[block_start:]
        run.block_throughputs.append(len(block_latencies) / sum(block_latencies))
        block += 1
        run.blocks += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(run.latencies) >= min_ops) or elapsed >= MAX_SECONDS:
            return run


def _count_layer_error(tracer, op_id):
    """Charge an exception that escaped an op to the innermost layer it
    escaped from."""
    for span in reversed(tracer.spans):
        if span.op != op_id:
            break
        if span.error is not None and not span.name.startswith("op."):
            tracer.count(span.name.split(".")[0] + ".errors")
            return


def end_to_end(workload, run: Run, setup_s: float) -> dict:
    latencies = run.latencies
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "throughput_ops_s": statistics.median(run.block_throughputs),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def cli_startup(tracer):
    """Bare interpreter start-up, and start-up plus ``import llbc.cli``."""
    import workloads

    env = workloads.child_env()
    for name, code in (("cli.interpreter", "pass"), ("cli.import", "import llbc.cli")):
        for _ in range(STARTUP_SAMPLES):
            with tracer.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT), check=True)


def _growth_exponent(spans) -> float:
    """Least-squares slope of log(normalize time) against log(input nodes)."""
    points = [(math.log(s.size), math.log(s.duration)) for s in spans if s.size and s.duration > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def layer_metrics(tracer, untraced: Run, traced: Run) -> dict:
    counts = tracer.counts
    busy = tracer.busy

    def per_s(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def median_ms(name):
        spans = tracer.by_name(name)
        return 1000 * statistics.median(s.duration for s in spans) if spans else 0.0

    normalize = busy("reduce.normalize")
    replayed = busy("reduce.find_redexes") + busy("reduce.step")
    chains_busy = sum(s.duration for s in tracer.spans if s.name.startswith("chains."))
    attempted = len(untraced.latencies) + len(traced.latencies)
    mean = statistics.fmean
    return {
        "reduce.normalize.busy_s": normalize,
        # normalize's time outside the find_redexes and step work it does,
        # measured by replaying the same inputs through the public loop
        "reduce.normalize.self_s": normalize - replayed if normalize else 0.0,
        "reduce.normalize.steps": counts["reduce.normalize.steps"],
        "reduce.normalize.steps_per_s": per_s(counts["reduce.normalize.steps"], normalize),
        "reduce.normalize.growth_exponent": _growth_exponent(tracer.by_name("reduce.normalize")),
        "reduce.find_redexes.calls": len(tracer.by_name("reduce.find_redexes")),
        "reduce.find_redexes.busy_s": busy("reduce.find_redexes"),
        "reduce.step.busy_s": busy("reduce.step"),
        "reduce.peak_pending": counts["reduce.peak_pending"],
        "reduce.readback_ledger.busy_s": busy("reduce.readback_ledger"),
        "reduce.errors": counts["reduce.errors"],
        "typecheck.check.calls": len(tracer.by_name("typecheck.check")),
        "typecheck.check.busy_s": busy("typecheck.check"),
        "typecheck.check.nodes_per_s": per_s(counts["typecheck.check.nodes"], busy("typecheck.check")),
        "typecheck.rejected": counts["typecheck.rejected"],
        "typecheck.derivation_nodes": counts["typecheck.derivation_nodes"],
        "typecheck.errors": counts["typecheck.errors"],
        "parser.parse_script.calls": len(tracer.by_name("parser.parse_script")),
        "parser.parse_script.busy_s": busy("parser.parse_script"),
        "parser.parse_script.bytes_per_s": per_s(
            counts["parser.parse_script.bytes"], busy("parser.parse_script")
        ),
        "parser.tokenize.tokens_per_s": per_s(counts["parser.tokenize.tokens"], busy("parser.tokenize")),
        "parser.render.busy_s": busy("parser.render"),
        "parser.errors": counts["parser.errors"],
        "chains.chain_from_json.busy_s": busy("chains.chain_from_json"),
        "chains.chain_to_json.busy_s": busy("chains.chain_to_json"),
        "chains.isolation.busy_s": busy("chains.isolation"),
        "chains.compose_verify.busy_s": busy("chains.compose_verify"),
        "chains.compose_rewire.busy_s": busy("chains.compose_rewire"),
        "chains.chain_to_program.busy_s": busy("chains.chain_to_program"),
        "chains.transfers_per_s": per_s(counts["chains.transfers"], chains_busy),
        "chains.rejected": counts["chains.rejected"],
        "chains.errors": counts["chains.errors"],
        "cli.interpreter_ms": median_ms("cli.interpreter"),
        "cli.import_ms": median_ms("cli.import") - median_ms("cli.interpreter"),
        "cli.check.ms": median_ms("cli.check"),
        "cli.run.ms": median_ms("cli.run"),
        "cli.ledger.ms": median_ms("cli.ledger"),
        "cli.compose.ms": median_ms("cli.compose"),
        "cli.exit_mismatch": counts["cli.exit_mismatch"],
        "bench.trace_overhead_frac": mean(traced.latencies) / mean(untraced.latencies) - 1,
        "fail_frac": (untraced.failed + traced.failed) / attempted,
    }


def report(workload, setup_s: float, seconds: float, trace: bool, min_ops: int = MIN_OPS) -> dict:
    """Measure a set-up workload; the result object the last line prints."""
    import tracing

    if not trace:
        run = measure(workload, tracing.NULL, seconds, min_ops)
        values, table, runs = end_to_end(workload, run, setup_s), END_TO_END, [run]
    else:
        untraced = measure(workload, tracing.NULL, seconds / 2, 0)
        tracer = tracing.Tracer()
        traced = measure(workload, tracer, seconds / 2, 0, first_block=untraced.blocks)
        cli_startup(tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}.jsonl")
        values, table, runs = layer_metrics(tracer, untraced, traced), LAYER_METRICS, [untraced, traced]
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "corpus", "chains", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "llbc" / "__init__.py").is_file() or not (ROOT / "demos").is_dir():
        print(f"error: {ROOT} is not an llbc source checkout (no src/llbc or demos/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup_s, setups = set_up(args.workload, args.seed)
    # The inputs live for the whole run; keep the collector from scanning
    # them again and again, as it would not in a process that ran one op.
    gc.collect()
    gc.freeze()
    try:
        result = report(workload, setup_s, args.seconds, bool(args.trace))
    finally:
        workload.close()
    print(
        f"{args.workload} seed={args.seed}: {result['attempted']} ops, {result['failed']} failed; "
        f"closed loop, one client; set-up is the median of {setups}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

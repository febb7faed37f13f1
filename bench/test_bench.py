"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench

Every workload must report every metric with its unit and fail no op,
and a deliberately wrong reference must make ops fail, which shows that
the checks compare something.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

NAMES = ("pipeline", "corpus", "chains", "cli")


@pytest.fixture(autouse=True)
def llbc_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))


def tiny_set_up(name):
    workload, setup_s, _ = run.set_up(name, seed=7, tiny=True)
    return workload, setup_s


def tiny_report(workload, setup_s, trace):
    try:
        return run.report(workload, setup_s, seconds=0, trace=trace, min_ops=1)
    finally:
        workload.close()


@pytest.mark.parametrize("trace", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("name", NAMES)
def test_reports_every_metric_and_fails_nothing(name, trace):
    result = tiny_report(*tiny_set_up(name), trace)
    table = run.LAYER_METRICS if trace else run.END_TO_END
    units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert units == dict(table)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    if trace:
        assert result["metrics"]["fail_frac"]["value"] == 0
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def _wrong_ledger(k):
    return {"balances": {"a0": {"satoshi": k + 1}}, "burned": {}}


def _wrong_expectation(workload, item):
    if workload.name == "cli":
        item.expect.code += 1
    else:
        shared, blockwise, digest, ledger = item.expect
        item.expect = (shared, blockwise, digest, {"balances": {}, "burned": {}})


WRONG_REFERENCES = {
    "pipeline": ("pipeline_ledger", _wrong_ledger),
    "corpus": ("has_redex", lambda program: True),
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_makes_ops_fail(name, monkeypatch, capsys):
    workload, setup_s = tiny_set_up(name)
    if name in WRONG_REFERENCES:
        function, wrong = WRONG_REFERENCES[name]
        monkeypatch.setattr(sys.modules["reference"], function, wrong)
    else:
        # These references are folded while the inputs are made.
        for _, _, items in workload.classes:
            for item in items:
                _wrong_expectation(workload, item)
    result = tiny_report(workload, setup_s, trace=True)
    assert result["metrics"]["fail_frac"]["value"] > 0
    assert not result["correct"]
    assert f"FAIL workload={name} " in capsys.readouterr().err


def test_benchmark_json_names_what_is_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

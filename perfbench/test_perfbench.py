"""Tests of the benchmark's tracing and orchestration.

Run from the repository root (about a minute; each workload runs twice):

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    per_layer = {**run.COUNT_UNITS, **run.MICRO_UNITS}
    for span in tracing.SPANS:
        per_layer[f"{span}.calls"] = "count"
        per_layer[f"{span}.self_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_micro_timings_are_the_declared_metrics():
    timings = worker.micro_timings(0)
    assert set(timings) == set(run.MICRO_UNITS)
    assert all(value > 0 for value in timings.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_calls_expected_spans_and_keeps_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    plain = worker.run_rep(workload, 7, tmp_path / "plain")

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = worker.run_rep(workload, 7, tmp_path / "traced")
    finally:
        patches.restore()

    assert patches.absent == []
    assert tracing.leftover_wrappers() == []
    assert [s for s in workload.spans if tracer.calls.get(s, 0) == 0] == []
    assert all(c["ok"] for c in plain["commands"] + traced["commands"])
    assert [c["digest"] for c in traced["commands"]] == [c["digest"] for c in plain["commands"]]


def test_missing_targets_are_reported_absent(monkeypatch):
    missing = (("transfer.eval", "critical_esn.transfer", "NoSuchTransfer.eval"),
               ("transfer.eval", "critical_esn.no_such_module", "eval"))
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + missing)
    patches = tracing.install(tracing.Tracer())
    patches.restore()
    assert patches.absent == ["critical_esn.transfer.NoSuchTransfer.eval",
                              "critical_esn.no_such_module.eval"]
    assert tracing.leftover_wrappers() == []


def test_wrappers_replace_every_reference():
    import critical_esn.cli as cli
    import critical_esn.transfer as transfer

    original = transfer.MorphableTransfer.eval
    patches = tracing.install(tracing.Tracer())
    try:
        assert transfer.MorphableTransfer.__call__ is transfer.MorphableTransfer.eval
        assert transfer.MorphableTransfer.eval is not original
        assert hasattr(cli.renormalized_scalar_batch, "__traced_span__")
    finally:
        patches.restore()
    assert transfer.MorphableTransfer.eval is original
    assert transfer.MorphableTransfer.__call__ is original


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

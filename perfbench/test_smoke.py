"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CLI_SYSTEMS", ("bit", "notch-bit", "noisy-bit"))
    monkeypatch.setattr(workloads, "DISC_CASES", (("rebit", 8), ("noisy", 8)))
    monkeypatch.setattr(workloads, "RESTRICT_BASES", ((4, 0, 1), (4, 1, 2)))
    monkeypatch.setattr(workloads, "QUERY_SYSTEMS", ("bit", "squit"))
    monkeypatch.setattr(workloads, "QUERY_DISC_N", 8)
    monkeypatch.setattr(workloads, "MIN_PASSES", dict.fromkeys(workloads.MIN_PASSES, 1))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "COLD_RUNS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _run(name, trace):
    lines = []
    result = run.run_workload(name, seed=3, seconds=0.01, trace=trace, out=lines.append)
    printed = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == name:
            printed[parts[1]] = (float(parts[2]), parts[3])
    return result, printed


def _units(printed):
    return {k: unit for k, (_, unit) in printed.items()}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tiny, name):
    result, printed = _run(name, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert _units(printed) == dict(END_TO_END, fail_ratio="ratio")
    assert printed["fail_ratio"][0] == 0

    result, printed = _run(name, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert _units(printed) == dict(PER_LAYER, fail_ratio="ratio")


def test_wrong_expected_answer_raises_fail_ratio(tiny, monkeypatch):
    honest = workloads.expected_recovery

    def wrong(samples, effects, unit):
        got = honest(samples, effects, unit)
        return ("NotAState",) if got[0] == "state" else got

    monkeypatch.setattr(workloads, "expected_recovery", wrong)
    result, printed = _run("query", trace=0)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert printed["fail_ratio"][0] == pytest.approx(result["failed"] / result["attempted"], 1e-5)

"""Smoke test of the benchmark itself, at the tiny size of each workload.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs end to end through run.bench and passes its gate, each
run reports exactly the metrics BENCHMARK.json declares, and a tampered
digest makes the gate fail.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

with open(HERE.parent / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(worker.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_completes_at_tiny_size(name):
    result, record = run.bench(name, seed=3, seconds=1, trace=0, size="tiny")
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    assert record["negative_control"]["failing"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result, record = run.bench("coset_products", seed=3, seconds=1, trace=1,
                               size="tiny")
    assert result["correct"], record["problems"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("per_layer")
    assert result["metrics"]["converse.iter_twist_pairs.calls"]["value"] == 12


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tampered_digest_is_reported(name):
    wl = worker.WORKLOADS[name]("tiny")
    wl.setup()
    wl.inputs(3)
    out = wl.run()
    expected = worker.load_expected()[name]
    assert worker.check(wl, out, expected) == []
    tampered = copy.deepcopy(expected)
    tampered["tiny"]["digest"] = "0" * 64
    assert worker.check(wl, out, tampered)

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from spans import aggregate, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] (which holds c [20, 30]) and b [50, 90]
    names = ["cli.run", "flows.a", "paths.c", "flows.b"]
    name_id = [0, 1, 2, 3]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]

    agg = aggregate(names, name_id, start, end, parent)
    assert agg["root_ns"] == 100
    assert {k: v["self_ns"] for k, v in agg["names"].items()} == {
        "cli.run": 30, "flows.a": 20, "paths.c": 10, "flows.b": 40,
    }
    # self times telescope: together they cover the root span exactly
    assert sum(v["self_ns"] for v in agg["names"].values()) == agg["root_ns"]


def test_repeated_name_sums_calls_and_self_time():
    # two calls of one function under one root, one of them nested in the other
    names = ["cli.run", "paths.f"]
    start = np.array([0, 5, 7, 60])
    end = np.array([100, 50, 20, 70])
    parent = np.array([-1, 0, 1, 0])
    name_id = np.array([0, 1, 1, 1])
    agg = aggregate(names, name_id, start, end, parent)
    assert agg["names"]["paths.f"] == {"calls": 3, "self_ns": 32 + 13 + 10}
    assert agg["names"]["cli.run"] == {"calls": 1, "self_ns": 100 - 45 - 10}


def test_wrappers_change_no_artifact(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path), 20240, time.monotonic() + 170)
    os.makedirs(tmp_path / "spans")
    plain = runner.invoke("tanaka-special-case")
    traced = runner.invoke("tanaka-special-case", traced=True)
    for inv in (plain, traced):
        assert "error" not in inv, inv.get("error")
        assert inv["exit_code"] == 0 and all(inv["verdicts"].values())
    assert run.digest_map(plain) == run.digest_map(traced)
    assert set(run.digest_map(plain)) == {
        "tanaka_special_case.csv", "tanaka_special_case_reports.jsonl",
    }
    assert not run.mismatched_digests([plain, traced])

    names = traced["trace"]["names"]
    # calls through walshflow.cli's re-import count for the defining module
    assert names["flows.skew_lattice_flow"]["calls"] == 2001
    assert names["cli.run"]["calls"] == 1
    assert sum(v["self_ns"] for v in names.values()) == traced["trace"]["root_ns"]


def test_an_op_fails_only_when_no_consistent_verdict_is_delivered():
    artifacts = {"tanaka_special_case.csv": {}, "tanaka_special_case_reports.jsonl": {}}
    ok = {"subcommand": "tanaka-special-case", "exit_code": 0,
          "verdicts": {"a": True, "b": True}, "artifacts": artifacts}
    check_failed = {**ok, "exit_code": 1, "verdicts": {"a": True, "b": False}}
    assert not run.op_failed(ok)
    assert not run.op_failed(check_failed)
    assert run.failed_verdicts([ok, check_failed, check_failed]) == ["tanaka-special-case:b"]

    assert run.op_failed({**ok, "exit_code": 1})  # exit code without a failing verdict
    assert run.op_failed({**check_failed, "exit_code": 0})  # failing verdict, exit 0
    assert run.op_failed({**ok, "exit_code": 3})  # cli.run raised
    assert run.op_failed({**ok, "verdicts": {}})
    assert run.op_failed({**ok, "artifacts": {"tanaka_special_case.csv": {}}})
    assert run.op_failed({**ok, "artifacts": {"tanaka_special_case_reports.jsonl": {}}})
    assert run.op_failed({**ok, "error": "timed out"})


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

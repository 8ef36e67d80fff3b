"""The benchmark's per-layer names stay: every traced function still exists.

BENCHMARK.json names its per-layer metrics `<layer>.<attribute path>.<metric>`.
A function may become thin, but while the benchmark traces it, it must not
disappear or be renamed; this test resolves each name in walshflow.
"""

import importlib
import json
from pathlib import Path

import pytest

_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
_METRIC_SUFFIXES = (".calls", ".self_s", ".distinct_frac")
# per-command wall times, tracer totals and the artifact size name no function
_NOT_FUNCTIONS = ("cmd_s.", "trace.")


def _traced_names() -> list[str]:
    names = set()
    for entry in json.loads(_BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        name = entry["name"]
        for suffix in _METRIC_SUFFIXES:
            name = name.removesuffix(suffix)
        # a bare layer name is that layer's total
        if "." in name and not name.startswith(_NOT_FUNCTIONS) and name != "cli.artifact_bytes":
            names.add(name)
    return sorted(names)


def test_benchmark_traces_functions():
    assert "flows.MappingFlow._excursion_ray" in _traced_names()


@pytest.mark.parametrize("name", _traced_names())
def test_per_layer_name_resolves(name):
    layer, *path = name.split(".")
    target = importlib.import_module(f"walshflow.{layer}")
    for attribute in path:
        assert hasattr(target, attribute), f"{name}: walshflow.{layer} lost {attribute!r}"
        target = getattr(target, attribute)
    assert callable(target), f"{name} is not a function"

"""tools/seed_sweep.py: a two-seed run in a fresh process, and its interval."""

import importlib.util
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from walshflow.cli import COMMANDS, DEFAULT_CONFIG, serialize_config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


def _tool_module():
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_of_two_seeds_counts_each_report(tmp_path):
    # 4 paths on a coarse grid: small enough that the ratio bands fail at
    # some seeds, so the failing seeds are listed too
    config = replace(DEFAULT_CONFIG, dt=1e-3, path_replicas=4)
    ini = tmp_path / "small.ini"
    ini.write_text(serialize_config(config), encoding="utf-8")
    argv = [sys.executable, str(TOOL), "verify-freidlin-sheu", "--first", "7", "--count", "2",
            "--config", str(ini)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "verify-freidlin-sheu: seeds 7..8, N=2"

    failing = {}
    for seed in (7, 8):
        for report in COMMANDS["verify-freidlin-sheu"](replace(config, root_seed=seed))[1]:
            failing.setdefault(report.name, [])
            if not report.passed:
                failing[report.name].append(seed)
    assert [line.partition(":")[0] for line in lines[1:]] == list(failing)
    for line, seeds in zip(lines[1:], failing.values()):
        match = re.fullmatch(r".*: failed (\d)/2, 95% \[([\d.]+), ([\d.]+)\](?: at seeds (.*))?", line)
        assert match, line
        assert int(match[1]) == len(seeds)
        assert (match[4] or "") == " ".join(map(str, seeds))
        assert 0.0 <= float(match[2]) <= len(seeds) / 2 <= float(match[3]) <= 1.0


def test_wilson_interval():
    wilson = _tool_module().wilson_interval
    z = 1.959964
    # the ends are the roots of (k/n - p)^2 = z^2 p (1 - p) / n
    for k, n in ((1, 2), (5, 101), (90, 200)):
        for p in wilson(k, n):
            assert (k / n - p) ** 2 == pytest.approx(z * z * p * (1 - p) / n, rel=1e-9)
    # no failures in 10: the lower end is 0 and the upper z^2 / (n + z^2)
    assert wilson(0, 10) == pytest.approx((0.0, z * z / (10 + z * z)), rel=1e-12)
    # symmetric under swapping failures and passes
    for k in range(8):
        low, high = wilson(7 - k, 7)
        assert wilson(k, 7) == pytest.approx((1.0 - high, 1.0 - low))

"""Runner tests: config round-trip, exit codes, CSV emission, determinism."""

import concurrent.futures
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from walshflow import cli as cli_module
from walshflow import flows as flows_module
from walshflow import paths as paths_module
from walshflow.cli import (
    _BOUNDS,
    _FLOW_CHUNK_MAX,
    _FLOW_CHUNK_MIN,
    _KEPT_VALUES,
    _MAX_KEPT_STEPS,
    COMMANDS,
    DEFAULT_CONFIG,
    CheckFailed,
    ConfigInvalid,
    ExperimentConfig,
    _band_report,
    _check_counts,
    _chunks,
    _cmd_simulate_wbm,
    _cmd_verify_freidlin_sheu,
    _cpu_count,
    _flip_chunks,
    _ito_test_functions,
    _kernel_task,
    _map_replicas,
    _residual_rms,
    _single_start_kernel_flow,
    emit_csv,
    load_config,
    main,
    parse_config,
    run,
    serialize_config,
)
from walshflow.flows import extract_ray_weights, measure_ray_weights, wiener_kernel
from walshflow.graph import bump_family
from walshflow.paths import (
    KEY_REPLICA,
    RngStream,
    TimeGrid,
    freidlin_sheu_residual,
    wbm_flip_construct,
)


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        assert parse_config(serialize_config(DEFAULT_CONFIG)) == DEFAULT_CONFIG

    def test_awkward_floats_survive(self):
        config = replace(
            DEFAULT_CONFIG,
            dt=1.0 / 3.0 * 1e-4,
            horizon=math.nextafter(1.0, 2.0),
            flow_horizon=4.000000000000001,
            root_seed=2**63 + 5,
        )
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize("out_dir", ["runs/50%-done", "a%%b", "%(x)s"])
    def test_percent_signs_survive(self, out_dir):
        # values are read literally: no % interpolation either way
        config = replace(DEFAULT_CONFIG, out_dir=out_dir)
        text = serialize_config(config)
        assert f"out_dir = {out_dir}\n" in text
        assert parse_config(text) == config

    def test_missing_key_rejected(self):
        text = serialize_config(DEFAULT_CONFIG)
        stripped = "\n".join(
            line for line in text.splitlines() if not line.startswith("merge_pairs")
        )
        with pytest.raises(ConfigInvalid):
            parse_config(stripped)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config("this is [ not an ini")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": (0.5, 0.6)},
            {"level": 13},
            {"flow_y_units": 3},
            {"replicas": 0},
            {"merge_pairs": 0},
            {"root_seed": -1},
            {"dt": 0.0},
            {"measure_plus": "no-such-family"},
            {"out_dir": ""},
            {"flow_horizon": 4.0002},
            {"horizon": 1.0002},
            {"dt": 3e-4},
            {"horizon": math.inf},
            {"level": 1},
            {"level": 3, "flow_horizon": 0.25},
            # on the level-6 grid, but walk-converge's level 2 would floor
            # 4^2 * horizon to 16 steps and test the law at the wrong time
            {"level": 6, "dt": 4.0**-6, "horizon": 1.0 + 4.0**-6},
            # kept trajectories over the step budget: 16.8M lattice steps
            # per kernel-experiment start, 8.4M flip-path grid points
            {"level": 12},
            {"dt": 2.0**-23},
            # non-finite measure parameters
            {"measure_plus": "dirichlet:nan"},
            {"measure_plus": "dirichlet:inf"},
            {"measure_plus": "custom-weights:nan,0.5"},
            # off 1 by more than the ray-weight tolerance
            {"measure_plus": "custom-weights:0.6,0.4000000005"},
            # horizon / dt is 10, but verify-freidlin-sheu's coarse step 4 dt
            # would fit 2.5 times and its grid would end at t = 0.8
            {"dt": 0.1},
            # merge-level pairs over the budget: five arrays of 8 GB each
            {"merge_pairs": 10**9},
            {"merge_pairs": _BOUNDS["merge_pairs"][1] + 1},
            # replicas over the budget: some 1 TB of simulate-wbm marginals
            {"replicas": 10**10},
            {"replicas": _BOUNDS["replicas"][1] + 1},
            # step counts that round to 0: horizon / dt is 0 or 1e-300, and
            # at level 0 horizon * 4^level is 5e-11
            {"dt": math.inf},
            {"dt": 1e300},
            {"level": 0, "horizon": 5e-11, "dt": 1.25e-11, "flow_horizon": 32.0},
            # walk states past int64: 2^63 units up, and 2^65 flow steps
            {"flow_y_units": 2**63},
            {"level": 2, "flow_horizon": 2.0**61},
            # one past each new budget; 2^62 + 1024 flow steps is the first
            # float past 2^62
            {"path_replicas": _BOUNDS["path_replicas"][1] + 1},
            {"flow_replicas": _BOUNDS["flow_replicas"][1] + 1},
            {"flow_y_units": _BOUNDS["flow_y_units"][1] + 2},
            {"level": 2, "flow_horizon": 2.0**58 + 64},
            {"workers": 0},
            {"root_seed": 2**64},
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ConfigInvalid):
            replace(DEFAULT_CONFIG, **overrides).validate()

    @pytest.mark.parametrize(
        "name", list(_BOUNDS), ids=[re.sub(r"\W+", "_", name).strip("_") for name in _BOUNDS]
    )
    def test_bound_names_itself(self, name):
        # each count passes at its least and most values, and one past
        # either fails with a message that names the bound and its reason;
        # a config field does the same through validate (level's ends move
        # the step counts too: test_kept_step_budget_and_level_ends)
        least, most, why = _BOUNDS[name]
        for value in (least, most):
            if value is not None:
                _check_counts({name: value})
                if hasattr(DEFAULT_CONFIG, name) and name != "level":
                    replace(DEFAULT_CONFIG, **{name: value}).validate()
        past = [(least - 1, f"{name} = {least - 1} is less than {least}: {why}")]
        if most is not None:
            past.append((most + 1, f"{name} = {most + 1} is more than {most}: {why}"))
        for value, message in past:
            with pytest.raises(ConfigInvalid) as caught:
                _check_counts({name: value})
            assert str(caught.value) == message
            if hasattr(DEFAULT_CONFIG, name):
                with pytest.raises(ConfigInvalid) as caught:
                    replace(DEFAULT_CONFIG, **{name: value}).validate()
                assert str(caught.value) == message

    def test_every_count_field_has_a_bound(self):
        counts = {f.name for f in fields(ExperimentConfig) if f.type in (int, "int")}
        assert counts == {name for name in _BOUNDS if hasattr(DEFAULT_CONFIG, name)}

    def test_kept_step_budget_and_level_ends(self):
        config = DEFAULT_CONFIG
        assert config.horizon * 4.0**config.level <= _MAX_KEPT_STEPS
        assert config.horizon / config.dt <= _MAX_KEPT_STEPS
        replace(config, level=11).validate()  # 4^11 steps, at the budget
        with pytest.raises(ConfigInvalid, match=f"budget of {_MAX_KEPT_STEPS} steps"):
            replace(config, level=12).validate()
        # level 12 keeps a quarter unit of time, and its 4^13 flow steps
        # keep no trajectory; level 0 needs 17 flow steps
        replace(config, level=12, horizon=0.25, flow_horizon=4.0).validate()
        replace(config, level=0, flow_horizon=17.0).validate()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(str(tmp_path / "absent.ini"))

    def test_readme_config_block_is_the_default(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        assert block.strip() == serialize_config(DEFAULT_CONFIG).strip()

    def test_readme_bounds_table_is_the_bounds_table(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        table = text.split("| Count | Range | Reason |\n| --- | --- | --- |\n", 1)[1]
        rows = {}
        for line in table.split("\n\n", 1)[0].splitlines():
            name, span, _why = (cell.strip() for cell in line.strip("|").split("|"))
            rows[name.strip("`")] = _readme_range(span)
        assert rows == {name: (least, most) for name, (least, most, _why) in _BOUNDS.items()}


def _readme_range(span):
    """(least, most) of a README range: "a to b", where b may be written
    2^k or 2^k − 1 and followed by its digits in parentheses, or "a or
    more" (most None)."""
    if span.endswith(" or more"):
        return int(span.removesuffix(" or more")), None
    least, most = span.split(" to ")
    power = re.fullmatch(r"(\d+)(?:\^(\d+))?(?: − (\d+))?(?: \(([\d,]+)\))?", most)
    assert power, span
    base, exponent, minus, digits = power.groups()
    value = int(base) ** int(exponent or 1) - int(minus or 0)
    assert digits is None or int(digits.replace(",", "")) == value, span
    return int(least), value


class TestEmitCsv:
    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], ["a", "b"], str(path))
        assert path.read_bytes() == b"a,b\n"

    def test_values_round_trip_to_twelve_digits(self, tmp_path):
        path = tmp_path / "values.csv"
        row = [1.0 / 3.0, 2.5e-17, 7, True]
        emit_csv([row], ["third", "tiny", "count", "flag"], str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            header, cells = list(csv.reader(handle))
        assert header == ["third", "tiny", "count", "flag"]
        assert float(cells[0]) == pytest.approx(row[0], rel=1e-12)
        assert float(cells[1]) == pytest.approx(row[1], rel=1e-12)
        assert cells[2] == "7"
        assert cells[3] == "1"

    def test_line_feeds_only(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([[1, 2], [3, 4]], ["x", "y"], str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 3

    def test_column_order_preserved(self, tmp_path):
        path = tmp_path / "order.csv"
        emit_csv([[9, 8, 7]], ["z", "y", "x"], str(path))
        assert path.read_text(encoding="utf-8").splitlines()[0] == "z,y,x"

    def test_ragged_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([[1, 2], [3]], ["a", "b"], str(tmp_path / "bad.csv"))


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code = main(
            ["verify-semigroup", "--config", str(tmp_path / "nope.ini")]
        )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WALSH_SEED", "not-a-number")
        code = main(["tanaka-special-case", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unexpected_exception_prints_traceback_and_exits_three(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(config):
            raise ZeroDivisionError("injected fault")

        monkeypatch.setitem(COMMANDS, "verify-semigroup", broken)
        code = main(["verify-semigroup", "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "in broken" in err
        assert "ZeroDivisionError: injected fault" in err
        assert err.rstrip().endswith("runtime error: injected fault")

    def test_zero_step_config_exits_two(self, tmp_path, capsys):
        # horizon / dt = 0 steps
        ini = tmp_path / "no_steps.ini"
        ini.write_text(serialize_config(replace(DEFAULT_CONFIG, dt=math.inf)), encoding="utf-8")
        assert "dt = inf\n" in ini.read_text(encoding="utf-8")
        assert main(["simulate-wbm", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
        assert "horizon / dt = 0.0 is not a whole number >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        ini = tmp_path / "latin.ini"
        ini.write_bytes(b"\xff" + serialize_config(DEFAULT_CONFIG).encode("utf-8"))
        with pytest.raises(ConfigInvalid, match="not UTF-8"):
            load_config(str(ini))
        assert main(["verify-semigroup", "--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_over_budget_config_exits_two(self, tmp_path, capsys):
        ini = tmp_path / "deep.ini"
        ini.write_text(serialize_config(replace(DEFAULT_CONFIG, level=12)), encoding="utf-8")
        assert main(["kernel-experiment", "--config", str(ini)]) == 2
        assert f"budget of {_MAX_KEPT_STEPS} steps" in capsys.readouterr().err

    def test_walk_state_past_int64_exits_two(self, tmp_path, capsys):
        # 2^63 units once passed validation and ended in exit 3
        config = replace(DEFAULT_CONFIG, flow_y_units=2**63, out_dir=str(tmp_path / "o"))
        ini = tmp_path / "far.ini"
        ini.write_text(serialize_config(config), encoding="utf-8")
        assert main(["flow-experiment", "--config", str(ini)]) == 2
        most, why = _BOUNDS["flow_y_units"][1:]
        assert f"flow_y_units = {2**63} is more than {most}: {why}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_success_writes_artifacts(self, tmp_path):
        out = tmp_path / "semi"
        code = main(["verify-semigroup", "--out", str(out)])
        assert code == 0
        assert (out / "verify_semigroup.csv").exists()
        assert (out / "verify_semigroup_reports.jsonl").exists()

    def test_failed_check_exits_one(self, tmp_path):
        # uniform-simplex on an asymmetric graph is the documented biased
        # control, so the moment check must fail
        config = replace(
            DEFAULT_CONFIG,
            measure_plus="uniform-simplex",
            replicas=2000,
            out_dir=str(tmp_path / "biased"),
        )
        ini = tmp_path / "biased.ini"
        ini.write_text(serialize_config(config), encoding="utf-8")
        code = main(["kernel-experiment", "--config", str(ini)])
        assert code == 1
        assert (tmp_path / "biased" / "kernel_experiment_reports.jsonl").exists()

    def test_off_grid_horizon_exits_two(self, tmp_path):
        # 1.0002 * 4^6 steps would be rounded down to 4096 without a word
        config = replace(DEFAULT_CONFIG, horizon=1.0002, out_dir=str(tmp_path / "o"))
        ini = tmp_path / "off_grid.ini"
        ini.write_text(serialize_config(config), encoding="utf-8")
        assert main(["kernel-experiment", "--config", str(ini)]) == 2
        assert not (tmp_path / "o").exists()

    def test_flow_horizon_before_last_start_exits_two(self, tmp_path, capsys):
        # the last flow start is born at step 16, which is the whole horizon here
        config = replace(
            DEFAULT_CONFIG, level=3, flow_horizon=0.25, out_dir=str(tmp_path / "o")
        )
        ini = tmp_path / "short_flow.ini"
        ini.write_text(serialize_config(config), encoding="utf-8")
        assert main(["flow-experiment", "--config", str(ini)]) == 2
        assert "16 steps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "subcommand, alpha, eps",
        [
            ("flow-experiment", (0.5, 0.5), (1, -1)),
            ("flow-experiment", (0.6, 0.4), (1, 1)),
            ("flow-experiment", (0.6, 0.4), (-1, -1)),
            ("flow-experiment", (0.3, 0.7), (1, -1)),
            ("flow-experiment", (1.0,), (1,)),
            ("simulate-wbm", (1.0,), (1,)),
            ("kernel-experiment", (0.7, 0.3), (1, -1)),
        ],
    )
    def test_graphs_without_merge_law_or_second_ray_run(
        self, tmp_path, subcommand, alpha, eps
    ):
        # plus-weights outside (1/2, 1) have no merge-level law, a one-ray
        # graph has no ray occupancy to test, and with one ray per side the
        # filtering and projection bands have no choice to test: all skipped
        out = tmp_path / "o"
        config = replace(
            DEFAULT_CONFIG,
            alpha=alpha,
            eps=eps,
            level=3,
            dt=1e-3,
            replicas=2000,
            path_replicas=4,
            flow_replicas=30,
            merge_pairs=50,
            out_dir=str(out),
        )
        ini = tmp_path / "graph.ini"
        ini.write_text(serialize_config(config), encoding="utf-8")
        assert main([subcommand, "--config", str(ini)]) in (0, 1)
        if subcommand == "flow-experiment":
            merges = (out / "flow_experiment_merges.csv").read_text(encoding="utf-8")
            assert merges == "sample,merge_level\n"
            lines = (out / "flow_experiment_reports.jsonl").read_text(encoding="utf-8")
            law = json.loads(lines.splitlines()[-1])
            assert law["name"] == "coalescence-law"
            assert law["details"]["skipped"] == 1.0
        if subcommand == "kernel-experiment":
            lines = (out / "kernel_experiment_reports.jsonl").read_text(encoding="utf-8")
            reports = {r["name"]: r for r in map(json.loads, lines.splitlines())}
            for name in ("filtering", "wiener-projection"):
                assert reports[name]["details"]["skipped"] == 1.0

    def test_run_rejects_unknown_subcommand(self):
        with pytest.raises(ConfigInvalid):
            run("not-a-command", DEFAULT_CONFIG)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool by one that runs each task in this process
    as it is submitted, so no process starts. It records each pool's size
    and task count, and the most tasks submitted whose result was not yet
    taken; the usable CPUs are asked.cpus, 64 unless a test sets it."""
    asked = SimpleNamespace(sizes=[], tasks=[], cpus=64, pending=0, most_pending=0)

    class RecordingFuture(concurrent.futures.Future):
        def result(self, timeout=None):
            asked.pending -= 1
            return super().result(timeout)

    class RecordingPool:
        def __init__(self, max_workers):
            asked.sizes.append(max_workers)
            asked.tasks.append(0)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, task, args):
            asked.tasks[-1] += 1
            asked.pending += 1
            asked.most_pending = max(asked.most_pending, asked.pending)
            future = RecordingFuture()
            future.set_result(task(args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_module, "_cpu_count", lambda: asked.cpus)
    return asked


def test_pool_is_no_larger_than_the_task_list(recording_pool):
    # min(workers, tasks, usable CPUs), and no pool where that is 1
    recording_pool.cpus = 4
    assert _map_replicas(abs, [-3, -1, 2], 8) == [3, 1, 2]
    assert _map_replicas(abs, list(range(-20, 0)), 2) == list(range(20, 0, -1))
    assert _map_replicas(abs, list(range(-20, 0)), 1000) == list(range(20, 0, -1))
    recording_pool.cpus = 1
    assert _map_replicas(abs, [-3, -1, 2], 8) == [3, 1, 2]
    assert recording_pool.sizes == [3, 2, 4]


def test_pool_holds_a_few_tasks_per_worker(recording_pool):
    # a plan of one task per flip path must not keep a future per path
    recording_pool.cpus = 2
    args = list(range(-1000, 0))
    assert _map_replicas(abs, args, 3) == [-a for a in args]
    assert recording_pool.sizes == [2] and recording_pool.tasks == [1000]
    assert recording_pool.most_pending == 4 * 2  # four tasks per worker
    assert recording_pool.pending == 0


def test_cpu_count_is_this_process_share():
    assert 1 <= _cpu_count() <= (os.cpu_count() or 1)


def _flip_budget(steps):
    """Flip paths whose drivers fit _KEPT_VALUES on a grid of this many steps."""
    return _KEPT_VALUES // (3 * (steps + 1))


def _assert_even_plan(replicas, workers, most, least=1):
    """The properties of _chunks' plan, the one split rule every parallel
    subcommand uses, at one (replicas, workers) and budget."""
    chunks = _chunks(replicas, workers, most, least)
    firsts = [first for first, _ in chunks]
    counts = [count for _, count in chunks]
    assert firsts == [sum(counts[:i]) for i in range(len(counts))]
    assert sum(counts) == replicas
    assert set(counts[:-1]) <= {counts[0]} and counts[-1] <= counts[0]
    # no task holds more than the budget, unless one replica alone exceeds it
    assert counts[0] <= max(most, 1)
    # never more tasks than chunks of `least` make, and at least as many as
    # an even split over one task per worker up to that many; that is one
    # per worker, except where an even size leaves fewer (11 replicas on 7
    # workers go in 6 tasks of 2)
    cap = -(-replicas // max(least, 1))
    busy = min(workers, cap)
    assert -(-replicas // -(-replicas // busy)) <= len(chunks) <= cap
    return chunks


@pytest.mark.parametrize("replicas", [1, 199, 200, 401, 1200, 2049, 5000])
@pytest.mark.parametrize("workers", [1, 2, 3, 7, 10**6])
def test_flow_chunks_split_evenly_within_bounds(replicas, workers):
    _assert_even_plan(replicas, workers, _FLOW_CHUNK_MAX, _FLOW_CHUNK_MIN)


@pytest.mark.parametrize("replicas", [1, 8, 11, 200])
@pytest.mark.parametrize("workers", [1, 2, 3, 7, 10**6])
@pytest.mark.parametrize("steps", [256, 4096, 2**22])
def test_kernel_chunks_split_evenly_within_the_kept_budget(replicas, workers, steps):
    _assert_even_plan(replicas, workers, _KEPT_VALUES // (steps + 1))


@pytest.mark.parametrize("replicas", [1, 11, 200, 355, 5000])
@pytest.mark.parametrize("workers", [1, 3, 10**6])
@pytest.mark.parametrize("steps", [1000, 2500, 10000, 2**22])
def test_flip_chunks_split_evenly_within_the_kept_budget(replicas, workers, steps):
    # as many tasks as the budget needs, whatever the worker count
    chunks = _assert_even_plan(replicas, workers, _flip_budget(steps), _flip_budget(steps))
    assert len(chunks) == -(-replicas // max(_flip_budget(steps), 1))


def test_flow_chunks_at_the_default_config():
    replicas = DEFAULT_CONFIG.flow_replicas
    half = replicas // 2
    assert _chunks(replicas, 1, _FLOW_CHUNK_MAX, _FLOW_CHUNK_MIN) == [(0, replicas)]
    assert _chunks(replicas, 2, _FLOW_CHUNK_MAX, _FLOW_CHUNK_MIN) == [(0, half), (half, half)]


def test_kernel_chunks_at_the_default_config():
    # 127 trajectories of 4,097 values fit the budget, so 200 take two tasks
    steps = round(DEFAULT_CONFIG.horizon * 4.0**DEFAULT_CONFIG.level)
    most = _KEPT_VALUES // (steps + 1)
    assert most == 127
    assert _chunks(200, 1, most) == [(0, 100), (100, 100)]
    assert _chunks(200, 3, most) == [(0, 67), (67, 67), (134, 66)]


def test_flip_chunks_at_the_default_config():
    # 17 fine-step and 69 coarse-step flip paths fit the budget; the plan is
    # the same at any worker count
    assert (_flip_budget(10000), _flip_budget(2500)) == (17, 69)
    for workers in (1, 3, 10**6):
        config = replace(DEFAULT_CONFIG, workers=workers)
        fine = [(17 * i, 17) for i in range(11)] + [(187, 13)]
        assert _flip_chunks(config, config.dt) == fine
        assert _flip_chunks(config, 4 * config.dt) == [(0, 67), (67, 67), (134, 66)]


def test_every_parallel_subcommand_asks_for_its_task_count(recording_pool):
    # at a huge worker count each subcommand asks for as many tasks as
    # before one split rule served them all: the task counts depend on the
    # replica counts and dt, not on the lattice level or merge pairs
    config = replace(DEFAULT_CONFIG, workers=10**6, level=3, flow_horizon=1.0, merge_pairs=60)
    want = {
        "simulate-wbm": 12,
        "verify-freidlin-sheu": 15,
        "flow-experiment": 6,
        "kernel-experiment": 200,
    }
    recording_pool.cpus = 2
    for name, tasks in want.items():
        recording_pool.tasks.clear()
        COMMANDS[name](config)
        assert recording_pool.tasks == [tasks], name
    # and each pool stops at the two CPUs
    assert recording_pool.sizes == [2] * len(want)


def test_flow_pool_is_no_larger_than_before(tmp_path, recording_pool):
    # a huge worker count asks for one task per _FLOW_CHUNK_MIN replicas,
    # as many as the fixed chunks did, and a pool no larger
    replicas = 2 * _FLOW_CHUNK_MIN + 1
    config = replace(
        DEFAULT_CONFIG,
        level=3,
        flow_horizon=1.0,
        flow_replicas=replicas,
        merge_pairs=60,
        workers=10**6,
        out_dir=str(tmp_path / "out"),
    ).validate()
    run("flow-experiment", config)
    assert recording_pool.tasks == [3]
    assert recording_pool.sizes == [3]


# modules a --workers 1 run never uses: scipy is a test oracle only, the
# process pool is imported when a pool runs, and no call reaches numpy.ma
_UNUSED_MODULES = ("scipy", "numpy.ma", "multiprocessing", "concurrent.futures")


def _python(code, env=None):
    """Run code in a fresh interpreter that imports walshflow from this
    source tree; return the last line it prints."""
    src = Path(cli_module.__file__).resolve().parents[1]
    env = dict(os.environ if env is None else env, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip().rpartition("\n")[2]


def _unused_loaded(then=""):
    """Code that imports walshflow.cli, runs `then` and prints the modules
    of _UNUSED_MODULES, or of their packages, that are loaded."""
    return (
        f"import sys, walshflow.cli{then}\n"
        f"names = {_UNUSED_MODULES!r}\n"
        "print(sorted(m for m in sys.modules"
        " if any(m == n or m.startswith(n + '.') for n in names)))"
    )


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # the chi-square and Kolmogorov survival functions, the error function
    # and the semigroup tables' splines are walshflow's own, and the serial
    # path neither starts nor imports a process pool
    assert _python(_unused_loaded()) == "[]"


def test_every_serial_subcommand_loads_no_unused_module(tmp_path):
    # a module a run loads on first use is start-up paid as run time
    config = replace(
        DEFAULT_CONFIG,
        level=3,
        dt=1e-3,
        replicas=800,
        path_replicas=4,
        flow_replicas=30,
        merge_pairs=50,
        workers=1,
    )
    ini = tmp_path / "small.ini"
    ini.write_text(serialize_config(config), encoding="utf-8")
    runs = "".join(
        f"\nassert walshflow.cli.main({[name, '--config', str(ini), '--out', str(tmp_path / name)]!r})"
        " in (0, 1)"
        for name in COMMANDS
    )
    assert _python(_unused_loaded(runs)) == "[]"


def test_openblas_threads_default_to_one_unless_set():
    code = "import os, walshflow; print(os.environ['OPENBLAS_NUM_THREADS'])"
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _python(code, unset) == "1"
    assert _python(code, dict(unset, OPENBLAS_NUM_THREADS="2")) == "2"


def test_freidlin_sheu_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """The Ito residual's dot product over 20,000 steps, with OpenBLAS free
    to pick its thread count and with one thread, gives the same bytes.

    On a one-core machine OpenBLAS runs one thread either way, so there
    the test passes without the one-thread default too."""
    config = replace(DEFAULT_CONFIG, dt=5e-5, path_replicas=20)
    ini = tmp_path / "fine.ini"
    ini.write_text(serialize_config(config), encoding="utf-8")
    # importing walshflow set the variable in this process; drop it
    free = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    outs = []
    for name, env in (("free", free), ("one", dict(free, OPENBLAS_NUM_THREADS="1"))):
        out = tmp_path / name
        argv = ["verify-freidlin-sheu", "--config", str(ini), "--out", str(out)]
        _python(f"import walshflow.cli; walshflow.cli.main({argv!r})", env)
        outs.append(out)
    artifacts = sorted(os.listdir(outs[0]))
    assert artifacts == sorted(os.listdir(outs[1])) and artifacts
    for artifact in artifacts:
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact


class TestSeedPrecedence:
    def _tanaka(self, tmp_path, monkeypatch, name, env_seed, cli_seed):
        out = tmp_path / name
        monkeypatch.delenv("WALSH_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("WALSH_SEED", str(env_seed))
        argv = ["tanaka-special-case", "--out", str(out), "--replicas", "400"]
        if cli_seed is not None:
            argv += ["--seed", str(cli_seed)]
        main(argv)
        return (out / "tanaka_special_case.csv").read_bytes()

    def test_cli_seed_beats_environment(self, tmp_path, monkeypatch):
        base = self._tanaka(tmp_path, monkeypatch, "a", 111, None)
        overridden = self._tanaka(tmp_path, monkeypatch, "b", 999, 111)
        assert base == overridden

    def test_environment_seed_changes_run(self, tmp_path, monkeypatch):
        one = self._tanaka(tmp_path, monkeypatch, "c", 111, None)
        other = self._tanaka(tmp_path, monkeypatch, "d", 999, None)
        assert one != other


class TestWorkerDeterminism:
    @staticmethod
    def _assert_pool_sizes_agree(
        tmp_path, config, subcommand="flow-experiment", pools=("3",)
    ):
        ini = tmp_path / "run.ini"
        ini.write_text(serialize_config(config), encoding="utf-8")
        outs = []
        for workers in ("1", *pools):
            out = tmp_path / f"workers{workers}"
            code = main(
                [
                    subcommand,
                    "--config",
                    str(ini),
                    "--out",
                    str(out),
                    "--workers",
                    workers,
                ]
            )
            assert code == 0
            outs.append(out)
        artifacts = sorted(os.listdir(outs[0]))
        assert artifacts
        for out in outs[1:]:
            assert artifacts == sorted(os.listdir(out))
            for artifact in artifacts:
                left = (outs[0] / artifact).read_bytes()
                assert left == (out / artifact).read_bytes(), (out.name, artifact)

    def test_flow_artifacts_identical_across_pool_sizes(self, tmp_path):
        config = replace(
            DEFAULT_CONFIG,
            level=5,
            flow_replicas=40,
            merge_pairs=60,
            root_seed=4242,
        )
        self._assert_pool_sizes_agree(tmp_path, config)

    def test_flow_artifacts_identical_across_partial_replica_chunks(self, tmp_path):
        # an odd replica count: at 2 and 3 workers the last task is only
        # partly filled, and the pool really runs
        replicas = 2 * _FLOW_CHUNK_MIN + 1
        for workers in (2, 3):
            counts = [
                count for _, count in _chunks(replicas, workers, _FLOW_CHUNK_MAX, _FLOW_CHUNK_MIN)
            ]
            assert len(counts) == workers and counts[-1] < counts[0]
        config = replace(
            DEFAULT_CONFIG,
            level=3,
            flow_horizon=1.0,
            flow_replicas=replicas,
            merge_pairs=60,
            root_seed=4243,
        )
        self._assert_pool_sizes_agree(tmp_path, config, pools=("2", "3"))

    def test_kernel_artifacts_identical_across_pool_sizes(self, tmp_path):
        # eight kernel ensembles, the fewest the subcommand runs
        config = replace(DEFAULT_CONFIG, level=4, replicas=800, root_seed=4244)
        self._assert_pool_sizes_agree(tmp_path, config, "kernel-experiment", ("2",))

    def test_kernel_artifacts_identical_across_partial_replica_chunks(self, tmp_path):
        # eleven kernel ensembles: at 2 and 3 workers the last task is only
        # partly filled, and the pool really runs
        steps = 4**4
        for workers in (2, 3):
            counts = [count for _, count in _chunks(11, workers, _KEPT_VALUES // (steps + 1))]
            assert len(counts) == workers and counts[-1] < counts[0]
        config = replace(
            DEFAULT_CONFIG,
            level=4,
            replicas=1100,
            measure_plus="dirichlet:4",
            measure_minus="dirichlet:0.5",
            root_seed=4247,
        )
        self._assert_pool_sizes_agree(tmp_path, config, "kernel-experiment", ("2", "3"))

    def test_freidlin_sheu_artifacts_identical_across_pool_sizes(self, tmp_path):
        # seven paths past two fine-step budgets: three fine-step tasks, the
        # last partly filled; the coarse step's one task holds them all
        steps = round(DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt)
        paths = 2 * _flip_budget(steps) + 7
        config = replace(DEFAULT_CONFIG, path_replicas=paths, root_seed=4246)
        assert [count for _, count in _flip_chunks(config, config.dt)] == [14, 14, 13]
        assert len(_flip_chunks(config, 4 * config.dt)) == 1
        self._assert_pool_sizes_agree(tmp_path, config, "verify-freidlin-sheu", ("2",))

    def test_path_artifacts_identical_across_pool_sizes(self, tmp_path):
        # seven paths past two budgets: three tasks, the last partly filled
        paths = 2 * _flip_budget(1000) + 7
        config = replace(
            DEFAULT_CONFIG, dt=1e-3, replicas=4000, path_replicas=paths, root_seed=4245
        )
        assert [count for _, count in _flip_chunks(config, config.dt)] == [119, 119, 117]
        self._assert_pool_sizes_agree(tmp_path, config, "simulate-wbm", ("2",))


def test_simulate_wbm_rows_equal_per_path_construction():
    # oracle: one flip path built at a time; the paths pass one task's
    # budget by three, so they go in two tasks
    steps = round(DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt)
    config = replace(DEFAULT_CONFIG, path_replicas=_flip_budget(steps) + 3, replicas=100)
    assert len(_flip_chunks(config, config.dt)) == 2
    grid = TimeGrid(dt=config.dt, steps=steps)
    spec = config.spec()
    want = []
    for rep in range(config.path_replicas):
        stream = RngStream(config.root_seed).child(KEY_REPLICA, rep)
        path = wbm_flip_construct(grid, spec, stream)
        want.append((rep, int(path.rays[-1]), float(path.radii[-1]), float(path.local_time[-1])))
    [(_name, _headers, rows)], _reports = _cmd_simulate_wbm(config)
    assert rows == want


def test_residual_rms_equals_per_path_loop():
    # oracle: one flip path built at a time per replica and step, every test
    # function's squared residual summed on it in replica order; the path
    # count crosses a task boundary at the fine step
    steps = round(DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt)
    config = replace(DEFAULT_CONFIG, path_replicas=_flip_budget(steps) + 3)
    assert len(_flip_chunks(config, config.dt)) == 2
    n = config.path_replicas
    spec = config.spec()
    functions = [fn for _name, fn in _ito_test_functions(spec)]
    dts = (4 * config.dt, config.dt)
    sums = {}
    for dt in dts:
        grid = TimeGrid(dt=dt, steps=round(config.horizon / dt))
        for rep in range(n):
            stream = RngStream(config.root_seed).child(KEY_REPLICA, rep)
            path = wbm_flip_construct(grid, spec, stream)
            for fn_index, fn in enumerate(functions):
                r = freidlin_sheu_residual(fn, spec, path)
                acc = sums.setdefault((fn_index, dt), [0.0, 0.0])
                acc[0] += r**2
                acc[1] += r**4
    want = []
    for fn_index in range(len(functions)):
        want.append([])
        for dt in dts:
            sq, fourth = sums[fn_index, dt]
            want[-1].append((math.sqrt(sq / n), math.sqrt((fourth - sq**2 / n) / (n - 1))))
    assert _residual_rms(config, dts) == want


def _kernel_task_oracle(config, rep):
    """_kernel_task's statistics from a kernel measure and a Wiener kernel
    built at every probe index, and its moments from the excursion rows."""
    spec = config.spec()
    flow = _single_start_kernel_flow(config, spec, rep)
    steps = flow.ensemble.steps
    mass_err = 0.0
    wiener_dev = 0.0
    for k in range(0, steps + 1, max(1, steps // 64)):
        measure = flow.kernel_at(0, k)
        mass_err = max(mass_err, abs(math.fsum(measure.weights) - 1.0))
        z = float(flow.ensemble.traj[0, k]) * flow.ensemble.config.dx
        reference = wiener_kernel(spec, spec.origin, z, True)
        dev = float(
            np.max(
                np.abs(
                    measure_ray_weights(measure, spec) - measure_ray_weights(reference, spec)
                )
            )
        )
        wiener_dev = max(wiener_dev, dev)
    moments = {side: [0, 0.0, 0.0] for side in (1, -1)}
    for side, _g, _d, weights in extract_ray_weights(flow, 0):
        acc = moments[side]
        acc[0] += 1
        acc[1] = acc[1] + weights
        acc[2] = acc[2] + weights**2
    return mass_err, wiener_dev, moments


@pytest.mark.parametrize(
    "overrides",
    [
        {"measure_plus": "wiener"},
        {"measure_plus": "dirichlet:4", "measure_minus": "dirichlet:0.5", "eps": (1, -1, -1)},
        {"measure_plus": "dirac-vertices"},
        {"measure_plus": "uniform-simplex"},
        {"measure_plus": "custom-weights:0.6,0.4", "measure_minus": "wiener"},
    ],
)
def test_kernel_task_equals_per_index_kernels(overrides):
    config = replace(DEFAULT_CONFIG, level=5, **overrides)
    dev_seen = 0.0
    rows = _kernel_task((config, 0, 4))
    assert len(rows) == 4
    for rep, (got_rep, mass_err, wiener_dev, moments) in enumerate(rows):
        want_mass, want_dev, want_moments = _kernel_task_oracle(config, rep)
        assert got_rep == rep
        assert (mass_err, wiener_dev) == (want_mass, want_dev)
        for side, (count, total, total_sq) in want_moments.items():
            assert moments[side][0] == count
            if count:
                assert moments[side][1].tobytes() == total.tobytes()
                assert moments[side][2].tobytes() == total_sq.tobytes()
        dev_seen = max(dev_seen, wiener_dev)
    # the measures that differ from the Wiener kernel show it at a probe
    assert (dev_seen > 0.0) == (overrides["measure_plus"] != "wiener")


def _kernel_row_bytes(rows):
    """_kernel_task rows with their moment sums as bytes, for comparison."""
    return [
        (rep, mass, dev, {side: (n, t.tobytes(), sq.tobytes()) for side, (n, t, sq) in m.items()})
        for rep, mass, dev, m in rows
    ]


@pytest.mark.parametrize("counts", [[2, 5], [4, 3], [3, 3, 1], [1, 5, 1]])
def test_kernel_task_rows_do_not_depend_on_the_chunks(counts):
    config = replace(
        DEFAULT_CONFIG,
        level=4,
        eps=(1, -1, -1),
        measure_plus="dirichlet:4",
        measure_minus="dirichlet:0.5",
    )
    whole = _kernel_row_bytes(_kernel_task((config, 3, 7)))
    assert [row[0] for row in whole] == list(range(3, 10))
    firsts = [3 + sum(counts[:i]) for i in range(len(counts))]
    split = [
        row for first, count in zip(firsts, counts) for row in _kernel_task((config, first, count))
    ]
    assert _kernel_row_bytes(split) == whole


# SHA-256 of every artifact the seven subcommands write at _FROZEN_CONFIG.
# A digest may change only with a declared RNG-stream or artifact change.
# At 10 paths verify-freidlin-sheu fails all three Ito-residual ratio bands;
# its report digest freezes that verdict too.
_FROZEN_CONFIG = replace(
    DEFAULT_CONFIG, replicas=1000, path_replicas=10, flow_replicas=20, merge_pairs=200
)
_FROZEN_FAILING = {"verify-freidlin-sheu"}
_FROZEN_DIGESTS = {
    "flow_experiment.csv": "f58a7cac7da4b65ace932d5f8e2d024c3019fb20c6e4786258404048be0d856e",
    "flow_experiment_merges.csv": "d9788f4b9ea4069422fc2d4c748152bd61a936629f1df0f746d1635ac007b3d8",
    "flow_experiment_reports.jsonl": "dbbb3834791b8ae6b64277cc27f0c29dcfb1653e453488d4682286a5007166e3",
    "kernel_experiment.csv": "389407d84b81e1ab0860bbb8f5171bf228288aad2673d604048f1a2b7e015182",
    "kernel_experiment_reports.jsonl": "ea64cac5e11b34965ce2dc6929825ee8ef9bc74ac7a28dacadf0b13044cca9c0",
    "simulate_wbm.csv": "f842ccf8d9076d1552142e2d1731bf58b3c715934d1094b3b75c71177ea37888",
    "simulate_wbm_reports.jsonl": "1c403babc2289734b728a8dbe6f1b74ec938e8fe7e7bd81a37de1edf9d413941",
    "tanaka_special_case.csv": "198bb62f60b2f8f01691cc6a50f3ad57fdcd41ec5b0dd50c3f820c9ad36c3de0",
    "tanaka_special_case_reports.jsonl": "70e02e3e1da9959f6e2391a981bfb2272dcffb54d42fd5bf3242dcb499e1a350",
    "verify_freidlin_sheu.csv": "dee30d382f35c9c97d1c5d2e29948deca1c56cd09e8607ae99be2d30e977cb52",
    "verify_freidlin_sheu_reports.jsonl": "35684ffb8e19bb0974bab3a5580a5603ade850204634fd8ce90b97142bdd4995",
    "verify_semigroup.csv": "b9c617e9228895158574821acae5ff7fa9576c6554be709d168ba76062974aae",
    "verify_semigroup_reports.jsonl": "ac17851b30c19d214fd250f822a1593f44a2ed0404d47c83262286ba96e6171d",
    "walk_converge.csv": "9425819edd648484dafd4af7521d591e9c0974194b18a1aebfea4ca575d29f4b",
    "walk_converge_reports.jsonl": "f2284c3531193ca5e22392e8606a1789af2aef917e8cf1bbd466bb051732a7b4",
}


def _moved_digests(out_dir, frozen: dict[str, str]) -> list[str]:
    """One line per artifact whose SHA-256 differs from its frozen digest."""
    moved = []
    for name, digest in frozen.items():
        got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if got != digest:
            moved.append(f"{name}: {digest} -> {got}")
    return moved


def test_artifacts_match_frozen_digests(tmp_path):
    config = replace(_FROZEN_CONFIG, out_dir=str(tmp_path))
    failing = set()
    for subcommand in COMMANDS:
        try:
            run(subcommand, config)
        except CheckFailed:
            failing.add(subcommand)
    assert failing == _FROZEN_FAILING
    assert sorted(os.listdir(tmp_path)) == sorted(_FROZEN_DIGESTS)
    moved = _moved_digests(tmp_path, _FROZEN_DIGESTS)
    assert not moved, (
        "artifacts changed: an RNG-stream or artifact change, which CHANGES.md "
        "must declare together with the new digests:\n" + "\n".join(moved)
    )
    # the filtering and projection bands probe an excursion with a ray choice
    lines = (tmp_path / "kernel_experiment_reports.jsonl").read_text(encoding="utf-8")
    thresholds = {r["name"]: r["threshold"] for r in map(json.loads, lines.splitlines())}
    assert thresholds["filtering"] > 0.0
    assert thresholds["wiener-projection"] > 0.0


# SHA-256 of the kernel-experiment artifacts at _FROZEN_CONFIG under measures
# that draw, where the moment sums and the filtering and projection bands
# see random weights. On the default graph the minus block is one ray, so
# its moments see only the weight 1 and the bands probe a plus excursion;
# the third case moves ray 2 into the minus block to make the minus moments
# live and to let the bands probe a minus excursion.
_FROZEN_DRAWING = [
    (
        {"measure_plus": "dirichlet:4", "measure_minus": "dirichlet:0.5"},
        "8e3176a98d78156db0bc4b07fbe2c7ac913dd3da20cddb4248fe135b3967d930",
        "4a52e7acd970ee8298bbb9dc9e87443ffa29d3816efd9a1700e12268b1daf8f7",
    ),
    (
        {"measure_plus": "dirac-vertices", "measure_minus": "dirac-vertices"},
        "1b288a1e20dfb6ff292d5cc38c072c09082f657925d896774f1f26ea0a2d9941",
        "aec42f2d06b2f05d315dbc582cd86631e8ebd7a56ffab9528345f09f4e856cd0",
    ),
    (
        {"measure_plus": "dirichlet:4", "measure_minus": "dirichlet:0.5", "eps": (1, -1, -1)},
        "f47ae2adc0534b619bae7a4bfafdafd5e9b46095795fb6fde410658c50e09bab",
        "2e86803bd1eddb34bc01d31f1f7f0ad8508eb8e9bf0e17db832b01e93f63e5e3",
    ),
]


@pytest.mark.parametrize(
    "overrides, csv_digest, reports_digest",
    _FROZEN_DRAWING,
    ids=["dirichlet", "dirac-vertices", "dirichlet-two-minus-rays"],
)
def test_kernel_artifacts_match_frozen_digests_under_drawing_measures(
    tmp_path, overrides, csv_digest, reports_digest
):
    run("kernel-experiment", replace(_FROZEN_CONFIG, out_dir=str(tmp_path), **overrides))
    moved = _moved_digests(
        tmp_path,
        {"kernel_experiment.csv": csv_digest, "kernel_experiment_reports.jsonl": reports_digest},
    )
    assert not moved, f"artifacts changed under {overrides}:\n" + "\n".join(moved)


def test_fail_lines_carry_the_report_details(tmp_path, capsys):
    # at 10 paths verify-freidlin-sheu fails on its Ito-residual gates; the
    # line must show the rms_fine that a gate reads and its bound, not only
    # the ratio
    config = replace(_FROZEN_CONFIG, out_dir=str(tmp_path))
    with pytest.raises(CheckFailed):
        run("verify-freidlin-sheu", config)
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert failed
    for line in failed:
        assert " rms_coarse=" in line and " rms_fine=" in line and " rms_fine_bound=" in line
    passed = [line for line in lines if line.startswith("[PASS]")]
    assert all(line.endswith(f"replicas={config.path_replicas}") for line in passed)


def test_band_report_names_each_ray_and_its_bound():
    # the headline is the largest deviation against the largest bound, which
    # may belong to different rays; the details pair them ray by ray
    expected = np.array([0.1, 0.3, 0.6])
    freq = np.array([0.22, 0.28, 0.50])
    report = _band_report("band", freq, expected, 100)
    bound = 3.0 * np.sqrt(expected * (1 - expected) / 100)
    assert report.details == {
        **{f"dev_{i + 1}": float(abs(f - e)) for i, (f, e) in enumerate(zip(freq, expected))},
        **{f"bound_{i + 1}": float(b) for i, b in enumerate(bound)},
    }
    # ray 1 misses its own bound, 0.09, with a deviation below ray 3's
    assert report.statistic < report.threshold and not report.passed


def _ito_report(config, name):
    _tables, reports = _cmd_verify_freidlin_sheu(config)
    (report,) = [r for r in reports if r.name == f"ito-residual-{name}"]
    return report


def test_ito_check_fails_without_the_local_time_term(monkeypatch):
    # negative control: the off-domain function's residual without its
    # Freidlin-Sheu local-time term misses the rate band and the fine gate
    monkeypatch.setattr(paths_module, "flux_defect", lambda f, spec: 0.0)
    report = _ito_report(DEFAULT_CONFIG, "radial-off-domain")
    assert not report.passed
    assert not 1.7 <= report.statistic <= 2.6
    assert report.details["rms_fine"] > report.details["rms_fine_bound"]


@pytest.mark.parametrize("seed", [20240, 5151])
def test_fine_gate_fails_on_three_times_the_curvature(monkeypatch, seed):
    # negative control: the in-domain bump at three times its coefficient
    # keeps the rate band, and its fine residual fails the level-0.001 gate
    monkeypatch.setattr(
        cli_module,
        "_ito_test_functions",
        lambda spec: [("radial-in-domain", bump_family((0.9,) * spec.n_rays))],
    )
    report = _ito_report(replace(DEFAULT_CONFIG, root_seed=seed), "radial-in-domain")
    assert report.replicas == 200 and not report.passed
    assert 1.7 <= report.statistic <= 2.6
    assert report.details["rms_fine"] > report.details["rms_fine_bound"]


def test_fine_gate_bound_is_the_absolute_bound_without_spread():
    # with one path the spread is 0, and the gate is rms_fine <= 5e-3
    config = replace(DEFAULT_CONFIG, path_replicas=1)
    for report in _cmd_verify_freidlin_sheu(config)[1]:
        assert report.details["rms_fine_bound"] == 5e-3


def test_projection_shares_no_choice_index_with_filtering(tmp_path, monkeypatch):
    calls = []

    def recording(original):
        def wrapped(flow, start_index, k, choice_indices, redraw=False):
            calls.append((redraw, list(choice_indices)))
            return original(flow, start_index, k, choice_indices, redraw)

        return wrapped

    monkeypatch.setattr(cli_module, "mapping_rays", recording(cli_module.mapping_rays))
    monkeypatch.setattr(flows_module, "mapping_rays", recording(flows_module.mapping_rays))
    run("kernel-experiment", replace(DEFAULT_CONFIG, out_dir=str(tmp_path)))
    assert [redraw for redraw, _ in calls] == [False, True]
    (_, filtering), (_, projection) = calls
    assert filtering and projection
    assert not set(filtering) & set(projection)
    # draw index 0 holds the flow's own weights, which a redraw must not reuse
    assert 0 not in projection

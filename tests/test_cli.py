"""Runner tests: config round-trip, exit codes, CSV emission, determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from walshflow import cli as cli_module
from walshflow.cli import (
    _FLOW_CHUNK_MAX,
    _FLOW_CHUNK_MIN,
    _MAX_KEPT_STEPS,
    _MAX_MERGE_PAIRS,
    COMMANDS,
    DEFAULT_CONFIG,
    CheckFailed,
    ConfigInvalid,
    ExperimentConfig,
    _cmd_simulate_wbm,
    _flip_chunk_paths,
    _flow_chunks,
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
            {"merge_pairs": _MAX_MERGE_PAIRS + 1},
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ConfigInvalid):
            replace(DEFAULT_CONFIG, **overrides).validate()

    def test_step_budget_names_the_bound(self):
        assert DEFAULT_CONFIG.horizon * 4.0**DEFAULT_CONFIG.level <= _MAX_KEPT_STEPS
        assert DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt <= _MAX_KEPT_STEPS
        replace(DEFAULT_CONFIG, level=11).validate()  # 4^11 steps, at the budget
        with pytest.raises(ConfigInvalid, match=f"budget of {_MAX_KEPT_STEPS} steps"):
            replace(DEFAULT_CONFIG, level=12).validate()

    def test_merge_pair_budget_names_the_bound(self):
        assert DEFAULT_CONFIG.merge_pairs <= _MAX_MERGE_PAIRS
        replace(DEFAULT_CONFIG, merge_pairs=_MAX_MERGE_PAIRS).validate()
        with pytest.raises(ConfigInvalid, match=f"budget of {_MAX_MERGE_PAIRS} merge pairs"):
            replace(DEFAULT_CONFIG, merge_pairs=_MAX_MERGE_PAIRS + 1).validate()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(str(tmp_path / "absent.ini"))


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

    def test_over_budget_config_exits_two(self, tmp_path, capsys):
        ini = tmp_path / "deep.ini"
        ini.write_text(serialize_config(replace(DEFAULT_CONFIG, level=12)), encoding="utf-8")
        assert main(["kernel-experiment", "--config", str(ini)]) == 2
        assert f"budget of {_MAX_KEPT_STEPS} steps" in capsys.readouterr().err

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
    """Replace the process pool by one that records each pool size and task
    count asked for and maps in this process, so no process starts."""
    asked = SimpleNamespace(sizes=[], tasks=[])

    class RecordingPool:
        def __init__(self, max_workers):
            asked.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, args_list, chunksize=1):
            asked.tasks.append(len(args_list))
            return map(task, args_list)

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", RecordingPool)
    return asked


def test_pool_is_no_larger_than_the_task_list(recording_pool):
    assert _map_replicas(abs, [-3, -1, 2], 8) == [3, 1, 2]
    assert _map_replicas(abs, list(range(-20, 0)), 2) == list(range(20, 0, -1))
    assert recording_pool.sizes == [3, 2]


@pytest.mark.parametrize("replicas", [1, 199, 200, 401, 1200, 2049, 5000])
@pytest.mark.parametrize("workers", [1, 2, 3, 7, 10**6])
def test_flow_chunks_split_evenly_within_bounds(replicas, workers):
    chunks = _flow_chunks(replicas, workers)
    firsts = [first for first, _ in chunks]
    counts = [count for _, count in chunks]
    assert firsts == [sum(counts[:i]) for i in range(len(counts))]
    assert sum(counts) == replicas
    assert set(counts[:-1]) <= {counts[0]} and counts[-1] <= counts[0]
    assert counts[0] <= _FLOW_CHUNK_MAX
    # never more tasks than fixed chunks of _FLOW_CHUNK_MIN made, and one
    # task per worker up to that many
    most = -(-replicas // _FLOW_CHUNK_MIN)
    assert min(workers, most) <= len(chunks) <= most


def test_flow_chunks_at_the_default_config():
    replicas = DEFAULT_CONFIG.flow_replicas
    assert _flow_chunks(replicas, 1) == [(0, replicas)]
    assert _flow_chunks(replicas, 2) == [(0, replicas // 2), (replicas // 2, replicas // 2)]


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


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats is slow to import and the chi-square survival function
    # comes from scipy.special, so every CLI run skips that import
    src = Path(cli_module.__file__).resolve().parents[1]
    code = "import sys, walshflow.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


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
            counts = [count for _, count in _flow_chunks(replicas, workers)]
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

    def test_freidlin_sheu_artifacts_identical_across_pool_sizes(self, tmp_path):
        # two full chunks of fine-step paths and a remainder; the coarse
        # step's chunk holds them all
        steps = round(DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt)
        paths = 2 * _flip_chunk_paths(steps) + 7
        config = replace(DEFAULT_CONFIG, path_replicas=paths, root_seed=4246)
        self._assert_pool_sizes_agree(tmp_path, config, "verify-freidlin-sheu", ("2",))

    def test_path_artifacts_identical_across_pool_sizes(self, tmp_path):
        # two full chunks of paths and a remainder
        paths = 2 * _flip_chunk_paths(1000) + 7
        config = replace(
            DEFAULT_CONFIG, dt=1e-3, replicas=4000, path_replicas=paths, root_seed=4245
        )
        self._assert_pool_sizes_agree(tmp_path, config, "simulate-wbm", ("2",))


def test_simulate_wbm_rows_equal_per_path_construction():
    # oracle: one flip path built at a time; the paths fill one chunk and
    # spill three into the next
    steps = round(DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt)
    config = replace(DEFAULT_CONFIG, path_replicas=_flip_chunk_paths(steps) + 3, replicas=100)
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
    # oracle: one flip path built at a time, its squared residual summed in
    # replica order; the path count crosses a chunk boundary at the fine step
    steps = round(DEFAULT_CONFIG.horizon / DEFAULT_CONFIG.dt)
    config = replace(DEFAULT_CONFIG, path_replicas=_flip_chunk_paths(steps) + 3)
    spec = config.spec()
    functions = _ito_test_functions(spec)
    runs = [(idx, dt) for idx in range(len(functions)) for dt in (4 * config.dt, config.dt)]
    want = []
    for fn_index, dt in runs:
        grid = TimeGrid(dt=dt, steps=round(config.horizon / dt))
        acc = 0.0
        for rep in range(config.path_replicas):
            stream = RngStream(config.root_seed).child(KEY_REPLICA, 10000 * fn_index + rep)
            path = wbm_flip_construct(grid, spec, stream)
            acc += freidlin_sheu_residual(functions[fn_index][1], spec, path) ** 2
        want.append(math.sqrt(acc / config.path_replicas))
    assert _residual_rms(config, runs) == want


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
    for rep in range(4):
        got_rep, mass_err, wiener_dev, moments = _kernel_task((config, rep))
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


# SHA-256 of every artifact the seven subcommands write at _FROZEN_CONFIG.
# A digest may change only with a declared RNG-stream or artifact change.
# At 10 paths verify-freidlin-sheu fails two Ito-residual ratio bands; its
# report digest freezes that verdict too.
_FROZEN_CONFIG = replace(
    DEFAULT_CONFIG, replicas=1000, path_replicas=10, flow_replicas=20, merge_pairs=200
)
_FROZEN_FAILING = {"verify-freidlin-sheu"}
_FROZEN_DIGESTS = {
    "flow_experiment.csv": "ca06d80a1d788e6fe4ab48469b1fdffc477d7722a7df642d48fcb4e6b5308d19",
    "flow_experiment_merges.csv": "f888b583f1852180e956159b1fbe0f227a7f329afffac6656e89bc30437e48b7",
    "flow_experiment_reports.jsonl": "dc67bcd2acc3d0362834ccf5ae6f2bf683f2387af4f4c2100eea8fd45b9d9f6f",
    "kernel_experiment.csv": "376c6bd5f8434dfc64ac92e3b1e95c7074dcc5588213a27b2ea2991b9b9e4eef",
    "kernel_experiment_reports.jsonl": "ada90a4855140af2a7fd5d238da67943487ad04686c92fecaff374df01ef41e0",
    "simulate_wbm.csv": "f842ccf8d9076d1552142e2d1731bf58b3c715934d1094b3b75c71177ea37888",
    "simulate_wbm_reports.jsonl": "ba5947f9069b9ae489b233ad5ab04bdc0b28f34189597a9f4bd61966a51eb77a",
    "tanaka_special_case.csv": "0c3394fc084cb90bb64924547628799e052228536371f31376f050960f4c246c",
    "tanaka_special_case_reports.jsonl": "1924df9e2fe5e209a11f2c8c112ba158d24cbdeef61299c329d2989d9b95ea2e",
    "verify_freidlin_sheu.csv": "3b2fed382da53e46f6f07e67fdc67c15f8268492bda02902fc469c65f62313f7",
    "verify_freidlin_sheu_reports.jsonl": "cc2e72f0df9897d9fbe024d79d8b804158036429ef90e787ce7f269ed98e1af1",
    "verify_semigroup.csv": "b9c617e9228895158574821acae5ff7fa9576c6554be709d168ba76062974aae",
    "verify_semigroup_reports.jsonl": "ac17851b30c19d214fd250f822a1593f44a2ed0404d47c83262286ba96e6171d",
    "walk_converge.csv": "c9ccfad3894f488f5c117ab9eba0cec2c84a74a7ebfbf216f4706941efa66efc",
    "walk_converge_reports.jsonl": "1691e091d88d2e093b07493ed83f8a423cc9772b477706775ea49c59a684492c",
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
        "94590e9cb56fd240c3f4dfa59af147946a27090b5aad8bf16a0818b722e873d6",
        "3992e1a3535a6b8846053f542e5ac35fbdfcfca789845f5a4209ed3c83d87835",
    ),
    (
        {"measure_plus": "dirac-vertices", "measure_minus": "dirac-vertices"},
        "9b1d8754e6fe606f4388af7830777fa96bb335c21c10b67d8df8be373e7b19b0",
        "83bafbb2fa170dc198735071e8a95a0bff13585e8bc25cb3bde2e08e87893ff5",
    ),
    (
        {"measure_plus": "dirichlet:4", "measure_minus": "dirichlet:0.5", "eps": (1, -1, -1)},
        "2eb2836c442559dd806174d10ddd042798bd9563695091fa83df9e9fd07b9ccf",
        "2960b7aa5fb5e8a2018c60a8956a143e9a6dedda90baea4a84e06668005adb2d",
    ),
]


@pytest.mark.parametrize("overrides, csv_digest, reports_digest", _FROZEN_DRAWING)
def test_kernel_artifacts_match_frozen_digests_under_drawing_measures(
    tmp_path, overrides, csv_digest, reports_digest
):
    run("kernel-experiment", replace(_FROZEN_CONFIG, out_dir=str(tmp_path), **overrides))
    moved = _moved_digests(
        tmp_path,
        {"kernel_experiment.csv": csv_digest, "kernel_experiment_reports.jsonl": reports_digest},
    )
    assert not moved, f"artifacts changed under {overrides}:\n" + "\n".join(moved)

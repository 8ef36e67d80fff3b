"""Experiment runner: subcommands, structured config, CSV/report emission.

Every command reads one ExperimentConfig, resolves the root seed
(command line beats the WALSH_SEED variable, which beats the config
file), runs its experiment, writes a CSV of raw numbers plus a
line-delimited report file, and exits 0 only when every mandatory check
passed. Replicas always derive their randomness from (root seed,
replica index), so a worker pool of any size produces byte-identical
artifacts to a serial run.

Exit codes: 0 success, 1 a mandatory check failed, 2 invalid
configuration or usage, 3 input/output or runtime failure; an unexpected
exception prints its traceback before the message.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import os
import sys
import traceback
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

# numpy loads numpy.random on first use, and every subcommand but
# verify-semigroup uses it; load it at start-up, so that a run's time is its
# own work
import numpy.random  # noqa: F401

from walshflow.flows import (
    KernelFlow,
    LatticeFlowConfig,
    MeasurePairSampler,
    SamplerInvalid,
    _block,
    _flow_experiment_invariants,
    _merge_level,
    extract_ray_weights,
    filter_mapping_to_kernel,
    mapping_rays,
    merge_level_samples,
    ray_ratios,
    sample_kernel_flow,
    skew_lattice_flow,
    skew_lattice_flows,
)
from walshflow.graph import (
    GraphPoint,
    GraphSpec,
    PiecewiseFunction,
    bump_family,
    central_difference,
    decay_family,
    graph_point,
    validate_spec,
)
from walshflow.paths import (
    KEY_FLOW_COINS,
    KEY_REPLICA,
    RngStream,
    TimeGrid,
    freidlin_sheu_residuals,
    sample_wbm_exact,
    scaled_walk_marginal,
    wbm_flip_paths,
)
from walshflow.semigroup import (
    generator_residual,
    semigroup_derivative,
    tabulate_semigroup,
    wbm_semigroup_apply,
)
from walshflow.stats import (
    MIN_FIT_SAMPLES,
    TestReport,
    folded_gaussian_cdf,
    ks_statistic,
    marginal_vs_semigroup,
    powerlaw_fit_coalescence,
)

__all__ = [
    "ConfigInvalid",
    "Io",
    "CheckFailed",
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "parse_config",
    "serialize_config",
    "load_config",
    "emit_csv",
    "run",
    "main",
]


# lattice step at which the last flow-experiment start is born
_LATE_START_STEP = 16
# walk-converge's lattice levels, coarsest first; horizon * 4^level must be
# a whole number of steps at each, which the coarsest implies
_WALK_LEVELS = (2, 3, 4, 5)
# most steps a kept trajectory may have: kernel-experiment keeps each start's
# horizon * 4^level lattice steps (int64) and every flip path keeps its
# horizon / dt grid points in several float arrays, 32 MiB each at the budget
_MAX_KEPT_STEPS = 2**22
_KEPT_STEPS = (1, _MAX_KEPT_STEPS, f"the budget of {_MAX_KEPT_STEPS} steps for a kept trajectory")
# the legal range of every count a run reads or derives from its config:
# name -> (least, most, why), most None for no bound. validate checks the
# config's counts first, so that 4^level is safe, then the whole step counts
_BOUNDS = {
    "level": (0, 12, "at level 12 a unit of time is already 16.8M lattice steps"),
    # the last start's radius (y + 2) 2^-level is a float64, exact to 2^53
    # units; with the flow-steps bound, paths._state_dtype(steps + y + 2) fits int64
    "flow_y_units": (2, 2**52, "the upper start lies above 0 at a float64-exact radius"),
    # walk-converge steps that many walks at once (a word, a departure word
    # and a state each) and simulate-wbm sorts that many exact marginals and
    # evaluates its test functions on them: about 100 bytes per replica, some
    # 400 MiB at the budget, 210 times the default
    "replicas": (1, 2**22, f"one or more, up to the budget of {2**22} replicas"),
    # near horizon / dt = _MAX_KEPT_STEPS verify-freidlin-sheu plans two
    # one-path tasks per path, whose tuples and rows keep 0.85 kB per path in
    # the parent process: some 55 MiB at the budget, 328 times the default
    "path_replicas": (1, 2**16, f"one or more, up to the budget of {2**16} flip paths"),
    # flow-experiment tasks hold at least _FLOW_CHUNK_MIN replicas each, so
    # the parent process keeps a row of seven values, about 200 bytes, per
    # replica: some 200 MiB at the budget, 874 times the default
    "flow_replicas": (1, 2**20, f"one or more, up to the budget of {2**20} flow replicas"),
    # merge_level_samples keeps three int64 arrays and two walk states of one
    # entry per pair, 2 MiB per array at the budget, and its blocks 4 MiB of
    # words (flows._MERGE_BLOCK_WORDS). The merges artifact holds a row per merge
    "merge_pairs": (1, 2**18, f"one or more, up to the budget of {2**18} merge pairs"),
    # no upper bound: _map_replicas stops the pool at the usable CPUs
    "workers": (1, None, "a run needs one worker or more"),
    "root_seed": (0, 2**64 - 1, "a root seed is an unsigned 64-bit integer"),
    "horizon * 4^level": _KEPT_STEPS,
    "horizon / dt": _KEPT_STEPS,
    # see flow_y_units: steps + y + 2 <= 2^62 + 2^52 + 2 fits int64
    "flow_horizon * 4^level": (_LATE_START_STEP + 1, 2**62, "the flow must outlast the "
                               f"{_LATE_START_STEP} steps before the last start, within int64"),
}


class ConfigInvalid(ValueError):
    """The experiment configuration cannot be used (exit code 2)."""


class Io(RuntimeError):
    """Reading inputs or writing artifacts failed (exit code 3)."""


class CheckFailed(RuntimeError):
    """A mandatory verification check failed (exit code 1)."""


def _check_counts(counts: dict) -> None:
    """Raise ConfigInvalid for the first count outside its _BOUNDS row."""
    for name, value in counts.items():
        least, most, why = _BOUNDS[name]
        if value < least:
            raise ConfigInvalid(f"{name} = {value} is less than {least}: {why}")
        if most is not None and value > most:
            raise ConfigInvalid(f"{name} = {value} is more than {most}: {why}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs, serializable to an INI file."""

    alpha: tuple[float, ...] = (0.4, 0.3, 0.3)
    eps: tuple[int, ...] = (1, 1, -1)
    level: int = 6
    dt: float = 1e-4
    horizon: float = 1.0
    flow_horizon: float = 4.0
    flow_y_units: int = 4
    replicas: int = 20000
    path_replicas: int = 200
    flow_replicas: int = 1200
    merge_pairs: int = 4000
    workers: int = 1
    root_seed: int = 20240
    out_dir: str = "walshflow-out"
    measure_plus: str = "wiener"
    measure_minus: str = "wiener"

    def validate(self) -> "ExperimentConfig":
        try:
            spec = validate_spec(self.alpha, self.eps)
        except ValueError as exc:
            raise ConfigInvalid(f"bad graph: {exc}") from exc
        _check_counts({f.name: getattr(self, f.name) for f in fields(self) if f.name in _BOUNDS})
        if self.dt <= 0 or self.horizon <= 0 or self.flow_horizon <= 0:
            raise ConfigInvalid("dt, horizon, and flow_horizon must be positive")
        if self.flow_y_units % 2:
            raise ConfigInvalid("flow_y_units must be a positive even integer")
        # step counts are derived from these ratios; off-grid values would be
        # rounded silently, and not always the same way, and a ratio that
        # rounds to 0 would give a run of no steps
        walk, coarse = 4.0 ** _WALK_LEVELS[0], 4.0 * self.dt
        ratios = {
            "flow_horizon * 4^level": self.flow_horizon * 4.0**self.level,
            "horizon * 4^level": self.horizon * 4.0**self.level,
            f"horizon * 4^{_WALK_LEVELS[0]} (coarsest walk-converge level)": self.horizon * walk,
            "horizon / dt": self.horizon / self.dt,
            "horizon / (4 dt) (verify-freidlin-sheu's coarse step)": self.horizon / coarse,
        }
        for name, ratio in ratios.items():
            if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ConfigInvalid(f"{name} = {ratio!r} is not a whole number >= 1")
        _check_counts({name: round(ratio) for name, ratio in ratios.items() if name in _BOUNDS})
        if not self.out_dir:
            raise ConfigInvalid("out_dir must be non-empty")
        try:
            MeasurePairSampler(spec, self.measure_plus, self.measure_minus)
        except SamplerInvalid as exc:
            raise ConfigInvalid(f"bad measure pair: {exc}") from exc
        return self

    def spec(self) -> GraphSpec:
        return validate_spec(self.alpha, self.eps)


DEFAULT_CONFIG = ExperimentConfig()


# the INI layout: each section's fields, in order; a field's key is its name
# without the section prefix (measure_plus is [measure] plus)
_SECTIONS = {
    "graph": ("alpha", "eps"),
    "scheme": ("level", "dt", "horizon", "flow_horizon", "flow_y_units"),
    "run": (
        "replicas",
        "path_replicas",
        "flow_replicas",
        "merge_pairs",
        "workers",
        "root_seed",
        "out_dir",
    ),
    "measure": ("measure_plus", "measure_minus"),
}


def serialize_config(config: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, names in _SECTIONS.items():
        parser[section] = {}
        for name in names:
            value = getattr(config, name)
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            parser[section][name.removeprefix(section + "_")] = text
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    """The config an INI text holds; each value takes the type of its field
    in DEFAULT_CONFIG, a tuple that of its first entry."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigInvalid(f"config does not parse: {exc}") from exc
    values = {}
    try:
        for section, names in _SECTIONS.items():
            for name in names:
                raw = parser.get(section, name.removeprefix(section + "_"))
                default = getattr(DEFAULT_CONFIG, name)
                if isinstance(default, tuple):
                    kind = type(default[0])
                    values[name] = tuple(kind(v) for v in raw.split(",") if v.strip())
                else:
                    values[name] = type(default)(raw)
    except (configparser.Error, ValueError) as exc:
        raise ConfigInvalid(f"config is incomplete or malformed: {exc}") from exc
    return ExperimentConfig(**values).validate()


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigInvalid(f"config file {path!r} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise Io(f"cannot read config {path!r}: {exc}") from exc


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def emit_csv(rows: Sequence[Sequence], headers: Sequence[str], path: str) -> None:
    """Write a rectangular table: UTF-8, LF separators, header always
    present, floats at 12 significant digits."""
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("table is not rectangular")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(headers)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    except OSError as exc:
        raise Io(f"cannot write {path!r}: {exc}") from exc


def _write_reports(reports: Sequence[TestReport], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            for report in reports:
                handle.write(report.to_json_line())
                handle.write("\n")
    except OSError as exc:
        raise Io(f"cannot write {path!r}: {exc}") from exc


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _map_replicas(task: Callable, args_list: list, workers: int) -> list:
    """Run task on each argument tuple, one per chunk of replicas, in a pool
    of at most the workers, tasks or usable CPUs; output order is by
    argument, never by scheduling, so no artifact depends on the pool."""
    workers = min(workers, len(args_list), _cpu_count())
    if workers <= 1:
        return [task(args) for args in args_list]
    # imported here, so that a serial run never loads multiprocessing; the
    # pool starts all its workers at the first submit
    import concurrent.futures

    # four tasks per worker in flight, so that a plan of one task per flip
    # path holds no pool future per path
    results, pending = [], []
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for args in args_list:
            if len(pending) == 4 * workers:
                results.append(pending.pop(0).result())
            pending.append(pool.submit(task, args))
        return results + [future.result() for future in pending]


def _chunks(replicas: int, workers: int, most: int, least: int = 1) -> list[tuple[int, int]]:
    """(first replica, count) per task, of even size; only the last may hold
    fewer. One task per worker, but never so few that a task holds more
    than most replicas, nor so many that one holds fewer than least (a
    budget below 1 counts as 1). A replica's rows depend only on its
    stream, so the plan moves no artifact byte."""
    most, least = max(1, most), max(1, least)
    tasks = min(max(workers, -(-replicas // most)), -(-replicas // least))
    size = -(-replicas // tasks)
    return [(first, min(size, replicas - first)) for first in range(0, replicas, size)]


def _replica_streams(config: ExperimentConfig, first: int, count: int) -> list[RngStream]:
    """The streams of replicas first .. first + count - 1, each keyed on
    (root seed, replica index) alone."""
    root = RngStream(config.root_seed)
    return [root.child(KEY_REPLICA, rep) for rep in range(first, first + count)]


def _map_chunks(task: Callable, config: ExperimentConfig, chunks) -> list:
    """task's rows for every (first, count) chunk, in replica order; task
    takes (config, first, count) and returns that chunk's rows."""
    tasks = [(config, first, count) for first, count in chunks]
    return [row for rows in _map_replicas(task, tasks, config.workers) for row in rows]


def _report(name, statistic, threshold, passed, replicas, **details):
    return TestReport(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        passed=bool(passed),
        replicas=int(replicas),
        details={k: float(v) for k, v in details.items()},
    )


# --- verify-semigroup ------------------------------------------------------


def _cmd_verify_semigroup(config: ExperimentConfig):
    spec = config.spec()
    one = PiecewiseFunction.radial(spec.n_rays, lambda h: 1.0)
    rows = []

    worst_conservation = 0.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        for h in (0.0, 0.5, 1.0, 2.0, 3.0):
            point = graph_point(spec, 1, h)
            value = wbm_semigroup_apply(one, spec, point, t)
            err = abs(value - 1.0)
            worst_conservation = max(worst_conservation, err)
            rows.append(["conservation", t, h, value, err])

    fn = bump_family((1.0,) * spec.n_rays)
    worst_law = 0.0
    for s in (0.25, 1.0):
        table = tabulate_semigroup(fn, spec, s, radius_max=3.0 + 10.5)
        for t in (0.25, 1.0):
            for h in (0.0, 0.7, 1.5):
                point = graph_point(spec, 1, h)
                direct = wbm_semigroup_apply(fn, spec, point, s + t)
                nested = wbm_semigroup_apply(table, spec, point, t)
                err = abs(direct - nested)
                worst_law = max(worst_law, err)
                rows.append(["semigroup-law", s + t, h, nested, err])

    worst_generator = 0.0
    ray_weighted = bump_family(
        [0.8 + 0.4 * i / max(spec.n_rays - 1, 1) for i in range(spec.n_rays)]
    )
    for test_fn in (fn, ray_weighted):
        for h in (0.0, 0.8):
            point = graph_point(spec, 1, h)
            residual = generator_residual(test_fn, spec, point, 1.0)
            worst_generator = max(worst_generator, abs(residual))
            rows.append(["generator-residual", 1.0, h, residual, abs(residual)])

    worst_derivative = 0.0
    for h in (0.4, 0.9, 1.6, 2.5):
        point = GraphPoint(ray=1, radius=h)
        direct = semigroup_derivative(fn, spec, point, 1.0)
        numeric = central_difference(
            lambda r: wbm_semigroup_apply(fn, spec, GraphPoint(ray=1, radius=r), 1.0),
            h,
            step=1e-4,
        )
        rel = abs(direct - numeric) / max(abs(numeric), 1e-12)
        worst_derivative = max(worst_derivative, rel)
        rows.append(["derivative-identity", 1.0, h, direct, rel])

    reports = [
        _report("conservation", worst_conservation, 1e-8, worst_conservation <= 1e-8, 25),
        _report("semigroup-law", worst_law, 1e-5, worst_law <= 1e-5, 12),
        _report("generator-residual", worst_generator, 1e-4, worst_generator <= 1e-4, 4),
        _report(
            "derivative-identity", worst_derivative, 1e-5, worst_derivative <= 1e-5, 4
        ),
    ]
    headers = ["check", "time", "radius", "value", "error"]
    return [("", headers, rows)], reports


# values a task keeps at once, 4 MiB of 8-byte values whatever the step: the
# driver values (Brownian path, reflection, local time) a simulate-wbm or
# verify-freidlin-sheu task keeps until its one bulk flip draw, or the int64
# trajectories of a kernel-experiment task
_KEPT_VALUES = 2**19


def _flip_chunks(config: ExperimentConfig, dt: float) -> list[tuple[int, int]]:
    """(first path, count) per simulate-wbm or verify-freidlin-sheu task at
    step dt: as many tasks as keeping each under _KEPT_VALUES driver values
    takes, whatever the worker count."""
    paths = _KEPT_VALUES // (3 * (round(config.horizon / dt) + 1))
    return _chunks(config.path_replicas, config.workers, paths, paths)


def _flip_paths(config: ExperimentConfig, dt: float, first: int, count: int):
    """The flip paths of replicas first .. first + count - 1 at step dt."""
    grid = TimeGrid(dt=dt, steps=int(round(config.horizon / dt)))
    return wbm_flip_paths(grid, config.spec(), _replica_streams(config, first, count))


# --- simulate-wbm ----------------------------------------------------------


def _path_task(args):
    """Final ray, radius and local time of consecutive flip paths, one row
    per replica, in replica order."""
    config, first, count = args
    return [
        (rep, int(path.rays[-1]), float(path.radii[-1]), float(path.local_time[-1]))
        for rep, path in enumerate(_flip_paths(config, config.dt, first, count), first)
    ]


def _cmd_simulate_wbm(config: ExperimentConfig):
    spec = config.spec()
    rows = _map_chunks(_path_task, config, _flip_chunks(config, config.dt))

    (stream,) = _replica_streams(config, config.path_replicas + 1, 1)
    rays, radii = sample_wbm_exact(spec, config.horizon, config.replicas, stream)
    battery = marginal_vs_semigroup(spec, config.horizon, rays, radii)
    headers = ["replica", "final_ray", "final_radius", "local_time"]
    return [("", headers, rows)], [battery]


# --- walk-converge ---------------------------------------------------------


def _cmd_walk_converge(config: ExperimentConfig):
    spec = config.spec()
    cdf = folded_gaussian_cdf(config.horizon)
    rows = []
    stats = []
    for level in _WALK_LEVELS:
        (stream,) = _replica_streams(config, level, 1)
        rays, radii = scaled_walk_marginal(
            spec, level, config.horizon, config.replicas, stream
        )
        d, p = ks_statistic(radii, cdf)
        stats.append(d)
        rows.append([level, config.replicas, d, p])
    band_ok = all(stats[i + 1] <= stats[i] * 1.1 for i in range(len(stats) - 1))
    overall = stats[-1] < stats[0]
    reports = [
        _report(
            "walk-ks-monotone",
            stats[-1],
            stats[0],
            band_ok and overall,
            config.replicas,
            **{f"ks_level_{lvl}": stats[i] for i, lvl in enumerate(_WALK_LEVELS)},
        )
    ]
    headers = ["level", "replicas", "ks_stat", "ks_p"]
    return [("", headers, rows)], reports


# --- verify-freidlin-sheu --------------------------------------------------


def _ito_test_functions(spec: GraphSpec):
    # curvature kept near 0.6 so the discretization residual at the fine
    # step stays under the fine gate's _FINE_RMS
    in_domain = bump_family((0.3,) * spec.n_rays)
    ray_dependent = bump_family(
        [0.25 + 0.1 * i / max(spec.n_rays - 1, 1) for i in range(spec.n_rays)]
    )
    off_domain = decay_family((0.3,) * spec.n_rays)
    return [
        ("radial-in-domain", in_domain),
        ("ray-dependent", ray_dependent),
        ("radial-off-domain", off_domain),
    ]


# the fine step's gate: its mean squared Ito residual may exceed _FINE_RMS^2
# by at most _FINE_Z standard errors, _FINE_Z the one-sided normal quantile
# at level 0.001
_FINE_RMS = 5e-3
_FINE_Z = 3.09


def _residual_task(args):
    """Ito residuals of every test function on consecutive flip paths, one
    tuple per replica in replica order. The functions are built here, since
    their ray callables cannot be pickled."""
    config, dt, first, count = args
    spec = config.spec()
    functions = [fn for _name, fn in _ito_test_functions(spec)]
    return [
        tuple(freidlin_sheu_residuals(functions, spec, path))
        for path in _flip_paths(config, dt, first, count)
    ]


def _residual_rms(config: ExperimentConfig, steps) -> list[list[tuple[float, float]]]:
    """(RMS Ito residual, sample standard deviation of the squared
    residuals) over path_replicas flip paths, per test function and then
    per step in steps. Every function reads the same path of a replica; the
    paths of every step go in the chunks of _flip_chunks through one map,
    so one pool serves them all."""
    paths = config.path_replicas
    tasks = [(config, dt, *chunk) for dt in steps for chunk in _flip_chunks(config, dt)]
    # one power at a time in replica order, as a serial loop adds them;
    # sum() is compensated for floats from Python 3.12 and would round apart
    n_functions = len(_ito_test_functions(config.spec()))
    sums = {dt: [[0.0, 0.0] for _ in range(n_functions)] for dt in steps}
    results = _map_replicas(_residual_task, tasks, config.workers)
    for (_config, dt, _first, _count), residuals in zip(tasks, results):
        for rep_residuals in residuals:
            for acc, r in zip(sums[dt], rep_residuals):
                acc[0] += r**2
                acc[1] += r**4
    return [[_rms_and_spread(*sums[dt][fn], paths) for dt in steps] for fn in range(n_functions)]


def _rms_and_spread(sum_sq: float, sum_fourth: float, n: int) -> tuple[float, float]:
    """RMS of n values and the sample standard deviation of their squares
    (0 when n < 2), from the sums of their squares and fourth powers."""
    var = max(sum_fourth - sum_sq**2 / n, 0.0) / (n - 1) if n > 1 else 0.0
    return math.sqrt(sum_sq / n), math.sqrt(var)


def _cmd_verify_freidlin_sheu(config: ExperimentConfig):
    paths = config.path_replicas
    steps = (4.0 * config.dt, config.dt)
    functions = _ito_test_functions(config.spec())
    rows = []
    reports = []
    for (name, _fn), ((coarse, _), (fine, spread)) in zip(
        functions, _residual_rms(config, steps)
    ):
        ratio = coarse / fine if fine > 0 else math.inf
        rows.append([name, steps[0], coarse, steps[1], fine, ratio])
        # fine <= bound is the gate's one-sided test of the mean square
        fine_bound = math.sqrt(_FINE_RMS**2 + _FINE_Z * spread / math.sqrt(paths))
        ok = 1.7 <= ratio <= 2.6 and fine <= fine_bound
        reports.append(
            _report(
                f"ito-residual-{name}",
                ratio,
                2.0,
                ok,
                paths,
                rms_fine=fine,
                rms_fine_bound=fine_bound,
                rms_coarse=coarse,
            )
        )
    headers = ["function", "dt_coarse", "rms_coarse", "dt_fine", "rms_fine", "ratio"]
    return [("", headers, rows)], reports


# --- flow-experiment -------------------------------------------------------


def _flow_starts(spec: GraphSpec, config: ExperimentConfig):
    dx = 2.0 ** (-config.level)
    dt = 4.0 ** (-config.level)
    y = config.flow_y_units
    minus = spec.side_rays(-1)
    minus_ray = minus[-1] if minus else min(2, spec.n_rays)
    return (
        (0.0, spec.origin),
        (0.0, GraphPoint(ray=1, radius=y * dx)),
        (0.0, GraphPoint(ray=minus_ray, radius=2 * dx)),
        (_LATE_START_STEP * dt, GraphPoint(ray=1, radius=(y + 2) * dx)),
    )


# replicas per flow-experiment task, stepped together by the kernel. A task
# holds at least _FLOW_CHUNK_MIN unless the run has fewer, so the pool never
# outgrows ceil(flow_replicas / _FLOW_CHUNK_MIN); it holds at most
# _FLOW_CHUNK_MAX, so with about 3.3 kB of generator, state block and packed
# coins per replica (tracemalloc, 2,048 default replicas) its buffers stay
# near 7 MB whatever the config
_FLOW_CHUNK_MIN = 200
_FLOW_CHUNK_MAX = 2048


def _flow_chunk(args):
    config, first, count = args
    spec = config.spec()
    dx = 2.0 ** (-config.level)
    ap = spec.alpha_plus
    flow_config = LatticeFlowConfig(
        level=config.level,
        horizon=config.flow_horizon,
        start_pairs=_flow_starts(spec, config),
    )
    monotone, flow_prop, permanence, at_zero, merge, visits = _flow_experiment_invariants(
        flow_config, spec, _replica_streams(config, first, count)
    )
    levels = _merge_level(config.flow_y_units, dx, ap, visits)
    levels[(merge < 0) | (ap <= 0.5)] = math.nan
    columns = (monotone, flow_prop, permanence, at_zero, merge, levels)
    return list(zip(range(first, first + count), *(column.tolist() for column in columns)))


def _cmd_flow_experiment(config: ExperimentConfig):
    spec = config.spec()
    chunks = _chunks(config.flow_replicas, config.workers, _FLOW_CHUNK_MAX, _FLOW_CHUNK_MIN)
    rows = _map_chunks(_flow_chunk, config, chunks)

    n = len(rows)
    all_exact = {
        "monotone": all(r[1] for r in rows),
        "flow_property": all(r[2] for r in rows),
        "permanence": all(r[3] for r in rows),
        "at_zero": all(r[4] for r in rows),
    }
    reports = [
        _report(f"flow-{name}-exact", float(not ok), 0.0, ok, n)
        for name, ok in all_exact.items()
    ]

    # dedicated merge-level study, run serially in the parent so that the
    # artifact does not depend on the worker count; the law exists only for
    # plus-weights strictly between 1/2 and 1, elsewhere it is skipped
    y = config.flow_y_units * 2.0 ** (-config.level)
    law_applies = 0.5 < spec.alpha_plus < 1.0
    merged, censored = [], 0
    if law_applies:
        merged, censored = merge_level_samples(
            spec,
            config.level,
            config.flow_y_units,
            int(round(config.flow_horizon * 4.0**config.level)),
            config.merge_pairs,
            RngStream(config.root_seed).child(KEY_FLOW_COINS, 0),
        )
    merged_arr = np.asarray(merged, dtype=float)
    above = merged_arr[merged_arr > y * (1.0 + 1e-12)]
    merge_rows = [[i, float(u)] for i, u in enumerate(merged_arr)]

    if law_applies and above.size >= MIN_FIT_SAMPLES:
        fit = powerlaw_fit_coalescence(above, y)
        reports.append(
            _report(
                "coalescence-law",
                fit.r_squared,
                0.98,
                fit.r_squared >= 0.98,
                int(above.size),
                lambda_hat=fit.lambda_hat,
                intercept=fit.intercept,
                atom_fraction=1.0 - above.size / max(merged_arr.size, 1),
                censored=float(censored),
            )
        )
    else:
        reports.append(
            _report(
                "coalescence-law",
                0.0,
                0.98,
                True,
                int(above.size),
                skipped=1.0,
                censored=float(censored),
            )
        )

    headers = [
        "replica",
        "monotone",
        "flow_property",
        "permanence",
        "at_zero",
        "merge_index",
        "merge_level",
    ]
    merge_headers = ["sample", "merge_level"]
    return [("", headers, rows), ("merges", merge_headers, merge_rows)], reports


# --- kernel-experiment -----------------------------------------------------


def _kernel_flow_config(config: ExperimentConfig, spec: GraphSpec) -> LatticeFlowConfig:
    """One start at the junction, over the config's horizon and level."""
    return LatticeFlowConfig(
        level=config.level, horizon=config.horizon, start_pairs=((0.0, spec.origin),)
    )


def _single_start_kernel_flow(config: ExperimentConfig, spec: GraphSpec, rep: int):
    """The kernel flow of one start at the junction, on replica rep's coins."""
    sampler = MeasurePairSampler(spec, config.measure_plus, config.measure_minus)
    (stream,) = _replica_streams(config, rep, 1)
    return sample_kernel_flow(_kernel_flow_config(config, spec), spec, sampler, stream)


def _row_sums(values: np.ndarray) -> np.ndarray:
    """The sum of the rows of a 2-d array, added one after another onto a
    zero row as a loop over the rows adds them. np.add.reduce would sum a
    lone column pairwise, whose last bits can differ."""
    start = np.zeros((1, values.shape[1]))
    return np.add.accumulate(np.concatenate([start, values]), axis=0)[-1]


def _kernel_task(args):
    """Mass error, Wiener deviation and per-side moment sums of the kernel
    flows of consecutive replicas, one row per replica, in replica order.
    Their trajectories are stepped together by skew_lattice_flows; each
    replica's statistics are read from its weight table as arrays."""
    config, first, count = args
    spec = config.spec()
    sampler = MeasurePairSampler(spec, config.measure_plus, config.measure_minus)
    reps = range(first, first + count)
    streams = _replica_streams(config, first, count)
    ensembles = skew_lattice_flows(_kernel_flow_config(config, spec), spec, streams)
    ratios = {side: ray_ratios(spec, side) for side in (1, -1) if spec.side_rays(side)}
    results = []
    for rep, stream, ens in zip(reps, streams, ensembles):
        table = KernelFlow(ens, sampler, stream).weight_table(0)
        side_of_row = ens.excursions(0)[:, 2]

        # every stride-th index inside an excursion reads its row; at the
        # junction the kernel is a point mass, with no mass error or deviation
        probes = ens.excursion_row(0, np.arange(0, ens.steps + 1, max(1, ens.steps // 64)))
        probed = np.flatnonzero(np.bincount(probes[probes >= 0]))
        mass_err = max(
            (abs(math.fsum(w for w in row if w > 0.0) - 1.0) for row in table[probed].tolist()),
            default=0.0,
        )
        wiener_dev = 0.0
        # per side of the junction: excursion count, weight sum, squared sum
        moments = {}
        for side in (1, -1):
            block = _block(spec, side)
            on_side = side_of_row == side
            seen = probed[on_side[probed]]
            if len(seen):
                dev = np.max(np.abs(table[seen, block] - ratios[side]))
                wiener_dev = max(wiener_dev, float(dev))
            weights = table[on_side, block]
            moments[side] = [len(weights), _row_sums(weights), _row_sums(weights**2)]
        results.append((rep, mass_err, wiener_dev, moments))
    return results


def _moment_report(name, total, total_sq, count, declared):
    mean = total / count
    var = np.maximum(total_sq / count - mean**2, 0.0)
    # the floor absorbs float accumulation noise for point-mass samplers,
    # whose true variance is zero
    sigma = np.sqrt(var / count)
    z = np.abs(mean - np.asarray(declared)) / np.maximum(sigma, 1e-12)
    worst = float(np.max(z))
    details = {f"mean_{i + 1}": float(m) for i, m in enumerate(mean)}
    details["worst_z"] = worst
    return _report(name, worst, 3.0, worst <= 3.0, count, **details)


def _band_report(name, freq, expected, replicas):
    """Pass when every frequency lies within 3 binomial standard deviations
    of its expected value; the floor lets an exact 0 or 1 pass on equality.
    The headline maxima may come from different rays, so the details carry
    each ray's deviation and bound, in side order."""
    bound = 3.0 * np.sqrt(expected * (1 - expected) / replicas)
    dev = np.abs(freq - expected)
    ok = bool(np.all(dev <= np.maximum(bound, 1e-12)))
    details = {f"dev_{i + 1}": d for i, d in enumerate(dev)}
    details.update({f"bound_{i + 1}": b for i, b in enumerate(bound)})
    return _report(name, float(np.max(dev)), float(np.max(bound)), ok, replicas, **details)


def _cmd_kernel_experiment(config: ExperimentConfig):
    spec = config.spec()
    n_ens = max(8, min(200, config.replicas // 100))
    # no task keeps more than _KEPT_VALUES int64 trajectory values
    steps = round(config.horizon * 4.0**config.level)
    results = _map_chunks(
        _kernel_task, config, _chunks(n_ens, config.workers, _KEPT_VALUES // (steps + 1))
    )

    rows = [
        [rep, mass, dev, sum(acc[0] for acc in moments.values())]
        for rep, mass, dev, moments in results
    ]
    worst_mass = max(r[1] for r in results)
    reports = [
        _report("kernel-mass", worst_mass, 1e-12, worst_mass <= 1e-12, n_ens)
    ]
    for side, name in ((1, "moment-plus"), (-1, "moment-minus")):
        count, total, total_sq = (
            np.sum([r[3][side][i] for r in results], axis=0) for i in range(3)
        )
        if count:
            reports.append(_moment_report(name, total, total_sq, count, ray_ratios(spec, side)))

    # filtering and projection probe the first excursion of a fresh replica
    # down a side of two rays or more: on one ray both bands are 0 and test
    # nothing, so a graph without a wider side skips them
    flow = _single_start_kernel_flow(config, spec, n_ens + 1)
    excursions = extract_ray_weights(flow, 0)
    probes = [(side, g + 1) for side, g, _d, _w in excursions if len(spec.side_rays(side)) > 1]
    replicas = min(config.replicas, 10000)
    if probes:
        side, k = probes[0]
        # filtering: fixed coins and weights, redraw the ray choice
        freq, weights, _ = filter_mapping_to_kernel(flow, 0, k, replicas)
        reports.append(_band_report("filtering", freq, weights, replicas))

        # projection: fixed coins, redraw weights and ray choice together;
        # the noise-measurable kernel splits by the side's ray ratios. Its
        # choice indices follow filtering's 0..replicas-1, so the two bands
        # share no choice uniform, and skip draw index 0, the flow's own weights
        rays = mapping_rays(flow, 0, k, range(replicas, 2 * replicas), redraw=True)
        reference = np.asarray(ray_ratios(spec, side))
        freq = np.bincount(rays - spec.side_rays(side).start, minlength=len(reference))
        reports.append(_band_report("wiener-projection", freq / replicas, reference, replicas))
    else:
        for name in ("filtering", "wiener-projection"):
            reports.append(_report(name, 0.0, 0.0, True, replicas, skipped=1.0))

    headers = ["replica", "mass_error", "wiener_deviation", "excursions"]
    return [("", headers, rows)], reports


# --- tanaka-special-case ---------------------------------------------------


def _cmd_tanaka_special_case(config: ExperimentConfig):
    rows = []
    reports = []

    # both rays positive: kernel weights after the junction visit are (1/2, 1/2)
    tanaka = validate_spec((0.5, 0.5), (1, 1))
    sampler = MeasurePairSampler(tanaka, "wiener")
    flow_config = LatticeFlowConfig(
        level=min(config.level, 5), horizon=1.0, start_pairs=((0.0, tanaka.origin),)
    )
    (stream,) = _replica_streams(config, 1, 1)
    flow = sample_kernel_flow(flow_config, tanaka, sampler, stream)
    ens = flow.ensemble
    # every stride-th index inside an excursion reads its row
    devs = [float(np.max(np.abs(w - 0.5))) for _side, _g, _d, w in extract_ray_weights(flow, 0)]
    probes = np.arange(0, ens.steps + 1, max(1, ens.steps // 32))
    for k, row in zip(probes.tolist(), ens.excursion_row(0, probes).tolist()):
        if row >= 0:
            rows.append(["tanaka-weights", k, float(ens.traj[0, k]), devs[row]])
    worst = max(devs, default=0.0)
    reports.append(_report("tanaka-split", worst, 0.0, worst == 0.0, ens.steps))

    # one positive and one negative ray: the scalar marginal sign law
    skew = validate_spec((0.7, 0.3), (1, -1))
    level = 3
    dt = 4.0 ** (-level)
    odd_steps = 4**level + 1
    sign_config = LatticeFlowConfig(
        level=level, horizon=odd_steps * dt, start_pairs=((0.0, skew.origin),)
    )
    n_sign = min(config.replicas, 2000)
    positive = 0
    for rep, stream in enumerate(_replica_streams(config, 1000, n_sign)):
        ens = skew_lattice_flow(sign_config, skew, stream)
        value = int(ens.traj[0, odd_steps])
        rows.append(["sign-law", rep, float(value), float(value > 0)])
        if value > 0:
            positive += 1
    freq = positive / n_sign
    sigma = math.sqrt(skew.alpha_plus * (1 - skew.alpha_plus) / n_sign)
    z = abs(freq - skew.alpha_plus) / sigma
    reports.append(
        _report("sign-law", z, 3.0, z <= 3.0, n_sign, frequency=freq)
    )

    headers = ["case", "index", "value", "deviation"]
    return [("", headers, rows)], reports


COMMANDS = {
    "verify-semigroup": _cmd_verify_semigroup,
    "simulate-wbm": _cmd_simulate_wbm,
    "walk-converge": _cmd_walk_converge,
    "verify-freidlin-sheu": _cmd_verify_freidlin_sheu,
    "flow-experiment": _cmd_flow_experiment,
    "kernel-experiment": _cmd_kernel_experiment,
    "tanaka-special-case": _cmd_tanaka_special_case,
}


def run(subcommand: str, config: ExperimentConfig) -> list[TestReport]:
    """Run one subcommand, write artifacts, return its reports.

    Raises CheckFailed when a mandatory check failed (artifacts are
    still written first), Io when artifacts cannot be written.
    """
    if subcommand not in COMMANDS:
        raise ConfigInvalid(f"unknown subcommand {subcommand!r}")
    config.validate()
    tables, reports = COMMANDS[subcommand](config)
    base = subcommand.replace("-", "_")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise Io(f"cannot create {config.out_dir!r}: {exc}") from exc
    for suffix, headers, rows in tables:
        name = base + (f"_{suffix}" if suffix else "") + ".csv"
        emit_csv(rows, headers, os.path.join(config.out_dir, name))
    _write_reports(reports, os.path.join(config.out_dir, base + "_reports.jsonl"))
    for report in reports:
        marker = "PASS" if report.passed else "FAIL"
        line = (f"[{marker}] {report.name}: statistic={report.statistic:.6g} "
                f"threshold={report.threshold:.6g} replicas={report.replicas}")
        if not report.passed:
            # a report may fail on a detail, not its headline statistic
            line += "".join(f" {k}={v:.6g}" for k, v in sorted(report.details.items()))
        print(line)
    if not all(r.passed for r in reports):
        raise CheckFailed(f"{subcommand}: a mandatory check failed")
    return reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshflow",
        description="Simulation and verification experiments on star graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="INI config path (defaults built in)")
        cmd.add_argument("--seed", type=int, help="root seed override")
        cmd.add_argument("--replicas", type=int, help="replica count override")
        cmd.add_argument("--out", help="output directory override")
        cmd.add_argument("--workers", type=int, help="worker pool size override")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    seed: Optional[int] = None
    env_seed = os.environ.get("WALSH_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigInvalid(f"WALSH_SEED is not an integer: {env_seed!r}") from exc
    if args.seed is not None:
        seed = args.seed
    overrides = {}
    if seed is not None:
        overrides["root_seed"] = seed
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        config = replace(config, **overrides)
    return config.validate()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _resolve_config(args)
        run(args.subcommand, config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except Io as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # surface anything unexpected as a runtime failure
        traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

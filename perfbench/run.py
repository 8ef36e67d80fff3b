"""Time-to-verdict benchmark for the seven walshflow subcommands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a walshflow checkout. Each subcommand invocation runs
`walshflow.cli.run` at the default config, with `workers=1` and the seed as
`root_seed`, in a fresh Python process (perfbench/child.py). One client
runs the workload's subcommands serially in rounds, closed loop, for S
seconds. With `--trace 1` half the time is spent untraced and half traced:
the traced rounds wrap every walshflow function from outside
(perfbench/spans.py) and give calls and self time per function and layer.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (subcommand invocations), and the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Standard
error lists every metric with its unit and sample count, and the whole run
record, with machine context, host-speed probes and artifact digests, is
written under `.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import LAYERS, load_aggregate

WORKLOADS = {
    "flow-lattice": ("flow-experiment",),
    "excursion-draws": ("simulate-wbm", "verify-freidlin-sheu", "kernel-experiment"),
    "short-calls": ("verify-semigroup", "walk-converge", "tanaka-special-case"),
}
SUBCOMMANDS = (
    "verify-semigroup",
    "simulate-wbm",
    "walk-converge",
    "verify-freidlin-sheu",
    "flow-experiment",
    "kernel-experiment",
    "tanaka-special-case",
)
MIN_SETUP_SAMPLES = 7  # set-up-only processes after the rounds top setup_s up to this
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

FUNCTION_METRICS = {
    "flows.skew_lattice_flow": ("calls", "self_s"),
    "flows.merge_level_samples": ("self_s",),
    "flows.FlowEnsemble.merge_record": ("calls",),
    "flows.coalescence_time": ("self_s",),
    "flows.KernelFlow.kernel_at": ("calls", "self_s"),
    "flows.KernelFlow.excursion_weights": ("calls", "self_s"),
    "flows.MappingFlow._excursion_ray": ("calls", "self_s"),
    "flows.MappingFlow.point_at": ("calls", "self_s"),
    "flows.extract_ray_weights": ("self_s",),
    "paths.dyadic_label": ("calls", "self_s", "distinct_frac"),
    "paths.RngStream.generator": ("calls", "self_s", "distinct_frac"),
    "paths.wbm_flip_construct": ("calls", "self_s"),
    "paths.freidlin_sheu_residual": ("self_s",),
    "paths.sample_wbm_exact": ("self_s",),
    "paths.scaled_walk_marginal": ("self_s",),
    "semigroup.halfline_convolution": ("calls", "self_s"),
    "semigroup.wbm_semigroup_apply": ("calls", "self_s"),
    "semigroup.tabulate_semigroup": ("self_s",),
    "semigroup.generator_residual": ("self_s",),
    "semigroup.semigroup_derivative": ("self_s",),
    "graph.vector_eval": ("calls", "self_s"),
    "stats.marginal_vs_semigroup": ("self_s",),
    "stats.ks_statistic": ("self_s",),
    "stats.powerlaw_fit_coalescence": ("self_s",),
    "cli.run": ("self_s",),
    "cli.emit_csv": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "distinct_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, fields in FUNCTION_METRICS.items():
        for field in fields:
            units[f"{name}.{field}"] = FIELD_UNITS[field]
    for sub in SUBCOMMANDS:
        units[f"cmd_s.{sub}"] = "s"
    units["cli.artifact_bytes"] = "bytes"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def host_probe() -> dict[str, float]:
    """A fixed pure-Python loop and a fixed numpy sort, timed once each."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    python_s = time.perf_counter() - t
    data = np.random.default_rng(0).random(1_000_000)
    t = time.perf_counter()
    np.sort(data)
    numpy_s = time.perf_counter() - t
    return {"python_loop_s": python_s, "numpy_sort_s": numpy_s}


def machine_context(root: str) -> dict:
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "walshflow", "*.py"))):
        with open(path, "rb") as handle:
            source.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "walshflow_commit": commit,
        "walshflow_source_sha256": source.hexdigest(),
    }


class Runner:
    """Starts child processes, one invocation each, and collects their records."""

    def __init__(self, root: str, run_dir: str, seed: int, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self.deadline = deadline
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        self.env = dict(os.environ)
        self.env.pop("WALSH_SEED", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.invocations: list[dict] = []

    def invoke(self, subcommand: str, traced: bool = False, setup_only: bool = False) -> dict:
        idx = len(self.invocations)
        out = os.path.join(self.run_dir, "artifacts", str(idx))
        result = os.path.join(self.run_dir, f"invocation-{idx}.json")
        cmd = [
            sys.executable, self.child, "--subcommand", subcommand,
            "--seed", str(self.seed), "--out", out, "--result", result,
            "--invocation", str(idx),
        ]
        spans = None
        if traced:
            spans = os.path.join(self.run_dir, "spans", f"{idx}.npz")
            cmd += ["--spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        record = {"invocation": idx, "subcommand": subcommand, "traced": traced,
                  "setup_only": setup_only}
        self.invocations.append(record)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            record["error"] = "run deadline passed"
            return record
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            record["error"] = "timed out"
            return record
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            record["error"] = proc.stderr[-2000:]
            return record
        with open(result, encoding="utf-8") as handle:
            record.update(json.load(handle))
        os.remove(result)
        if spans is not None:
            record["spans"] = os.path.relpath(spans, self.root)
            record["trace"] = load_aggregate(spans)
        return record

    def rounds(self, subcommands, budget: float, traced: bool) -> list[list[dict]]:
        """Closed loop, one client: start a round only if one more of the
        longest round so far still ends within the budget; run at least one."""
        done = []
        start = time.monotonic()
        longest = 0.0
        while True:
            t = time.monotonic()
            done.append([self.invoke(sub, traced=traced) for sub in subcommands])
            longest = max(longest, time.monotonic() - t)
            if any("error" in inv for inv in done[-1]):
                break
            if time.monotonic() - start + longest > budget:
                break
        return done


def op_failed(inv: dict) -> bool:
    """An op fails when the program does not deliver its verdicts: the child
    errs, a report or CSV is missing, or the exit code is not the one the
    verdicts call for (0 when all pass, 1 when a check fails). A failing
    verdict is the program's answer at this seed, not a failed op: the
    stochastic checks have a false-alarm rate, so some seeds fail them."""
    if "error" in inv or not inv.get("verdicts"):
        return True
    base = inv["subcommand"].replace("-", "_")
    names = set(inv.get("artifacts", {}))
    if f"{base}_reports.jsonl" not in names or not any(n.endswith(".csv") for n in names):
        return True
    return inv.get("exit_code") != (0 if all(inv["verdicts"].values()) else 1)


def failed_verdicts(invocations: list[dict]) -> list[str]:
    """`<subcommand>:<report>` for every failing verdict, once each."""
    return sorted({
        f"{inv['subcommand']}:{name}"
        for inv in invocations
        for name, passed in inv.get("verdicts", {}).items()
        if not passed
    })


def digest_map(inv: dict) -> dict:
    return {name: a["sha256"] for name, a in inv.get("artifacts", {}).items()}


def mismatched_digests(invocations: list[dict]) -> set[int]:
    """Invocations of a subcommand whose artifacts differ from another
    invocation of it in this run (all of those invocations fail)."""
    bad = set()
    for sub in {inv["subcommand"] for inv in invocations}:
        same = [inv for inv in invocations if inv["subcommand"] == sub and "artifacts" in inv]
        if len({json.dumps(digest_map(inv), sort_keys=True) for inv in same}) > 1:
            bad.update(inv["invocation"] for inv in same)
    return bad


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(untraced: list[list[dict]], setups: list[dict]) -> dict:
    ok = [r for r in untraced if all("run_s" in inv for inv in r)]
    walls = [sum(inv["run_s"] for inv in r) for r in ok]
    invs = [inv for r in untraced for inv in r]
    setup = [inv["setup_s"] for inv in setups + invs if "setup_s" in inv]
    rss = [inv["maxrss_kb"] for inv in setups + invs if "maxrss_kb" in inv]
    # Rounds repeat identical work, so their spread is the host's. Its speed
    # switches between a fast and a slow state, and the median of a few
    # rounds jumps from one state to the other; the mean moves smoothly.
    metrics = {
        "wall_s": metric(statistics.mean(walls), "s", len(walls)) if walls else None,
        "setup_s": metric(statistics.median(setup), "s", len(setup)) if setup else None,
        "peak_rss_mb": metric(max(rss) / 1024.0, "MB", len(rss)) if rss else None,
    }
    for sub in SUBCOMMANDS:
        times = [inv["run_s"] for inv in invs if inv["subcommand"] == sub and "run_s" in inv]
        if times:
            metrics[f"cmd_s.{sub}"] = metric(statistics.mean(times), "s", len(times))
    return {k: v for k, v in metrics.items() if v is not None}


def per_layer(untraced: list[list[dict]], traced: list[list[dict]], e2e: dict) -> tuple[dict, bool]:
    """Per-layer metrics from the traced rounds; traced figures are means
    per round, so the layers' self times add up to trace.wall_s. Returns
    the metrics and whether call counts repeated exactly across rounds."""
    counts, self_ns, walls = [], [], []
    for r in traced:
        calls, own, root = {}, {}, 0
        for inv in r:
            root += inv["trace"]["root_ns"]
            for name, agg in inv["trace"]["names"].items():
                calls[name] = calls.get(name, 0) + agg["calls"]
                own[name] = own.get(name, 0) + agg["self_ns"]
        counts.append(calls)
        self_ns.append(own)
        walls.append(root)
    repeat = all(c == counts[0] for c in counts)
    n = len(traced)
    calls = counts[0]
    mean_s = {
        name: sum(own.get(name, 0) for own in self_ns) / n / 1e9
        for name in set().union(*self_ns)
    }
    distinct = {}
    for inv in traced[0]:
        for name, d in inv.get("distinct", {}).items():
            distinct[name] = distinct.get(name, 0) + d

    units = per_layer_units()
    values = {}
    for layer in LAYERS:
        prefix = layer + "."
        values[f"{layer}.calls"] = sum(c for k, c in calls.items() if k.startswith(prefix))
        values[f"{layer}.self_s"] = sum(s for k, s in mean_s.items() if k.startswith(prefix))
    for name, fields in FUNCTION_METRICS.items():
        for field in fields:
            if field == "calls":
                value = calls.get(name, 0)
            elif field == "self_s":
                value = mean_s.get(name, 0.0)
            else:
                value = distinct.get(name, 0) / calls[name] if calls.get(name) else 0.0
            values[f"{name}.{field}"] = value
    for sub in SUBCOMMANDS:
        values[f"cmd_s.{sub}"] = e2e.get(f"cmd_s.{sub}", {}).get("value", 0.0)
    values["cli.artifact_bytes"] = sum(
        a["bytes"] for inv in untraced[0] for a in inv.get("artifacts", {}).values()
    )
    values["trace.wall_s"] = sum(walls) / n / 1e9
    values["trace.overhead_s"] = values["trace.wall_s"] - e2e["wall_s"]["value"]
    samples = {name: n for name in units}
    for sub in SUBCOMMANDS:
        samples[f"cmd_s.{sub}"] = e2e.get(f"cmd_s.{sub}", {}).get("samples", 0)
    samples["cli.artifact_bytes"] = 1
    return {k: metric(values[k], units[k], samples[k]) for k in units}, repeat


def previous_record(out_root: str, workload: str, seed: int, run_dir: str):
    """Path of the latest earlier record of this workload and seed, if any."""
    pattern = os.path.join(out_root, f"{workload}-seed{seed}-*", "record.json")
    earlier = [p for p in glob.glob(pattern) if os.path.dirname(p) != run_dir]
    return max(earlier, key=os.path.getmtime) if earlier else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "walshflow", "cli.py")):
        print("perfbench: run from the root of a walshflow checkout "
              "(src/walshflow/cli.py not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    out_root = os.path.join(root, ".perfbench-out")
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(
        out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    )
    os.makedirs(os.path.join(run_dir, "spans"))

    runner = Runner(root, run_dir, args.seed, started + DEADLINE_S)
    subcommands = WORKLOADS[args.workload]
    probe_start = host_probe()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.rounds(subcommands, budget, traced=False)
    traced = runner.rounds(subcommands, budget, traced=True) if args.trace else []
    setups = [
        runner.invoke(subcommands[0], setup_only=True)
        for _ in range(MIN_SETUP_SAMPLES - len(runner.invocations))
    ]
    probe_end = host_probe()

    ops = [inv for r in untraced + traced for inv in r]
    bad_digests = mismatched_digests(ops)
    failed = sum(1 for inv in ops if op_failed(inv) or inv["invocation"] in bad_digests)
    e2e = end_to_end(untraced, setups)
    correct = (
        failed == 0
        and set(END_TO_END_UNITS) <= set(e2e)
        and not any("error" in inv for inv in setups)
    )
    layers = {}
    if args.trace and correct:
        layers, counts_repeat = per_layer(untraced, traced, e2e)
        correct = counts_repeat
    digests = {}
    for inv in ops:
        if "artifacts" in inv:
            digests.setdefault(inv["subcommand"], digest_map(inv))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": machine_context(root),
        "host_probe": {"start": probe_start, "end": probe_end},
        "correct": correct,
        "ops_total": len(ops),
        "ops_failed": failed,
        "verdicts_failed": failed_verdicts(ops),
        "metrics": {**e2e, **layers},
        "artifact_sha256": digests,
        "invocations": runner.invocations,
        "elapsed_s": time.monotonic() - started,
    }
    previous = previous_record(out_root, args.workload, args.seed, run_dir)
    if previous is not None:
        with open(previous, encoding="utf-8") as handle:
            before = json.load(handle)["artifact_sha256"]
        if before != digests:
            # reported, never failed: a commit may declare an RNG-stream change
            record["artifacts_changed_since"] = os.path.relpath(previous, root)
            print(f"perfbench: artifact digests differ from {record['artifacts_changed_since']}",
                  file=sys.stderr)
    shutil.rmtree(os.path.join(run_dir, "artifacts"), ignore_errors=True)
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} failed={failed} correct={correct}", file=sys.stderr)
    for name in record["verdicts_failed"]:
        print(f"  check failed at this seed (a verdict, not a failed op): {name}",
              file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}",
              file=sys.stderr)
    print(f"  record: {os.path.relpath(run_dir, root)}/record.json", file=sys.stderr)

    chosen = layers if args.trace else {k: e2e[k] for k in END_TO_END_UNITS if k in e2e}
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

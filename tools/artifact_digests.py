"""Print a SHA-256 manifest of the walshflow CLI's artifacts.

Runs each of the seven subcommands at every given seed and worker count,
each in a fresh process and its own output directory, and prints one
sorted line per CSV and _reports.jsonl artifact, plus one line per run
with its exit code. kernel-experiment also runs under each measure pair
of DRAWING_MEASURES, from an INI file holding the checkout's default
config with that pair, so the manifest covers laws that draw weights as
well as the default point mass. Two checkouts produce the same artifacts
exactly when their manifests are equal:

    python3 tools/artifact_digests.py > new.txt
    python3 tools/artifact_digests.py --src ../other-checkout/src > old.txt
    diff old.txt new.txt

--src picks the walshflow source tree to run (by default the one next to
this script), so a checkout without this script can be measured too.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = (
    "verify-semigroup",
    "simulate-wbm",
    "walk-converge",
    "verify-freidlin-sheu",
    "flow-experiment",
    "kernel-experiment",
    "tanaka-special-case",
)

# (plus, minus) measure pairs kernel-experiment runs under besides the default
DRAWING_MEASURES = (("dirichlet:4", "dirichlet:0.5"), ("dirac-vertices", "dirac-vertices"))

# prints the default config of the walshflow on PYTHONPATH with the measure
# pair given as its two arguments
_CONFIG_SCRIPT = """
import sys
from dataclasses import replace
from walshflow.cli import DEFAULT_CONFIG, serialize_config
plus, minus = sys.argv[1:]
sys.stdout.write(serialize_config(replace(DEFAULT_CONFIG, measure_plus=plus, measure_minus=minus)))
"""


def _runs(tmp: str, env: dict) -> list[tuple[str, list[str]]]:
    """(name, subcommand and its arguments) per run: every subcommand
    with the default config, then kernel-experiment with a config file
    per drawing measure pair, written into tmp."""
    runs = [(cmd, [cmd]) for cmd in SUBCOMMANDS]
    for plus, minus in DRAWING_MEASURES:
        path = Path(tmp, f"measure-{plus}-{minus}.ini")
        argv = [sys.executable, "-c", _CONFIG_SCRIPT, plus, minus]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        path.write_text(done.stdout, encoding="utf-8")
        cmd = ["kernel-experiment", "--config", str(path)]
        runs.append((f"kernel-experiment@{plus},{minus}", cmd))
    return runs


def manifest(src: Path, seeds, workers) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("WALSH_SEED", None)
    lines = []
    with tempfile.TemporaryDirectory(prefix="walshflow-digests-") as tmp:
        for name, cmd in _runs(tmp, env):
            for seed in seeds:
                for w in workers:
                    run = f"{name}/seed{seed}/workers{w}"
                    out = Path(tmp, run)
                    argv = [sys.executable, "-m", "walshflow.cli", *cmd,
                            "--seed", str(seed), "--workers", str(w), "--out", str(out)]
                    done = subprocess.run(argv, env=env, capture_output=True, text=True)
                    lines.append(f"exit {done.returncode}  {run}")
                    if not out.is_dir():
                        continue
                    for path in sorted(out.iterdir()):
                        if path.suffix == ".csv" or path.name.endswith("_reports.jsonl"):
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            lines.append(f"{digest}  {run}/{path.name}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src)
    parser.add_argument("--seeds", type=int, nargs="+", default=[20240, 777])
    # 3 workers split kernel-experiment's 200 replicas into 67, 67 and 66
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    if not (args.src / "walshflow" / "cli.py").is_file():
        parser.error(f"{args.src} holds no walshflow package")
    for line in manifest(args.src.resolve(), args.seeds, args.workers):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

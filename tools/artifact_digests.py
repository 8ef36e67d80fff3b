"""Print a SHA-256 manifest of the walshflow CLI's artifacts.

Runs each of the seven subcommands at every given seed and worker count,
each in a fresh process and its own output directory, and prints one
sorted line per CSV and _reports.jsonl artifact, plus one line per run
with its exit code. Two checkouts produce the same artifacts exactly when
their manifests are equal:

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


def manifest(src: Path, seeds, workers) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("WALSH_SEED", None)
    lines = []
    with tempfile.TemporaryDirectory(prefix="walshflow-digests-") as tmp:
        for cmd in SUBCOMMANDS:
            for seed in seeds:
                for w in workers:
                    run = f"{cmd}/seed{seed}/workers{w}"
                    out = Path(tmp, run)
                    argv = [sys.executable, "-m", "walshflow.cli", cmd,
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
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()
    if not (args.src / "walshflow" / "cli.py").is_file():
        parser.error(f"{args.src} holds no walshflow package")
    for line in manifest(args.src.resolve(), args.seeds, args.workers):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

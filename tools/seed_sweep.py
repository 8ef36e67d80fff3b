"""Count how often each check of a walshflow subcommand fails over a range of seeds.

Runs one subcommand in this process at every seed of the range, at the
default config or at the INI file given with --config, and prints one line
per report name: its failures out of the N seeds, the 95% Wilson score
interval of its failure rate, and the seeds it failed at. No artifact is
written. A sweep of the checkout against another one:

    python3 tools/seed_sweep.py verify-freidlin-sheu --first 1000 --count 200
    python3 tools/seed_sweep.py verify-freidlin-sheu --first 1000 --count 200 \\
        --src ../other-checkout/src

--src picks the walshflow source tree to run (by default the one next to
this script).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

# two-sided 95% normal quantile
_Z95 = 1.959964


def wilson_interval(failures: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial rate with `failures` of n."""
    z = _Z95
    p = failures / n
    scale = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / scale
    half = z / scale * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return max(center - half, 0.0), min(center + half, 1.0)


def sweep(command, config, seeds) -> dict[str, list[int]]:
    """Failing seeds per report name of one walshflow.cli.COMMANDS entry, in
    the order the reports first appear."""
    failed: dict[str, list[int]] = {}
    for seed in seeds:
        _tables, reports = command(replace(config, root_seed=seed).validate())
        for report in reports:
            failed.setdefault(report.name, [])
            if not report.passed:
                failed[report.name].append(seed)
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("subcommand")
    parser.add_argument("--first", type=int, default=1000, help="first seed")
    parser.add_argument("--count", type=int, default=100, help="number of seeds")
    parser.add_argument("--config", help="INI config path (defaults built in)")
    parser.add_argument("--src", type=Path, default=default_src)
    args = parser.parse_args()
    if not (args.src / "walshflow" / "cli.py").is_file():
        parser.error(f"{args.src} holds no walshflow package")
    if args.count < 1:
        parser.error("--count must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    from walshflow.cli import COMMANDS, DEFAULT_CONFIG, load_config

    if args.subcommand not in COMMANDS:
        parser.error(f"unknown subcommand {args.subcommand!r}")
    config = load_config(args.config) if args.config else DEFAULT_CONFIG
    seeds = range(args.first, args.first + args.count)
    print(f"{args.subcommand}: seeds {seeds.start}..{seeds.stop - 1}, N={len(seeds)}")
    for name, failing in sweep(COMMANDS[args.subcommand], config, seeds).items():
        low, high = wilson_interval(len(failing), len(seeds))
        line = f"{name}: failed {len(failing)}/{len(seeds)}, 95% [{low:.4f}, {high:.4f}]"
        if failing:
            line += " at seeds " + " ".join(map(str, failing))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One walshflow subcommand invocation, in a fresh process as a user runs it.

Times the import of `walshflow.cli` plus building and validating the config
(set-up), then `walshflow.cli.run` (time to verdict), and writes one JSON
record: both times, the exit code `walshflow.cli.main` would give, each
report's verdict, each artifact's SHA-256 and size, and `ru_maxrss`. With
`--spans PATH` the walshflow modules are wrapped after set-up and the spans
of the run are saved to PATH.

    python3 perfbench/child.py --subcommand NAME --seed N --out DIR --result FILE
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _digests(out_dir: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        found[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return found


def _verdicts(out_dir: str, subcommand: str) -> dict:
    path = os.path.join(out_dir, subcommand.replace("-", "_") + "_reports.jsonl")
    verdicts = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                report = json.loads(line)
                verdicts[report["name"]] = bool(report["passed"])
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--invocation", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_setup = time.perf_counter()
    import walshflow.cli as cli
    from dataclasses import replace

    config = replace(
        cli.DEFAULT_CONFIG, root_seed=args.seed, out_dir=args.out, workers=1
    ).validate()
    record = {"setup_s": time.perf_counter() - t_setup}

    if not args.setup_only:
        tracer = None
        if args.spans:
            from spans import Tracer  # this file's directory is on sys.path

            tracer = Tracer(args.invocation)
            tracer.install()
        exit_code = 0
        t_run = time.perf_counter()
        try:
            cli.run(args.subcommand, config)
        except cli.CheckFailed:
            exit_code = 1
        except cli.ConfigInvalid:
            exit_code = 2
        except Exception as exc:  # cli.main maps Io and anything else to 3
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            exit_code = 3
        record["run_s"] = time.perf_counter() - t_run
        record["exit_code"] = exit_code
        record["verdicts"] = _verdicts(args.out, args.subcommand)
        record["artifacts"] = _digests(args.out)
        if tracer is not None:
            tracer.save(args.spans)
            record["distinct"] = tracer.distinct()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

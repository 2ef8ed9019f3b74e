#!/usr/bin/env python3
"""Builds and runs the HYDRA-C stack benchmark.

    python3 perfbench/run.py --workload <sweep|admit|admit_durable> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the benchmark package
(perfbench/Cargo.toml) and the standby daemon (`rts_adaptd`, from the
repository's own workspace) in release mode into $CARGO_TARGET_DIR
(default: .bench_build), runs the benchmark binary, echoes its run
record and check lines, prints every metric it measured, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. The
metrics are the `end_to_end` list of BENCHMARK.json with --trace 0 and
the `per_layer` list with --trace 1. Exits non-zero, after that line,
when any output check failed; exits non-zero without it when the build
or the run itself fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "rts-adapt", "--bin", "rts_adaptd"],
    ):
        # Cargo's output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "admit", "admit_durable"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    if not build(target):
        return 1
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--standby-bin", os.path.join(target, "release", "rts_adaptd"),
           "--work", os.path.join(HERE, "work")]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    result = None
    for line in run.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        log(f"benchmark exited with {run.returncode} and no result")
        return 1

    measured = result["metrics"]
    for name in sorted(measured):
        m = measured[name]
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    missing = [m["name"] for m in wanted
               if m["name"] not in measured or measured[m["name"]]["unit"] != m["unit"]]
    if missing:
        log(f"metrics not measured (or in another unit): {', '.join(missing)}")
    failed = int(result["failed"])
    correct = run.returncode == 0 and failed == 0 and not missing
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {m["name"]: measured[m["name"]] for m in wanted
                    if m["name"] not in missing},
    }
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

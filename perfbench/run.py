#!/usr/bin/env python3
"""Build and run the qnlg benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench` (release, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload under
a wall-clock watchdog, checks that the result line names exactly the
metrics `BENCHMARK.json` lists for that mode (end-to-end with `--trace 0`,
per-layer with `--trace 1`) with their units, and prints it as the last
line of standard output.

A run the watchdog kills is reported as failed, naming the workload. Exit
status is 0 only for a correct run; a failed build prints no result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# The contract allows 180 s per run; leave room to report a kill.
WATCHDOG_CAP_S = 170


def fail_line(reason):
    print(f"perfbench: {reason}", file=sys.stderr)
    return json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})


def validate(result, expected):
    """Returns a list of problems with the binary's result line."""
    missing = [k for k in ("correct", "attempted", "failed", "metrics") if k not in result]
    if missing:
        return [f"result has no {k!r}" for k in missing]
    got = result["metrics"]
    problems = []
    for name, unit in expected.items():
        entry = got.get(name)
        if entry is None:
            problems.append(f"metric {name} missing")
        elif entry.get("unit") != unit:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        elif not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"metric {name} value {entry.get('value')!r} is not a finite number")
    problems += [f"metric {name} is not listed in BENCHMARK.json" for name in got if name not in expected]
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    layer = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer]}

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(ROOT, target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    limit = min(WATCHDOG_CAP_S, 4 * args.seconds + 60)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(fail_line(f"watchdog: workload {args.workload} (seed {args.seed}) still running "
                        f"after {limit:.0f} s; killed and counted as failed"))
        return 1

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        print(fail_line(f"workload {args.workload} exited {proc.returncode} without a result line"))
        return 1
    problems = validate(result, expected)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems:
        result["correct"] = False
        result["failed"] = result.get("attempted", 1)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the dmst wallclock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the `perfbench` binary (release, offline, into
$CARGO_TARGET_DIR, default `.bench_build`) and runs one workload in a process
of its own. The binary's report goes to stdout; its last line is the result
JSON. With `--trace 1` the recorded spans are written as JSON lines to
`<target dir>/perfbench-traces/`.

`--smoke` runs the benchmark's unit tests, then every workload at reduced
size in both trace modes, and checks that each metric named in
BENCHMARK.json is printed with its unit and a finite value.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
# A run must end within 180 s; leave the binary a little less.
RUN_TIMEOUT_S = 170


def cargo_env():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    return env


def cargo(env, *args):
    """Runs a cargo command on the benchmark package; its output goes to stderr."""
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", str(MANIFEST)]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def run_binary(env, args):
    """Runs the built binary; returns (exit code, stdout)."""
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    proc = subprocess.run(
        [str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    return proc.returncode, proc.stdout


def result_of(stdout):
    """The result JSON on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def smoke(env):
    cargo(env, "test")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace {trace}"
            code, out = run_binary(
                env, ["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
            )
            result = result_of(out) if code == 0 else None
            if result is None:
                problems.append(f"{label}: exit code {code}, no result")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct {result['correct']}, failed {result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{label}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is not None and (m["unit"] != unit or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])):
                    problems.append(f"{label}: {name} = {m}, want a finite value in {unit}")
            print(f"smoke {label}: {len(got)} metrics, {result['attempted']} checks", flush=True)
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    env = cargo_env()
    try:
        cargo(env, "build")
        if args.smoke:
            return smoke(env)
        if args.workload is None:
            ap.error("--workload is required")
        bench_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        bench_args += ["--trace", str(args.trace)]
        if args.trace:
            traces = Path(env["CARGO_TARGET_DIR"]) / "perfbench-traces"
            traces.mkdir(parents=True, exist_ok=True)
            bench_args += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
        code, out = run_binary(env, bench_args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if code != 0 or result_of(out) is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the host-clock benchmark of the Cornflakes stack.

    python3 perfbench/run.py --workload twitter_udp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark (a Cargo package of its own
in this directory) is built in release mode into $CARGO_TARGET_DIR, default
`.bench_build`, then run for one workload. Its last stdout line, which this
script prints last as well, is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones; the spans of a traced run are written to
`.bench_out/`. The script exits non-zero without printing a result when the
build fails, the run fails or times out, or the metrics the run printed are
not exactly the ones BENCHMARK.json lists.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = spec["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in listed}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"built binary missing at {binary}")
    return binary


def run(binary, args):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", str(spans),
    ]
    # Own process group, so a timeout also stops the set-up children.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"run exited with code {proc.returncode}")
    return stdout.splitlines()


def check(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys are not {sorted(RESULT_KEYS)}: {line!r}")
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, wrong unit {units}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["twitter_udp", "cdn_tcp", "cluster_rw"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    lines = run(build(), args)
    if not lines:
        fail("run printed nothing")
    check(lines[-1], args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

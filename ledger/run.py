#!/usr/bin/env python3
"""Build and run the perf ledger for one workload; print its metrics.

Run from the repository root:

    python3 ledger/run.py --workload forum-chain --seed 1 --seconds 10 --trace 0

The first run configures and builds `bench_ledger` (Release) under
`$CARGO_TARGET_DIR/ledger` (default `.bench_build/ledger`); later runs reuse it. Spill
files and traces are written under the same build directory. Standard output carries the
program's full JSON record and, as its last line, a summary object
{"correct", "attempted", "failed", "metrics"} holding every end-to-end metric of
BENCHMARK.json (--trace 0) or every per-layer metric (--trace 1).
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ledger/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", build_dir, "--target", "bench_ledger", "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "bench_ledger")


def run(binary, args, build_dir):
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={os.path.join(build_dir, 'work')}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(build_dir, 'trace')}")
    # Own process group, so a timeout stops the verifier child too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"bench_ledger did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        fail(f"bench_ledger exited {proc.returncode} without a result")
    return json.loads(lines[-1]), lines[-1], proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "ledger")

    binary = build(build_dir)
    record, raw, code = run(binary, args, build_dir)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"bench_ledger did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(raw)
    print(json.dumps({"correct": bool(record["ok"]) and code == 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}))
    sys.exit(0 if record["ok"] and code == 0 else 1)


if __name__ == "__main__":
    main()

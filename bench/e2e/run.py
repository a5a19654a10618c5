#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--threads <k>] [--record <file.jsonl>]

Run from anywhere; paths resolve against the repository root (two levels
above this file). The first call configures and builds `sge_bench` and the
library it links into build-e2e/ (CMake, RelWithDebInfo); later calls only
rebuild what changed. The driver's output is passed through, and its last
line is the run's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1, which also writes a Chrome trace to
build-e2e/run/). --record appends {"workload", "seed", "seconds", "trace",
"result"} as one JSON line to a file, the input bench/e2e/compare.py reads.

Exits non-zero without printing a result when the build, the run, or the
result's check against BENCHMARK.json fails. Everything is written inside
the repository checkout: build-e2e/ holds the build, the spill files and
the traces, and TMPDIR points into it.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-e2e"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, env, timeout, stdout):
    """Runs cmd in its own process group and returns (exit code, stdout
    text or None). On timeout the whole group (a build's compilers too) is
    killed and waited for, and the run fails."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def run_quiet(cmd, env, timeout):
    """Runs a build step, sending its output to stderr."""
    code, _ = run_bounded(cmd, env, timeout, sys.stderr)
    if code != 0:
        fail(f"failed ({code}): {' '.join(cmd)}")


def build(env):
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                  env, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(BUILD), "--target", "sge_bench",
               "--parallel", str(os.cpu_count() or 1)], env, BUILD_TIMEOUT_S)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the driver's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail("the driver's metrics do not match BENCHMARK.json")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int)
    ap.add_argument("--record")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} does not hold the library sources (CMakeLists.txt, src/)")
    scratch = BUILD / "run"
    tmp = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(env)

    cmd = [str(BUILD / "sge_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scratch", str(scratch)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        cmd += ["--trace", str(scratch / f"trace-{args.workload}-seed{args.seed}.json")]
    code, out = run_bounded(cmd, env, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"sge_bench exited with {code}")
    result = check_result(lines[-1], args.trace)

    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "result": result}) + "\n")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

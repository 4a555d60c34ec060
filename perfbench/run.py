#!/usr/bin/env python3
"""Build and run the translate->simulate benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper_compute|paper_memory|kv_zipf>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the program's library from
src/ plus the perfbench binary) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild only
what changed. Build output goes to stderr. The binary's stdout is passed
through unchanged: its last line is the JSON result. With --trace 1 the span
trace is written to <build dir>/traces/<workload>-seed<n>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir], check=True,
                       stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_compute", "paper_memory", "kv_zipf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

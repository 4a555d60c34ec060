#!/usr/bin/env python3
"""Same-host interleaved A/B of the perfbench benchmark: base revision vs working tree.

Usage, from the root of the repository:

    python3 scripts/ab_bench.py [--base REF] [--workloads w1,w2] [--pairs N]
                                [--seconds S] [--seed N]
                                [--base-binary PATH --new-binary PATH]

The base side is `git merge-base REF HEAD` (REF defaults to HEAD, so an
uncommitted change is measured against its parent; after committing, pass
--base HEAD~1). Its tree is exported with `git archive` into a temporary
directory, so an interrupted run leaves nothing registered in the
repository. Each side is built by its own perfbench/run.py (one short
paper_compute run with CARGO_TARGET_DIR set to a per-side temporary
directory), and the binary it leaves there is what gets measured; the
temporary directory is removed at the end. No network access is needed.
--base-binary/--new-binary skip the builds and compare two prebuilt
perfbench binaries instead.

For each workload the two binaries run N pairs, alternating which side goes
first, each run for --seconds of host time. For every end-to-end metric of
BENCHMARK.json the script prints each side's median and quartiles, the
base's IQR (the noise band) and how many pairs the new side won, plus one
summary line in the format CHANGES.md uses:

    metric base → new (ratio; base IQR; wins/N)

A claimed gain on a metric holds when the new side wins at least 9 of 10
pairs and the median gap exceeds the base IQR. Every run must report
"correct": true and no failed job; sim_makespan_ms and sim_digest must match
between the sides, otherwise the script exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_compute", "paper_memory", "kv_zipf"]


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def build(source_root, target_dir):
    """Build <source_root>'s perfbench with its own run.py; return the binary path.

    run.py builds into $CARGO_TARGET_DIR/perfbench and then runs the
    benchmark; the shortest run it accepts is enough.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run([sys.executable, os.path.join(source_root, "perfbench", "run.py"),
                           "--workload", "paper_compute", "--seed", "0", "--seconds", "0.001",
                           "--trace", "0"], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"building {source_root}/perfbench failed:\n{done.stderr[-2000:]}")
    return os.path.join(target_dir, "perfbench", "perfbench")


def export_tree(rev, dest):
    """Write the tree of `rev` into `dest` (git archive | tar -x)."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(binary, workload, seed, seconds):
    """One perfbench run: (metrics dict, sim_digest line)."""
    out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RuntimeError(f"{binary} {workload}: correct={result.get('correct')} "
                           f"failed={result.get('failed')}")
    digest = next((l for l in lines if l.startswith("sim_digest")), "")
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, seed, pairs, seconds, metrics, base, new):
    print(f"\n{workload}, seed {seed}, {pairs} pairs x {seconds:g} s")
    print(f"  {'metric':<16} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32} "
          f"{'ratio':>7} {'base IQR':>9} {'new better':>10}")
    summary = []
    for name, better in metrics:
        b = [run[name] for run in base]
        n = [run[name] for run in new]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        wins = sum(1 for x, y in zip(b, n) if (y < x if better == "lower" else y > x))
        ratio = nmed / bmed if bmed else float("nan")
        iqr = bq3 - bq1
        resolved = wins >= 0.9 * pairs and abs(nmed - bmed) > iqr
        print(f"  {name:<16} {bmed:>12.4f} [{bq1:.4f}, {bq3:.4f}] "
              f"{nmed:>12.4f} [{nq1:.4f}, {nq3:.4f}] {ratio:>6.3f}x {iqr:>9.4f} "
              f"{wins:>4}/{pairs}{'  (resolved)' if resolved else ''}")
        summary.append(f"{name} {bmed:.4f} → {nmed:.4f} ({ratio:.3f}x; {iqr:.4f}; "
                       f"{wins}/{pairs})")
    print(f"  {workload}, {pairs} pairs × {seconds:g} s: " + ", ".join(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="base side: merge-base of this ref and HEAD (default HEAD)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--base-binary", help="prebuilt base perfbench (skips the build)")
    parser.add_argument("--new-binary", help="prebuilt new perfbench (skips the build)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two samples)")
    if bool(args.base_binary) != bool(args.new_binary):
        parser.error("--base-binary and --new-binary go together")
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            parser.error(f"unknown workload {w!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]

    tmp = tempfile.mkdtemp(prefix="ab_bench.")
    try:
        if args.base_binary:
            base_bin, new_bin = args.base_binary, args.new_binary
            print(f"base {base_bin}\nnew  {new_bin}")
        else:
            rev = git("merge-base", args.base, "HEAD")
            print(f"base {rev} (merge-base of {args.base} and HEAD)\nnew  working tree")
            tree = os.path.join(tmp, "base-tree")
            os.makedirs(tree)
            export_tree(rev, tree)
            base_bin = build(tree, os.path.join(tmp, "base-target"))
            new_bin = build(ROOT, os.path.join(tmp, "new-target"))

        mismatch = False
        for w in workloads:
            base, new = [], []
            digests = set()
            for i in range(args.pairs):
                order = [("base", base_bin), ("new", new_bin)]
                if i % 2 == 1:
                    order.reverse()
                for side, binary in order:
                    values, digest = run_once(binary, w, args.seed, args.seconds)
                    (base if side == "base" else new).append(values)
                    digests.add((side, digest))
            makespans = {r["sim_makespan_ms"] for r in base + new}
            if len(makespans) != 1 or len({d for _, d in digests}) != 1:
                mismatch = True
                print(f"\n{w}: sides disagree: sim_makespan_ms {sorted(makespans)}, "
                      f"digests {sorted(digests)}")
            report(w, args.seed, args.pairs, args.seconds, metrics, base, new)
        return 1 if mismatch else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

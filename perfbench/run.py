#!/usr/bin/env python3
"""Runs one workload of the optimizer benchmark.

    python3 perfbench/run.py --workload tpch-compile --seed 1 --seconds 20 --trace 0

Builds the program from source (see build.py), runs the workload in one JVM
and prints, as the last line of standard output, the result object
{"correct", "attempted", "failed", "metrics"}. The full result, with its run
header and counters, is written to perfbench/results/. Exits non-zero when an
output check fails or nothing could be measured.
"""
import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

import build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch-compile", "tpcds-large-plans", "tpcds-runtime")
RUN_TIMEOUT_S = 170

# Spark's JDK 17 module opens, as spark-submit passes them.
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def source_sha():
    h = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True)):
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        cp = build.build()
        java = build.java()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    local_dir = os.path.join(HERE, ".build", "spark-local")
    os.makedirs(local_dir, exist_ok=True)
    cmd = [java, "-Xms1536m", "-Xmx1536m", *JVM_OPENS,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-Dspark.local.dir=" + local_dir,
           "-Djava.io.tmpdir=" + local_dir,
           "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
           "--h.git_sha", git_sha(), "--h.source_sha256", source_sha()]
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_DIRS=local_dir)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=local_dir, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3

    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"[perfbench] no result (exit code {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    print(json.dumps(result))
    if not result["correct"] or proc.returncode != 0:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

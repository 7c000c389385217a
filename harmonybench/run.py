#!/usr/bin/env python3
"""Builds and runs the HarmonyBC benchmark (see README.md beside this file).

    python3 harmonybench/run.py --workload smallbank_ssd --seed 1 \
        --seconds 10 --trace 0

Builds the benchmark program from the checkout's sources (CMake, Release)
into $CARGO_TARGET_DIR (default .bench_build), runs the adapter test once
per build, then runs one workload. Human-readable lines come first; the
last stdout line is the JSON result. Exits non-zero, without a result line,
when the build or the adapter test fails or the run crashes; a failed
correctness check prints its result ("correct": false) and exits 1.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("smallbank_ssd", "ycsb_contended_mem", "smallbank_wire_cluster3")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def source_digest():
    """sha256 over the sources the benchmark is built from (the checkout is
    not necessarily a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "harmonybench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    """Configures and builds once per checkout; the adapter test gates it."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        binary = os.path.join(build_dir, "harmonybench")
        test = os.path.join(build_dir, "harmonybench_test")
        stamp = os.path.join(build_dir, "adapter_test.passed")
        if (not os.path.isfile(stamp)
                or os.path.getmtime(stamp) < os.path.getmtime(test)):
            # The test's scratch directories stay inside the build tree.
            tmp = os.path.join(build_dir, "tmp")
            os.makedirs(tmp, exist_ok=True)
            subprocess.run([test], stdout=sys.stderr, check=True,
                           timeout=RUN_TIMEOUT_S,
                           env=dict(os.environ, TMPDIR=tmp))
            with open(stamp, "w") as f:
                f.write("ok\n")
        return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    tdir = target_dir()
    try:
        binary = build(os.path.join(tdir, "harmonybench-cmake"))
    except (OSError, subprocess.SubprocessError) as e:
        log("harmonybench: build failed: %s" % e)
        return 1

    workdir = os.path.join(tdir, "harmonybench-work",
                           "%s-%d" % (args.workload, os.getpid()))
    context = json.dumps({"git_commit": git_commit(),
                          "source_sha256": source_digest()})
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--context", context]
    if args.trace:
        spans_dir = os.path.join(tdir, "harmonybench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, args.workload + ".spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        sys.stdout.write(out or "")
        log("harmonybench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        # A crashed run keeps its evidence but never ends with a result.
        sys.stdout.write(proc.stdout)
        log("harmonybench: run ended without a result (exit %d)"
            % proc.returncode)
        return proc.returncode or 1
    # A failed correctness check still prints its result ("correct": false)
    # and exits non-zero.
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

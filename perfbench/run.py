#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

usage: python3 perfbench/run.py --workload solve_n7_large|ranks_n3_3d|service_mix
                                --seed N --seconds S --trace 0|1 [--tiny] [--perturb]

Run from the repository root.  The first run configures and builds the
perfbench package (this directory's CMakeLists.txt, which compiles ../src)
into $CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed.  The last line of standard output is the result JSON; the exit code
is perfbench's (0 only when every output matched its oracle).  See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_n7_large", "ranks_n3_3d", "service_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def git_sha():
    """HEAD of the checkout's own .git, read without running git; else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build():
    """Configures (once) and builds perfbench; returns the binary path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print(f"perfbench: no sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_checked(configure, BUILD_TIMEOUT_S):
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    if not run_checked(["cmake", "--build", out, "--parallel", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--perturb", action="store_true",
                        help="flip one bit of one result before its oracle check")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

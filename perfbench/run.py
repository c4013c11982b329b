#!/usr/bin/env python3
"""Builds the osp library and the benchmark binary from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository: everything is built
under .bench_build/ at the checkout root, and nothing is read or written
outside the checkout.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are the host manifest and a run summary.  Workloads and metrics are
described in perfbench/NOTES.md.

--selftest runs every workload briefly against a deliberately wrong
reference and exits 0 only if every one of them reports failed operations:
the proof that the per-operation output check is live.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "osp_perfbench")
WORKLOADS = ("pack-overload", "serve-steady", "route-overload")
BUILD_JOBS = "2"
BUILD_TIMEOUT_S = 840
# A run may take --seconds of operations plus its set-up rounds and the
# untimed reference pass; this allowance covers the slowest workload's.
SETUP_ALLOWANCE_S = 150
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (first run only) and builds the benchmark; build output
    goes to stderr so stdout stays the benchmark's own."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no osp source tree (CMakeLists.txt, src/) at " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "osp_perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when the checkout is a git work tree, else a SHA-1
    over the library sources and build file (a checkout exported without
    .git still gets a stable identity)."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        lines = top.stdout.split()
        if (top.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git " + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha1 " + digest.hexdigest()


def run_binary(args, extra=()):
    """Runs the benchmark binary; returns (stdout lines, parsed result)."""
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd.extend(extra)
    timeout_s = args.seconds + SETUP_ALLOWANCE_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload %s did not finish within %d s"
             % (args.workload, timeout_s))
    if proc.returncode != 0:
        fail("benchmark binary exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark binary printed no result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1])
    return lines, result


def selftest():
    """Every workload must report failures against a corrupted reference."""
    ok = True
    for name in WORKLOADS:
        args = argparse.Namespace(workload=name, seed=1, seconds=1, trace=0)
        _, result = run_binary(args, ["--corrupt-reference"])
        live = (not result["correct"] and result["attempted"] >= 1
                and result["failed"] == result["attempted"])
        ok = ok and live
        print("%-15s attempted=%d failed=%d -> %s"
              % (name, result["attempted"], result["failed"],
                 "check is live" if live else "CHECK NOT LIVE"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")

    build()
    if args.selftest:
        return selftest()
    extra = []
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra = ["--spans", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    lines, _ = run_binary(args, extra)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep-ilp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the modsched libraries from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench under the current
directory, then runs the benchmark binary. Build output goes to stderr; the
binary's last stdout line is the JSON result.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr():
    """Runs in the child before exec: disable address-space randomization
    for the benchmark process, which narrows run-to-run spread. The host
    block reports whether it took effect."""
    try:
        libc = ctypes.CDLL(None)
        cur = libc.personality(0xFFFFFFFF)
        if cur != -1:
            libc.personality(cur | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              preexec_fn=no_aslr).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(bdir, "perfbench")
    if args.list_metrics:
        return run([exe, "--list-metrics"])
    if args.selftest:
        return run([os.path.join(bdir, "perfbench_selftest")])
    if not args.workload:
        ap.error("--workload is required")
    gate = os.path.join(bdir, "gate")
    os.makedirs(gate, exist_ok=True)
    return run([exe, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--reference", os.path.join(HERE, "reference", "loops.tsv"),
                "--gate-dir", gate])


if __name__ == "__main__":
    sys.exit(main())

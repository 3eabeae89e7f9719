#!/usr/bin/env python3
"""Builds and runs one workload of the dSDN end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--variant all_strict|incremental_te]
    python3 perfbench/run.py --selftest [--seed <n>]

The benchmark is built from source (perfbench/CMakeLists.txt, which pulls
in ../src) into the directory named by CARGO_TARGET_DIR, or .bench_build
when that is unset, as an optimised Release build. Build output goes to
standard error; the benchmark's own output goes to standard output, whose
last line is the JSON result. A traced run (--trace 1) also writes its
per-layer JSON and chrome trace under <build dir>/perfbench-out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no dsdn sources (src/) next to perfbench/; nothing to build")
        return None
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode:
        log("build failed")
        return None
    exe = os.path.join(bdir, "dsdn_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--variant", choices=("all_strict", "incremental_te"),
                    help="reference variant for the README figures")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1

    if args.selftest:
        cmd = [exe, "--selftest", "--seed", str(args.seed)]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.variant:
            cmd += ["--variant", args.variant]
        if args.trace:
            out_dir = os.path.join(build_dir(), "perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())

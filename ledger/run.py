#!/usr/bin/env python3
"""Layer-ledger benchmark: builds ledger_bench from source and runs one workload.

    python3 ledger/run.py --workload mapper_k6 --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/ledger
(default .bench_build/ledger) as a Release (NDEBUG) build; build output goes
to stderr. Scratch files of the run live under <build>/work/ and are removed
afterwards; the span file of the last traced run of each workload stays in
<build>/work/traces/<workload>.tsv. The last line of stdout is the result JSON
printed by ledger_bench; the exit code is ledger_bench's.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mapper_k6", "orbit_n6", "orbit_n7", "ingest_n6"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"ledger: {message}", file=sys.stderr)
    return 2


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "ledger"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ledger_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "facet", "facet.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"library source {needed} not found next to ledger/")

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    build_dir = os.path.join(out_root, "ledger")
    if not build(build_dir):
        return fail("build failed")

    work_root = os.path.join(build_dir, "work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "ledger_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir,
               "--source-digest", source_digest(), "--git-commit", git_commit()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"ledger_bench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

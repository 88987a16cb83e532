#!/usr/bin/env python3
"""Builds and runs the Serve-path benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 10 --trace 0

Builds the library and the perfbench binary from source (Release) into the
directory named by CARGO_TARGET_DIR (default `.bench_build`, relative to the
repository root), then runs it. Its last line of standard output is
the result JSON; build output goes to standard error.

Extra modes for people, not for the recorded runs:
  --workload all          runs every workload in turn
  --check-determinism     runs the workload twice on one seed and compares
                          route shares, ccp-pair totals and plan_cost_vs_goo
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-mix", "hot-zipf", "dense-parallel"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the perfbench binary; returns its path or None."""
    configured = any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so a record names the
    code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, stamp, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-commit", stamp[0], "--source-digest", stamp[1]]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), f"spans-{workload}.tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def deterministic_block(lines):
    for line in lines:
        if line.startswith("{") and '"deterministic"' in line:
            return json.loads(line)["deterministic"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        log("build failed")
        return 1
    stamp = (git_commit(), source_digest())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    if args.check_determinism:
        ok = True
        for w in workloads:
            blocks = []
            for _ in range(2):
                code, lines = run_workload(binary, w, args.seed, args.seconds, 0, stamp, echo=False)
                blocks.append(deterministic_block(lines) if code == 0 else None)
            same = blocks[0] is not None and blocks[0] == blocks[1]
            ok = ok and same
            print(f"{w} seed={args.seed}: {'identical' if same else 'DIFFERENT'} {json.dumps(blocks[0])}")
        return 0 if ok else 1

    status = 0
    for w in workloads:
        code, _ = run_workload(binary, w, args.seed, args.seconds, args.trace, stamp)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())

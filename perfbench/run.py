#!/usr/bin/env python3
"""Build and run the repository's benchmark (perfbench).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench and the simulator libraries
it links (Release) in $CARGO_TARGET_DIR, or .bench_build/ when that is
unset; later calls rebuild incrementally. The benchmark's stdout passes
through unchanged, and its last line is the JSON result. If the build fails,
this exits non-zero without printing a result.

--self-test builds, runs every workload at smoke size with and without
tracing, and checks that every metric BENCHMARK.json names is printed with
its unit, that the run's output checks pass, and that two processes given
the same seed print the same outcome digest.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# clos_rpc is not one of BENCHMARK.json's workloads (see perfbench.cc), but the
# self-test keeps checking it.
WORKLOADS = ["clos_bulk", "netfpga_reorder", "clos_rpc"]


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run(binary, args):
    proc = subprocess.run([binary] + args, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
                    "--smoke"]
            digests = []
            for _ in range(2):
                code, out = run(binary, args)
                tag = f"{workload} --trace {trace}"
                if code != 0:
                    failures.append(f"{tag}: exit {code}")
                    continue
                result = json.loads(out.strip().splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    failures.append(f"{tag}: result keys {sorted(result)}")
                if not result.get("correct") or result.get("attempted", 0) < 1:
                    failures.append(f"{tag}: outputs not correct")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    failures.append(f"{tag}: metrics {got} != {want}")
                for name in want:
                    if not re.search(rf"^  {re.escape(name)} ", out, re.M):
                        failures.append(f"{tag}: {name} not in the printed table")
                digests.append(re.search(r"^outcome digest (\w+)", out, re.M).group(1))
            if len(digests) == 2 and digests[0] != digests[1]:
                failures.append(f"{workload} --trace {trace}: digest {digests[0]} != {digests[1]}")
            print(f"{workload} --trace {trace}: digests {digests}")
    for f in failures:
        print("FAIL:", f)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:] + ["--commit", commit_id()]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository's sort benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The first form builds perfbench/ (a
CMake package compiling the library sources from src/) into
.bench_build/, runs one workload, and prints its metrics; the last
stdout line is the JSON result.  Input, output, spill and trace files
go to .bench_work/.  --self-test checks that a corrupted output makes
a run fail.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD_DIR / "sortbench"
# A run must end within 180 s; leave the rest for the build check.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "sorter" / "sorters.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("build failed: " + " ".join(cmd))


def run_bench(args):
    """Run the binary; return (exit code, stdout lines)."""
    cmd = [str(BINARY)] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(opts):
    build()
    code, lines = run_bench([
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    result = parse_result(lines)
    if result is None:
        fail(f"benchmark exited with {code} and no result", code or 2)
    want = declared_metrics(opts.trace == 1)
    if list(result["metrics"]) != want:
        fail(f"benchmark reported {list(result['metrics'])}, "
             f"BENCHMARK.json declares {want}")
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(code)


def self_test():
    """A clean small run passes; a dropped or swapped output record
    makes the run report correct=false and exit non-zero."""
    build()
    ok = True
    for workload in ("inmem_sort", "extsort_file"):
        for corrupt in (None, "drop", "swap"):
            args = ["--workload", workload, "--seed", "1", "--seconds",
                    "0.1", "--trace", "0", "--records", "20000"]
            if corrupt:
                args += ["--corrupt", corrupt]
            code, lines = run_bench(args)
            result = parse_result(lines)
            correct = result is not None and result["correct"]
            expected = corrupt is None
            passed = correct == expected and (code == 0) == expected
            ok = ok and passed
            print(f"{workload:16} corrupt={corrupt or 'none':5} exit={code} "
                  f"correct={correct}  {'ok' if passed else 'WRONG'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["inmem_sort", "extsort_file",
                                 "extsort_durable"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        self_test()
    if None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    measure(opts)


if __name__ == "__main__":
    main()

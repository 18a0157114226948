#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <jacobi|tealeaf|corpus|dpor> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the checker libraries and the
benchmark binary from source (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the arithmetic self-test, then runs
the benchmark binary, whose stdout is passed through; its last line is the JSON
result. Build output goes to stderr. Exits non-zero, without a result, when
the checker sources are missing or the build or self-test fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    built = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "perfbench_selftest",
         "-j", jobs],
        stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    if subprocess.run([str(build_dir / "perfbench_selftest"), str(build_dir)],
                      stdout=sys.stderr).returncode != 0:
        fail("perfbench_selftest failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["jacobi", "tealeaf", "corpus", "dpor"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no checker source tree next to {HERE.name}/ (expected {ROOT}/src)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    build(build_dir)

    sys.stdout.flush()
    result = subprocess.run(
        [str(build_dir / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans-dir", str(build_dir)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        return result.returncode

    # The printed metric set must be exactly the one BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[section]}
    printed = json.loads(result.stdout.strip().splitlines()[-1])["metrics"]
    got = {name: m["unit"] for name, m in printed.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        print(f"perfbench: metrics differ from BENCHMARK.json {section}: missing {missing}, "
              f"extra {extra}, or units differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds N --trace 0|1
    python3 bench/e2e/run.py --smoke

The binary is built in .bench_build/e2e under the checkout root (configured
on the first run, incremental afterwards; build output goes to stderr). All
arguments are passed to bench_e2e unchanged. Its standard output is passed
through, so the last line is the result JSON; the metric names and units in
that result are then checked against BENCHMARK.json. The exit status is
bench_e2e's, or 1 when the build or that check fails.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: {cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS, "--target", "bench_e2e"])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")


def check_against_benchmark_json(result_line, traced):
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    printed = {name: m["unit"] for name, m in json.loads(result_line)["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {units}"
    return None


def main():
    args = sys.argv[1:]
    build()
    code, out = run([str(BUILD / "bench_e2e"), *args], RUN_TIMEOUT_S,
                    stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or "--smoke" in args:
        return code
    lines = out.strip().splitlines()
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    problem = check_against_benchmark_json(lines[-1], traced) if lines else "no result line"
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""evc-perf: build the benchmark from source, run one workload, check names.

Run from the repository root:

  python3 perfbench/run.py --workload quorum-ycsb-a --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) in
.bench_build/perfbench; later calls rebuild only what changed. The last
line of stdout is the benchmark's JSON result. The run fails (non-zero exit)
when the build fails, when the binary fails its correctness gate or
determinism fingerprint, or when the metric names and units it prints
differ from BENCHMARK.json.

--self-test runs the gate's unit checks, a short run of every workload in
both modes (names checked against BENCHMARK.json), and a run with a planted
stale read that must fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "--parallel", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout lines, result or None)."""
    cmd = [str(BUILD / "evc_perf"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans-out", str(BUILD / f"spans-{workload}-{seed}.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def names_problem(result, trace):
    """Empty when the printed metrics are exactly BENCHMARK.json's."""
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got == want:
        return ""
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
    return f"metric mismatch: missing {missing} extra {extra} units {units}"


def self_test():
    ok = True

    def expect(cond, what):
        nonlocal ok
        log(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    selftest = subprocess.run([str(BUILD / "evc_perf_selftest")],
                              stdout=sys.stderr, cwd=ROOT)
    expect(selftest.returncode == 0, "gate unit checks")
    workloads = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            code, _, result = run_workload(workload, 1, 1, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and not names_problem(result, trace),
                   f"{workload} --trace {trace} prints BENCHMARK.json's metrics")
    for workload in ("quorum-ycsb-a", "edge-ycsb-b"):
        code, _, result = run_workload(workload, 1, 1, 0,
                                       ("--plant", "stale-read"))
        expect(code != 0 and result is not None and not result["correct"],
               f"{workload} with a planted stale read fails")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not SPEC.is_file():
        log(f"missing {SPEC}")
        return 2
    if not build():
        return 1
    if args.self_test:
        return self_test()

    code, lines, result = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace)
    if code != 0 or result is None:
        print("\n".join(lines), file=sys.stderr)
        log(f"evc_perf exited {code}")
        return code or 1
    problem = names_problem(result, args.trace)
    if problem:
        log(problem)
        return 3
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

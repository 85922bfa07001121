#!/usr/bin/env python3
"""Build and run the FedSZ round benchmark.

    python3 roundbench/run.py --workload flat_sync --seed 1 --seconds 20 --trace 0
    python3 roundbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library, the edge worker and the benchmark under .bench_build/roundbench
(Release, 4 jobs); later calls rebuild incrementally. The benchmark binary
prints one line per metric; this script adds the checks that span runs —
deterministic outputs must repeat exactly for a seed — and prints, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Exits 1 when an output check fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "roundbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "roundbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
EXPECT_DIR = os.path.join(BUILD_DIR, "expect")
WORKLOADS = ("flat_sync", "codec_ingest", "tcp_hier")
JOBS = "4"
# The benchmark binary's own time limit. The build before it is not
# counted: a first run in a fresh checkout may build for several minutes.
RUN_DEADLINE_S = 170.0
RESULT_PREFIX = "ROUNDBENCH_RESULT "


def fail(message, code=1):
    print("roundbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no FedSZ sources at %s/src: nothing to build" % ROOT, 2)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step), 2)


def run_child(argv, timeout):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark run exceeded %.0f s" % timeout)
    return proc.returncode, out


def check_determinism(result, record):
    """Compare the deterministic per-round outputs with an earlier run at
    the same workload and seed (over the rounds both ran); when `record`
    (the run passed its own checks) and they agree, keep the longer record.
    Returns a list of mismatch messages."""
    os.makedirs(EXPECT_DIR, exist_ok=True)
    path = os.path.join(EXPECT_DIR, "%s-seed%d.json" % (result["workload"],
                                                         result["seed"]))
    current = result["deterministic"]
    problems = []
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        for key, values in current.items():
            before = earlier.get(key, [])
            n = min(len(values), len(before))
            if values[:n] != before[:n]:
                problems.append("deterministic output %s differs from an "
                                "earlier run at this seed" % key)
        if not problems and all(len(earlier.get(k, [])) >= len(v)
                                for k, v in current.items()):
            return problems
    if record and not problems:
        with open(path, "w") as f:
            json.dump(current, f)
    return problems


def contract_metrics(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in result["metrics"]:
            fail("benchmark did not report metric " + name)
        value = result["metrics"][name]["value"]
        if value is None:
            fail("metric %s is not a finite number" % name)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def selftest():
    build()
    code, out = run_child([os.path.join(BUILD_DIR, "roundbench_selftest")], 60)
    sys.stdout.write(out)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the arithmetic self-test")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    build()
    argv = [os.path.join(BUILD_DIR, "roundbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--worker", os.path.join(BUILD_DIR, "fedsz_edge_worker")]
    code, out = run_child(argv, RUN_DEADLINE_S)
    lines = out.splitlines()
    results = [l for l in lines if l.startswith(RESULT_PREFIX)]
    for line in lines:
        if not line.startswith(RESULT_PREFIX):
            print(line)
    if not results:
        fail("benchmark exited with %d and no result" % code)
    result = json.loads(results[-1][len(RESULT_PREFIX):])

    own_checks_passed = code == 0 and not result["problems"]
    problems = list(result["problems"]) + check_determinism(
        result, own_checks_passed)
    for problem in problems[len(result["problems"]):]:
        print("%s CHECK FAILED: %s" % (args.workload, problem))
    correct = code == 0 and not problems and result["failed"] == 0
    os.makedirs(RESULTS_DIR, exist_ok=True)
    result["correct"] = correct
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": contract_metrics(result, args.trace)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

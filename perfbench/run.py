#!/usr/bin/env python3
"""tapo end-to-end benchmark: build, run one workload or all, check outputs.

One workload, one run:

    python3 perfbench/run.py --workload plan-500 --seed 7 --seconds 20 --trace 0

builds the benchmark (perfbench/CMakeLists.txt, which compiles libtapo from
src/) into .bench_build/perfbench, runs the plan-path fidelity test, runs the
workload in its own process and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (see perfbench/README.md).

Every workload, both modes, with a table of every metric:

    python3 perfbench/run.py --all [--seconds 20] [--seed 1] [--holdout]

exits 1 if any output check fails: an operation failed or its plan did not
verify, a deterministic reward differs between passes or from its recorded
value in perfbench/expected.json, or the fidelity test diverged.

--holdout plans each workload's hold-out park instead of its usual one, for
re-checking a performance claim on a park not used while making it.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["plan-500", "route-storm-300", "recover-150", "fig6-150"]
RUN_TIMEOUT_S = 170
# Recorded rewards are compared with this relative tolerance: the plans are
# deterministic, the slack only absorbs printing and parsing.
REWARD_RTOL = 1e-9


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the tapo sources (src/) are missing next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def binary(name):
    return os.path.join(BUILD_DIR, name)


def fidelity_ok():
    result = subprocess.run([binary("perfbench_fidelity")], stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S)
    return result.returncode == 0


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def check_recorded(workload, report, expected):
    """True when the deterministic rewards match their recorded values."""
    recorded = expected.get(workload, {}).get(str(report["park_seed"]))
    if recorded is None:
        log(f"perfbench: no recorded rewards for {workload} "
            f"park seed {report['park_seed']}")
        return False
    ok = True
    for name, want in recorded.items():
        got = report["checks"][name]
        if not math.isclose(got, want, rel_tol=REWARD_RTOL, abs_tol=0.0):
            log(f"perfbench: {workload} {name} = {got!r}, recorded {want!r}")
            ok = False
    return ok


def run_workload(workload, seed, seconds, trace, holdout, expected):
    """Runs one workload in its own process; returns the result object."""
    fidelity = fidelity_ok()
    if not fidelity:
        log("perfbench: the staged plan path diverged from the library")
    cmd = [binary("tapo_perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if holdout:
        cmd.append("--holdout")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    correct = (report["correct"] and fidelity and
               check_recorded(workload, report, expected))
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }


def run_all(args, expected):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  args.holdout, expected)
            mode = "per-layer (traced)" if trace else "end-to-end"
            print(f"{workload} {mode}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
            ok = ok and result["correct"]
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--holdout", action="store_true")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or (args.workload is None) != args.all:
        parser.error("give --workload (with --seed/--seconds/--trace) or --all")

    if not build():
        log("perfbench: build failed")
        return 2
    expected = load_expected()
    if args.all:
        return run_all(args, expected)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.holdout, expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

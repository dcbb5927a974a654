#!/usr/bin/env python3
"""Builds and runs the in-process oocq service benchmark.

One measured run (the last stdout line is the result JSON):

    python3 servicebench/run.py --workload decide_cold --seed 1 --seconds 20 --trace 0

Steadiness check: one workload, one seed, two alternating sets of runs,
plus an optional second seed (prints a markdown table):

    python3 servicebench/run.py steady --workload eval_scan --seed 1 --runs 5 --second-seed 2

The benchmark is built from ../src with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; prepared catalogs, per-run data
directories and trace files live there too.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["decide_cold", "decide_hot", "eval_scan", "catalog_churn"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "servicebench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    build_dir = os.path.join(work_dir(), "build")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "servicebench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "servicebench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def prepare(binary, workload):
    """Writes the workload's catalog once per build of the binary."""
    data = os.path.join(work_dir(), "data")
    info = os.stat(binary)
    stamp = "%d:%d" % (info.st_size, info.st_mtime_ns)
    stamp_path = os.path.join(data, "prepared", workload + ".stamp")
    if os.path.isdir(os.path.join(data, "prepared", workload)):
        try:
            with open(stamp_path) as f:
                if f.read() == stamp:
                    return data
        except OSError:
            pass
    result = subprocess.run([binary, "prepare", "--workload", workload, "--dir", data],
                            stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if result.returncode != 0:
        return None
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return data


def run_once(binary, data, workload, seed, seconds, trace, sha):
    """One measured run; returns (exit code, stdout text)."""
    command = [binary, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--dir", data,
               "--git-sha", sha]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("servicebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return result.returncode, result.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def setup(workload):
    binary = build()
    if binary is None:
        log("servicebench: build failed")
        sys.exit(1)
    data = prepare(binary, workload)
    if data is None:
        log("servicebench: prepare failed")
        sys.exit(1)
    return binary, data


def measure(binary, data, workload, seed, seconds, sha):
    code, out = run_once(binary, data, workload, seed, seconds, 0, sha)
    result = result_of(out) if code == 0 else None
    if result is None or not result["correct"]:
        log(out)
        sys.exit("servicebench: run failed (workload %s seed %d)" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def steady(args):
    """Two alternating same-seed sets A and B, plus an optional set on a
    second seed. The sets take turns within every round, and the order
    rotates from round to round, so host drift reaches all of them."""
    binary, data = setup(args.workload)
    sha = git_sha()
    seeds = {"A": args.seed, "B": args.seed}
    if args.second_seed is not None:
        seeds["C"] = args.second_seed
    names = list(seeds)
    sets = {name: [] for name in names}
    for i in range(args.runs):
        for name in names[i % len(names):] + names[:i % len(names)]:
            sets[name].append(measure(binary, data, args.workload, seeds[name],
                                      args.seconds, sha))
    second = sets.get("C", [])
    print("workload `%s`, seed %d, %d runs per set, %d s per run\n"
          % (args.workload, args.seed, args.runs, args.seconds))
    header = "| metric | median A | median B | IQR/med A | IQR/med B | B vs A |"
    rule = "|---|---|---|---|---|---|"
    if second:
        header += " seed %d median | vs seed %d |" % (args.second_seed, args.seed)
        rule += "---|---|"
    print(header)
    print(rule)
    for metric in sets["A"][0]:
        a = [run[metric] for run in sets["A"]]
        b = [run[metric] for run in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        row = "| %s | %.6g | %.6g | %.3f | %.3f | %+.3f |" % (
            metric, ma, mb, spread(a), spread(b), (mb - ma) / ma if ma else 0.0)
        if second:
            base = statistics.median(a + b)
            ms = statistics.median([run[metric] for run in second])
            row += " %.6g | %+.3f |" % (ms, (ms - base) / base if base else 0.0)
        print(row)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        parser = argparse.ArgumentParser(prog="run.py steady")
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seconds", type=int, default=20)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--runs", type=int, default=5)
        parser.add_argument("--second-seed", type=int)
        steady(parser.parse_args(sys.argv[2:]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary, data = setup(args.workload)
    code, out = run_once(binary, data, args.workload, args.seed, args.seconds,
                         args.trace, git_sha())
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

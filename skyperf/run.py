#!/usr/bin/env python3
"""Builds and runs the repository benchmark, skyperf.

Run from the repository root:

  python3 skyperf/run.py --workload fleet_sharded --seed 1 --seconds 10 --trace 0
  python3 skyperf/run.py --self-check

The first form builds skyperf (CMake, Release, into .bench_build/skyperf)
and runs one workload. It passes the workload's SLO limits from
skyperf/spec.json to the binary and forwards its report. The last line of
stdout is the result object. The exit code is the binary's: nonzero when an
outcome digest or a workload-validity check fails.

--self-check runs every workload of BENCHMARK.json for one second with
--trace 0 and --trace 1. It asserts that each run passes its checks and
prints exactly the metrics BENCHMARK.json names, each with its unit. It also
asserts that skyperf/spec.json documents every workload and metric.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "skyperf")
BINARY = os.path.join(BUILD_DIR, "skyperf")
SPEC = os.path.join(HERE, "spec.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr; True on success."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        log(result.stdout)
        log("skyperf: build step failed: " + " ".join(cmd))
    return result.returncode == 0


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(configure):
            return False
    jobs = str(os.cpu_count() or 1)
    if run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs]):
        return True
    # A cache from another checkout location cannot be reused: start over.
    log("skyperf: rebuilding from a clean build directory")
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return run_quiet(configure) and run_quiet(
        ["cmake", "--build", BUILD_DIR, "-j", jobs])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def skyperf_command(spec, workload, seed, seconds, trace):
    limits = spec["workloads"].get(workload)
    if limits is None:
        return None
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--slo-ttft-s", str(limits["slo_ttft_s"]),
            "--slo-tpot-ms", str(limits["slo_tpot_ms"])]


def run_one(args):
    spec = load_json(SPEC)
    cmd = skyperf_command(spec, args.workload, args.seed, args.seconds,
                          args.trace)
    if cmd is None:
        log("skyperf: unknown workload '%s'" % args.workload)
        return 2
    if not build():
        return 1
    return subprocess.run(cmd, cwd=ROOT).returncode


def check_documented(spec, bench, problems):
    for w in bench["workloads"]:
        entry = spec["workloads"].get(w["name"])
        if entry is None:
            problems.append("spec.json lacks workload " + w["name"])
            continue
        for key in ("why", "loop", "clients_per_instance", "instances",
                    "clock", "slo_ttft_s", "slo_tpot_ms", "loads",
                    "bypasses"):
            if key not in entry:
                problems.append("spec.json workload %s lacks %s"
                                % (w["name"], key))
    names = {w["name"] for w in bench["workloads"]}
    for m in bench["end_to_end"]:
        entry = spec["end_to_end"].get(m["name"])
        if entry is None or "kind" not in entry or "layer" not in entry:
            problems.append("spec.json lacks kind/layer of " + m["name"])
    e2e = {m["name"] for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        entry = spec["per_layer"].get(m["name"])
        if entry is None or "layer" not in entry or not entry.get("moves"):
            problems.append("spec.json lacks layer/moves of " + m["name"])
            continue
        for move in entry["moves"]:
            if move.get("metric") not in e2e or move.get("workload") not in names:
                problems.append("spec.json: %s moves unknown %s"
                                % (m["name"], move))


def self_check(args):
    bench = load_json(BENCHMARK)
    spec = load_json(SPEC)
    problems = []
    check_documented(spec, bench, problems)
    if not build():
        return 1
    for w in bench["workloads"]:
        name = w["name"]
        if name not in spec["workloads"]:
            continue  # Reported by check_documented.
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = skyperf_command(spec, name, args.seed, args.seconds, trace)
            result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                    text=True)
            print(result.stdout, end="", flush=True)
            where = "%s --trace %d" % (name, trace)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                problems.append("%s exited %d" % (where, result.returncode))
                continue
            out = json.loads(lines[-1])
            if not out["correct"] or out["attempted"] < 1:
                problems.append("%s reported incorrect output" % where)
            printed = {k: v["unit"] for k, v in out["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in bench[group]}
            for metric, unit in wanted.items():
                if printed.get(metric) != unit:
                    problems.append("%s: %s printed with unit %r, want %r"
                                    % (where, metric, printed.get(metric),
                                       unit))
            for metric in set(printed) - set(wanted):
                problems.append("%s prints %s, which BENCHMARK.json lacks"
                                % (where, metric))
            shape = re.search(r"instances=(\d+) clients/instance=(\d+)",
                              result.stdout)
            entry = spec["workloads"][name]
            if shape is None or (int(shape.group(1)), int(shape.group(2))) != (
                    entry["instances"], entry["clients_per_instance"]):
                problems.append("%s: instances/clients differ from spec.json"
                                % where)
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check: %s" % ("all passed" if not problems else "FAILED"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.self_check else 10
    if args.self_check:
        return self_check(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

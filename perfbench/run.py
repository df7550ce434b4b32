#!/usr/bin/env python3
"""Build and run the locmm benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds the benchmark binary (perfbench/CMakeLists.txt, into
.bench_build/perfbench) from the repository sources, runs one workload,
checks the metrics it reports against BENCHMARK.json -- the one list of
metric names and units -- and prints every metric by name with its unit,
then, as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end set, with
--trace 1 the per-layer set, where a layer the workload never calls reads 0;
a traced run also dumps its spans as CSV under .bench_build/perfbench/traces/.

--selftest runs every workload at tiny sizes, traced and untraced, and checks
that each metric BENCHMARK.json names is emitted with its unit.

Exit code 0 means a result was printed; any failure to build or run exits
non-zero without printing one.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    steps = [["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def run_binary(args):
    """Runs the benchmark binary; returns its parsed result, or None."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("run failed: %s" % e)
        return None
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        log("run exited with code %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not JSON")
        return None
    if (sorted(result) != ["attempted", "correct", "failed", "metrics"]
            or not isinstance(result["metrics"], dict)
            or result["attempted"] < 1):
        log("result is malformed")
        return None
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, declared, end_to_end):
    """Checks a result's metrics against the declared set and returns the
    problems found.  A per-layer metric a workload does not report is a
    layer it never calls: it is filled in as 0.  Every end-to-end metric
    must be reported, finite and nonzero."""
    problems = []
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(got) - set(units)):
        problems.append("undeclared metric %s" % name)
    for name, unit in units.items():
        entry = got.get(name)
        if entry is None:
            if end_to_end:
                problems.append("missing %s" % name)
            else:
                got[name] = {"value": 0.0, "unit": unit}
        elif entry.get("unit") != unit:
            problems.append("%s has unit %s, declared %s" %
                            (name, entry.get("unit"), unit))
        elif not math.isfinite(entry.get("value", float("nan"))):
            problems.append("%s is not finite" % name)
        elif end_to_end and entry["value"] == 0:
            problems.append("%s is 0" % name)
    result["metrics"] = {name: got[name] for name in sorted(got)}
    return problems


def selftest():
    """Tiny runs of every workload; checks each declared metric is emitted."""
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--tiny"]
            result = run_binary(args)
            tag = "%s trace=%s" % (w["name"], trace)
            if result is None:
                problems.append(tag + ": no result")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(tag + ": outputs failed their oracle")
            reported = len(result["metrics"])
            problems += [tag + ": " + p
                         for p in complete(result, declared, trace == "0")]
            print("selftest %-30s %d metrics reported" % (tag, reported))
    for p in problems:
        print("selftest FAILED: " + p)
    print("selftest %s" % ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 1
    if a.selftest:
        return selftest()

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            repr(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%d.csv" % (a.workload, a.seed))]
    result = run_binary(args)
    if result is None:
        return 1
    spec = load_spec()
    declared = spec["per_layer"] if a.trace == "1" else spec["end_to_end"]
    problems = complete(result, declared, a.trace == "0")
    if problems:
        for p in problems:
            log(p)
        return 1
    print("workload %s seed %d trace %s: attempted %d failed %d" %
          (a.workload, a.seed, a.trace, result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        print("  %-30s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
